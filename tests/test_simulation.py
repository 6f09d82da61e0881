"""Integration-level tests of the online NFV simulation."""

import pytest

from repro.baselines.greedy import GreedyNearestPolicy
from repro.baselines.random_policy import RandomPlacementPolicy
from repro.nfv.placement import Placement
from repro.sim.simulation import (
    NFVSimulation,
    PlacementPolicy,
    SimulationConfig,
    run_policy_comparison,
)
from tests.conftest import build_request


class AcceptFirstNodePolicy(PlacementPolicy):
    """Test policy: always place every VNF on a fixed node."""

    name = "fixed"

    def __init__(self, node_id: int):
        self.node_id = node_id

    def place(self, request, network):
        assignment = [self.node_id] * request.num_vnfs
        placement = Placement.build(request, assignment, network)
        return placement if placement.is_feasible(network) else None


class RejectAllPolicy(PlacementPolicy):
    """Test policy: reject everything."""

    name = "reject_all"

    def place(self, request, network):
        return None


class TestSimulationLifecycle:
    def test_accepted_requests_release_after_departure(self, small_network, catalog):
        requests = [
            build_request(catalog, source=0, arrival=1.0, holding=5.0),
            build_request(catalog, source=0, arrival=2.0, holding=5.0),
        ]
        simulation = NFVSimulation(
            small_network,
            AcceptFirstNodePolicy(1),
            SimulationConfig(horizon=50.0, monitoring_interval=10.0),
        )
        result = simulation.run(requests)
        assert result.summary.accepted_requests == 2
        # After the horizon all departures have been processed.
        assert small_network.total_used().is_zero()
        assert small_network.link(0, 1).used_bandwidth == 0.0

    def test_reject_all_policy(self, small_network, catalog):
        requests = [build_request(catalog, arrival=float(i + 1)) for i in range(5)]
        simulation = NFVSimulation(small_network, RejectAllPolicy(), SimulationConfig(horizon=20.0))
        result = simulation.run(requests)
        assert result.summary.accepted_requests == 0
        assert result.summary.rejected_requests == 5
        assert result.summary.acceptance_ratio == 0.0

    def test_capacity_exhaustion_causes_rejections(self, small_network, catalog):
        # Node 1 has 8 CPUs; each request needs ~3.5 CPU there, and holding
        # times are long, so only the first two of five fit simultaneously.
        requests = [
            build_request(catalog, source=0, arrival=float(i + 1), holding=100.0, bandwidth=100.0)
            for i in range(5)
        ]
        simulation = NFVSimulation(
            small_network, AcceptFirstNodePolicy(1), SimulationConfig(horizon=50.0)
        )
        result = simulation.run(requests)
        assert 0 < result.summary.accepted_requests < 5
        assert result.summary.rejected_requests == 5 - result.summary.accepted_requests

    def test_resources_freed_allow_later_acceptance(self, small_network, catalog):
        # Two heavy requests that cannot coexist, but do not overlap in time.
        requests = [
            build_request(catalog, source=0, arrival=1.0, holding=5.0, bandwidth=300.0),
            build_request(catalog, source=0, arrival=50.0, holding=5.0, bandwidth=300.0),
        ]
        simulation = NFVSimulation(
            small_network, AcceptFirstNodePolicy(1), SimulationConfig(horizon=100.0)
        )
        result = simulation.run(requests)
        assert result.summary.accepted_requests == 2

    def test_metrics_recorded_for_accepted(self, small_network, catalog):
        requests = [build_request(catalog, source=0, arrival=1.0)]
        simulation = NFVSimulation(small_network, AcceptFirstNodePolicy(1), SimulationConfig(horizon=10.0))
        result = simulation.run(requests)
        outcome = result.collector.accepted[0]
        assert outcome.latency_ms > 0
        assert outcome.cost > 0
        assert outcome.revenue > 0

    def test_monitoring_samples_collected(self, small_network, catalog):
        simulation = NFVSimulation(
            small_network,
            AcceptFirstNodePolicy(1),
            SimulationConfig(horizon=100.0, monitoring_interval=10.0),
        )
        result = simulation.run([build_request(catalog, source=0, arrival=1.0, holding=200.0)])
        assert len(result.collector.samples) == 10
        assert result.summary.mean_edge_utilization > 0

    def test_rerunning_resets_state(self, small_network, catalog):
        simulation = NFVSimulation(small_network, AcceptFirstNodePolicy(1), SimulationConfig(horizon=10.0))
        first = simulation.run([build_request(catalog, source=0, arrival=1.0)])
        second = simulation.run([build_request(catalog, source=0, arrival=1.0)])
        assert first.summary.total_requests == second.summary.total_requests == 1

    def test_result_as_dict(self, small_network, catalog):
        simulation = NFVSimulation(small_network, AcceptFirstNodePolicy(1), SimulationConfig(horizon=10.0))
        result = simulation.run([build_request(catalog, source=0, arrival=1.0)])
        data = result.as_dict()
        assert data["policy"] == "fixed"
        assert data["horizon"] == 10.0

    def test_arrivals_after_horizon_are_not_simulated(self):
        """Only requests arriving by the horizon are admitted; the post-horizon
        drain releases departures but places no late arrivals."""
        from repro.workloads.scenarios import reference_scenario

        scenario = reference_scenario(
            arrival_rate=1.0, num_edge_nodes=8, horizon=100.0, seed=1
        )
        requests = scenario.generate_requests()
        in_horizon = [r for r in requests if r.arrival_time <= 50.0]
        assert 0 < len(in_horizon) < len(requests)
        simulation = NFVSimulation(
            scenario.build_network(),
            GreedyNearestPolicy(),
            SimulationConfig(horizon=50.0),
        )
        result = simulation.run(requests)
        assert result.summary.total_requests == len(in_horizon)
        assert not simulation.lifecycle.active


class TestPolicyComparison:
    def test_comparison_uses_fresh_networks(self, catalog):
        from repro.substrate.topology import linear_chain_topology

        def factory():
            return linear_chain_topology(num_edge_nodes=4, link_latency_ms=2.0, seed=7)

        requests = [build_request(catalog, source=0, arrival=float(i + 1)) for i in range(8)]
        results = run_policy_comparison(
            factory,
            [GreedyNearestPolicy(), RandomPlacementPolicy(seed=1)],
            requests,
            SimulationConfig(horizon=30.0),
        )
        assert len(results) == 2
        assert {r.policy_name for r in results} == {"greedy_nearest", "random"}
        for result in results:
            assert result.summary.total_requests == 8
