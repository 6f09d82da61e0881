"""Tests for failure injection and the simulation under failures."""

import numpy as np
import pytest

from repro.sim.events import Event, EventType
from repro.sim.failures import (
    DomainFailureConfig,
    DomainFailureInjector,
    FailureConfig,
    FailureInjector,
    FaultDomain,
    fault_domains_from_network,
)
from repro.sim.lifecycle import refresh_node_fence
from repro.sim.simulation import NFVSimulation, SimulationConfig
from repro.substrate.topology import TopologyConfig, linear_chain_topology, metro_edge_cloud_topology
from tests.conftest import build_request
from tests.substrate_oracles import link_available, node_available, node_can_host, node_used
from tests.test_simulation import AcceptFirstNodePolicy


def assert_capacity_conserved(network):
    """Per node row and per link slot of the ledger: the live records must sum
    to the used amount, and used + available must equal capacity (the
    conservation invariant).  Rows are nodes (links), compared in one call each."""
    ledger = network.ledger
    allocated = [sum(records.values(), np.zeros(3)) for records in ledger.node_records]
    used = ledger.node_used
    np.testing.assert_allclose(allocated, used, atol=1e-6)
    np.testing.assert_allclose(
        used + np.maximum(ledger.node_capacity - used, 0.0),
        ledger.node_capacity,
        atol=1e-6,
    )
    link_used = ledger.link_used
    np.testing.assert_allclose(
        [sum(records.values()) for records in ledger.link_records], link_used, atol=1e-6
    )
    np.testing.assert_allclose(
        link_used + np.maximum(ledger.link_capacity - link_used, 0.0),
        ledger.link_capacity,
        atol=1e-6,
    )


class TestFailureConfig:
    def test_steady_state_availability(self):
        config = FailureConfig(mean_time_to_failure=900.0, mean_time_to_repair=100.0)
        assert config.steady_state_availability == pytest.approx(0.9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FailureConfig(mean_time_to_failure=0.0)
        with pytest.raises(ValueError):
            FailureConfig(mean_time_to_repair=-1.0)


class TestFailureInjector:
    def test_schedule_sorted_and_within_horizon(self):
        network = metro_edge_cloud_topology(TopologyConfig(num_edge_nodes=8, seed=1))
        injector = FailureInjector(FailureConfig(mean_time_to_failure=50.0, mean_time_to_repair=10.0, seed=3))
        events = injector.schedule(network, horizon=500.0)
        assert events, "expected at least one failure over 10x the MTTF"
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 < t <= 500.0 for t in times)

    def test_per_node_events_alternate(self):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        injector = FailureInjector(FailureConfig(mean_time_to_failure=20.0, mean_time_to_repair=5.0, seed=1))
        events = injector.schedule(network, horizon=300.0)
        for node_id in network.node_ids:
            node_events = [e for e in events if e.node_id == node_id]
            for first, second in zip(node_events, node_events[1:]):
                assert first.is_failure != second.is_failure
            if node_events:
                assert node_events[0].is_failure

    def test_edge_only_scope(self):
        network = metro_edge_cloud_topology(TopologyConfig(num_edge_nodes=6, seed=2))
        cloud = set(network.cloud_node_ids)
        events = FailureInjector(
            FailureConfig(mean_time_to_failure=10.0, mean_time_to_repair=2.0, seed=2)
        ).schedule(network, horizon=200.0)
        assert all(e.node_id not in cloud for e in events)

    def test_deterministic_with_seed(self):
        network = linear_chain_topology(num_edge_nodes=4, seed=0)
        config = FailureConfig(mean_time_to_failure=30.0, mean_time_to_repair=5.0, seed=11)
        a = FailureInjector(config).schedule(network, 200.0)
        b = FailureInjector(config).schedule(network, 200.0)
        assert a == b

    def test_reliable_nodes_rarely_fail(self):
        network = linear_chain_topology(num_edge_nodes=4, seed=0)
        events = FailureInjector(
            FailureConfig(mean_time_to_failure=1e9, mean_time_to_repair=1.0, seed=0)
        ).schedule(network, horizon=100.0)
        assert events == []


class TestFaultySimulation:
    def _run(self, failure_config, catalog, horizon=100.0, holding=200.0):
        network = linear_chain_topology(num_edge_nodes=4, link_latency_ms=2.0, seed=7)
        simulation = NFVSimulation(
            network,
            AcceptFirstNodePolicy(1),
            SimulationConfig(horizon=horizon, monitoring_interval=20.0),
            failure_config=failure_config,
        )
        requests = [
            build_request(catalog, source=0, arrival=float(i + 1), holding=holding)
            for i in range(5)
        ]
        return simulation, simulation.run(requests)

    def test_disruption_when_hosting_node_fails(self, catalog):
        # Node 1 hosts everything and fails almost immediately, for a long time.
        failure_config = FailureConfig(
            mean_time_to_failure=10.0, mean_time_to_repair=1e6, edge_only=True, seed=5
        )
        simulation, result = self._run(failure_config, catalog)
        if simulation.report.failure_events and 1 in simulation.lifecycle.failed_nodes:
            assert simulation.report.disrupted_requests > 0
            # Disrupted requests were accepted first.
            assert result.summary.accepted_requests >= simulation.report.disrupted_requests

    def test_failed_node_is_fenced_for_new_requests(self, catalog):
        network = linear_chain_topology(num_edge_nodes=4, link_latency_ms=2.0, seed=7)
        simulation = NFVSimulation(
            network,
            AcceptFirstNodePolicy(1),
            SimulationConfig(horizon=10.0),
            failure_config=FailureConfig(mean_time_to_failure=1e9, seed=0),
        )
        # Manually drive the failure handler, then check the fence.
        from repro.sim.events import Event, EventType

        simulation._handle_failure(Event.create(1.0, EventType.NODE_FAILURE, payload=1))
        assert simulation.lifecycle.failed_nodes == {1}
        assert not node_can_host(
            network, 1, build_request(catalog, source=0).chain.vnf_at(0).demand_for(10.0)
        )
        simulation._handle_recovery(Event.create(2.0, EventType.NODE_RECOVERY, payload=1))
        assert simulation.lifecycle.failed_nodes == set()
        assert node_can_host(
            network, 1, build_request(catalog, source=0).chain.vnf_at(0).demand_for(10.0)
        )

    def test_no_failures_matches_fault_free_behaviour(self, catalog):
        # Requests arrive one per time unit and hold resources for less than
        # that, so without failures every request fits on node 1.
        reliable = FailureConfig(mean_time_to_failure=1e9, mean_time_to_repair=1.0, seed=0)
        simulation, result = self._run(reliable, catalog, holding=0.9)
        assert simulation.report.failure_events == 0
        assert simulation.report.disrupted_requests == 0
        assert result.summary.accepted_requests == 5

    def test_report_as_dict_and_ratio(self):
        from repro.sim.failures import DisruptionReport

        report = DisruptionReport(failure_events=2, recovery_events=1, disrupted_requests=3)
        assert report.as_dict()["disrupted_requests"] == 3
        assert report.disruption_ratio(accepted_requests=6) == pytest.approx(0.5)
        assert report.disruption_ratio(accepted_requests=0) == 0.0

    def test_capacity_conserved_across_fail_recover_reset_cycles(self, catalog):
        """Fence accounting must conserve capacity through full cycles."""
        from repro.nfv.placement import Placement
        from repro.workloads.scenarios import reference_scenario

        scenario = reference_scenario(
            arrival_rate=1.0, num_edge_nodes=8, horizon=300.0, seed=1
        )
        network = scenario.build_network()
        from repro.baselines import GreedyNearestPolicy

        simulation = NFVSimulation(
            network,
            GreedyNearestPolicy(),
            SimulationConfig(horizon=300.0, monitoring_interval=25.0),
            failure_config=FailureConfig(
                mean_time_to_failure=40.0, mean_time_to_repair=15.0, seed=3
            ),
        )
        requests = scenario.generate_requests()
        for _ in range(2):  # run twice: the reset path is exercised too
            simulation.run(requests)
            assert simulation.report.failure_events > 0
            assert simulation.report.recovery_events > 0
            assert_capacity_conserved(network)
            # Whatever survived the run is either a fence of a still-failed
            # node or nothing; failed nodes hold zero available capacity.
            for node_id in simulation.lifecycle.failed_nodes:
                assert node_available(network, node_id).is_zero(tol=1e-9)
        simulation.lifecycle.release_fences()
        assert simulation.lifecycle.failed_nodes == set()
        assert_capacity_conserved(network)

    def test_fence_absorbs_capacity_freed_on_failed_node(self, catalog):
        """Capacity released on an already-fenced node folds into the fence,
        so a failed node can never regain placeable capacity mid-failure."""
        network = linear_chain_topology(num_edge_nodes=4, link_latency_ms=2.0, seed=7)
        simulation = NFVSimulation(
            network,
            AcceptFirstNodePolicy(1),
            SimulationConfig(horizon=50.0),
            failure_config=FailureConfig(mean_time_to_failure=1e9, seed=0),
        )
        from repro.nfv.placement import Placement

        # A committed placement on node 1 that the simulation does NOT track
        # (models any out-of-band release while the node is fenced).
        request = build_request(catalog, source=0, arrival=1.0, holding=30.0)
        placement = Placement.build(request, [1] * request.num_vnfs, network)
        placement.commit(network)

        simulation._handle_failure(Event.create(2.0, EventType.NODE_FAILURE, payload=1))
        assert node_available(network, 1).is_zero(tol=1e-9)
        # The out-of-band release frees capacity on the fenced node...
        placement.release(network)
        assert not node_available(network, 1).is_zero(tol=1e-9)
        # ...and refreshing the fence (as the departure hook does) re-absorbs it.
        refresh_node_fence(network, 1)
        assert node_available(network, 1).is_zero(tol=1e-9)
        assert_capacity_conserved(network)
        simulation._handle_recovery(Event.create(3.0, EventType.NODE_RECOVERY, payload=1))
        # Full recovery: the node is completely free again.
        assert node_used(network, 1).is_zero(tol=1e-9)
        assert_capacity_conserved(network)

    def test_tracked_departure_on_fenced_node_keeps_fence_tight(self, catalog):
        """If a tracked placement's departure ever releases capacity on a
        fenced node, the departure hook refreshes that node's fence."""
        network = linear_chain_topology(num_edge_nodes=4, link_latency_ms=2.0, seed=7)
        simulation = NFVSimulation(
            network,
            AcceptFirstNodePolicy(1),
            SimulationConfig(horizon=50.0),
            failure_config=FailureConfig(mean_time_to_failure=1e9, seed=0),
        )
        from repro.nfv.placement import Placement

        request = build_request(catalog, source=0, arrival=1.0, holding=30.0)
        placement = Placement.build(request, [1] * request.num_vnfs, network)
        placement.commit(network)
        simulation.lifecycle.active[request.request_id] = placement
        simulation.lifecycle.failed_nodes.add(1)  # fenced state without eviction
        refresh_node_fence(network, 1)
        assert node_available(network, 1).is_zero(tol=1e-9)
        simulation._handle_departure(
            Event.create(5.0, EventType.REQUEST_DEPARTURE, payload=request.request_id)
        )
        assert request.request_id not in simulation.lifecycle.active
        assert node_available(network, 1).is_zero(tol=1e-9)
        assert_capacity_conserved(network)

    def test_rerun_resets_report(self, catalog):
        failure_config = FailureConfig(mean_time_to_failure=20.0, mean_time_to_repair=5.0, seed=4)
        simulation, _ = self._run(failure_config, catalog)
        first_failures = simulation.report.failure_events
        requests = [build_request(catalog, source=0, arrival=1.0, holding=5.0)]
        simulation.run(requests)
        # The report describes only the latest run.
        assert simulation.report.failure_events <= first_failures or first_failures == 0


class TestFaultySimulationEdgeCases:
    """ISSUE 7 satellite: failure-handling corner cases."""

    def _empty_simulation(self, num_nodes=4):
        network = linear_chain_topology(
            num_edge_nodes=num_nodes, link_latency_ms=2.0, seed=7
        )
        simulation = NFVSimulation(
            network,
            AcceptFirstNodePolicy(1),
            SimulationConfig(horizon=50.0),
            failure_config=FailureConfig(mean_time_to_failure=1e9, seed=0),
        )
        return network, simulation

    def test_failure_on_empty_substrate(self):
        """A failure with zero active placements disrupts nothing and the
        fence consumes exactly the node's full (untouched) capacity."""
        network, simulation = self._empty_simulation()
        simulation._handle_failure(
            Event.create(1.0, EventType.NODE_FAILURE, payload=1)
        )
        assert simulation.report.disrupted_requests == 0
        assert simulation.report.failure_events == 1
        assert node_available(network, 1).is_zero(tol=1e-9)
        assert_capacity_conserved(network)
        simulation._handle_recovery(
            Event.create(2.0, EventType.NODE_RECOVERY, payload=1)
        )
        assert node_used(network, 1).is_zero(tol=1e-9)
        assert_capacity_conserved(network)

    def test_back_to_back_fail_recover_same_node_same_step(self):
        """FAIL and RECOVER of one node at the same timestamp (in schedule
        order) must leave the node fully healthy — and the duplicate-safe
        handlers must ignore repeated FAIL/RECOVER at that instant."""
        network, simulation = self._empty_simulation()
        t = 5.0
        simulation._handle_failure(Event.create(t, EventType.NODE_FAILURE, payload=2))
        simulation._handle_failure(Event.create(t, EventType.NODE_FAILURE, payload=2))
        assert simulation.report.failure_events == 1  # duplicate ignored
        simulation._handle_recovery(Event.create(t, EventType.NODE_RECOVERY, payload=2))
        simulation._handle_recovery(Event.create(t, EventType.NODE_RECOVERY, payload=2))
        assert simulation.report.recovery_events == 1  # duplicate ignored
        assert simulation.lifecycle.failed_nodes == set()
        assert node_used(network, 2).is_zero(tol=1e-9)
        assert_capacity_conserved(network)
        # And a second full cycle at the same instant still round-trips.
        simulation._handle_failure(Event.create(t, EventType.NODE_FAILURE, payload=2))
        assert node_available(network, 2).is_zero(tol=1e-9)
        simulation._handle_recovery(Event.create(t, EventType.NODE_RECOVERY, payload=2))
        assert node_used(network, 2).is_zero(tol=1e-9)
        assert_capacity_conserved(network)

    def test_all_nodes_simultaneously_failed_fence_accounting(self, catalog):
        """With every node down at once, all capacity is fenced, the active
        placement is disrupted exactly once, and recovery restores a fully
        free, conserved substrate."""
        network, simulation = self._empty_simulation()
        request = build_request(catalog, source=0, arrival=1.0, holding=40.0)
        from repro.nfv.placement import Placement

        placement = Placement.build(request, [1] * request.num_vnfs, network)
        placement.commit(network)
        simulation.lifecycle.active[request.request_id] = placement

        t = 2.0
        for node_id in network.node_ids:
            simulation._handle_failure(
                Event.create(t, EventType.NODE_FAILURE, payload=node_id)
            )
        assert sorted(simulation.lifecycle.failed_nodes) == sorted(network.node_ids)
        assert simulation.report.disrupted_requests == 1
        assert simulation.lifecycle.active == {}
        for node_id in network.node_ids:
            assert node_available(network, node_id).is_zero(tol=1e-9)
        assert_capacity_conserved(network)
        for node_id in network.node_ids:
            simulation._handle_recovery(
                Event.create(t + 1.0, EventType.NODE_RECOVERY, payload=node_id)
            )
        assert simulation.lifecycle.failed_nodes == set()
        for node_id in network.node_ids:
            assert node_used(network, node_id).is_zero(tol=1e-9)
        assert_capacity_conserved(network)


class TestFaultDomains:
    def test_domains_derived_from_metro_names(self):
        network = metro_edge_cloud_topology(
            TopologyConfig(num_edge_nodes=8, num_metros=4, seed=3)
        )
        domains = fault_domains_from_network(network)
        # Every edge node appears in exactly one domain, grouped by metro.
        members = [n for d in domains for n in d.node_ids]
        assert sorted(members) == sorted(network.edge_node_ids)
        assert len(domains) == 4
        for domain in domains:
            for node_id in domain.node_ids:
                assert network.node(node_id).name.startswith(domain.name)

    def test_unnamed_nodes_fall_back_to_singletons(self):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        domains = fault_domains_from_network(network)
        assert all(len(d.node_ids) == 1 for d in domains)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            FaultDomain(name="empty", node_ids=())
        with pytest.raises(ValueError):
            DomainFailureInjector([], DomainFailureConfig())
        dup = FaultDomain(name="x", node_ids=(0,))
        with pytest.raises(ValueError, match="unique"):
            DomainFailureInjector([dup, dup])

    def test_unknown_member_rejected_at_schedule_time(self):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        injector = DomainFailureInjector(
            [FaultDomain(name="ghost", node_ids=(99,))],
            DomainFailureConfig(mean_time_to_failure=10.0, seed=0),
        )
        with pytest.raises(ValueError, match="unknown nodes"):
            injector.schedule(network, horizon=100.0)

    def test_correlated_schedule_fails_domain_together(self):
        network = metro_edge_cloud_topology(
            TopologyConfig(num_edge_nodes=8, num_metros=4, seed=3)
        )
        domains = fault_domains_from_network(network)
        injector = DomainFailureInjector(
            domains,
            DomainFailureConfig(
                mean_time_to_failure=60.0, mean_time_to_repair=10.0, seed=9
            ),
        )
        events = injector.schedule(network, horizon=400.0)
        assert events and [e.time for e in events] == sorted(e.time for e in events)
        node_failures = [e for e in events if e.kind == "node_failure"]
        assert node_failures, "expected at least one domain failure over ~6x MTTF"
        # All member nodes of a domain fail at the same instant.
        by_domain_time = {}
        for event in node_failures:
            by_domain_time.setdefault((event.domain, event.time), set()).add(
                event.node_id
            )
        domain_members = {d.name: set(d.node_ids) for d in domains}
        for (name, _), failed_together in by_domain_time.items():
            assert failed_together == domain_members[name]
        # Incident links of the domain go down at the same instant too.
        link_failures = [e for e in events if e.kind == "link_failure"]
        assert link_failures
        for event in link_failures:
            assert event.domain is not None
            assert set(event.endpoints) & domain_members[event.domain]

    def test_independent_link_failures_when_configured(self):
        network = metro_edge_cloud_topology(
            TopologyConfig(num_edge_nodes=6, num_metros=3, seed=3)
        )
        injector = DomainFailureInjector(
            fault_domains_from_network(network),
            DomainFailureConfig(
                mean_time_to_failure=1e9,  # domains never fail
                fail_incident_links=False,
                link_mean_time_to_failure=50.0,
                link_mean_time_to_repair=10.0,
                seed=2,
            ),
        )
        events = injector.schedule(network, horizon=500.0)
        assert events
        assert all(e.kind in ("link_failure", "link_recovery") for e in events)
        assert all(e.domain is None for e in events)

    def test_schedule_deterministic_with_seed(self):
        network = metro_edge_cloud_topology(
            TopologyConfig(num_edge_nodes=6, num_metros=3, seed=3)
        )
        config = DomainFailureConfig(
            mean_time_to_failure=40.0, mean_time_to_repair=10.0, seed=7
        )
        domains = fault_domains_from_network(network)
        a = DomainFailureInjector(domains, config).schedule(network, 300.0)
        b = DomainFailureInjector(domains, config).schedule(network, 300.0)
        assert a == b


class TestLinkFailures:
    def _simulation_with_committed_chain(self, catalog):
        network = linear_chain_topology(
            num_edge_nodes=4, link_latency_ms=2.0, seed=7
        )
        simulation = NFVSimulation(
            network,
            AcceptFirstNodePolicy(1),
            SimulationConfig(horizon=50.0),
            failure_config=FailureConfig(mean_time_to_failure=1e9, seed=0),
        )
        from repro.nfv.placement import Placement

        # Source 0 -> VNFs on node 1: the chain traverses link (0, 1).
        request = build_request(catalog, source=0, arrival=1.0, holding=40.0)
        placement = Placement.build(request, [1] * request.num_vnfs, network)
        placement.commit(network)
        simulation.lifecycle.active[request.request_id] = placement
        return network, simulation, request

    def test_link_failure_evicts_traversing_chain_and_fences_bandwidth(
        self, catalog
    ):
        network, simulation, request = self._simulation_with_committed_chain(catalog)
        simulation._handle_link_failure(
            Event.create(2.0, EventType.LINK_FAILURE, payload=(1, 0))
        )
        assert simulation.lifecycle.failed_links == {(0, 1)}  # canonicalized
        assert simulation.report.link_failure_events == 1
        assert simulation.report.disrupted_requests == 1
        assert request.request_id not in simulation.lifecycle.active
        assert link_available(network, 0, 1) == pytest.approx(0.0)
        assert_capacity_conserved(network)
        simulation._handle_link_recovery(
            Event.create(3.0, EventType.LINK_RECOVERY, payload=(0, 1))
        )
        assert simulation.lifecycle.failed_links == set()
        assert simulation.report.link_recovery_events == 1
        assert link_available(network, 0, 1) == pytest.approx(
            network.link(0, 1).bandwidth_capacity
        )

    def test_unaffected_chain_survives_link_failure(self, catalog):
        network, simulation, request = self._simulation_with_committed_chain(catalog)
        # Link (2, 3) carries nothing of the chain.
        simulation._handle_link_failure(
            Event.create(2.0, EventType.LINK_FAILURE, payload=(2, 3))
        )
        assert simulation.report.disrupted_requests == 0
        assert request.request_id in simulation.lifecycle.active
        simulation._handle_link_recovery(
            Event.create(3.0, EventType.LINK_RECOVERY, payload=(2, 3))
        )

    def test_unknown_link_ignored(self, catalog):
        network, simulation, _ = self._simulation_with_committed_chain(catalog)
        simulation._handle_link_failure(
            Event.create(2.0, EventType.LINK_FAILURE, payload=(0, 3))
        )
        assert simulation.lifecycle.failed_links == set()
        assert simulation.report.link_failure_events == 0

    def test_domain_chaos_end_to_end_conserves_capacity(self, catalog):
        from repro.baselines import GreedyNearestPolicy
        from repro.workloads.scenarios import reference_scenario

        scenario = reference_scenario(
            arrival_rate=1.0, num_edge_nodes=8, horizon=300.0, seed=1
        )
        network = scenario.build_network()
        simulation = NFVSimulation(
            network,
            GreedyNearestPolicy(),
            SimulationConfig(horizon=300.0, monitoring_interval=25.0),
            domain_config=DomainFailureConfig(
                mean_time_to_failure=60.0, mean_time_to_repair=20.0, seed=3
            ),
        )
        # Domain-only chaos: no independent per-node injector is created.
        assert simulation.injector is None
        assert simulation.domain_injector is not None
        simulation.run(scenario.generate_requests())
        assert simulation.report.failure_events > 0
        assert simulation.report.link_failure_events > 0
        assert_capacity_conserved(network)
        for node_id in simulation.lifecycle.failed_nodes:
            assert node_available(network, node_id).is_zero(tol=1e-9)
        for endpoints in simulation.lifecycle.failed_links:
            assert link_available(network, *endpoints) == pytest.approx(
                0.0, abs=1e-9
            )
        simulation.lifecycle.release_fences()
        assert not simulation.lifecycle.failed_nodes
        assert not simulation.lifecycle.failed_links
        assert_capacity_conserved(network)
