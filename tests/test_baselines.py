"""Unit tests for the heuristic placement baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BestFitPolicy,
    BruteForceOptimalPolicy,
    CloudOnlyPolicy,
    EdgeOnlyPolicy,
    FirstFitPolicy,
    GreedyCheapestPolicy,
    GreedyLeastLoadedPolicy,
    GreedyNearestPolicy,
    RandomPlacementPolicy,
    ViterbiPlacementPolicy,
    standard_baselines,
)
from repro.baselines.common import build_if_feasible
from repro.baselines.optimal import SearchSpaceTooLargeError
from repro.nfv.catalog import default_catalog
from repro.sim.failures import FailureConfig
from repro.sim.lifecycle import node_fence_handle, refresh_node_fence
from repro.sim.simulation import NFVSimulation, PlacementPolicy, SimulationConfig
from repro.substrate.geo import GeoPoint
from repro.substrate.network import SubstrateNetwork
from repro.substrate.node import ComputeNode, NodeTier, make_cloud_node
from repro.substrate.resources import ResourceVector
from repro.workloads.scenarios import reference_scenario
from tests.baseline_oracles import ORACLES, per_vnf_plan
from tests.conftest import build_request

CATALOG = default_catalog()

ALL_POLICIES = [
    RandomPlacementPolicy(seed=0),
    GreedyNearestPolicy(),
    GreedyLeastLoadedPolicy(),
    GreedyCheapestPolicy(),
    FirstFitPolicy(),
    BestFitPolicy(),
    EdgeOnlyPolicy(),
    ViterbiPlacementPolicy(),
    BruteForceOptimalPolicy(),
]


class TestAllPoliciesProduceFeasiblePlacements:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_feasible_on_empty_substrate(self, policy, small_network, catalog):
        request = build_request(catalog, source=0, sla_ms=100.0)
        placement = policy.place(request, small_network)
        assert placement is not None
        assert placement.is_feasible(small_network)
        assert placement.satisfies_sla(small_network)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_policies_do_not_mutate_network(self, policy, small_network, catalog):
        request = build_request(catalog, source=0, sla_ms=100.0)
        policy.place(request, small_network)
        assert small_network.total_used().is_zero()
        assert not small_network.ledger.link_used.any()

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_reject_when_no_capacity(self, policy, small_network, catalog):
        for node_id in small_network.node_ids:
            small_network.allocate_node(node_id, "hog", ResourceVector(7.9, 15.9, 99.0))
        request = build_request(catalog, source=0, sla_ms=100.0)
        assert policy.place(request, small_network) is None


class TestMaskBoundary:
    """Candidates come from the action masks' capacity predicate."""

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_node_past_the_mask_boundary_is_not_planned(
        self, policy, small_network, catalog
    ):
        # nat needs 1.1 cpu at 50 Mbps.  On top of 6.900000001 used of 8.0,
        # the allocation fit check (used + d <= cap + tol) still admits it, while
        # the masks (d <= (cap + tol) - used) and placement feasibility
        # (d <= (cap - used) + tol) do not; planning node 2 would reject a
        # request that three empty nodes fit.
        small_network.allocate_node(2, "hog", ResourceVector(6.900000001, 0.0, 0.0))
        request = build_request(catalog, source=2, vnf_names=("nat",), sla_ms=200.0)
        placement = policy.place(request, small_network)
        assert placement is not None
        assert 2 not in placement.node_assignment


class _OracleParityProbe(PlacementPolicy):
    """Plans every arrival with a policy and its per-object oracle."""

    def __init__(self, production, oracle) -> None:
        self.production = production
        self.oracle = oracle
        self.name = production.name
        self.plans = []
        self.fenced_plans = 0

    def place(self, request, network):
        plan = self.production.plan_assignment(request, network)
        expected = self.oracle.plan_assignment(request, network)
        assert plan == expected, (
            f"{self.name}: request {request.request_id} planned {plan}, "
            f"oracle {expected}"
        )
        self.plans.append(plan)
        ledger = network.ledger
        self.fenced_plans += any(
            node_fence_handle(node_id) in records
            for node_id, records in zip(ledger.node_ids, ledger.node_records)
        )
        return None if plan is None else build_if_feasible(request, plan, network)


#: (policy class, constructor kwargs, simulated horizon).  Brute force
#: enumerates up to 100k assignments per request, so it simulates less.
PARITY_CASES = [
    (RandomPlacementPolicy, {"seed": 7}, 100.0),
    (GreedyNearestPolicy, {}, 100.0),
    (GreedyLeastLoadedPolicy, {}, 100.0),
    (GreedyCheapestPolicy, {}, 100.0),
    (FirstFitPolicy, {}, 100.0),
    (BestFitPolicy, {}, 100.0),
    (CloudOnlyPolicy, {}, 100.0),
    (EdgeOnlyPolicy, {}, 100.0),
    (ViterbiPlacementPolicy, {"cost_weight": 0.2, "load_weight": 0.2}, 100.0),
    (
        BruteForceOptimalPolicy,
        {"max_assignments": 100_000, "fallback_to_reject": True},
        10.0,
    ),
]


def _parity_campaign(cls, kwargs, horizon, failure_config=None):
    """Simulate the parity rates with a probe; the probes, one per rate."""
    probes = []
    for rate in (0.5, 2.0, 4.0):
        scenario = reference_scenario(
            arrival_rate=rate, num_edge_nodes=8, horizon=horizon, seed=0
        )
        probe = _OracleParityProbe(cls(**kwargs), ORACLES[cls](**kwargs))
        NFVSimulation(
            scenario.build_network(),
            probe,
            SimulationConfig(horizon=horizon),
            failure_config=failure_config,
        ).run(scenario.generate_requests())
        probes.append(probe)
    return probes


class TestLedgerPlansMatchObjectOracles:
    """The ledger planners choose what the per-object loops chose."""

    @pytest.mark.parametrize(
        "cls, kwargs, horizon", PARITY_CASES, ids=[case[0].name for case in PARITY_CASES]
    )
    def test_every_arrival_plans_like_the_oracle(self, cls, kwargs, horizon):
        probes = _parity_campaign(cls, kwargs, horizon)
        assert any(plan is not None for probe in probes for plan in probe.plans)

    @pytest.mark.parametrize(
        "cls, kwargs, horizon", PARITY_CASES, ids=[case[0].name for case in PARITY_CASES]
    )
    def test_every_arrival_plans_like_the_oracle_on_fenced_substrates(
        self, cls, kwargs, horizon
    ):
        # Failed nodes hold a fence record sized to their free capacity.
        failures = FailureConfig(mean_time_to_failure=40.0, mean_time_to_repair=20.0, seed=3)
        probes = _parity_campaign(cls, kwargs, horizon, failures)
        assert any(plan is not None for probe in probes for plan in probe.plans)
        assert sum(probe.fenced_plans for probe in probes) > 0


#: Every NodeScoringPolicy heuristic: both tier masks, both score shapes.
NODE_SCORING_POLICIES = [
    GreedyNearestPolicy(),
    GreedyLeastLoadedPolicy(),
    GreedyCheapestPolicy(),
    FirstFitPolicy(),
    BestFitPolicy(),
    CloudOnlyPolicy(),
    EdgeOnlyPolicy(),
]
NUM_TIE_EDGES = 5
#: Node states: empty, a shared load fraction (equal utilizations tie),
#: fenced, or loaded to the free capacity of one chain VNF's demand plus a
#: nudge across the mask's tolerance.
node_states = st.one_of(
    st.just(("empty",)),
    st.tuples(st.just("load"), st.sampled_from([0.25, 0.5, 0.9])),
    st.just(("fence",)),
    st.tuples(
        st.just("boundary"),
        st.integers(0, 4),
        st.sampled_from([-1e-12, 0.0, 1e-9, 1e-9 + 1e-12, 2e-9]),
    ),
)


#: Edge node kinds, alternating along the line: (capacity, cost per unit).
#: Their rankings under slack and cost depend on the demand's shape.
EDGE_KINDS = [
    (ResourceVector(8.0, 16.0, 100.0), ResourceVector(0.05, 0.025, 0.005)),
    (ResourceVector(16.0, 8.0, 60.0), ResourceVector(0.02, 0.06, 0.01)),
]


def _tie_network():
    """Edge nodes 2 ms apart on a line, of two alternating kinds, and a cloud
    30 ms past the end.

    Equal kinds and equal hop latencies make every score tie somewhere.
    """
    network = SubstrateNetwork()
    for node_id in range(NUM_TIE_EDGES):
        capacity, cost = EDGE_KINDS[node_id % len(EDGE_KINDS)]
        network.add_node(
            ComputeNode(
                node_id,
                GeoPoint(40.0, -74.0 + 0.1 * node_id),
                capacity,
                NodeTier.EDGE,
                cost_per_unit=cost,
            )
        )
        if node_id:
            network.add_link(node_id - 1, node_id, bandwidth_capacity=1000.0, latency_ms=2.0)
    network.add_node(make_cloud_node(NUM_TIE_EDGES, GeoPoint(39.0, -104.0)))
    network.add_link(NUM_TIE_EDGES - 1, NUM_TIE_EDGES, bandwidth_capacity=1e4, latency_ms=30.0)
    return network


class TestChainPassMatchesPerVNFPlanner:
    """One (L, N) validity pass plans what one pass per VNF planned."""

    @settings(max_examples=150, deadline=None)
    @given(
        vnf_names=st.lists(st.sampled_from(CATALOG.names), min_size=1, max_size=5),
        bandwidth=st.sampled_from([10.0, 50.0, 300.0]),
        holding=st.sampled_from([1.0, 30.0]),
        source=st.integers(0, NUM_TIE_EDGES),
        states=st.lists(node_states, min_size=NUM_TIE_EDGES + 1, max_size=NUM_TIE_EDGES + 1),
    )
    def test_every_heuristic_plans_like_the_per_vnf_loop(
        self, vnf_names, bandwidth, holding, source, states
    ):
        network = _tie_network()
        request = build_request(
            CATALOG, vnf_names=vnf_names, bandwidth=bandwidth, source=source,
            sla_ms=500.0, holding=holding,
        )
        demands = request.chain.demand_rows
        ledger = network.ledger
        for row, state in enumerate(states):
            capacity = ledger.node_capacity[row]
            if state[0] == "load":
                ledger.allocate_node(row, "load", capacity * state[1])
            elif state[0] == "fence":
                refresh_node_fence(network, ledger.node_ids[row])
            elif state[0] == "boundary":
                _, vnf, nudge = state
                used = np.maximum(capacity - demands[vnf % len(demands)] + nudge, 0.0)
                ledger.allocate_node(row, "boundary", np.minimum(used, capacity))
        for policy in NODE_SCORING_POLICIES:
            assert policy.plan_assignment(request, network) == per_vnf_plan(
                policy, request, network
            ), policy.name


class TestGreedyNearest:
    def test_places_on_source_when_possible(self, small_network, catalog):
        request = build_request(catalog, source=2, sla_ms=100.0)
        placement = GreedyNearestPolicy().place(request, small_network)
        assert placement.node_assignment == (2, 2)

    def test_skips_full_source_node(self, small_network, catalog):
        small_network.allocate_node(2, "hog", ResourceVector(7.9, 1, 1))
        request = build_request(catalog, source=2, sla_ms=100.0)
        placement = GreedyNearestPolicy().place(request, small_network)
        assert 2 not in placement.node_assignment


class TestGreedyLeastLoaded:
    def test_prefers_empty_node(self, small_network, catalog):
        small_network.allocate_node(0, "a", ResourceVector(6, 6, 6))
        small_network.allocate_node(1, "b", ResourceVector(4, 4, 4))
        small_network.allocate_node(2, "c", ResourceVector(2, 2, 2))
        request = build_request(catalog, source=0, sla_ms=200.0, vnf_names=("nat",))
        placement = GreedyLeastLoadedPolicy().place(request, small_network)
        assert placement.node_assignment == (3,)


class TestFitPolicies:
    def test_first_fit_picks_lowest_id(self, small_network, catalog):
        request = build_request(catalog, source=3, sla_ms=200.0, vnf_names=("nat",))
        placement = FirstFitPolicy().place(request, small_network)
        assert placement.node_assignment == (0,)

    def test_best_fit_consolidates_onto_fuller_node(self, small_network, catalog):
        small_network.allocate_node(2, "partial", ResourceVector(4, 4, 4))
        request = build_request(catalog, source=0, sla_ms=200.0, vnf_names=("nat",))
        placement = BestFitPolicy().place(request, small_network)
        assert placement.node_assignment == (2,)

    def test_cloud_only_requires_cloud_nodes(self, small_network, tiny_edge_cloud_network, catalog):
        request = build_request(catalog, source=0, sla_ms=200.0)
        assert CloudOnlyPolicy().place(request, small_network) is None
        placement = CloudOnlyPolicy().place(request, tiny_edge_cloud_network)
        assert placement is not None
        assert set(placement.node_assignment) == {2}

    def test_edge_only_never_uses_cloud(self, tiny_edge_cloud_network, catalog):
        request = build_request(catalog, source=0, sla_ms=200.0)
        placement = EdgeOnlyPolicy().place(request, tiny_edge_cloud_network)
        assert placement is not None
        assert all(
            tiny_edge_cloud_network.node(node_id).is_edge
            for node_id in placement.node_assignment
        )


class TestViterbi:
    def test_matches_brute_force_latency_optimum(self, small_network, catalog):
        request = build_request(catalog, source=0, sla_ms=200.0, vnf_names=("firewall", "nat", "monitor"))
        viterbi = ViterbiPlacementPolicy().place(request, small_network)
        optimal = BruteForceOptimalPolicy(latency_weight=1.0).place(request, small_network)
        assert viterbi.end_to_end_latency_ms() == pytest.approx(
            optimal.end_to_end_latency_ms()
        )

    def test_cost_weight_changes_assignment_preference(self, tiny_edge_cloud_network, catalog):
        # With an enormous cost weight the cheap cloud node wins despite latency.
        request = build_request(catalog, source=0, sla_ms=500.0, vnf_names=("firewall",))
        latency_only = ViterbiPlacementPolicy(cost_weight=0.0).place(request, tiny_edge_cloud_network)
        cost_heavy = ViterbiPlacementPolicy(cost_weight=500.0).place(request, tiny_edge_cloud_network)
        assert latency_only.node_assignment != cost_heavy.node_assignment
        assert cost_heavy.node_assignment == (2,)

    def test_charges_the_egress_to_the_destination(self, small_network, catalog):
        # Node 1 is full, so from source 1 the chain goes left to node 0 or
        # right to node 2 at the same ingress latency; only the egress to
        # node 3 tells them apart.
        small_network.allocate_node(1, "hog", small_network.node(1).capacity)
        request = build_request(catalog, source=1, sla_ms=200.0)
        request.destination_node_id = 3
        viterbi = ViterbiPlacementPolicy().place(request, small_network)
        optimal = BruteForceOptimalPolicy(latency_weight=1.0).place(request, small_network)
        assert optimal.end_to_end_latency_ms() == pytest.approx(4.9)
        assert viterbi.end_to_end_latency_ms() == pytest.approx(
            optimal.end_to_end_latency_ms()
        )

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            ViterbiPlacementPolicy(cost_weight=-1.0)


class TestBruteForce:
    def test_search_space_guard(self, small_network, catalog):
        request = build_request(catalog, source=0, sla_ms=200.0, vnf_names=("nat", "nat", "nat"))
        policy = BruteForceOptimalPolicy(max_assignments=10)
        with pytest.raises(SearchSpaceTooLargeError):
            policy.place(request, small_network)

    def test_search_space_guard_fallback(self, small_network, catalog):
        request = build_request(catalog, source=0, sla_ms=200.0, vnf_names=("nat", "nat", "nat"))
        policy = BruteForceOptimalPolicy(max_assignments=10, fallback_to_reject=True)
        assert policy.place(request, small_network) is None

    def test_latency_objective_prefers_colocation_at_source(self, small_network, catalog):
        request = build_request(catalog, source=1, sla_ms=200.0)
        placement = BruteForceOptimalPolicy().place(request, small_network)
        assert placement.node_assignment == (1, 1)


class TestStandardBaselines:
    def test_names_unique(self):
        names = [policy.name for policy in standard_baselines(seed=0)]
        assert len(names) == len(set(names))

    def test_contains_expected_policies(self):
        names = {policy.name for policy in standard_baselines(seed=0)}
        assert {"random", "greedy_nearest", "first_fit", "viterbi", "cloud_only"} <= names
