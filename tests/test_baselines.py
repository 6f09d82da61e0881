"""Unit tests for the heuristic placement baselines."""

import pytest

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
from repro.sim.simulation import NFVSimulation, PlacementPolicy, SimulationConfig
from repro.substrate.resources import ResourceVector
from repro.workloads.scenarios import reference_scenario
from tests.baseline_oracles import ORACLES
from tests.conftest import build_request

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

    def place(self, request, network):
        plan = self.production.plan_assignment(request, network)
        expected = self.oracle.plan_assignment(request, network)
        assert plan == expected, (
            f"{self.name}: request {request.request_id} planned {plan}, "
            f"oracle {expected}"
        )
        self.plans.append(plan)
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


class TestLedgerPlansMatchObjectOracles:
    """The ledger planners choose what the per-object loops chose."""

    @pytest.mark.parametrize(
        "cls, kwargs, horizon", PARITY_CASES, ids=[case[0].name for case in PARITY_CASES]
    )
    def test_every_arrival_plans_like_the_oracle(self, cls, kwargs, horizon):
        plans = []
        for rate in (0.5, 2.0, 4.0):
            scenario = reference_scenario(
                arrival_rate=rate, num_edge_nodes=8, horizon=horizon, seed=0
            )
            probe = _OracleParityProbe(cls(**kwargs), ORACLES[cls](**kwargs))
            NFVSimulation(
                scenario.build_network(), probe, SimulationConfig(horizon=horizon)
            ).run(scenario.generate_requests())
            plans += probe.plans
        assert any(plan is not None for plan in plans)


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
        assert not placement.uses_cloud(tiny_edge_cloud_network)


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


class TestLatencyOfPartial:
    """latency_of_partial must agree with Placement end-to-end accounting."""

    def test_full_assignment_matches_placement_without_destination(
        self, small_network, catalog
    ):
        from repro.baselines import latency_of_partial
        from repro.nfv.placement import Placement

        request = build_request(catalog, source=0, sla_ms=200.0)
        assignment = [1, 2]
        placement = Placement.build(request, assignment, small_network)
        assert latency_of_partial(request, assignment, small_network) == (
            pytest.approx(placement.end_to_end_latency_ms())
        )

    def test_full_assignment_includes_egress_to_destination(
        self, small_network, catalog
    ):
        from repro.baselines import latency_of_partial
        from repro.nfv.placement import Placement

        request = build_request(catalog, source=0, sla_ms=200.0)
        request.destination_node_id = 3
        assignment = [1, 1]
        placement = Placement.build(request, assignment, small_network)
        full = latency_of_partial(request, assignment, small_network)
        assert full == pytest.approx(placement.end_to_end_latency_ms())
        # The egress leg is real latency: dropping it underestimates.
        egress = small_network.latency_between(1, 3)
        assert egress > 0.0
        prefix = latency_of_partial(request, assignment[:1], small_network)
        assert full > prefix

    def test_partial_prefix_charges_no_egress(self, small_network, catalog):
        from repro.baselines import latency_of_partial

        request = build_request(catalog, source=0, sla_ms=200.0)
        request.destination_node_id = 3
        # One VNF of two placed: propagation to node 1 + its processing only.
        expected = (
            small_network.latency_between(0, 1)
            + request.chain.vnf_at(0).processing_delay_ms
        )
        assert latency_of_partial(request, [1], small_network) == pytest.approx(
            expected
        )

    def test_partial_is_admissible_lower_bound(self, small_network, catalog):
        """Every prefix estimate stays below the full-chain latency."""
        from repro.baselines import latency_of_partial
        from repro.nfv.placement import Placement

        request = build_request(catalog, source=0, sla_ms=200.0)
        request.destination_node_id = 2
        assignment = [1, 3]
        placement = Placement.build(request, assignment, small_network)
        total = placement.end_to_end_latency_ms()
        for length in range(len(assignment) + 1):
            prefix = latency_of_partial(
                request, assignment[:length], small_network
            )
            assert prefix <= total + 1e-9


class TestStandardBaselines:
    def test_names_unique(self):
        names = [policy.name for policy in standard_baselines(seed=0)]
        assert len(names) == len(set(names))

    def test_contains_expected_policies(self):
        names = {policy.name for policy in standard_baselines(seed=0)}
        assert {"random", "greedy_nearest", "first_fit", "viterbi", "cloud_only"} <= names
