"""Tests for the online serving loop: budgets, admission, fallback, retry.

Every timing-sensitive path uses ``latency_model`` on :class:`BudgetedPolicy`
so decision latencies are deterministic — no test here sleeps or depends on
wall-clock speed.
"""

import pytest

from repro.baselines.greedy import GreedyNearestPolicy
from repro.core.timeout import BudgetedPolicy
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.report import BoundedTrajectory, ServingReport, StreamingHistogram
from repro.serving.service import (
    ChainDecision,
    FallbackChain,
    OnlinePlacementService,
    ServingConfig,
)
from repro.sim.failures import ChaosEvent
from repro.substrate.topology import TopologyConfig, linear_chain_topology
from repro.workloads.scenarios import reference_scenario
from tests.conftest import build_request
from tests.test_simulation import AcceptFirstNodePolicy, RejectAllPolicy
from tests.substrate_oracles import node_available


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def budgeted(policy, budget_s=0.05, latency_s=0.001):
    """A BudgetedPolicy with a fixed deterministic latency model."""
    return BudgetedPolicy(
        policy, budget_s=budget_s, latency_model=lambda request: latency_s
    )


def make_requests(catalog, times, holding=30.0, source=0):
    return [
        build_request(catalog, arrival=t, holding=holding, source=source)
        for t in times
    ]


class FixedChaos:
    """Chaos stub replaying a fixed schedule (duck-types DomainFailureInjector)."""

    def __init__(self, events):
        self._events = list(events)

    def schedule(self, network, horizon):
        return [event for event in self._events if event.time <= horizon]


# --------------------------------------------------------------------------- #
# BudgetedPolicy
# --------------------------------------------------------------------------- #
class TestBudgetedPolicy:
    def test_under_budget_keeps_placement_and_charges_elapsed(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        tier = budgeted(AcceptFirstNodePolicy(0), budget_s=0.05, latency_s=0.01)
        outcome = tier.decide(build_request(catalog), network)
        assert not outcome.timed_out
        assert outcome.placement is not None
        assert outcome.elapsed_s == pytest.approx(0.01)
        assert outcome.charged_s == pytest.approx(0.01)
        assert tier.calls == 1 and tier.timeouts == 0

    def test_over_budget_preempts_and_caps_charge(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        tier = budgeted(AcceptFirstNodePolicy(0), budget_s=0.05, latency_s=0.2)
        outcome = tier.decide(build_request(catalog), network)
        assert outcome.timed_out
        assert outcome.placement is None, "late answer must be discarded"
        assert outcome.elapsed_s == pytest.approx(0.2)
        assert outcome.charged_s == pytest.approx(0.05), "charge capped at budget"
        assert tier.timeouts == 1 and tier.calls == 1

    def test_measured_clock_path(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        ticks = iter([0.0, 0.004])
        tier = BudgetedPolicy(
            AcceptFirstNodePolicy(0), budget_s=0.05, clock=lambda: next(ticks)
        )
        outcome = tier.decide(build_request(catalog), network)
        assert outcome.elapsed_s == pytest.approx(0.004)
        assert not outcome.timed_out

    def test_reset_clears_counters(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        tier = budgeted(AcceptFirstNodePolicy(0))
        tier.decide(build_request(catalog), network)
        tier.reset()
        assert tier.calls == 0 and tier.timeouts == 0
        assert tier.total_charged_s == 0.0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            BudgetedPolicy(AcceptFirstNodePolicy(0), budget_s=0.0)


# --------------------------------------------------------------------------- #
# AdmissionController
# --------------------------------------------------------------------------- #
class TestAdmissionController:
    def test_token_bucket_depletes_and_refills(self):
        controller = AdmissionController(
            AdmissionConfig(
                tokens_per_second=1.0,
                bucket_capacity=2.0,
                queue_high_watermark=100,
                queue_low_watermark=1,
            )
        )
        assert controller.admit(0.0, 0)
        assert controller.admit(0.0, 0)
        assert not controller.admit(0.0, 0), "bucket empty at t=0"
        assert controller.shed_rate_limited == 1
        assert controller.admit(1.5, 0), "refilled after 1.5 virtual seconds"

    def test_queue_hysteresis_band(self):
        controller = AdmissionController(
            AdmissionConfig(
                tokens_per_second=1000.0,
                bucket_capacity=1000.0,
                queue_high_watermark=8,
                queue_low_watermark=2,
            )
        )
        assert controller.admit(0.0, 7)
        assert not controller.admit(0.0, 8), "high watermark starts shedding"
        assert not controller.admit(0.0, 5), "inside the band: still shedding"
        assert controller.shedding
        assert controller.admit(0.0, 2), "low watermark stops shedding"
        assert controller.shed_mode_entries == 1
        assert controller.shed_mode_exits == 1
        assert controller.shed == controller.shed_overload == 2

    def test_as_dict_and_reset(self):
        controller = AdmissionController()
        controller.admit(0.0, 0)
        snapshot = controller.as_dict()
        assert snapshot["admitted"] == 1 and snapshot["shed"] == 0
        controller.reset()
        assert controller.admitted == 0 and not controller.shedding

    def test_watermark_band_must_exist(self):
        with pytest.raises(ValueError, match="hysteresis band"):
            AdmissionConfig(queue_high_watermark=4, queue_low_watermark=4)


# --------------------------------------------------------------------------- #
# StreamingHistogram / BoundedTrajectory
# --------------------------------------------------------------------------- #
class TestStreamingHistogram:
    def test_quantiles_bounded_by_bin_resolution(self):
        histogram = StreamingHistogram(lo=1e-6, hi=100.0, bins_per_decade=20)
        for _ in range(1000):
            histogram.record(0.01)
        # Bin upper edge overshoots by at most one bin width: 10**(1/20).
        overshoot = 10 ** (1 / 20)
        for q in (0.5, 0.99):
            assert 0.01 <= histogram.quantile(q) <= 0.01 * overshoot * 1.001

    def test_mean_and_max_are_exact(self):
        histogram = StreamingHistogram()
        for value in (0.01, 0.02, 0.06):
            histogram.record(value)
        assert histogram.mean == pytest.approx(0.03)
        assert histogram.max == pytest.approx(0.06)
        assert len(histogram) == 3

    def test_empty_histogram(self):
        histogram = StreamingHistogram()
        assert histogram.quantile(0.99) == 0.0
        assert histogram.mean == 0.0
        assert histogram.as_dict()["count"] == 0

    def test_clamps_out_of_range(self):
        histogram = StreamingHistogram(lo=1e-3, hi=1.0)
        histogram.record(0.0)
        histogram.record(50.0)
        assert len(histogram) == 2
        assert histogram.max == pytest.approx(50.0)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            StreamingHistogram().quantile(1.5)


class TestBoundedTrajectory:
    def test_memory_bounded_by_decimation(self):
        trajectory = BoundedTrajectory(max_points=16)
        for i in range(10_000):
            trajectory.offer(float(i), float(i))
        data = trajectory.as_dict()
        assert len(data["t"]) <= 16
        assert data["t"] == sorted(data["t"])
        # The sketch still spans the full horizon, start included.
        assert data["t"][0] == 0.0
        assert data["t"][-1] >= 10_000 / 2

    def test_small_series_kept_verbatim(self):
        trajectory = BoundedTrajectory(max_points=512)
        for i in range(5):
            trajectory.offer(float(i), float(i * 2))
        assert trajectory.as_dict() == {
            "t": [0.0, 1.0, 2.0, 3.0, 4.0],
            "v": [0.0, 2.0, 4.0, 6.0, 8.0],
        }


# --------------------------------------------------------------------------- #
# FallbackChain
# --------------------------------------------------------------------------- #
class TestFallbackChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            FallbackChain([])
        with pytest.raises(TypeError):
            FallbackChain([GreedyNearestPolicy()])

    def test_fall_through_on_timeout_charges_both_tiers(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        slow = budgeted(AcceptFirstNodePolicy(0), budget_s=0.05, latency_s=0.2)
        fast = budgeted(AcceptFirstNodePolicy(1), budget_s=0.02, latency_s=0.005)
        chain = FallbackChain([slow, fast])
        decision = chain.decide(build_request(catalog), network)
        assert decision.tier_index == 1
        assert decision.placement is not None
        # Charged latency accumulates: capped tier-0 budget + tier-1 elapsed.
        assert decision.charged_s == pytest.approx(0.05 + 0.005)
        assert chain.timeouts[chain.tier_names[0]] == 1
        assert chain.wins[chain.tier_names[1]] == 1
        assert chain.total_budget_s == pytest.approx(0.07)

    def test_all_tiers_decline(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        chain = FallbackChain([budgeted(RejectAllPolicy())])
        decision = chain.decide(build_request(catalog), network)
        assert decision.placement is None and decision.tier_index is None
        assert chain.rejections[chain.tier_names[0]] == 1

    def test_charged_latency_never_exceeds_total_budget(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        tiers = [
            budgeted(RejectAllPolicy(), budget_s=0.03, latency_s=9.9),
            budgeted(RejectAllPolicy(), budget_s=0.01, latency_s=9.9),
        ]
        chain = FallbackChain(tiers)
        decision = chain.decide(build_request(catalog), network)
        assert decision.charged_s <= chain.total_budget_s + 1e-12


# --------------------------------------------------------------------------- #
# OnlinePlacementService
# --------------------------------------------------------------------------- #
class TestOnlinePlacementService:
    def make_service(
        self, config=None, chaos=None, tiers=None, decision_time_scale=1.0
    ):
        network = linear_chain_topology(num_edge_nodes=4, seed=0)
        chain = FallbackChain(
            tiers or [budgeted(AcceptFirstNodePolicy(0), latency_s=0.001)]
        )
        return OnlinePlacementService(
            network,
            chain,
            config
            or ServingConfig(
                horizon=100.0,
                decision_time_scale=decision_time_scale,
                monitoring_interval=10.0,
                admission=AdmissionConfig(
                    tokens_per_second=100.0,
                    bucket_capacity=100.0,
                    queue_high_watermark=8,
                    queue_low_watermark=2,
                ),
            ),
            chaos=chaos,
        )

    def test_accept_and_release_conserves_capacity(self, catalog):
        service = self.make_service()
        # Spaced arrivals: each chain departs before the next arrives, so
        # node-0 capacity is never the binding constraint.
        requests = make_requests(catalog, times=[1.0, 10.0, 20.0], holding=5.0)
        report = service.run(requests)
        assert report.arrivals == 3
        assert report.accepted == 3
        assert report.shed == 0 and report.rejected == 0
        assert not service.lifecycle.active, "all placements released at departure"
        network = service.network
        assert node_available(network, 0).as_array() == pytest.approx(
            network.node(0).capacity.as_array()
        ), "capacity fully restored after departures"

    def test_rejection_accounted_separately_from_shed(self, catalog):
        service = self.make_service(tiers=[budgeted(RejectAllPolicy())])
        report = service.run(make_requests(catalog, times=[1.0, 2.0]))
        assert report.rejected == 2 and report.shed == 0 and report.accepted == 0

    def test_overload_sheds_and_bounds_queue(self, catalog):
        # Each decision occupies the server for 1.0 virtual seconds while
        # arrivals come every 0.01s: the queue hits the high watermark and
        # admission must shed the excess.
        config = ServingConfig(
            horizon=100.0,
            decision_time_scale=100.0,  # 0.01 s charged -> 1.0 virtual seconds
            monitoring_interval=10.0,
            admission=AdmissionConfig(
                tokens_per_second=1000.0,
                bucket_capacity=1000.0,
                queue_high_watermark=4,
                queue_low_watermark=1,
            ),
        )
        service = self.make_service(
            config=config,
            tiers=[budgeted(AcceptFirstNodePolicy(0), latency_s=0.01, budget_s=0.05)],
        )
        times = [0.01 * i for i in range(1, 61)]
        report = service.run(make_requests(catalog, times=times, holding=1000.0))
        assert report.shed > 0
        assert report.max_queue_depth <= 4
        assert report.admission["shed_mode_entries"] >= 1
        assert report.arrivals == report.shed + report.accepted + report.rejected

    def test_decision_latency_recorded_and_bounded(self, catalog):
        service = self.make_service()
        report = service.run(make_requests(catalog, times=[1.0, 2.0]))
        stats = report.decision_latency.as_dict()
        assert stats["count"] == 2
        assert stats["max"] <= service.chain.total_budget_s

    def test_node_failure_disrupts_and_retry_replaces(self, catalog):
        # Tier 0 places on node 0, which fails at t=5; the retry (t=7, after
        # retry_base_delay=2) falls through to tier 1 and lands on node 1.
        chaos = FixedChaos([ChaosEvent(time=5.0, kind="node_failure", node_id=0)])
        tiers = [
            budgeted(AcceptFirstNodePolicy(0), latency_s=0.001),
            budgeted(AcceptFirstNodePolicy(1), latency_s=0.001),
        ]
        service = self.make_service(chaos=chaos, tiers=tiers)
        report = service.run(make_requests(catalog, times=[1.0], holding=50.0))
        assert report.accepted == 1
        assert report.disrupted == 1
        assert report.replaced == 1
        assert report.lost == 0 and report.expired == 0
        # The re-placement's departure still fires and releases capacity.
        network = service.network
        assert node_available(network, 1).as_array() == pytest.approx(
            network.node(1).capacity.as_array()
        )

    def test_retry_budget_exhaustion_declares_lost(self, catalog):
        # The only placement target fails and never recovers: retries back
        # off exponentially and the chain is declared lost.
        chaos = FixedChaos([ChaosEvent(time=5.0, kind="node_failure", node_id=0)])
        service = self.make_service(chaos=chaos)
        report = service.run(make_requests(catalog, times=[1.0], holding=500.0))
        assert report.disrupted == 1
        assert report.lost == 1
        assert report.replaced == 0
        assert report.retry_attempts == service.config.retry_max_attempts

    def test_retry_after_departure_time_expires(self, catalog):
        # Disruption right before the chain would have departed: the first
        # retry fires after departure_time and must be accounted as expired.
        chaos = FixedChaos([ChaosEvent(time=5.5, kind="node_failure", node_id=0)])
        service = self.make_service(chaos=chaos)
        report = service.run(make_requests(catalog, times=[1.0], holding=5.0))
        assert report.disrupted == 1
        assert report.expired == 1
        assert report.lost == 0 and report.replaced == 0

    def test_chaos_racing_a_commit_fails_the_commit(self, catalog):
        # The t=4 decision is charged 0.02 s, i.e. 2 virtual seconds: it
        # plans onto node 0 before node 0 fails at t=5 and commits after.
        # Re-validation at commit time must refuse the stale placement.
        chaos = FixedChaos([ChaosEvent(time=5.0, kind="node_failure", node_id=0)])
        service = self.make_service(
            chaos=chaos,
            tiers=[budgeted(AcceptFirstNodePolicy(0), latency_s=0.02)],
            decision_time_scale=100.0,
        )
        report = service.run(make_requests(catalog, times=[4.0], holding=50.0))
        assert report.commit_failed == 1
        assert report.accepted == report.disrupted == 0
        assert report.arrivals == (
            report.shed + report.accepted + report.rejected + report.commit_failed
        )
        assert not service.lifecycle.active

    def test_disruption_taxonomy_closes(self, catalog):
        chaos = FixedChaos(
            [
                ChaosEvent(time=4.0, kind="node_failure", node_id=0),
                ChaosEvent(time=20.0, kind="node_recovery", node_id=0),
            ]
        )
        tiers = [
            budgeted(AcceptFirstNodePolicy(0), latency_s=0.001),
            budgeted(AcceptFirstNodePolicy(1), latency_s=0.001),
        ]
        service = self.make_service(chaos=chaos, tiers=tiers)
        report = service.run(
            make_requests(catalog, times=[1.0, 2.0, 3.0], holding=40.0)
        )
        assert report.disrupted == report.replaced + report.lost + report.expired

    def test_run_is_repeatable(self, catalog):
        service = self.make_service()
        times = [1.0, 2.0, 3.0]
        first = service.run(make_requests(catalog, times=times)).as_dict()
        second = service.run(make_requests(catalog, times=times)).as_dict()
        assert first == second

    def test_report_as_dict_schema(self, catalog):
        service = self.make_service()
        report = service.run(make_requests(catalog, times=[1.0]))
        data = report.as_dict()
        for key in (
            "arrivals",
            "shed",
            "accepted",
            "rejected",
            "commit_failed",
            "disrupted",
            "replaced",
            "lost",
            "expired",
            "tier_wins",
            "decision_latency_s",
            "trajectories",
            "admission",
        ):
            assert key in data
        assert set(data["trajectories"]) == {
            "queue_depth",
            "shed_rate",
            "sla_violation_rate",
        }


# --------------------------------------------------------------------------- #
# Lazy trace
# --------------------------------------------------------------------------- #
class TestLazyTrace:
    def test_iter_trace_matches_generate_requests(self):
        scenario = reference_scenario(
            arrival_rate=0.5, num_edge_nodes=8, horizon=60.0, seed=7
        )
        eager = scenario.generate_requests()
        # The lazy stream the serving loop reads.
        lazy = list(
            scenario.build_generator().iter_trace(
                arrival_process=scenario.build_arrival_process(),
                horizon=scenario.workload_config.horizon,
            )
        )
        assert len(eager) == len(lazy)
        for a, b in zip(eager, lazy):
            assert a.arrival_time == b.arrival_time
            assert a.source_node_id == b.source_node_id
            assert a.chain.bandwidth_mbps == b.chain.bandwidth_mbps
