"""The long-running online placement service.

:class:`OnlinePlacementService` replays a (possibly multi-day, multi-million
request) arrival trace through a tiered fallback chain of budgeted placement
policies as a bounded-queue event loop:

1. **Admission** — every arrival first passes the
   :class:`~repro.serving.admission.AdmissionController`; shed requests never
   reach a policy.
2. **Decision** — a single virtual decision server works the queue in FIFO
   order.  Each decision runs the :class:`FallbackChain`: tier after tier is
   consulted under its wall-clock budget until one produces a feasible
   placement, so total decision latency is bounded by the sum of the tier
   budgets.  Charged wall-clock maps into simulation time through
   ``decision_time_scale``, which is what makes slow policies *cause* queueing
   and admission pressure rather than just being measured.
3. **Commit** — the winning placement is re-validated and committed at
   decision-completion time through the
   :class:`~repro.sim.lifecycle.PlacementLifecycle` the simulator also
   composes, so a failure or departure racing the decision surfaces as an
   explicit ``commit_failed`` outcome instead of corrupting capacity
   accounting.
4. **Chaos + retry** — correlated fault-domain and link failures (scheduled
   by :mod:`repro.sim.failures`) go to the lifecycle, which fences capacity
   and evicts the running chains they hit; those disrupted chains enter a
   re-placement pipeline with exponential backoff and a bounded retry budget
   before being declared lost.

Everything the loop accounts for streams into the fixed-memory
:class:`~repro.serving.report.ServingReport`, so the service stays memory-flat
over arbitrarily long traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.timeout import BudgetedPolicy
from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.report import BoundedTrajectory, ServingReport, StreamingHistogram
from repro.sim.engine import EventEngine
from repro.sim.events import Event, EventType, arrival_event, monitoring_event
from repro.sim.failures import DomainFailureInjector
from repro.sim.lifecycle import PlacementLifecycle
# Re-exported for the benchmark harness, which traces these names on this module.
from repro.sim.lifecycle import (  # noqa: F401
    placement_traverses_link,
    refresh_link_fence,
    refresh_node_fence,
    release_link_fence,
    release_node_fence,
)
from repro.substrate.network import SubstrateNetwork
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ChainDecision:
    """What the fallback chain decided for one request."""

    placement: Optional[Placement]
    tier_index: Optional[int]
    charged_s: float


class FallbackChain:
    """Tiers of budgeted policies consulted in order until one places.

    A tier is skipped over (falling through to the next) when it times out,
    declines the request, or proposes a placement that is infeasible on the
    current substrate; per-tier counters attribute every fall-through.
    """

    def __init__(self, tiers: Sequence[BudgetedPolicy]) -> None:
        if not tiers:
            raise ValueError("FallbackChain needs at least one tier")
        for tier in tiers:
            if not isinstance(tier, BudgetedPolicy):
                raise TypeError(
                    f"every tier must be a BudgetedPolicy, got {type(tier).__name__}"
                )
        self.tiers = list(tiers)
        self.tier_names = [
            f"{index}:{tier.policy.name}" for index, tier in enumerate(self.tiers)
        ]
        self.reset_counters()

    @property
    def total_budget_s(self) -> float:
        """The hard upper bound on one decision's charged latency."""
        return sum(tier.budget_s for tier in self.tiers)

    def reset_counters(self) -> None:
        """Zero the per-tier attribution counters."""
        names = self.tier_names
        self.wins: Dict[str, int] = {name: 0 for name in names}
        self.timeouts: Dict[str, int] = {name: 0 for name in names}
        self.rejections: Dict[str, int] = {name: 0 for name in names}
        self.infeasible: Dict[str, int] = {name: 0 for name in names}

    def decide(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> ChainDecision:
        """Consult tiers in order; charged latencies accumulate across tiers."""
        charged = 0.0
        for index, tier in enumerate(self.tiers):
            name = self.tier_names[index]
            outcome = tier.decide(request, network)
            charged += outcome.charged_s
            if outcome.timed_out:
                self.timeouts[name] += 1
                continue
            if outcome.placement is None:
                self.rejections[name] += 1
                continue
            if not outcome.placement.is_feasible(network):
                self.infeasible[name] += 1
                continue
            self.wins[name] += 1
            return ChainDecision(
                placement=outcome.placement, tier_index=index, charged_s=charged
            )
        return ChainDecision(placement=None, tier_index=None, charged_s=charged)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the online serving loop.

    ``decision_time_scale`` converts charged decision wall-clock seconds into
    virtual trace seconds (a scale of 1.0 means a 10 ms decision occupies the
    decision server for 10 ms of trace time).  Retries back off as
    ``retry_base_delay * retry_backoff ** attempt`` and give up after
    ``retry_max_attempts`` failed re-placements.
    """

    horizon: float = 1000.0
    decision_time_scale: float = 1.0
    monitoring_interval: float = 50.0
    max_trajectory_points: int = 512
    retry_base_delay: float = 2.0
    retry_backoff: float = 2.0
    retry_max_attempts: int = 4
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def __post_init__(self) -> None:
        check_positive(self.horizon, "horizon")
        check_non_negative(self.decision_time_scale, "decision_time_scale")
        check_positive(self.monitoring_interval, "monitoring_interval")
        check_positive(self.max_trajectory_points, "max_trajectory_points")
        check_positive(self.retry_base_delay, "retry_base_delay")
        check_positive(self.retry_backoff, "retry_backoff")
        check_positive(self.retry_max_attempts, "retry_max_attempts")


@dataclass(frozen=True)
class _RetryState:
    """One disrupted request moving through the re-placement pipeline."""

    request: SFCRequest
    attempt: int


class OnlinePlacementService:
    """Bounded-queue online serving loop over a streaming request trace."""

    def __init__(
        self,
        network: SubstrateNetwork,
        chain: FallbackChain,
        config: Optional[ServingConfig] = None,
        chaos: Optional[DomainFailureInjector] = None,
    ) -> None:
        self.network = network
        self.chain = chain
        self.config = config or ServingConfig()
        self.chaos = chaos
        self.engine = EventEngine()
        self.admission = AdmissionController(self.config.admission)
        self.report = ServingReport()
        self.lifecycle = PlacementLifecycle(network)
        self._queue: Deque[SFCRequest] = deque()
        self._decision_busy = False
        self._arrivals: Iterator[SFCRequest] = iter(())
        self._window = {"arrivals": 0, "shed": 0, "accepted": 0, "sla_violations": 0}
        engine = self.engine
        engine.on(EventType.REQUEST_ARRIVAL, self._handle_arrival)
        engine.on(EventType.DECISION_COMPLETE, self._handle_decision_complete)
        engine.on(EventType.REQUEST_DEPARTURE, self._handle_departure)
        engine.on(EventType.REPLACEMENT_RETRY, self._handle_retry)
        engine.on(EventType.MONITORING, self._handle_monitoring)
        engine.on(EventType.NODE_FAILURE, self._handle_node_failure)
        engine.on(EventType.NODE_RECOVERY, self._handle_node_recovery)
        engine.on(EventType.LINK_FAILURE, self._handle_link_failure)
        engine.on(EventType.LINK_RECOVERY, self._handle_link_recovery)

    # ------------------------------------------------------------------ #
    # Arrival / admission
    # ------------------------------------------------------------------ #
    def _schedule_next_arrival(self) -> None:
        """Pull one request from the stream (keeps one arrival in flight)."""
        for request in self._arrivals:
            if request.arrival_time > self.config.horizon:
                break
            self.engine.schedule(arrival_event(request.arrival_time, request))
            return

    def _handle_arrival(self, event: Event) -> None:
        request: SFCRequest = event.payload
        self._schedule_next_arrival()
        self.report.arrivals += 1
        self._window["arrivals"] += 1
        if not self.admission.admit(event.time, len(self._queue)):
            self.report.shed += 1
            self._window["shed"] += 1
            return
        self._queue.append(request)
        depth = len(self._queue)
        if depth > self.report.max_queue_depth:
            self.report.max_queue_depth = depth
        self._maybe_start_decision()

    # ------------------------------------------------------------------ #
    # Decision service
    # ------------------------------------------------------------------ #
    def _maybe_start_decision(self) -> None:
        if self._decision_busy or not self._queue:
            return
        request = self._queue.popleft()
        decision = self.chain.decide(request, self.network)
        self._decision_busy = True
        complete_at = self.engine.now + (
            decision.charged_s * self.config.decision_time_scale
        )
        self.engine.schedule(
            Event.create(
                complete_at, EventType.DECISION_COMPLETE, payload=(request, decision)
            )
        )

    def _handle_decision_complete(self, event: Event) -> None:
        request, decision = event.payload
        self._decision_busy = False
        self.report.decision_latency.record(decision.charged_s)
        if decision.placement is None:
            self.report.rejected += 1
        else:
            self._commit_decision(request, decision.placement)
        self._maybe_start_decision()

    def _commit_decision(self, request: SFCRequest, placement: Placement) -> None:
        # The placement was planned at decision *start*; failures, recoveries
        # or departures may have intervened, so the lifecycle re-validates it.
        if self.lifecycle.commit(request.request_id, placement) is not None:
            self.report.commit_failed += 1
            return
        self.engine.schedule(
            Event.create(
                max(self.engine.now, request.departure_time),
                EventType.REQUEST_DEPARTURE,
                payload=request.request_id,
            )
        )
        self.report.accepted += 1
        self._window["accepted"] += 1
        if not placement.satisfies_sla(self.network):
            self.report.sla_violations += 1
            self._window["sla_violations"] += 1

    def _handle_departure(self, event: Event) -> None:
        # A request disrupted earlier (and possibly lost) has nothing to free.
        self.lifecycle.depart(event.payload)

    # ------------------------------------------------------------------ #
    # Chaos: failures, fencing, disruption
    # ------------------------------------------------------------------ #
    def _handle_node_failure(self, event: Event) -> None:
        self._disrupt(self.lifecycle.fail_node(event.payload))

    def _handle_node_recovery(self, event: Event) -> None:
        self.lifecycle.recover_node(event.payload)

    def _handle_link_failure(self, event: Event) -> None:
        self._disrupt(self.lifecycle.fail_link(event.payload))

    def _handle_link_recovery(self, event: Event) -> None:
        self.lifecycle.recover_link(event.payload)

    def _disrupt(self, evicted: Optional[List[Placement]]) -> None:
        """Enqueue the chains a failure evicted for re-placement."""
        for placement in evicted or ():
            self.report.disrupted += 1
            self.engine.schedule(
                Event.create(
                    self.engine.now + self.config.retry_base_delay,
                    EventType.REPLACEMENT_RETRY,
                    payload=_RetryState(request=placement.request, attempt=0),
                )
            )

    # ------------------------------------------------------------------ #
    # Re-placement pipeline
    # ------------------------------------------------------------------ #
    def _handle_retry(self, event: Event) -> None:
        state: _RetryState = event.payload
        request = state.request
        if request.departure_time - self.engine.now <= 0.0:
            self.report.expired += 1
            return
        self.report.retry_attempts += 1
        # Retries run on the control plane: they bypass admission and do not
        # occupy the decision server (the request already paid for its
        # original decision), but they go through the same budgeted chain.
        decision = self.chain.decide(request, self.network)
        if (
            decision.placement is not None
            and self.lifecycle.commit(request.request_id, decision.placement) is None
        ):
            self.report.replaced += 1
            # The departure event from the original acceptance is still
            # scheduled and will release this re-placement at the right time.
            return
        next_attempt = state.attempt + 1
        if next_attempt >= self.config.retry_max_attempts:
            self.report.lost += 1
            return
        delay = self.config.retry_base_delay * (
            self.config.retry_backoff ** next_attempt
        )
        self.engine.schedule(
            Event.create(
                self.engine.now + delay,
                EventType.REPLACEMENT_RETRY,
                payload=_RetryState(request=request, attempt=next_attempt),
            )
        )

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #
    def _handle_monitoring(self, event: Event) -> None:
        window = self._window
        arrivals = max(1, window["arrivals"])
        accepted = max(1, window["accepted"])
        self.report.queue_depth_trajectory.offer(event.time, float(len(self._queue)))
        self.report.shed_rate_trajectory.offer(
            event.time, window["shed"] / arrivals
        )
        self.report.sla_violation_trajectory.offer(
            event.time, window["sla_violations"] / accepted
        )
        for key in window:
            window[key] = 0
        next_time = event.time + self.config.monitoring_interval
        if next_time <= self.config.horizon:
            self.engine.schedule(monitoring_event(next_time))

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self, requests: Iterable[SFCRequest]) -> ServingReport:
        """Serve the (arrival-ordered) request stream and return the report.

        ``requests`` may be any iterable, including a lazy generator — only
        one pending arrival is ever held in the event queue, which is what
        keeps multi-million-request soaks memory-flat.
        """
        config = self.config
        self.network.reset()
        self.engine.reset()
        self.admission.reset()
        self.chain.reset_counters()
        for tier in self.chain.tiers:
            tier.reset()
        self.report = ServingReport(
            decision_latency=StreamingHistogram(),
            queue_depth_trajectory=BoundedTrajectory(config.max_trajectory_points),
            shed_rate_trajectory=BoundedTrajectory(config.max_trajectory_points),
            sla_violation_trajectory=BoundedTrajectory(
                config.max_trajectory_points
            ),
        )
        self._queue.clear()
        self.lifecycle.clear()
        self._decision_busy = False
        for key in self._window:
            self._window[key] = 0

        if self.chaos is not None:
            for chaos_event in self.chaos.schedule(self.network, config.horizon):
                self.engine.schedule(chaos_event.to_engine_event())
        self._arrivals = iter(requests)
        self._schedule_next_arrival()
        self.engine.schedule(monitoring_event(config.monitoring_interval))

        processed = self.engine.run(until=config.horizon)
        # Drain in-flight decisions, retries and departures past the horizon
        # so every commitment resolves and capacity accounting closes.
        processed += self.engine.run()

        self.report.tier_wins = dict(self.chain.wins)
        self.report.tier_timeouts = dict(self.chain.timeouts)
        self.report.tier_rejections = dict(self.chain.rejections)
        self.report.tier_infeasible = dict(self.chain.infeasible)
        self.report.admission = self.admission.as_dict()
        self.report.horizon = config.horizon
        self.report.processed_events = processed
        return self.report
