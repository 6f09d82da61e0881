"""Online NFV simulation: arrivals, admission, departures, failures, metrics.

:class:`NFVSimulation` wires a :class:`SubstrateNetwork`, a stream of
:class:`~repro.nfv.sfc.SFCRequest` objects and a :class:`PlacementPolicy`
into the discrete-event engine.  Every policy — learned or heuristic — is
evaluated through exactly the same admission loop, which is what makes the
cross-policy comparisons in the benchmark harness fair.

Placements are committed, released, evicted and fenced through a
:class:`~repro.sim.lifecycle.PlacementLifecycle`, the one the serving loop
also composes, so the simulator is that lifecycle plus immediate decisions
and, given a failure model, injected node and link failures.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest
from repro.sim.engine import EventEngine
from repro.sim.events import (
    Event,
    EventType,
    arrival_event,
    departure_event,
    monitoring_event,
)
from repro.sim.failures import (
    DisruptionReport,
    DomainFailureConfig,
    DomainFailureInjector,
    FailureConfig,
    FailureInjector,
    FaultDomain,
    fault_domains_from_network,
)
from repro.sim.lifecycle import PlacementLifecycle
from repro.sim.metrics import MetricsCollector, MetricsSummary
from repro.substrate.network import SubstrateNetwork
from repro.utils.validation import check_positive


class PlacementPolicy(ABC):
    """Interface every online placement policy implements.

    A policy receives one request at a time together with the *current*
    substrate state and returns either a routed :class:`Placement` to commit
    or ``None`` to reject the request.  Policies must not mutate the network;
    the simulation commits the returned placement itself.

    Batched protocol
    ----------------
    Beyond the per-request :meth:`place` entry point, every policy speaks the
    same batched acting API as a learning agent: after :meth:`bind_lanes` ties
    the policy to the lanes of a vectorized environment (either core),
    :meth:`select_actions` emits one action per lane for each batched
    decision step, which makes heuristics, tabular agents and neural agents
    interchangeable in vectorized evaluation loops.  The default
    implementation plans each lane's current request once through
    :meth:`plan_assignment` and replays the planned nodes one VNF at a time;
    it is the production path of the random, Viterbi and brute-force
    baselines.  The node-scoring heuristics override :meth:`select_actions`
    with array kernels over the SoA core's shared decision context and the
    ``(K, A)`` validity masks.
    """

    #: Human-readable name used in result tables.
    name: str = "policy"

    @abstractmethod
    def place(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Placement]:
        """Return a feasible placement for ``request`` or ``None`` to reject."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        """The node assignment this policy would choose, or ``None`` to reject.

        This is the per-request planner of the batched protocol, which the
        default :meth:`select_actions` replays one VNF at a time.  This
        default derives it from :meth:`place`; assignment-first policies
        override it directly and derive :meth:`place` from it instead.
        """
        placement = self.place(request, network)
        return None if placement is None else tuple(placement.node_assignment)

    # ------------------------------------------------------------------ #
    # Batched acting API (vectorized-environment lanes)
    # ------------------------------------------------------------------ #
    def bind_lanes(self, lanes) -> "PlacementPolicy":
        """Bind this policy to vectorized environment lanes.

        ``lanes`` is a vectorized environment of either core or a plain
        sequence of :class:`~repro.core.env.VNFPlacementEnv` objects: the
        lanes are a vec env's ``envs`` (reference envs, or the SoA core's
        :class:`~repro.core.soa.SoALane` views).  Binding initializes the
        per-lane plan cache used by the default :meth:`select_actions`;
        returns ``self`` for chaining.
        """
        envs = list(getattr(lanes, "envs", lanes))
        if not envs:
            raise ValueError("bind_lanes() needs at least one lane")
        self._lane_envs = envs
        # Bound to an SoA env, score kernels share its per-step
        # LaneDecisionContext instead of planning per lane.
        self._lane_venv = lanes if hasattr(lanes, "lane_decision_context") else None
        self._lane_plans: List[Optional[List[int]]] = [None] * len(envs)
        self._lane_request_ids: List[Optional[int]] = [None] * len(envs)
        return self

    @property
    def bound_lanes(self) -> List:
        """The lane environments bound with :meth:`bind_lanes`."""
        lanes = getattr(self, "_lane_envs", None)
        if not lanes:
            raise RuntimeError(
                f"policy {self.name!r} is not bound to vectorized lanes; "
                "call bind_lanes(venv) first"
            )
        return lanes

    def select_actions(
        self,
        states: Optional[np.ndarray] = None,
        masks: Optional[np.ndarray] = None,
        greedy: bool = True,
    ) -> np.ndarray:
        """One action per bound lane for the current batched decision step.

        Mirrors ``Agent.select_actions``: ``states`` is the ``(K, S)``
        observation batch and ``masks`` the ``(K, A)`` validity masks.
        Heuristic policies decide from the lane substrate rather than the
        encoded observations, so ``states`` may be ``None`` (and lane
        evaluation may skip encoding entirely); ``greedy`` is accepted for
        signature compatibility and ignored — heuristics have no exploration
        mode.

        This default plans each lane's current request once via
        :meth:`plan_assignment` (against that lane's ``network``: the live
        substrate of a reference lane, a usage copy of an SoA lane) and
        replays the planned nodes one VNF decision at a time.  Vectorized
        overrides must be decision-for-decision identical to it; the
        equivalence suite calls ``PlacementPolicy.select_actions(policy)``
        and asserts it bitwise.
        """
        lanes = self.bound_lanes
        actions = np.empty(len(lanes), dtype=int)
        for lane, env in enumerate(lanes):
            actions[lane] = self._lane_planned_action(lane, env)
        return actions

    def _lane_planned_action(self, lane: int, env) -> int:
        request = env.current_request
        if request is None:
            return env.num_actions - 1
        if self._lane_request_ids[lane] != request.request_id:
            self._lane_request_ids[lane] = request.request_id
            network = env.network
            assignment = self.plan_assignment(request, network)
            # An action is a ledger row in both env cores.
            node_row = network.topology.node_row
            self._lane_plans[lane] = (
                None if assignment is None else [node_row[node] for node in assignment]
            )
        plan = self._lane_plans[lane]
        if plan is None:
            return env.num_actions - 1
        return plan[env.vnf_index]

    def reset(self) -> None:
        """Hook invoked at the start of every simulation run (optional).

        Clears the per-lane plan cache of the batched protocol; subclasses
        extending this must call ``super().reset()``.
        """
        lanes = getattr(self, "_lane_envs", None)
        if lanes:
            self._lane_plans = [None] * len(lanes)
            self._lane_request_ids = [None] * len(lanes)


@dataclass
class SimulationConfig:
    """Configuration of one online simulation run."""

    horizon: float = 1000.0
    monitoring_interval: float = 25.0
    revenue_per_mbps: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.horizon, "horizon")
        check_positive(self.monitoring_interval, "monitoring_interval")


@dataclass
class SimulationResult:
    """The outcome of one simulation run."""

    policy_name: str
    summary: MetricsSummary
    collector: MetricsCollector
    processed_events: int
    horizon: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view used by the experiment harness."""
        data = self.summary.as_dict()
        data["policy"] = self.policy_name
        data["processed_events"] = self.processed_events
        data["horizon"] = self.horizon
        return data


class NFVSimulation:
    """Drives one placement policy over one request trace.

    With ``failure_config`` (independent node failures) and/or
    ``domain_config`` / ``domains`` (correlated fault-domain and link chaos;
    ``domains`` defaults to :func:`~repro.sim.failures.fault_domains_from_network`)
    the run also injects failure and recovery events: a failed component is
    fenced, every active placement on it is torn down and counted as
    disrupted in :attr:`report`, and the fence lifts on recovery.  Without
    any of them the substrate never fails.
    """

    def __init__(
        self,
        network: SubstrateNetwork,
        policy: PlacementPolicy,
        config: Optional[SimulationConfig] = None,
        failure_config: Optional[FailureConfig] = None,
        domain_config: Optional[DomainFailureConfig] = None,
        domains: Optional[Sequence[FaultDomain]] = None,
    ) -> None:
        self.network = network
        self.policy = policy
        self.config = config or SimulationConfig()
        self.engine = EventEngine()
        self.collector = MetricsCollector()
        self.lifecycle = PlacementLifecycle(network)
        self.report = DisruptionReport()
        self.injector = (
            FailureInjector(failure_config) if failure_config is not None else None
        )
        self.domain_injector: Optional[DomainFailureInjector] = None
        if domain_config is not None or domains is not None:
            resolved = (
                list(domains) if domains is not None
                else fault_domains_from_network(network)
            )
            self.domain_injector = DomainFailureInjector(resolved, domain_config)
        engine = self.engine
        engine.on(EventType.REQUEST_ARRIVAL, self._handle_arrival)
        engine.on(EventType.REQUEST_DEPARTURE, self._handle_departure)
        engine.on(EventType.MONITORING, self._handle_monitoring)
        engine.on(EventType.NODE_FAILURE, self._handle_failure)
        engine.on(EventType.NODE_RECOVERY, self._handle_recovery)
        engine.on(EventType.LINK_FAILURE, self._handle_link_failure)
        engine.on(EventType.LINK_RECOVERY, self._handle_link_recovery)

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _handle_arrival(self, event: Event) -> None:
        request: SFCRequest = event.payload
        placement = self.policy.place(request, self.network)
        if placement is None:
            self.collector.record_rejection(request, reason="policy_rejected")
            return
        reason = self.lifecycle.commit(request.request_id, placement)
        if reason is not None:
            self.collector.record_rejection(request, reason=reason)
            return
        self.engine.schedule(
            departure_event(request.departure_time, request.request_id)
        )
        self.collector.record_acceptance(
            request,
            latency_ms=placement.end_to_end_latency_ms(),
            sla_satisfied=placement.satisfies_sla(self.network),
            cost=placement.total_cost(self.network),
            revenue=request.revenue(self.config.revenue_per_mbps),
            edge_fraction=placement.edge_fraction(self.network),
        )

    def _handle_departure(self, event: Event) -> None:
        self.lifecycle.depart(event.payload)

    def _handle_monitoring(self, event: Event) -> None:
        # One pass over the ledger arrays yields all three utilization
        # statistics instead of three object-by-object sweeps.
        ledger = self.network.ledger
        mean_edge_utilization, utilization_imbalance = ledger.utilization_stats(
            edge_only=True
        )
        self.collector.record_utilization(
            time=event.time,
            mean_edge_utilization=mean_edge_utilization,
            utilization_imbalance=utilization_imbalance,
            cost_rate=ledger.cost_rate(),
            active_requests=len(self.lifecycle.active),
        )

    def _handle_failure(self, event: Event) -> None:
        evicted = self.lifecycle.fail_node(event.payload)
        if evicted is not None:
            self.report.failure_events += 1
            self._disrupt(evicted)

    def _handle_recovery(self, event: Event) -> None:
        if self.lifecycle.recover_node(event.payload):
            self.report.recovery_events += 1

    def _handle_link_failure(self, event: Event) -> None:
        evicted = self.lifecycle.fail_link(event.payload)
        if evicted is not None:
            self.report.link_failure_events += 1
            self._disrupt(evicted)

    def _handle_link_recovery(self, event: Event) -> None:
        if self.lifecycle.recover_link(event.payload):
            self.report.link_recovery_events += 1

    def _disrupt(self, evicted: List[Placement]) -> None:
        self.report.disrupted_requests += len(evicted)
        self.report.disrupted_request_ids.extend(
            placement.request.request_id for placement in evicted
        )

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self, requests: Iterable[SFCRequest]) -> SimulationResult:
        """Simulate the policy over ``requests`` and return reduced metrics.

        Requests arriving after the horizon are not simulated.
        """
        horizon = self.config.horizon
        self.network.reset()
        self.engine.reset()
        # Failure events go in before arrivals: at equal timestamps the
        # engine's FIFO tie-break then fails a component before admitting.
        for injector in (self.injector, self.domain_injector):
            if injector is not None:
                for failure in injector.schedule(self.network, horizon):
                    self.engine.schedule(failure.to_engine_event())
        self.collector.reset()
        self.lifecycle.clear()
        self.report = DisruptionReport()
        self.policy.reset()

        for request in sorted(requests, key=lambda r: r.arrival_time):
            if request.arrival_time > horizon:
                break
            self.engine.schedule(arrival_event(request.arrival_time, request))

        time = self.config.monitoring_interval
        while time <= horizon:
            self.engine.schedule(monitoring_event(time))
            time += self.config.monitoring_interval

        processed = self.engine.run(until=horizon)
        # Drain departures scheduled past the horizon so allocations release.
        processed += self.engine.run()

        return SimulationResult(
            policy_name=self.policy.name,
            summary=self.collector.summary(),
            collector=self.collector,
            processed_events=processed,
            horizon=horizon,
        )


def run_policy_comparison(
    network_factory,
    policies: Sequence[PlacementPolicy],
    requests: Sequence[SFCRequest],
    config: Optional[SimulationConfig] = None,
) -> List[SimulationResult]:
    """Evaluate several policies on identical traces and fresh substrates.

    ``network_factory`` is called once per policy so allocations made by one
    policy can never leak into another policy's run.
    """
    results: List[SimulationResult] = []
    for policy in policies:
        network = network_factory()
        simulation = NFVSimulation(network, policy, config)
        results.append(simulation.run(list(requests)))
    return results
