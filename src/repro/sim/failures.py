"""Failure models for availability / fault-tolerance evaluation.

This module generates the failure schedules used by availability experiments
and the online serving harness:

* :class:`FailureConfig` / :class:`FailureInjector` — a reproducible
  *independent per-node* failure/recovery schedule (exponential time to
  failure and time to repair),
* :class:`FaultDomain` / :class:`DomainFailureConfig` /
  :class:`DomainFailureInjector` — *correlated* failures: a whole rack/metro/
  region domain of nodes fails together, optionally taking its incident links
  down with it, plus independent link failures, and
* :class:`DisruptionReport` — the fault-tolerance counters of one run.

The schedules are consumed by :class:`~repro.sim.simulation.NFVSimulation`
(``failure_config=`` / ``domain_config=``), the serving loop and the
environments; what a failure *does* to the substrate — eviction and capacity
fencing — lives in :mod:`repro.sim.lifecycle`.

Disruptions are reported separately from rejections: a disrupted request was
admitted and then lost service, which is the quantity availability SLAs care
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.events import Event, EventType
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import RandomState, derive_seed, new_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FailureConfig:
    """Parameters of the per-node failure/repair process.

    Each node fails independently with exponentially distributed time to
    failure and time to repair, i.e. a two-state Markov availability model
    with steady-state availability ``MTTF / (MTTF + MTTR)``.
    """

    mean_time_to_failure: float = 500.0
    mean_time_to_repair: float = 25.0
    edge_only: bool = True
    seed: RandomState = None

    def __post_init__(self) -> None:
        check_positive(self.mean_time_to_failure, "mean_time_to_failure")
        check_positive(self.mean_time_to_repair, "mean_time_to_repair")

    @property
    def steady_state_availability(self) -> float:
        """Long-run fraction of time a node is up under this model."""
        return self.mean_time_to_failure / (
            self.mean_time_to_failure + self.mean_time_to_repair
        )


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled failure or recovery of a node."""

    time: float
    node_id: int
    is_failure: bool

    def to_engine_event(self) -> Event:
        """The :class:`~repro.sim.events.Event` this failure event injects."""
        kind = EventType.NODE_FAILURE if self.is_failure else EventType.NODE_RECOVERY
        return Event.create(self.time, kind, payload=self.node_id)


class FailureInjector:
    """Generates a reproducible failure/recovery schedule for a substrate."""

    def __init__(self, config: Optional[FailureConfig] = None) -> None:
        self.config = config or FailureConfig()

    def schedule(
        self, network: SubstrateNetwork, horizon: float
    ) -> List[FailureEvent]:
        """Alternating failure/recovery events per node up to ``horizon``.

        Events for each node alternate FAIL → RECOVER → FAIL → ...; the whole
        schedule is returned time-sorted.
        """
        check_positive(horizon, "horizon")
        rng = new_rng(self.config.seed)
        node_ids = (
            network.edge_node_ids if self.config.edge_only else network.node_ids
        )
        events: List[FailureEvent] = []
        for node_id in node_ids:
            time = 0.0
            while True:
                time += float(rng.exponential(self.config.mean_time_to_failure))
                if time > horizon:
                    break
                events.append(FailureEvent(time=time, node_id=node_id, is_failure=True))
                time += float(rng.exponential(self.config.mean_time_to_repair))
                if time > horizon:
                    break
                events.append(FailureEvent(time=time, node_id=node_id, is_failure=False))
        events.sort(key=lambda e: e.time)
        return events


# --------------------------------------------------------------------------- #
# Correlated fault domains and link failures
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultDomain:
    """A set of substrate nodes that fails (and recovers) together.

    A domain models shared infrastructure — a rack PDU, a metro aggregation
    site, a regional power grid.  The member nodes go down simultaneously;
    their incident links can optionally be taken down with them (configured on
    :class:`DomainFailureConfig`).
    """

    name: str
    node_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.node_ids:
            raise ValueError(f"fault domain {self.name!r} has no member nodes")
        object.__setattr__(self, "node_ids", tuple(self.node_ids))


def fault_domains_from_network(
    network: SubstrateNetwork, edge_only: bool = True
) -> List[FaultDomain]:
    """Derive fault domains from a substrate's node names.

    Nodes generated by the topology builders carry names like
    ``new_york-edge-3`` / ``denver-cloud-0``; everything before the tier
    marker is the metro/site the node lives in, which is exactly the blast
    radius a correlated infrastructure failure has.  Nodes without a
    recognizable site prefix each form a singleton domain (independent
    failure), so the derivation degrades gracefully on hand-built topologies.
    """
    groups: Dict[str, List[int]] = {}
    node_ids = network.edge_node_ids if edge_only else network.node_ids
    for node_id in node_ids:
        name = network.node(node_id).name or ""
        site = name
        for marker in ("-edge-", "-cloud-"):
            if marker in name:
                site = name.split(marker)[0]
                break
        else:
            site = f"node-{node_id}"
        groups.setdefault(site, []).append(node_id)
    return [
        FaultDomain(name=site, node_ids=tuple(members))
        for site, members in sorted(groups.items())
    ]


@dataclass(frozen=True)
class DomainFailureConfig:
    """Parameters of the correlated domain + link failure process.

    Each fault domain fails independently of the others with exponential time
    to failure / time to repair — but *within* a domain, every member node
    (and, with ``fail_incident_links``, every link touching a member) goes
    down and comes back at the same instant.  Optionally, individual links
    also fail independently (``link_mean_time_to_failure``), modelling fibre
    cuts that take out a span without touching any compute.
    """

    mean_time_to_failure: float = 2000.0
    mean_time_to_repair: float = 50.0
    fail_incident_links: bool = True
    link_mean_time_to_failure: Optional[float] = None
    link_mean_time_to_repair: float = 25.0
    seed: RandomState = None

    def __post_init__(self) -> None:
        check_positive(self.mean_time_to_failure, "mean_time_to_failure")
        check_positive(self.mean_time_to_repair, "mean_time_to_repair")
        if self.link_mean_time_to_failure is not None:
            check_positive(self.link_mean_time_to_failure, "link_mean_time_to_failure")
        check_positive(self.link_mean_time_to_repair, "link_mean_time_to_repair")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled component failure or recovery.

    ``kind`` is one of ``node_failure`` / ``node_recovery`` /
    ``link_failure`` / ``link_recovery``; node events carry ``node_id``, link
    events carry the canonical ``endpoints`` pair.  ``domain`` names the fault
    domain that caused a correlated event (``None`` for independent link
    failures).
    """

    time: float
    kind: str
    node_id: Optional[int] = None
    endpoints: Optional[Tuple[int, int]] = None
    domain: Optional[str] = None

    def to_engine_event(self) -> Event:
        """The :class:`~repro.sim.events.Event` this chaos event injects."""
        if self.kind == "node_failure":
            return Event.create(self.time, EventType.NODE_FAILURE, payload=self.node_id)
        if self.kind == "node_recovery":
            return Event.create(self.time, EventType.NODE_RECOVERY, payload=self.node_id)
        if self.kind == "link_failure":
            return Event.create(self.time, EventType.LINK_FAILURE, payload=self.endpoints)
        if self.kind == "link_recovery":
            return Event.create(self.time, EventType.LINK_RECOVERY, payload=self.endpoints)
        raise ValueError(f"unknown chaos event kind {self.kind!r}")


class DomainFailureInjector:
    """Generates correlated domain + link failure/recovery schedules.

    Every domain alternates FAIL → RECOVER with exponential dwell times; a
    domain failure expands into simultaneous node failures for all members
    plus (optionally) link failures for every link incident to a member, and
    the matching recovery restores them all at once.  Independent link
    failures, when configured, follow their own per-link alternating process.
    The whole schedule is returned time-sorted and is a pure function of
    ``(config.seed, domains, horizon)``.
    """

    def __init__(
        self,
        domains: Sequence[FaultDomain],
        config: Optional[DomainFailureConfig] = None,
    ) -> None:
        if not domains:
            raise ValueError("DomainFailureInjector needs at least one fault domain")
        names = [domain.name for domain in domains]
        if len(set(names)) != len(names):
            raise ValueError(f"fault domain names must be unique, got {sorted(names)}")
        self.domains = list(domains)
        self.config = config or DomainFailureConfig()

    def _incident_links(
        self, network: SubstrateNetwork, domain: FaultDomain
    ) -> List[Tuple[int, int]]:
        members = set(domain.node_ids)
        return sorted(
            link.endpoints
            for link in network.links()
            if members & set(link.endpoints)
        )

    def schedule(
        self, network: SubstrateNetwork, horizon: float
    ) -> List[ChaosEvent]:
        """The time-sorted chaos schedule up to ``horizon``."""
        check_positive(horizon, "horizon")
        config = self.config
        events: List[ChaosEvent] = []
        for domain in self.domains:
            unknown = [n for n in domain.node_ids if n not in set(network.node_ids)]
            if unknown:
                raise ValueError(
                    f"fault domain {domain.name!r} references unknown nodes {unknown}"
                )
            rng = new_rng(derive_seed(config.seed, "domain", domain.name))
            links = (
                self._incident_links(network, domain)
                if config.fail_incident_links
                else []
            )
            time = 0.0
            while True:
                time += float(rng.exponential(config.mean_time_to_failure))
                if time > horizon:
                    break
                events.extend(self._domain_events(domain, links, time, failed=True))
                time += float(rng.exponential(config.mean_time_to_repair))
                if time > horizon:
                    break
                events.extend(self._domain_events(domain, links, time, failed=False))
        if config.link_mean_time_to_failure is not None:
            for link in network.links():
                rng = new_rng(derive_seed(config.seed, "link", *link.endpoints))
                time = 0.0
                while True:
                    time += float(rng.exponential(config.link_mean_time_to_failure))
                    if time > horizon:
                        break
                    events.append(
                        ChaosEvent(time=time, kind="link_failure", endpoints=link.endpoints)
                    )
                    time += float(rng.exponential(config.link_mean_time_to_repair))
                    if time > horizon:
                        break
                    events.append(
                        ChaosEvent(time=time, kind="link_recovery", endpoints=link.endpoints)
                    )
        events.sort(key=lambda e: e.time)
        return events

    def _domain_events(
        self,
        domain: FaultDomain,
        links: Sequence[Tuple[int, int]],
        time: float,
        failed: bool,
    ) -> List[ChaosEvent]:
        suffix = "failure" if failed else "recovery"
        batch = [
            ChaosEvent(
                time=time, kind=f"node_{suffix}", node_id=node_id, domain=domain.name
            )
            for node_id in domain.node_ids
        ]
        batch.extend(
            ChaosEvent(
                time=time, kind=f"link_{suffix}", endpoints=endpoints, domain=domain.name
            )
            for endpoints in links
        )
        return batch


@dataclass
class DisruptionReport:
    """Fault-tolerance statistics of one faulty simulation run."""

    failure_events: int = 0
    recovery_events: int = 0
    link_failure_events: int = 0
    link_recovery_events: int = 0
    disrupted_requests: int = 0
    disrupted_request_ids: List[int] = field(default_factory=list)

    def disruption_ratio(self, accepted_requests: int) -> float:
        """Fraction of accepted requests whose service was disrupted."""
        if accepted_requests <= 0:
            return 0.0
        return self.disrupted_requests / accepted_requests

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view."""
        return {
            "failure_events": self.failure_events,
            "recovery_events": self.recovery_events,
            "link_failure_events": self.link_failure_events,
            "link_recovery_events": self.link_recovery_events,
            "disrupted_requests": self.disrupted_requests,
        }
