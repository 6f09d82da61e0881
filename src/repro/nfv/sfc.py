"""Service function chains (SFCs) and online SFC requests."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nfv.catalog import ChainTemplate, VNFCatalog
from repro.nfv.sla import ServiceLevelAgreement
from repro.nfv.vnf import VNFType
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ServiceFunctionChain:
    """An ordered sequence of VNF types with a bandwidth demand.

    The chain is the *logical* object; a
    :class:`~repro.nfv.placement.Placement` maps it onto substrate nodes.
    """

    vnf_types: Tuple[VNFType, ...]
    bandwidth_mbps: float
    service_class: str = "generic"

    def __post_init__(self) -> None:
        if not self.vnf_types:
            raise ValueError("a service function chain must contain >= 1 VNF")
        check_positive(self.bandwidth_mbps, "bandwidth_mbps")

    @property
    def length(self) -> int:
        """Number of VNFs in the chain."""
        return len(self.vnf_types)

    @property
    def vnf_names(self) -> Tuple[str, ...]:
        """Names of the chained VNF types, in order."""
        return tuple(vnf.name for vnf in self.vnf_types)

    @property
    def demand_rows(self) -> np.ndarray:
        """Per-VNF resource demand at the chain's bandwidth, ``(length, 3)``.

        Row ``i`` is ``vnf_at(i).demand_for(bandwidth_mbps)`` in canonical
        dimension order: the same ``base + per_mbps * bw`` floats.  Built on
        first read and memoized on the (immutable) chain, so the encoder, the
        mask, the reward, the baselines, the placement and the SoA view of one
        request share one array.  It is read-only.
        """
        rows = self.__dict__.get("_demand_rows")
        if rows is None:
            bw = self.bandwidth_mbps
            values: List[float] = []
            for vnf in self.vnf_types:
                base, per = vnf.base_demand, vnf.demand_per_mbps
                values += (
                    base.cpu + per.cpu * bw,
                    base.memory + per.memory * bw,
                    base.storage + per.storage * bw,
                )
            rows = np.array(values, dtype=float).reshape(-1, 3)
            rows.setflags(write=False)
            self.__dict__["_demand_rows"] = rows
        return rows

    def total_processing_delay_ms(self) -> float:
        """Sum of per-VNF processing delays (placement independent)."""
        return sum(vnf.processing_delay_ms for vnf in self.vnf_types)

    def total_base_demand(self):
        """Aggregate resource demand of the chain at its bandwidth."""
        from repro.substrate.resources import aggregate

        return aggregate(vnf.demand_for(self.bandwidth_mbps) for vnf in self.vnf_types)

    def vnf_at(self, index: int) -> VNFType:
        """The VNF type at position ``index`` (0-based)."""
        return self.vnf_types[index]

    @classmethod
    def from_template(
        cls,
        template: ChainTemplate,
        catalog: VNFCatalog,
        bandwidth_mbps: float,
    ) -> "ServiceFunctionChain":
        """Instantiate a chain from a template and a sampled bandwidth."""
        return cls(
            vnf_types=tuple(catalog.get(name) for name in template.vnf_sequence),
            bandwidth_mbps=bandwidth_mbps,
            service_class=template.name,
        )


_request_counter = itertools.count()


def reset_request_counter() -> None:
    """Reset the module counter that numbers requests built without an id.

    A :class:`~repro.workloads.generator.RequestGenerator` numbers its own
    requests; this counter serves hand-built ones.
    """
    global _request_counter
    _request_counter = itertools.count()


@dataclass
class SFCRequest:
    """An online request for a service function chain deployment.

    Parameters
    ----------
    chain:
        The requested logical chain.
    source_node_id:
        Substrate node closest to the requesting user (ingress point).
    sla:
        Latency/availability contract.
    arrival_time:
        Simulation time at which the request arrives.
    holding_time:
        Time the service remains active once accepted.
    destination_node_id:
        Optional egress node; ``None`` means traffic terminates at the last
        VNF (the common edge-offloading pattern).
    request_id:
        Names the request and every reservation of its placement.  A
        :class:`~repro.workloads.generator.RequestGenerator` passes its own
        count from 0; without one, the module counter numbers the request.
    """

    chain: ServiceFunctionChain
    source_node_id: int
    sla: ServiceLevelAgreement
    arrival_time: float = 0.0
    holding_time: float = 60.0
    destination_node_id: Optional[int] = None
    request_id: int = field(default_factory=lambda: next(_request_counter))

    def __post_init__(self) -> None:
        check_non_negative(self.arrival_time, "arrival_time")
        check_positive(self.holding_time, "holding_time")

    @property
    def departure_time(self) -> float:
        """Simulation time at which an accepted request releases resources."""
        return self.arrival_time + self.holding_time

    @property
    def bandwidth_mbps(self) -> float:
        """Bandwidth demanded by the chain."""
        return self.chain.bandwidth_mbps

    @property
    def num_vnfs(self) -> int:
        """Number of VNFs to place."""
        return self.chain.length

    @property
    def service_class(self) -> str:
        """The service class the request belongs to."""
        return self.chain.service_class

    def revenue(self, revenue_per_mbps: float = 1.0) -> float:
        """Revenue earned by accepting this request for its full holding time."""
        return revenue_per_mbps * self.bandwidth_mbps * self.holding_time / 100.0

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly summary of the request."""
        return {
            "request_id": self.request_id,
            "service_class": self.service_class,
            "vnfs": list(self.chain.vnf_names),
            "bandwidth_mbps": self.bandwidth_mbps,
            "source_node_id": self.source_node_id,
            "destination_node_id": self.destination_node_id,
            "arrival_time": self.arrival_time,
            "holding_time": self.holding_time,
            "sla": self.sla.snapshot(),
        }


def chain_summary(requests: Sequence[SFCRequest]) -> Dict[str, int]:
    """Count requests per service class (used by workload sanity checks)."""
    counts: Dict[str, int] = {}
    for request in requests:
        counts[request.service_class] = counts.get(request.service_class, 0) + 1
    return counts
