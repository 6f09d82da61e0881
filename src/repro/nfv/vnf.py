"""Virtual network function (VNF) types and instances.

A :class:`VNFType` describes a class of network function (firewall, NAT,
IDS, ...) in terms of the resources an instance consumes, the per-packet
processing delay it adds, and how its resource demand scales with the traffic
it serves.  A :class:`VNFInstance` is one deployment of a type on a specific
substrate node, serving a specific request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.substrate.resources import ResourceVector
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class VNFType:
    """A class of virtual network function.

    Parameters
    ----------
    name:
        Unique type name (e.g. ``"firewall"``).
    base_demand:
        Resources consumed by an instance independent of traffic (the VM /
        container footprint).
    demand_per_mbps:
        Additional resources consumed per Mbps of traffic served.
    processing_delay_ms:
        Latency added to every packet traversing the function.
    license_cost:
        One-off cost charged per instantiation (models software licensing /
        image-transfer cost).
    """

    name: str
    base_demand: ResourceVector
    demand_per_mbps: ResourceVector = field(
        default_factory=ResourceVector.zero
    )
    processing_delay_ms: float = 0.5
    license_cost: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("VNFType.name must be a non-empty string")
        check_non_negative(self.processing_delay_ms, "processing_delay_ms")
        check_non_negative(self.license_cost, "license_cost")

    def demand_for(self, bandwidth_mbps: float) -> ResourceVector:
        """Total resource demand of one instance serving ``bandwidth_mbps``."""
        check_non_negative(bandwidth_mbps, "bandwidth_mbps")
        return self.base_demand + self.demand_per_mbps * bandwidth_mbps

    def __str__(self) -> str:
        return self.name


_instance_counter = itertools.count()


def _next_instance_id() -> int:
    return next(_instance_counter)


@dataclass
class VNFInstance:
    """One deployment of a VNF type on a substrate node.

    Instances are created by placement policies and committed to the
    substrate by :class:`~repro.nfv.placement.Placement`.  The
    ``allocation_handle`` ties the instance to the node-side bookkeeping so
    releases are exact.
    """

    vnf_type: VNFType
    node_id: int
    bandwidth_mbps: float
    request_id: Optional[int] = None
    instance_id: int = field(default_factory=_next_instance_id)

    def __post_init__(self) -> None:
        check_non_negative(self.bandwidth_mbps, "bandwidth_mbps")

    @property
    def demand(self) -> ResourceVector:
        """Resource demand of this instance at its provisioned bandwidth."""
        cached = self.__dict__.get("_demand")
        if cached is None:
            cached = self.vnf_type.demand_for(self.bandwidth_mbps)
            self.__dict__["_demand"] = cached
        return cached

    @property
    def allocation_handle(self) -> str:
        """Unique handle used for node allocations backing this instance."""
        return f"vnf:{self.instance_id}"

    @property
    def processing_delay_ms(self) -> float:
        """Packet processing delay contributed by this instance."""
        return self.vnf_type.processing_delay_ms

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly summary of the instance."""
        return {
            "instance_id": self.instance_id,
            "type": self.vnf_type.name,
            "node_id": self.node_id,
            "bandwidth_mbps": self.bandwidth_mbps,
            "request_id": self.request_id,
            "demand": self.demand.as_dict(),
        }


def make_vnf_type(
    name: str,
    cpu: float,
    memory: float,
    storage: float = 1.0,
    cpu_per_mbps: float = 0.0,
    memory_per_mbps: float = 0.0,
    processing_delay_ms: float = 0.5,
    license_cost: float = 0.0,
) -> VNFType:
    """Convenience constructor used by the catalog and by tests."""
    check_positive(cpu, "cpu")
    check_positive(memory, "memory")
    return VNFType(
        name=name,
        base_demand=ResourceVector(cpu, memory, storage),
        demand_per_mbps=ResourceVector(cpu_per_mbps, memory_per_mbps, 0.0),
        processing_delay_ms=processing_delay_ms,
        license_cost=license_cost,
    )
