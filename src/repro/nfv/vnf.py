"""Virtual network function (VNF) types.

A :class:`VNFType` describes a class of network function (firewall, NAT,
IDS, ...) in terms of the resources an instance consumes, the per-packet
processing delay it adds, and how its resource demand scales with the traffic
it serves.  One deployment of a type is a position of a placed chain: the
:class:`~repro.nfv.placement.Placement` of a request names it by the request
id and the VNF's index in the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
