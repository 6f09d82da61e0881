"""Compute nodes of the geo-distributed substrate.

Two node tiers exist in the model:

* **Edge nodes** — small clusters co-located with access networks.  Low
  latency to nearby users, scarce capacity, moderate unit cost.
* **Cloud nodes** — large centralized datacenters.  Effectively unconstrained
  capacity and low unit cost, but tens of milliseconds away.

The tension between these two tiers is what makes VNF placement a non-trivial
sequential decision problem.

A :class:`ComputeNode` is a static description of a site.  What is allocated
on it lives in the network's :class:`~repro.substrate.ledger.SubstrateLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.substrate.geo import GeoPoint
from repro.substrate.resources import ResourceVector
from repro.utils.validation import check_non_negative


class NodeTier(Enum):
    """Placement tier of a substrate node."""

    EDGE = "edge"
    CLOUD = "cloud"


class InsufficientCapacityError(RuntimeError):
    """Raised when an allocation does not fit in a node's free capacity."""


class UnknownAllocationError(KeyError):
    """Raised when releasing an allocation handle the node does not hold."""


@dataclass
class ComputeNode:
    """A capacitated compute site.

    Parameters
    ----------
    node_id:
        Unique identifier within a :class:`~repro.substrate.network.SubstrateNetwork`.
    location:
        Geographic position used by the latency model.
    capacity:
        Total resources of the site.
    tier:
        Edge or cloud.
    cost_per_unit:
        Price per consumed resource unit per time unit; the operational-cost
        metric multiplies allocations by these weights.
    activation_cost:
        Fixed cost charged whenever the node goes from idle to hosting at
        least one VNF instance (models powering on servers).
    name:
        Optional human-readable label (e.g. the metro it belongs to).
    """

    node_id: int
    location: GeoPoint
    capacity: ResourceVector
    tier: NodeTier = NodeTier.EDGE
    cost_per_unit: ResourceVector = field(
        default_factory=lambda: ResourceVector(0.05, 0.025, 0.005)
    )
    activation_cost: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        check_non_negative(self.activation_cost, "activation_cost")

    @property
    def is_edge(self) -> bool:
        """True for edge-tier nodes."""
        return self.tier is NodeTier.EDGE

    @property
    def is_cloud(self) -> bool:
        """True for cloud-tier nodes."""
        return self.tier is NodeTier.CLOUD

    def hosting_cost(self, demand: ResourceVector, duration: float) -> float:
        """Cost of hosting ``demand`` for ``duration`` time units."""
        check_non_negative(duration, "duration")
        return demand.dot(self.cost_per_unit) * duration

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly summary of the node's static fields."""
        return {
            "node_id": self.node_id,
            "name": self.name,
            "tier": self.tier.value,
            "capacity": self.capacity.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComputeNode(id={self.node_id}, tier={self.tier.value}, "
            f"cap={self.capacity.as_tuple()})"
        )


def make_edge_node(
    node_id: int,
    location: GeoPoint,
    cpu: float = 32.0,
    memory: float = 64.0,
    storage: float = 500.0,
    cost_per_unit: Optional[ResourceVector] = None,
    name: str = "",
) -> ComputeNode:
    """Convenience constructor for a typical edge cluster."""
    return ComputeNode(
        node_id=node_id,
        location=location,
        capacity=ResourceVector(cpu, memory, storage),
        tier=NodeTier.EDGE,
        cost_per_unit=cost_per_unit or ResourceVector(0.05, 0.025, 0.0025),
        name=name or f"edge-{node_id}",
    )


def make_cloud_node(
    node_id: int,
    location: GeoPoint,
    cpu: float = 2048.0,
    memory: float = 8192.0,
    storage: float = 100_000.0,
    cost_per_unit: Optional[ResourceVector] = None,
    name: str = "",
) -> ComputeNode:
    """Convenience constructor for a central cloud datacenter."""
    return ComputeNode(
        node_id=node_id,
        location=location,
        capacity=ResourceVector(cpu, memory, storage),
        tier=NodeTier.CLOUD,
        cost_per_unit=cost_per_unit or ResourceVector(0.02, 0.01, 0.0005),
        name=name or f"cloud-{node_id}",
    )
