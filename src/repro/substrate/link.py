"""Capacitated, latency-weighted links between substrate nodes.

A :class:`Link` is a static description.  The bandwidth reserved on it lives
in the network's :class:`~repro.substrate.ledger.SubstrateLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.utils.validation import check_non_negative, check_positive


class InsufficientBandwidthError(RuntimeError):
    """Raised when a bandwidth reservation exceeds a link's free capacity."""


class UnknownReservationError(KeyError):
    """Raised when releasing a bandwidth reservation a link does not hold."""


def canonical_endpoints(u: int, v: int) -> Tuple[int, int]:
    """Return link endpoints in canonical (sorted) order.

    Substrate links are undirected; storing them keyed by the sorted endpoint
    pair lets lookups succeed regardless of traversal direction.
    """
    if u == v:
        raise ValueError(f"links must connect distinct nodes, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass
class Link:
    """An undirected link with bandwidth capacity and propagation latency.

    Parameters
    ----------
    endpoints:
        Canonical (smaller id, larger id) node pair.
    bandwidth_capacity:
        Capacity in Mbps.
    latency_ms:
        One-way propagation plus switching latency in milliseconds.
    cost_per_mbps:
        Price per reserved Mbps per time unit, used by the cost metric.
    """

    endpoints: Tuple[int, int]
    bandwidth_capacity: float
    latency_ms: float
    cost_per_mbps: float = 0.0005

    def __post_init__(self) -> None:
        self.endpoints = canonical_endpoints(*self.endpoints)
        check_positive(self.bandwidth_capacity, "bandwidth_capacity")
        check_non_negative(self.latency_ms, "latency_ms")
        check_non_negative(self.cost_per_mbps, "cost_per_mbps")

    def transport_cost(self, bandwidth: float, duration: float) -> float:
        """Cost of carrying ``bandwidth`` Mbps for ``duration`` time units."""
        check_non_negative(bandwidth, "bandwidth")
        check_non_negative(duration, "duration")
        return bandwidth * self.cost_per_mbps * duration

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly summary of the link's static fields."""
        return {
            "endpoints": list(self.endpoints),
            "bandwidth_capacity": self.bandwidth_capacity,
            "latency_ms": self.latency_ms,
        }
