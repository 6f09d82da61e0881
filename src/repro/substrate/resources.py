"""Multi-dimensional resource vectors.

Edge nodes expose CPU (vCPU cores), memory (GB) and storage (GB).  VNF
instances consume a :class:`ResourceVector` and nodes declare their capacity
as one; the substrate ledger keeps usage in ``(cpu, memory, storage)``
arrays.  The class is intentionally immutable (frozen dataclass) so that
demands and capacities can be shared safely between requests, placements and
snapshots without defensive copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

#: Canonical resource dimension names, in vector order.
RESOURCE_DIMENSIONS: Tuple[str, str, str] = ("cpu", "memory", "storage")

#: Number of resource dimensions (width of array-backed ledger columns).
NUM_RESOURCE_DIMENSIONS = len(RESOURCE_DIMENSIONS)


@dataclass(frozen=True)
class ResourceVector:
    """An immutable (cpu, memory, storage) triple with vector arithmetic.

    Units are conventional rather than enforced: CPU in virtual cores, memory
    and storage in gigabytes.  Negative components are rejected at
    construction time.
    """

    cpu: float = 0.0
    memory: float = 0.0
    storage: float = 0.0

    def __post_init__(self) -> None:
        for dim in RESOURCE_DIMENSIONS:
            value = getattr(self, dim)
            if not math.isfinite(value):
                raise ValueError(f"resource dimension {dim} must be finite, got {value}")
            if value < 0:
                raise ValueError(
                    f"resource dimension {dim} must be >= 0, got {value}"
                )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zero(cls) -> "ResourceVector":
        """The additive identity."""
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "ResourceVector":
        """Build a vector from a mapping with cpu/memory/storage keys."""
        unknown = set(data) - set(RESOURCE_DIMENSIONS)
        if unknown:
            raise ValueError(f"unknown resource dimensions: {sorted(unknown)}")
        return cls(
            cpu=float(data.get("cpu", 0.0)),
            memory=float(data.get("memory", 0.0)),
            storage=float(data.get("storage", 0.0)),
        )

    @classmethod
    def uniform(cls, value: float) -> "ResourceVector":
        """A vector with the same value in every dimension."""
        return cls(value, value, value)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.memory + other.memory,
            self.storage + other.storage,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise difference clamped at zero.

        Subtraction is used to compute *remaining* capacity; clamping avoids
        tiny negative floats from accumulation noise.
        """
        return ResourceVector(
            max(0.0, self.cpu - other.cpu),
            max(0.0, self.memory - other.memory),
            max(0.0, self.storage - other.storage),
        )

    def __mul__(self, scalar: float) -> "ResourceVector":
        if scalar < 0:
            raise ValueError(f"cannot scale a resource vector by {scalar}")
        return ResourceVector(
            self.cpu * scalar, self.memory * scalar, self.storage * scalar
        )

    __rmul__ = __mul__

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def dot(self, weights: "ResourceVector") -> float:
        """Weighted sum, used by cost models (price per resource unit)."""
        return (
            self.cpu * weights.cpu
            + self.memory * weights.memory
            + self.storage * weights.storage
        )

    def total(self) -> float:
        """Unweighted sum of all dimensions (a crude size measure)."""
        return self.cpu + self.memory + self.storage

    def is_zero(self, tol: float = 1e-12) -> bool:
        """True if every component is (numerically) zero."""
        return self.total() <= tol

    # ------------------------------------------------------------------ #
    # Conversions / iteration
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, float]:
        """Return the vector as a plain dict keyed by dimension name."""
        return {dim: getattr(self, dim) for dim in RESOURCE_DIMENSIONS}

    def as_tuple(self) -> Tuple[float, float, float]:
        """Return the vector as an ordered (cpu, memory, storage) tuple."""
        return (self.cpu, self.memory, self.storage)

    def as_array(self) -> np.ndarray:
        """Return the vector as a ``(cpu, memory, storage)`` float array.

        The array-backed substrate ledger stores node capacities and usage as
        contiguous matrices; this is the canonical object → array conversion.
        The array is memoized on the (immutable) vector — treat it as
        read-only.
        """
        cached = self.__dict__.get("_arr")
        if cached is None:
            cached = np.array((self.cpu, self.memory, self.storage), dtype=float)
            self.__dict__["_arr"] = cached
        return cached

    @classmethod
    def from_array(cls, values: np.ndarray) -> "ResourceVector":
        """Build a vector from an ordered (cpu, memory, storage) array."""
        return cls(float(values[0]), float(values[1]), float(values[2]))

    def __iter__(self) -> Iterator[float]:
        return iter(self.as_tuple())

    def almost_equal(self, other: "ResourceVector", tol: float = 1e-9) -> bool:
        """Approximate equality, robust to floating-point allocation noise."""
        return all(
            abs(a - b) <= tol for a, b in zip(self.as_tuple(), other.as_tuple())
        )


def aggregate(resources: Iterable[ResourceVector]) -> ResourceVector:
    """Sum an iterable of resource vectors."""
    total = ResourceVector.zero()
    for vector in resources:
        total = total + vector
    return total
