"""Reproducible random number generation.

All stochastic components in the library (topology generators, arrival
processes, exploration policies, network weight initialization) accept either
an integer seed or a :class:`numpy.random.Generator`.  Routing everything
through :func:`new_rng` keeps experiments reproducible end to end: the same
seed always yields the same topology, the same request trace and the same
training trajectory.
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Optional, Union

import numpy as np

#: Type alias accepted by every stochastic entry point in the library.
RandomState = Union[int, np.random.Generator, None]


def new_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a flexible seed spec.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic seeding, an ``int`` for a reproducible
        generator, or an existing ``Generator`` which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RandomState, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Useful when a single experiment seed must drive several independent
    stochastic processes (e.g. topology generation vs. request arrivals) so
    that changing one sweep parameter does not perturb the others.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = new_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(seed: RandomState, *labels: object) -> int:
    """Derive a deterministic integer seed from a base seed and labels.

    The same ``(seed, labels)`` pair always produces the same derived seed —
    across processes and Python invocations (labels are hashed with zlib.crc32
    rather than the per-process randomized ``hash``) — which makes per-run
    seeds in parameter sweeps reproducible without requiring callers to manage
    seed bookkeeping themselves.  It is :func:`mix_seed_labels` over
    :func:`seed_base`; a caller deriving many seeds from one int seed can
    draw the base once.
    """
    return mix_seed_labels(seed_base(seed), *labels)


def seed_base(seed: RandomState) -> int:
    """The first draw of ``seed``'s stream, which :func:`derive_seed` mixes.

    A ``Generator`` seed advances by that one draw.
    """
    return int(new_rng(seed).integers(0, 2**31 - 1))


def mix_seed_labels(base: int, *labels: object) -> int:
    """Mix ``labels`` into a :func:`seed_base` draw, as :func:`derive_seed` does."""
    mixed = base
    for label in labels:
        label_hash = zlib.crc32(str(label).encode("utf-8"))
        mixed = (mixed * 1000003 + label_hash) % (2**31 - 1)
    return mixed


def choice_without_replacement(
    rng: np.random.Generator, items: Iterable, size: int
) -> list:
    """Sample ``size`` distinct items from ``items`` (order randomized)."""
    pool = list(items)
    if size > len(pool):
        raise ValueError(
            f"cannot sample {size} items from a population of {len(pool)}"
        )
    idx = rng.choice(len(pool), size=size, replace=False)
    return [pool[i] for i in idx]


def exponential_sample(
    rng: np.random.Generator, rate: float, size: Optional[int] = None
):
    """Sample from an exponential distribution parameterized by *rate*.

    numpy's ``exponential`` takes the scale (mean); arrival processes in this
    library are parameterized by rate (events per unit time), so this wrapper
    avoids a recurring source of unit bugs.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return rng.exponential(scale=1.0 / rate, size=size)
