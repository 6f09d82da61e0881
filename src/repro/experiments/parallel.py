"""Parallel experiment execution and on-disk result caching.

The figure/table reproductions are embarrassingly parallel at two levels:
independent policies evaluated over the same trace, and independent
replications/sweep points.  This module provides

* :func:`run_parallel` — an ordered ``map`` over a :class:`ProcessPoolExecutor`
  that degrades gracefully to a serial loop (single worker requested, a single
  task, or un-picklable work),
* :func:`parallel_policy_comparison` — the parallel counterpart of
  :func:`repro.sim.simulation.run_policy_comparison`,
* :func:`derive_worker_seeds` — per-task seeds derived with
  :func:`repro.utils.rng.derive_seed` so results are reproducible regardless
  of worker scheduling, and
* :class:`ResultCache` — a JSON cache keyed by a stable hash of the
  experiment configuration, so re-running a benchmark with unchanged settings
  is free.

Environment knobs
-----------------
``REPRO_MAX_WORKERS``
    Default worker count for all parallel entry points (``1`` forces serial).
``REPRO_CACHE_DIR``
    Default directory of :class:`ResultCache` instances created without an
    explicit path.
``REPRO_NO_CACHE``
    Set to ``1`` to disable cache reads/writes without touching call sites.

Example
-------
>>> from repro.experiments.parallel import ResultCache, run_parallel
>>> squares = run_parallel(pow, [(i, 2) for i in range(4)], max_workers=2)
>>> cache = ResultCache()
>>> data, hit = cache.get_or_compute("fig2", config, lambda: slow_figure(config))
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.simulation import (
    NFVSimulation,
    PlacementPolicy,
    SimulationConfig,
    SimulationResult,
)
from repro.utils.rng import RandomState, derive_seed
from repro.utils.serialization import to_jsonable

__all__ = [
    "ResultCache",
    "config_hash",
    "default_max_workers",
    "derive_worker_seeds",
    "parallel_policy_comparison",
    "run_parallel",
]


# --------------------------------------------------------------------------- #
# Worker-count resolution
# --------------------------------------------------------------------------- #
def default_max_workers() -> int:
    """Worker count from ``REPRO_MAX_WORKERS``, else the CPU count.

    Raises ``ValueError`` when the variable is set to a non-integer.
    """
    env = os.environ.get("REPRO_MAX_WORKERS", "").strip()
    if not env:
        return max(1, os.cpu_count() or 1)
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"REPRO_MAX_WORKERS must be an integer, got {env!r}"
        ) from None


def derive_worker_seeds(base_seed: RandomState, labels: Sequence[object]) -> List[int]:
    """One deterministic seed per task label.

    Deriving seeds from ``(base_seed, label)`` rather than a shared generator
    makes each task's randomness independent of how tasks are scheduled across
    workers, so parallel and serial runs produce identical results.
    """
    return [derive_seed(base_seed, label) for label in labels]


# --------------------------------------------------------------------------- #
# Ordered parallel map
# --------------------------------------------------------------------------- #
def _call_star(payload: Tuple[Callable, tuple]) -> Any:
    fn, args = payload
    return fn(*args)


def run_parallel(
    fn: Callable,
    tasks: Sequence[tuple],
    max_workers: Optional[int] = None,
) -> List[Any]:
    """Apply ``fn`` to each argument tuple in ``tasks``; results keep order.

    Runs on a :class:`ProcessPoolExecutor` with ``max_workers`` processes
    (default :func:`default_max_workers`).  Falls back to a plain serial loop
    when one worker is requested, there is at most one task, or the work is
    not picklable — so callers never need a separate serial code path.
    """
    tasks = list(tasks)
    workers = max_workers if max_workers is not None else default_max_workers()
    workers = min(max(1, int(workers)), max(1, len(tasks)))
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*args) for args in tasks]
    payloads = [(fn, tuple(args)) for args in tasks]
    try:
        # Cheap picklability probe on one payload; tasks are homogeneous, so
        # probing them all would serialize the dominant data twice.  The
        # catch is narrowed to the ways pickling actually refuses an object
        # (lambdas/local functions raise PicklingError or AttributeError,
        # code/file handles raise TypeError); fn is not called inside the
        # try, so no real worker error can be swallowed here.
        pickle.dumps(payloads[0])
    except (TypeError, AttributeError, NotImplementedError, pickle.PicklingError):
        return [fn(*args) for args in tasks]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_call_star, payloads))
    except (OSError, BrokenProcessPool, pickle.PicklingError):
        # Sandboxes without process spawning, reaped workers, or pickling
        # failures the probe missed degrade to the serial loop.  Exceptions
        # raised by ``fn`` itself propagate unchanged.
        return [fn(*args) for args in tasks]


# --------------------------------------------------------------------------- #
# Parallel policy comparison
# --------------------------------------------------------------------------- #
def _simulate_policy(
    network_factory: Callable,
    policy: PlacementPolicy,
    requests: Sequence,
    config: Optional[SimulationConfig],
) -> SimulationResult:
    network = network_factory()
    return NFVSimulation(network, policy, config).run(list(requests))


def parallel_policy_comparison(
    network_factory: Callable,
    policies: Sequence[PlacementPolicy],
    requests: Sequence,
    config: Optional[SimulationConfig] = None,
    max_workers: Optional[int] = None,
) -> List[SimulationResult]:
    """Evaluate several policies on identical traces, one process per policy.

    The parallel counterpart of
    :func:`repro.sim.simulation.run_policy_comparison`: ``network_factory`` is
    called once per policy inside its worker, so allocations made by one
    policy can never leak into another policy's run.  Results are returned in
    the order of ``policies``.
    """
    # One shared trace tuple: pickling hands each worker its own copy, and
    # _simulate_policy re-lists it, so per-policy copies here would be waste.
    trace = tuple(requests)
    tasks = [(network_factory, policy, trace, config) for policy in policies]
    return run_parallel(_simulate_policy, tasks, max_workers=max_workers)


# --------------------------------------------------------------------------- #
# On-disk result cache
# --------------------------------------------------------------------------- #
def config_hash(*objects: Any) -> str:
    """A stable hex digest of arbitrary configuration objects.

    Objects are converted with :func:`repro.utils.serialization.to_jsonable`
    (dataclasses become field dicts) and serialized with sorted keys, so the
    digest depends only on configuration *values* — not object identity,
    insertion order or process.  Objects that fall back to the default
    ``object.__repr__`` (which embeds a memory address and would make the
    digest differ per process) are rejected with :class:`ValueError` — pass
    dataclasses, dicts or other JSON-representable values instead.
    """
    canonical = json.dumps(to_jsonable(list(objects)), sort_keys=True)
    if re.search(r" object at 0x[0-9a-fA-F]+", canonical):
        raise ValueError(
            "config objects must have a value-based representation "
            "(dataclass, dict, sequence or scalar); got a default object "
            f"repr in {canonical[:120]!r}"
        )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ResultCache:
    """JSON result cache keyed by experiment name + configuration hash.

    Entries live under ``directory`` as ``<name>-<hash>.json``.  The cache is
    content-addressed: any change to the configuration changes the key, so a
    stale entry can never be returned for new settings.  Set ``REPRO_NO_CACHE=1``
    to turn every lookup into a miss (and every store into a no-op).
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        if directory is None:
            directory = os.environ.get(
                "REPRO_CACHE_DIR",
                os.path.join(os.path.expanduser("~"), ".cache", "repro-experiments"),
            )
        self.directory = Path(directory)

    @property
    def enabled(self) -> bool:
        """False when ``REPRO_NO_CACHE=1`` is set in the environment."""
        return os.environ.get("REPRO_NO_CACHE", "").strip() not in ("1", "true", "yes")

    def path_for(self, name: str, *config: Any) -> Path:
        """The on-disk path for ``name`` under configuration ``config``."""
        return self.directory / f"{name}-{config_hash(*config)}.json"

    def load(self, name: str, *config: Any) -> Optional[Dict]:
        """The cached payload, or ``None`` on a miss/disabled cache."""
        if not self.enabled:
            return None
        path = self.path_for(name, *config)
        if not path.exists():
            return None
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def store(self, name: str, data: Dict, *config: Any) -> Optional[Path]:
        """Persist ``data`` for ``name``/``config``; returns the path written.

        The write is atomic (temp file in the same directory, then
        ``os.replace``): concurrent sweep workers storing the same key race
        harmlessly — a reader only ever sees a complete payload, never torn
        JSON from an in-progress write.
        """
        if not self.enabled:
            return None
        path = self.path_for(name, *config)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp_path = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with temp_path.open("w", encoding="utf-8") as handle:
                json.dump(to_jsonable(data), handle, indent=2)
            os.replace(temp_path, path)
        finally:
            if temp_path.exists():
                temp_path.unlink()
        return path

    def get_or_compute(
        self, name: str, config: Any, compute: Callable[[], Dict]
    ) -> Tuple[Dict, bool]:
        """Return ``(payload, was_cache_hit)``, computing and storing on miss."""
        cached = self.load(name, config)
        if cached is not None:
            return cached, True
        data = compute()
        self.store(name, data, config)
        return data, False

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        return removed
