"""Shared helpers for the benchmark harness.

Every benchmark file regenerates one table or figure of the reconstructed
evaluation: it runs the corresponding ``repro.experiments`` function once
under ``pytest-benchmark`` (wall-clock of the full experiment), prints the
same rows/series the paper reports, and persists the raw data as JSON under
``benchmarks/results/``.

The benchmarks use :meth:`ExperimentConfig.fast` so the whole suite completes
in minutes on a laptop; pass ``REPRO_BENCH_PRESET=paper`` in the environment
to run the full-scale settings instead.

Result caching
--------------
Completed figure/table payloads are cached under ``benchmarks/results/cache``
keyed by a hash of the experiment configuration
(:class:`repro.experiments.parallel.ResultCache`).  Re-running a benchmark
with unchanged settings loads the cached series instead of retraining, which
makes iterating on assertions or plotting free.  Set ``REPRO_NO_CACHE=1`` to
always recompute (e.g. when measuring real experiment wall-clock).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ResultCache
from repro.experiments.reporting import print_figure, print_table
from repro.utils.serialization import save_json

#: Directory where each benchmark persists its raw series/rows.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def masked_random_actions(masks, rng):
    """One uniformly-random valid action per ``(K, A)`` mask row.

    The vectorized inverse-CDF draw the batched epsilon-greedy uses; shared
    by every env-throughput benchmark so the "random driver" costs the same
    everywhere.  Rows must have at least one valid action (placement masks
    always keep reject valid).
    """
    draws = (rng.random(masks.shape[0]) * masks.sum(axis=1)).astype(int)
    return (masks.cumsum(axis=1) > draws[:, None]).argmax(axis=1)


#: step() keyword arguments of each lean-step measurement protocol.  "full"
#: is the historical default; "lean" skips info-dict construction (the
#: trainer's protocol, see VecTrainer.run_episodes); "core" additionally
#: skips observation encoding (the heuristic-evaluation protocol).
STEP_PROTOCOLS = {
    "full": {},
    "lean": {"info": False},
    "core": {"observe": False, "info": False},
}


def measure_env_steps(
    venv, total_steps: int, seed: int = 0, protocol: str = "full"
) -> Dict[str, float]:
    """Aggregate env transitions/s with masked-random actions (no agent).

    The one measurement loop every env-throughput benchmark shares — either
    lane core, any lane count — so backend comparisons always time
    the identical protocol (reset, then masks → random actions → step until
    ``total_steps`` transitions).  ``protocol`` selects the step keyword
    arguments from :data:`STEP_PROTOCOLS`.
    """
    import time

    import numpy as np

    step_kwargs = STEP_PROTOCOLS[protocol]
    rng = np.random.default_rng(seed)
    venv.reset()
    steps = 0
    start = time.perf_counter()
    while steps < total_steps:
        venv.step(
            masked_random_actions(venv.valid_action_masks(), rng),
            **step_kwargs,
        )
        steps += venv.num_lanes
    elapsed = time.perf_counter() - start
    return {
        "lanes": venv.num_lanes,
        "env_steps": steps,
        "elapsed_s": elapsed,
        "env_steps_per_s": steps / elapsed,
        "protocol": protocol,
    }

#: Config-hash-keyed cache of completed figure/table payloads.
CACHE = ResultCache(RESULTS_DIR / "cache")


def bench_config() -> ExperimentConfig:
    """The experiment preset used by the benchmarks (fast by default)."""
    preset = os.environ.get("REPRO_BENCH_PRESET", "fast").lower()
    if preset == "paper":
        return ExperimentConfig.paper()
    if preset == "smoke":
        return ExperimentConfig.smoke()
    return ExperimentConfig.fast()


def _run_cached(
    benchmark, function: Callable[[ExperimentConfig], Dict], name: str
) -> Dict:
    """Run ``function`` under the benchmark timer, consulting the cache.

    On a cache hit the timed callable is the (near-instant) cached-payload
    return, so a re-run of the benchmark completes without retraining any
    agent; on a miss the full experiment runs and its payload is stored.
    """
    config = bench_config()
    cached = CACHE.load(name, config)
    if cached is not None:
        compute: Callable[[ExperimentConfig], Dict] = lambda _config: cached
    else:
        compute = function
    data = benchmark.pedantic(
        compute, args=(config,), rounds=1, iterations=1, warmup_rounds=0
    )
    if cached is None:
        CACHE.store(name, data, config)
    return data


def run_figure_benchmark(
    benchmark, figure_function: Callable[[ExperimentConfig], Dict], name: str
) -> Dict:
    """Run a figure-reproduction function once, print and persist its series."""
    data = _run_cached(benchmark, figure_function, name)
    print()
    print_figure(data)
    save_json(data, RESULTS_DIR / f"{name}.json")
    return data


def run_table_benchmark(
    benchmark, table_function: Callable[[ExperimentConfig], Dict], name: str
) -> Dict:
    """Run a table-reproduction function once, print and persist its rows."""
    data = _run_cached(benchmark, table_function, name)
    print()
    print_table(data)
    save_json(data, RESULTS_DIR / f"{name}.json")
    return data
