"""One workload in one fresh process.

Run by ``python -m benchmarks.e2e`` (never by hand)::

    python -m benchmarks.e2e.worker --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only]

Protocol on standard output, one JSON object per line: first
``{"event": "ready", ...}`` as soon as the workload is built (the parent
times process start to this line as ``setup_s``), then, unless
``--setup-only``, ``{"event": "result", ...}`` after the rounds.

Rounds repeat until the next one would overrun ``--seconds`` (at least one;
traced runs alternate untraced and traced rounds, plus an untraced serial
round for a pooled workload, and run at least one of each).  Traced runs
write their first traced round's spans to ``out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from .catalog import PER_LAYER
from .measure import Tracer, calls, latency_summary, layer_metrics

OUT = Path(__file__).resolve().parent / "out"


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def run_rounds(workload, seconds: float, trace: bool):
    """Untraced rounds, traced rounds (with their layer metrics), untraced
    serial rounds, and the first traced round's spans.

    Serial rounds run only in traced runs of a pooled workload: traced
    rounds compare policies serially, so the untraced serial round is the
    reference for the tracer's overhead and for the pool's speedup.
    """
    plain, traced, serial = [], [], []
    first_spans: List[list] = []
    wants_serial = trace and getattr(workload, "pooled", False)
    start = time.perf_counter()
    while True:
        gc.collect()
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            result = workload.run(tracer)
            traced.append((result, layer_metrics(tracer.spans)))
            first_spans = first_spans or tracer.spans
        elif wants_serial and len(serial) < len(plain):
            serial.append(workload.run(serial=True))
        else:
            plain.append(workload.run())
        elapsed = time.perf_counter() - start
        done = len(plain) + len(traced) + len(serial)
        complete = (traced or not trace) and (serial or not wants_serial)
        if complete and elapsed + elapsed / done > seconds:
            return plain, traced, serial, first_spans


def _rate(result) -> float:
    return result.requests / result.wall_s


def fastest(results):
    """The round with the highest throughput.

    Rounds repeat identical work, and on a shared host the noise only ever
    slows a round down (process CPU time tracks wall time, so the slowdown
    is the host's, not descheduling), so the fastest round is the least
    disturbed measurement of the program.
    """
    return max(results, key=_rate)


def end_to_end(plain) -> Dict[str, float]:
    best = fastest(plain)
    return {
        "requests_per_s": _rate(best),
        "decide_p50_us": latency_summary(best.decide_ns)["p50_us"],
        "accept_ratio": best.accept_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain, traced, serial, setup: Dict[str, float]) -> Dict[str, float]:
    """Median over traced rounds of each layer metric, plus derived ratios."""
    from .workloads import COMPARISON_S

    keys = sorted({key for _, layers in traced for key in layers})
    merged = {
        key: statistics.median(layers.get(key, 0.0) for _, layers in traced)
        for key in keys
    }
    result, layers = traced[0]
    counts = result.counts
    steps = sum(calls(layers, f"{core}.step") for core in ("vecenv", "soa"))
    masks = sum(calls(layers, f"{core}.valid_action_masks") for core in ("vecenv", "soa"))
    merged["decide_p99_us"] = latency_summary(fastest(plain).decide_ns)["p99_us"]
    # Untraced and traced rounds of the same configuration: a pooled
    # workload's traced rounds are serial, so they compare with serial ones.
    merged["trace_overhead"] = _rate(fastest(serial or plain)) / _rate(
        fastest([result for result, _ in traced])
    )
    merged["masks_per_step"] = masks / steps if steps else 0.0
    merged["steps_per_request"] = (
        steps * counts.get("lanes", 0) / counts["lane_requests"]
        if counts.get("lane_requests") else 0.0
    )
    feasible = calls(layers, "nfv.placement.is_feasible")
    merged["nfv.placement.is_feasible.per_request"] = feasible / result.requests
    if layers.get("serving.chain.decide.calls"):
        merged["nfv.placement.is_feasible.per_decision"] = (
            feasible / layers["serving.chain.decide.calls"]
        )
    # Both sides untraced: policy-comparison time without and with the pool.
    serial_s = statistics.median(r.counts[COMPARISON_S] for r in serial) if serial else 0.0
    pool_s = statistics.median(r.counts.get(COMPARISON_S, 0.0) for r in plain)
    merged["experiments.parallel.serial_s"] = serial_s
    merged["experiments.parallel.pool_wall_s"] = pool_s
    merged["experiments.parallel.speedup"] = serial_s / pool_s if pool_s else 0.0
    merged.update(setup)
    return merged


def environment() -> Dict[str, object]:
    """What the numbers were measured on."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "repro_max_workers": os.environ.get("REPRO_MAX_WORKERS"),
    }


def write_trace(name: str, seed: int, spans: List[list]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "fields": ["name", "start_ns", "end_ns", "parent", "request_id"],
                "spans": spans,
            },
            handle,
        )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    from repro.utils.rng import derive_seed

    from .workloads import WORKLOADS

    import_s = time.perf_counter() - import_start
    build_start = time.perf_counter()
    workload = WORKLOADS[args.workload](derive_seed(args.seed, args.workload))
    build_s = time.perf_counter() - build_start
    emit({"event": "ready", "import_s": import_s, "build_s": build_s})
    if args.setup_only:
        return 0

    plain, traced, serial, spans = run_rounds(workload, args.seconds, bool(args.trace))
    rounds = plain + [result for result, _ in traced] + serial
    problems = sorted({problem for result in rounds for problem in result.problems})
    digests = sorted({result.digest for result in rounds})
    if len(digests) > 1:
        problems.append(f"rounds disagree: {len(digests)} digests")
    details: Dict[str, object] = {
        "rounds": len(plain),
        "requests": plain[0].requests,
        "digest": digests[0],
        "round_wall_s": [result.wall_s for result in plain],
        **plain[0].counts,
    }
    decide = latency_summary(fastest(plain).decide_ns)
    details.update({f"decide.{key}": value for key, value in decide.items()})
    if args.trace:
        layers = per_layer(
            plain, traced, serial, {"setup.import_s": import_s, "setup.build_s": build_s}
        )
        metrics = {m.name: layers[m.name] for m in PER_LAYER}
        details.update({k: v for k, v in layers.items() if k not in metrics})
        details["traced_rounds"] = len(traced)
        details["serial_rounds"] = len(serial)
        trace_file = write_trace(args.workload, args.seed, spans)
        details["trace_file"] = os.path.relpath(trace_file)
    else:
        metrics = end_to_end(plain)  # the parent process adds setup_s
    emit(
        {
            "event": "result",
            "correct": not problems,
            "problems": problems,
            "attempted": sum(result.requests for result in rounds),
            "failed": sum(result.failed for result in rounds),
            "metrics": metrics,
            "details": details,
            "environment": environment(),
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
