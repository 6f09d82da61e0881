"""Run the end-to-end benchmark.

Usage (from the repository root)::

    python -m benchmarks.e2e                          # all workloads, seed 0
    python -m benchmarks.e2e --workload serve_overload --seed 3
    python -m benchmarks.e2e --trace                  # per-layer metrics
    python -m benchmarks.e2e --workload sweep_fig --seed 1 --seconds 24 --trace 0

Each workload runs in fresh worker processes, one at a time, with one BLAS
thread: ``SETUP_SAMPLES - 1`` processes that only set up (``setup_s`` is the
median set-up time), then one that measures.  Prints one
``workload metric value unit`` line per metric; with ``--workload``, the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Results are merged into ``benchmarks/e2e/out/results.json``.  Exits 1 when a
correctness check fails and 2 when a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from .catalog import END_TO_END, PER_LAYER, RUN_SECONDS, SETUP_SAMPLES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "out" / "results.json"

#: A worker that runs longer than this is killed (the run then fails).
WORKER_TIMEOUT_S = 170.0

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


class WorkerError(RuntimeError):
    """A worker process failed or broke the line protocol."""


def child_env() -> Dict[str, str]:
    """The worker environment: one BLAS thread, default program settings.

    The program is imported from this checkout only, never from an inherited
    ``PYTHONPATH``.
    """
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # The sweep's policy pool: at most two workers, whatever the host.
        REPRO_MAX_WORKERS=str(min(2, os.cpu_count() or 1)),
    )
    return env


def spawn(args: List[str]) -> Tuple[float, dict, dict]:
    """Run one worker; returns (process start to ready, ready, result)."""
    command = [sys.executable, "-m", "benchmarks.e2e.worker", *args]
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    ) as process:
        first = process.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            rest, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise WorkerError(f"worker timed out: {' '.join(args)}") from None
    if process.returncode != 0 or not first:
        raise WorkerError(f"worker exited {process.returncode}: {' '.join(args)}")
    try:
        ready = json.loads(first)
        result = json.loads(rest.splitlines()[-1]) if rest.strip() else {}
    except json.JSONDecodeError as error:
        raise WorkerError(f"unreadable worker output: {error}") from None
    return setup_s, ready, result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args + ["--setup-only"])[0])
    setup_s, _, result = spawn(args)
    if result.get("event") != "result":
        raise WorkerError(f"worker sent no result: {' '.join(args)}")
    setups.append(setup_s)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["details"]["setup_samples_s"] = setups
    return result


def unit_of(key: str) -> str:
    """The unit of a detail value, read off its name's suffix."""
    for suffix, unit in (
        (".calls", "count"), ("us", "us"), ("_vs", "vs"), ("_s", "s"), ("share", "ratio")
    ):
        if key.endswith(suffix):
            return unit
    return "-"


def report(name: str, result: dict) -> None:
    for metric, value in result["metrics"].items():
        print(f"{name} {metric} {value!r} {UNITS[metric]}")
    print(f"{name} attempted {result['attempted']} count")
    print(f"{name} failed {result['failed']} count")
    for key, value in result["details"].items():
        print(f"{name} {key} {value!r} {unit_of(key)}")
    for problem in result["problems"]:
        print(f"{name} CHECK FAILED: {problem}")


def save(name: str, trace: bool, seed: int, result: dict) -> None:
    RESULTS.parent.mkdir(exist_ok=True)
    try:
        saved = json.loads(RESULTS.read_text())
    except (OSError, json.JSONDecodeError):
        saved = {}
    mode = "traced" if trace else "untraced"
    saved.setdefault(name, {})[mode] = {"seed": seed, **result}
    RESULTS.write_text(json.dumps(saved, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    # The command of BENCHMARK.json is called as
    # ``<command> --workload W --seed N --seconds S --trace 0|1``, so both
    # flags take a value; a bare ``--trace`` means ``--trace 1``.  Runs
    # longer than a minute are refused: a worker must end within
    # WORKER_TIMEOUT_S, one measured minute plus its last round and set-up.
    parser.add_argument(
        "--seconds", type=int, choices=range(1, 61), metavar="1..60",
        default=RUN_SECONDS,
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as error:
            print(f"{name}: {error}", file=sys.stderr)
            return 2
        report(name, results[name])
        save(name, bool(args.trace), args.seed, results[name])
    if args.workload:
        result = results[args.workload]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": value, "unit": UNITS[metric]}
                for metric, value in result["metrics"].items()
            },
        }))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
