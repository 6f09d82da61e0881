"""What the benchmark measures: workloads, metrics, bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root (:func:`benchmark_spec` renders it; a test keeps the file in step) and
of the mapping from each per-layer metric to the end-to-end metric and
workloads it should move, which ``BENCHMARK.json`` has no field for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Seconds one run measures (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 24

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

COMMAND = ["python3", "-m", "benchmarks.e2e"]
PATHS = ["benchmarks/e2e"]

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS: Dict[str, str] = {
    "train_fig": (
        "figure training: DQN update and nn dominate, no SoA/sim/serving, "
        "so an nn or update change shows here and nowhere else"
    ),
    "sweep_fig": (
        "figure sweep: serial simulation, per-request baselines, the process "
        "pool and reference vec lanes; the workload for SoA-everywhere and pool changes"
    ),
    "eval_faults": (
        "fault-injected K=16 greedy eval on the SoA core (fence/evict beside "
        "mask/observe) that sweep_fig mostly bypasses"
    ),
    "serve_overload": (
        "online serving under 4x MMPP overload with domain chaos and retries; "
        "decision latency is timed in wall-clock, no nn or vec lanes"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: The end-to-end metric this layer metric should move ...
    moves: str
    #: ... on these workloads.
    workloads: Tuple[str, ...]


END_TO_END: List[EndToEnd] = [
    EndToEnd("requests_per_s", "1/s", "higher", 0.24),
    EndToEnd("decide_p50_us", "us", "lower", 0.24),
    EndToEnd("accept_ratio", "ratio", "higher", 0.10),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("setup_s", "s", "lower", 0.25),
]

_ALL = tuple(WORKLOADS)
TRAIN, SWEEP, EVAL, SERVE = _ALL
_RPS, _P50 = "requests_per_s", "decide_p50_us"

PER_LAYER: List[PerLayer] = [
    # The decision tail has no bound: its spread between runs on a shared
    # 2-vCPU host (up to 0.51) exceeds the largest bound allowed (0.25).
    PerLayer("decide_p99_us", "us", "lower", _P50, _ALL),
    PerLayer("setup.import_s", "s", "lower", "setup_s", _ALL),
    PerLayer("setup.build_s", "s", "lower", "setup_s", _ALL),
    PerLayer("trace_overhead", "ratio", "lower", _RPS, _ALL),
    PerLayer("unaccounted_share", "ratio", "lower", _RPS, _ALL),
    PerLayer("agents.share", "ratio", "lower", _RPS, (TRAIN, EVAL)),
    PerLayer("nn.share", "ratio", "lower", _RPS, (TRAIN, EVAL)),
    PerLayer("core.vecenv.share", "ratio", "lower", _RPS, (TRAIN, SWEEP)),
    PerLayer("core.soa.share", "ratio", "lower", _RPS, (EVAL, SWEEP)),
    PerLayer("core.training.share", "ratio", "lower", _RPS, (TRAIN,)),
    PerLayer("core.policy.share", "ratio", "lower", _P50, (SWEEP,)),
    PerLayer("core.timeout.share", "ratio", "lower", _P50, (SERVE,)),
    PerLayer("baselines.share", "ratio", "lower", _RPS, (SWEEP, SERVE)),
    PerLayer("sim.simulation.share", "ratio", "lower", _RPS, (SWEEP,)),
    PerLayer("sim.failures.share", "ratio", "lower", _RPS, (SERVE,)),
    PerLayer("nfv.placement.share", "ratio", "lower", _RPS, (SERVE, TRAIN, SWEEP)),
    PerLayer("workloads.share", "ratio", "lower", _RPS, _ALL),
    PerLayer("experiments.runner.share", "ratio", "lower", _RPS, (EVAL, SWEEP)),
    PerLayer("experiments.parallel.share", "ratio", "lower", _RPS, (SWEEP,)),
    PerLayer("serving.share", "ratio", "lower", _RPS, (SERVE,)),
    PerLayer("workloads.sample_request.us", "us", "lower", _RPS, _ALL),
    PerLayer("masks_per_step", "ratio", "lower", _RPS, (TRAIN,)),
    PerLayer("steps_per_request", "ratio", "lower", _RPS, (EVAL, TRAIN)),
    PerLayer("nfv.placement.is_feasible.per_request", "ratio", "lower", _P50, (SERVE,)),
    PerLayer("experiments.parallel.speedup", "ratio", "higher", _RPS, (SWEEP,)),
]


def benchmark_spec() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def validate(spec: dict) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document (empty when valid)."""
    problems: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        return [f"keys {sorted(spec)} != {sorted(keys)}"]
    command, paths = spec["command"], spec["paths"]
    if not 1 <= len(command) <= 32 or not all(
        isinstance(part, str)
        and len(part) <= 200
        and not part.startswith("/")
        and ".." not in part
        for part in command
    ):
        problems.append(f"bad command {command}")
    if not 1 <= len(paths) <= 16 or any(
        not _PATH.fullmatch(path) or path.startswith("/") or ".." in path.split("/")
        for path in paths
    ):
        problems.append(f"bad paths {paths}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append(f"run_seconds {spec['run_seconds']} not a whole 1..60")
    workloads, e2e, layers = spec["workloads"], spec["end_to_end"], spec["per_layer"]
    if not 2 <= len(workloads) <= 8:
        problems.append(f"{len(workloads)} workloads, need 2..8")
    if not 1 <= len(e2e) <= 16:
        problems.append(f"{len(e2e)} end-to-end metrics, need 1..16")
    if not 1 <= len(layers) <= 128:
        problems.append(f"{len(layers)} per-layer metrics, need 1..128")
    for entry in workloads:
        why = entry.get("why", "")
        if set(entry) != {"name", "why"} or "\n" in why or len(why) > 200:
            problems.append(f"bad workload entry {entry}")
    for entry in e2e:
        if set(entry) != {"name", "unit", "better", "bound"}:
            problems.append(f"bad end-to-end entry {entry}")
        elif not 0 <= entry["bound"] <= 0.25:
            problems.append(f"{entry['name']}: bound {entry['bound']} outside 0..0.25")
    for entry in layers:
        if set(entry) != {"name", "unit", "better"}:
            problems.append(f"bad per-layer entry {entry}")
    names = [e["name"] for e in workloads] + [e["name"] for e in e2e] + [
        e["name"] for e in layers
    ]
    for name in names:
        if not _NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for entry in e2e + layers:
        if not _UNIT.fullmatch(entry.get("unit", "")):
            problems.append(f"bad unit {entry.get('unit')!r}")
        if entry.get("better") not in ("higher", "lower"):
            problems.append(f"bad direction {entry.get('better')!r}")
    setup = [e for e in e2e if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower) is missing")
    elif any(e["bound"] >= setup[0]["bound"] for e in e2e if e["name"] != "setup_s"):
        problems.append("setup_s must have the largest bound")
    return problems


def mapping_problems(spec: dict) -> List[str]:
    """Per-layer metrics whose target metric or workloads do not exist."""
    e2e = {entry["name"] for entry in spec["end_to_end"]}
    workloads = {entry["name"] for entry in spec["workloads"]}
    return [
        f"{m.name} -> {m.moves} on {m.workloads}"
        for m in PER_LAYER
        if m.moves not in e2e or not set(m.workloads) <= workloads
    ]


def missing_metrics(emitted: Sequence[str], trace: bool) -> List[str]:
    """Declared metrics absent from an emitted set (per mode)."""
    declared = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    return [name for name in declared if name not in set(emitted)]
