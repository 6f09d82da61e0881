#!/usr/bin/env python
"""Schema gate for the committed benchmark result JSONs.

Every file under ``benchmarks/results/*.json`` is a committed artifact that
downstream plotting consumes; a benchmark change that silently drops a
required key would only surface when someone tries to plot.  This script
fails CI when any committed payload is stale-schema (missing required keys).

Usage::

    python scripts/check_results_schema.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: Required top-level keys per engineering-benchmark payload.
ENGINEERING_SCHEMAS = {
    "hotpath.json": {"dqn_update", "replay_sampling"},
    "envstep.json": {
        "config", "env_step", "env_step_k1", "latency_lookups",
        "placement_ops", "plan_ops", "request_ops",
    },
    "vecenv.json": {
        "config",
        "env_steps",
        "training_loop",
        "speedups",
        "decomposition",
    },
    "policyeval.json": {
        "config",
        "decision_throughput",
        "aggregate_decision_speedup",
        "sweep_eval",
    },
    "serving.json": {"smoke", "soak"},
    # reprolint's committed JSON report (refreshed by scripts/check.sh).
    "reprolint.json": {
        "schema_version",
        "tool",
        "rules_enabled",
        "paths_scanned",
        "findings",
        "summary",
    },
}

#: Required keys of the reprolint payload's summary section.
REPROLINT_SUMMARY_KEYS = {"files", "findings", "suppressed", "clean", "by_rule"}

#: Minimum reprolint JSON schema version the gate understands (v3 dropped
#: the incremental-cache block).
REPROLINT_MIN_SCHEMA_VERSION = 3

#: Required nested keys of the vecenv payload's lean-step extensions: the
#: per-protocol cost-model fits plus the lean stepping series themselves,
#: the asserted SoA-vs-reference K=64 series among them.
VECENV_DECOMPOSITION_KEYS = {
    "model",
    "per_lane_us_bar",
    "full",
    "lean",
    "core",
    "kernel_timings_k64",
}
VECENV_ENV_STEPS_KEYS = {
    "reference",
    "soa",
    "soa_steady_state",
    "soa_steady_state_lean",
    "soa_vs_reference_k64",
    "soa_scaling",
    "soa_scaling_full",
}

#: Required keys of the envstep payload's per-plan section: the timings and
#: the chain_fits calls each plan makes.
ENVSTEP_PLAN_OPS_KEYS = {"trace", "calls", "us_per_call", "chain_fits_per_plan"}

#: Cores the envstep payload's one-lane loop must time, side by side.
ENVSTEP_K1_CORES = {"reference", "soa"}

#: Required keys of every figure payload (``fig*.json`` / ``ablation*.json``).
FIGURE_KEYS = {"figure", "x_label", "y_label", "x", "series"}

#: Required keys of every table payload (``table*.json``).
TABLE_KEYS = {"table"}


def check_file(path: Path) -> list:
    """Return a list of problems found in one payload (empty when clean)."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if path.name in ENGINEERING_SCHEMAS:
        required = ENGINEERING_SCHEMAS[path.name]
    elif path.name.startswith(("fig", "ablation")):
        required = FIGURE_KEYS
    elif path.name.startswith("table"):
        required = TABLE_KEYS
    else:
        return []  # unknown artifacts are not gated
    missing = sorted(required - set(payload))
    if missing:
        return [f"{path.name}: missing required keys {missing}"]
    problems = []
    if path.name == "reprolint.json":
        summary_missing = sorted(REPROLINT_SUMMARY_KEYS - set(payload["summary"]))
        if payload["schema_version"] < REPROLINT_MIN_SCHEMA_VERSION:
            problems.append(
                f"{path.name}: stale schema_version "
                f"{payload['schema_version']} "
                f"(gate requires >= {REPROLINT_MIN_SCHEMA_VERSION}; "
                "re-run scripts/check.sh to refresh)"
            )
        elif summary_missing:
            problems.append(
                f"{path.name}: summary missing keys {summary_missing}"
            )
        # A committed lint report with findings means the tree was shipped
        # dirty (or the artifact is stale): both are gate failures.
        elif not payload["summary"]["clean"]:
            problems.append(
                f"{path.name}: committed report is not clean "
                f"({payload['summary']['findings']} findings)"
            )
        else:
            by_rule = payload["summary"]["by_rule"]
            if not isinstance(by_rule, dict) or not all(
                isinstance(count, int) for count in by_rule.values()
            ):
                problems.append(
                    f"{path.name}: summary.by_rule is not a per-rule count map"
                )
            elif set(payload["rules_enabled"]) - set(by_rule):
                problems.append(
                    f"{path.name}: summary.by_rule missing enabled rules "
                    f"{sorted(set(payload['rules_enabled']) - set(by_rule))}"
                )
    if path.name == "envstep.json":
        plan_missing = sorted(ENVSTEP_PLAN_OPS_KEYS - set(payload["plan_ops"]))
        if plan_missing:
            problems.append(f"{path.name}: plan_ops missing keys {plan_missing}")
        k1_missing = sorted(
            ENVSTEP_K1_CORES - set(payload["env_step_k1"].get("us_per_step", {}))
        )
        if k1_missing:
            problems.append(
                f"{path.name}: env_step_k1 us_per_step missing cores {k1_missing}"
            )
    if path.name == "vecenv.json":
        for section, nested in (
            ("decomposition", VECENV_DECOMPOSITION_KEYS),
            ("env_steps", VECENV_ENV_STEPS_KEYS),
        ):
            nested_missing = sorted(nested - set(payload[section]))
            if nested_missing:
                problems.append(
                    f"{path.name}: {section} missing keys {nested_missing}"
                )
    return problems


def main() -> int:
    if not RESULTS_DIR.is_dir():
        print(f"results directory missing: {RESULTS_DIR}", file=sys.stderr)
        return 1
    problems = []
    checked = 0
    for path in sorted(RESULTS_DIR.glob("*.json")):
        checked += 1
        problems.extend(check_file(path))
    if problems:
        for problem in problems:
            print(f"STALE SCHEMA: {problem}", file=sys.stderr)
        return 1
    print(f"results schema OK ({checked} payloads checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
