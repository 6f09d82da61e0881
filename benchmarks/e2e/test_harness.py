"""Tests of the end-to-end benchmark harness, at tiny workload sizes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import catalog, worker
from benchmarks.e2e.measure import (
    Tracer,
    latency_summary,
    layer_metrics,
    quantile,
    self_times,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Sizes that keep every correctness check meaningful at a fraction of a second.
TINY = {
    "train_fig": {"episodes": 2},
    "sweep_fig": {"horizon": 10.0, "lane_episodes": 1, "requests_per_episode": 5},
    "eval_faults": {"episodes": 1, "lanes": 4},
    "serve_overload": {"horizon": 400.0},
}


def test_quantiles_report_the_samples_beyond():
    summary = latency_summary(value * 1000 for value in range(1, 1001))
    assert summary["n"] == 1000
    assert summary["p50_us"] == pytest.approx(500.5)
    assert summary["p99_us"] == pytest.approx(990.01)
    assert summary["p99_beyond"] == 10
    # The tail quantile is the highest one with ten samples beyond it.
    assert summary["tail_q"] == pytest.approx(0.99)
    assert latency_summary(range(100))["tail_q"] == pytest.approx(0.9)
    assert latency_summary([3, 1, 2])["tail_q"] == 0.5
    assert latency_summary([])["n"] == 0
    assert quantile([1.0, 2.0], 0.5) == 1.5
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["b", 30, 60, 0, 0],  # overlaps a
        ["c", 15, 20, 1, 0],  # nested in a
        ["d", 90, 120, 0, 0],  # clipped at the root's end
    ]
    assert self_times(spans) == [40, 25, 30, 5, 30]


def test_tracer_records_parents_request_ids_and_restores():
    class Box:
        def outer(self, value):
            return self.inner(value) + 1

        def inner(self, value):
            return value * 2

    original = Box.inner
    box = Box()
    tracer = Tracer()
    with tracer:
        tracer.patch(Box, "inner", "nn.inner")
        tracer.patch(box, "outer", "agents.outer", request_id=lambda args: args[0])
        assert tracer.wrap("round", lambda: box.outer(7))() == 15
    assert "outer" not in vars(box) and Box.inner is original
    assert [span[0] for span in tracer.spans] == ["round", "agents.outer", "nn.inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1]
    assert [span[4] for span in tracer.spans] == [-1, 7, 7]
    metrics = layer_metrics(tracer.spans)
    assert metrics["agents.outer.calls"] == 1
    shares = metrics["agents.share"] + metrics["nn.share"] + metrics["unaccounted_share"]
    assert shares == pytest.approx(1.0)


def test_benchmark_json_is_the_catalog_and_valid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == catalog.benchmark_spec()
    assert catalog.validate(spec) == []
    assert catalog.mapping_problems(spec) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda spec: spec["workloads"].__delitem__(slice(1, None)),
        lambda spec: spec["end_to_end"][0].update(name="bad name"),
        lambda spec: spec["end_to_end"][0].update(bound=0.5),
        lambda spec: spec["per_layer"].extend(spec["per_layer"][:1] * 128),
        lambda spec: spec["end_to_end"].pop(),
        lambda spec: spec["command"].append("/abs/path"),
    ],
)
def test_validator_rejects_contract_breaches(edit):
    spec = catalog.benchmark_spec()
    edit(spec)
    assert catalog.validate(spec)


def test_layer_mapping_names_real_metrics_and_workloads():
    spec = catalog.benchmark_spec()
    spec["end_to_end"] = [e for e in spec["end_to_end"] if e["name"] != "decide_p50_us"]
    assert any("decide_p50_us" in problem for problem in catalog.mapping_problems(spec))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct_and_deterministic(name, monkeypatch):
    # A serial policy pool keeps the tiny sweep fast; results are identical.
    monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
    from repro.utils.rng import derive_seed

    from benchmarks.e2e.workloads import WORKLOADS

    build = WORKLOADS[name]
    workload = build(derive_seed(0, name), **TINY[name])
    first = workload.run()
    tracer = Tracer()
    second = workload.run(tracer)
    serial = [workload.run(serial=True)] if getattr(workload, "pooled", False) else []
    other = build(derive_seed(1, name), **TINY[name]).run()
    for result in (first, second, other, *serial):
        assert result.problems == [] and result.failed == 0 and result.requests > 0
    assert {result.digest for result in (second, *serial)} == {first.digest}
    assert first.digest != other.digest

    traced = [(second, layer_metrics(tracer.spans))]
    emitted = list(worker.end_to_end([first])) + ["setup_s"]
    assert catalog.missing_metrics(emitted, trace=False) == []
    setup = {"setup.import_s": 0.1, "setup.build_s": 0.1}
    layers = worker.per_layer([first], traced, serial, setup)
    assert catalog.missing_metrics(list(layers), trace=True) == []
    if serial:
        assert layers["experiments.parallel.speedup"] > 0


@pytest.mark.parametrize("seconds", ["0", "61", "2.5"])
def test_command_refuses_run_lengths_a_worker_cannot_hold(seconds):
    from benchmarks.e2e.__main__ import main

    with pytest.raises(SystemExit) as refused:
        main(["--workload", "train_fig", "--seconds", seconds])
    assert refused.value.code == 2


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "train_fig",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode not in (0, 1)
    assert '"correct"' not in run.stdout
