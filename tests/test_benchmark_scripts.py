"""The benchmark scripts' CI entry points leave the committed results alone."""

import sys

import benchmarks.bench_serving as bench_serving
import benchmarks.common as common


def test_serving_smoke_asserts_and_prints_but_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    committed = common.RESULTS_DIR / "serving.json"
    before = committed.read_bytes()
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_serving.py", "--smoke"])
    bench_serving.main()
    assert "serving smoke:" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert committed.read_bytes() == before
