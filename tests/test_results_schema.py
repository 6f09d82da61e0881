"""``scripts/check_results_schema.py``: the gate on committed result JSONs."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_results_schema.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("check_results_schema", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


schema = _load_script()
COMMITTED = sorted(schema.RESULTS_DIR.glob("*.json"))


def _committed(name):
    return json.loads((schema.RESULTS_DIR / name).read_text())


def _problems(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return schema.check_file(path)


def test_gated_payloads_are_committed():
    assert {"reprolint.json", "vecenv.json"} <= {path.name for path in COMMITTED}


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.name)
def test_committed_payload_passes(path):
    assert schema.check_file(path) == []


def test_reprolint_schema_2_fails(tmp_path):
    payload = _committed("reprolint.json")
    payload["schema_version"] = 2
    [problem] = _problems(tmp_path, "reprolint.json", payload)
    assert "stale schema_version 2" in problem


def test_reprolint_unclean_report_fails(tmp_path):
    payload = _committed("reprolint.json")
    payload["summary"].update(clean=False, findings=1)
    [problem] = _problems(tmp_path, "reprolint.json", payload)
    assert "not clean" in problem


def test_reprolint_by_rule_missing_an_enabled_rule_fails(tmp_path):
    payload = _committed("reprolint.json")
    dropped = payload["rules_enabled"][0]
    del payload["summary"]["by_rule"][dropped]
    [problem] = _problems(tmp_path, "reprolint.json", payload)
    assert "by_rule missing enabled rules" in problem and dropped in problem


def test_vecenv_without_kernel_timings_fails(tmp_path):
    payload = _committed("vecenv.json")
    del payload["decomposition"]["kernel_timings_k64"]
    [problem] = _problems(tmp_path, "vecenv.json", payload)
    assert "decomposition missing keys ['kernel_timings_k64']" in problem


def test_vecenv_without_the_asserted_reference_series_fails(tmp_path):
    payload = _committed("vecenv.json")
    del payload["env_steps"]["soa_vs_reference_k64"]
    [problem] = _problems(tmp_path, "vecenv.json", payload)
    assert "env_steps missing keys ['soa_vs_reference_k64']" in problem


def test_envstep_without_plan_ops_fails(tmp_path):
    payload = _committed("envstep.json")
    del payload["plan_ops"]
    [problem] = _problems(tmp_path, "envstep.json", payload)
    assert "missing required keys ['plan_ops']" in problem


def test_envstep_without_chain_fits_per_plan_fails(tmp_path):
    payload = _committed("envstep.json")
    del payload["plan_ops"]["chain_fits_per_plan"]
    [problem] = _problems(tmp_path, "envstep.json", payload)
    assert "plan_ops missing keys ['chain_fits_per_plan']" in problem


def test_envstep_without_the_k1_loop_fails(tmp_path):
    payload = _committed("envstep.json")
    del payload["env_step_k1"]
    [problem] = _problems(tmp_path, "envstep.json", payload)
    assert "missing required keys ['env_step_k1']" in problem


def test_envstep_k1_loop_without_the_reference_side_fails(tmp_path):
    payload = _committed("envstep.json")
    del payload["env_step_k1"]["us_per_step"]["reference"]
    [problem] = _problems(tmp_path, "envstep.json", payload)
    assert "env_step_k1 us_per_step missing cores ['reference']" in problem


def test_figure_without_series_fails(tmp_path):
    payload = {"figure": "fig9", "x_label": "x", "y_label": "y", "x": [1]}
    [problem] = _problems(tmp_path, "fig9_new.json", payload)
    assert "missing required keys ['series']" in problem


def test_unknown_file_name_is_not_gated(tmp_path):
    assert _problems(tmp_path, "notes.json", {}) == []
