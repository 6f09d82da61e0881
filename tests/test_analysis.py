"""reprolint: fixture-driven rule tests plus the repo-clean gate.

Every RPLxxx rule gets at least one triggering fixture (the rule fires, at
the expected sites) and one clean fixture (the conforming idiom passes).
The integration test at the bottom runs the full analyzer — default
committed configuration, every rule enabled — over ``src``, ``benchmarks``
and ``tests`` and asserts zero findings: the tree itself is the ultimate
clean fixture, and any future contract violation fails tier-1 here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    FRAMEWORK_RULES,
    RuleScope,
    all_rules,
    analyze_paths,
    analyze_source,
    default_config,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"

#: Options mirroring the real RPL107 configuration, retargeted at the
#: fixture modules.
RPL107_OPTIONS = {
    "events_module": "tests/fixtures/analysis/rpl107_events_trigger.py",
    "enum_name": "EventType",
    "handler_modules": ["tests/fixtures/analysis/rpl107_handlers.py"],
    "register_methods": ["on"],
}


def run_fixture(name, select):
    config = AnalysisConfig(select=list(select))
    return analyze_paths(
        [str(FIXTURES / name)], config=config, root=REPO_ROOT
    )


class TestRuleCatalog:
    def test_full_rule_catalog_registered(self):
        assert sorted(all_rules()) == [
            "RPL101", "RPL102", "RPL103", "RPL104", "RPL106", "RPL107",
            "RPL203",
        ]

    def test_framework_rules_reserved(self):
        assert set(FRAMEWORK_RULES) == {"RPL001", "RPL002"}


# Each entry: (trigger fixture, rule id, expected finding count,
#              expected symbols subset, clean fixture)
RULE_CASES = [
    ("rpl101_trigger.py", "RPL101", 4,
     {"numpy.random.rand", "random.random", "numpy.random.default_rng",
      "random.Random"},
     "rpl101_clean.py"),
    ("rpl102_trigger.py", "RPL102", 4,
     {"time.time", "time.perf_counter", "datetime.datetime.now"},
     "rpl102_clean.py"),
    ("rpl103_trigger.py", "RPL103", 4, {"id"}, "rpl103_clean.py"),
    ("rpl104_trigger.py", "RPL104", 3,
     {"seed", "base_seed"}, "rpl104_clean.py"),
    ("rpl106_trigger.py", "RPL106", 3, {"except"}, "rpl106_clean.py"),
    ("rpl203_trigger.py", "RPL203", 7,
     {"clobber_masks", "fill_via_alias", "ufunc_targets", "anchor_typo",
      "bump_request"},
     "rpl203_clean.py"),
]


class TestRulesFire:
    @pytest.mark.parametrize(
        "trigger,rule_id,count,symbols,clean",
        RULE_CASES,
        ids=[case[1] for case in RULE_CASES],
    )
    def test_trigger_and_clean_fixture(self, trigger, rule_id, count, symbols, clean):
        report = run_fixture(trigger, [rule_id])
        assert len(report.findings) == count, render_text(report)
        assert {f.rule_id for f in report.findings} == {rule_id}
        assert symbols <= {f.symbol for f in report.findings}
        # Findings carry real locations inside the fixture.
        assert all(f.line > 1 and f.path.endswith(trigger)
                   for f in report.findings)

        clean_report = run_fixture(clean, [rule_id])
        assert clean_report.findings == [], render_text(clean_report)

    def test_rpl107_missing_handler(self):
        config = AnalysisConfig(
            select=["RPL107"], options={"RPL107": RPL107_OPTIONS}
        )
        report = analyze_paths(
            [str(FIXTURES / "rpl107_events_trigger.py")],
            config=config, root=REPO_ROOT,
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule_id == "RPL107"
        assert finding.symbol == "EventType.ORPHANED"
        # The finding anchors on the member's declaration line.
        assert finding.path.endswith("rpl107_events_trigger.py")
        assert "ORPHANED" in finding.message

    def test_rpl107_creation_site_does_not_count_as_handler(self):
        # ARRIVAL/DEPARTURE are registered, END is dispatch-compared, and
        # ORPHANED only appears at an Event.create site — so exactly one
        # member is unhandled (asserted above); here we assert the other
        # three are NOT reported.
        config = AnalysisConfig(
            select=["RPL107"], options={"RPL107": RPL107_OPTIONS}
        )
        report = analyze_paths(
            [str(FIXTURES / "rpl107_events_trigger.py")],
            config=config, root=REPO_ROOT,
        )
        reported = {f.symbol for f in report.findings}
        assert "EventType.ARRIVAL" not in reported
        assert "EventType.DEPARTURE" not in reported
        assert "EventType.END" not in reported


class TestSuppressions:
    def test_valid_suppressions_silence_findings(self):
        report = run_fixture("suppressed_ok.py", ["RPL102"])
        assert report.findings == []
        assert report.suppressed == 2  # one trailing, one standalone

    def test_reasonless_suppression_is_a_finding_and_suppresses_nothing(self):
        report = run_fixture("suppressed_bad.py", ["RPL102"])
        rules = sorted(f.rule_id for f in report.findings)
        assert rules == ["RPL002", "RPL102"]
        assert report.suppressed == 0

    def test_suppression_only_matches_listed_rule(self):
        report = analyze_source(
            "import time\n"
            "t = time.time()  # repro-lint: disable=RPL101 — wrong rule id\n",
            rel="wrong_rule.py",
            config=AnalysisConfig(select=["RPL102"]),
        )
        assert [f.rule_id for f in report.findings] == ["RPL102"]
        assert report.suppressed == 0

    def test_multi_rule_suppression(self):
        report = analyze_source(
            "import time, random\n"
            "x = (time.time(), random.random())"
            "  # repro-lint: disable=RPL101, RPL102 — both annotated\n",
            rel="multi.py",
            config=AnalysisConfig(select=["RPL101", "RPL102"]),
        )
        assert report.findings == []
        assert report.suppressed == 2

    def test_syntax_error_reported_as_rpl001(self):
        report = run_fixture("rpl001_syntax_error.py", ["RPL101"])
        assert [f.rule_id for f in report.findings] == ["RPL001"]


class TestScopesAndConfig:
    def test_scope_only_and_skip(self):
        scope = RuleScope(only=("src/*",), skip=("src/vendored/*",))
        assert scope.applies_to("src/repro/core/soa.py")
        assert not scope.applies_to("tests/test_x.py")
        assert not scope.applies_to("src/vendored/thing.py")

    def test_default_config_excludes_fixtures(self):
        config = default_config()
        assert config.excluded("tests/fixtures/analysis/rpl101_trigger.py")
        assert not config.excluded("tests/test_analysis.py")

    def test_default_scope_waives_clock_allowlist(self):
        scope = default_config().scope_for("RPL102")
        assert not scope.applies_to("benchmarks/bench_vecenv.py")
        assert not scope.applies_to("src/repro/core/timeout.py")
        assert not scope.applies_to("src/repro/experiments/cli.py")
        assert scope.applies_to("src/repro/core/soa.py")

    def test_disable_removes_rule(self):
        config = AnalysisConfig(select=["RPL101", "RPL102"], disable=["RPL102"])
        assert config.enabled_rules(["RPL101", "RPL102"]) == ["RPL101"]


class TestReporters:
    def test_json_payload_schema_and_determinism(self):
        config = AnalysisConfig(select=["RPL101"])
        report = analyze_paths(
            [str(FIXTURES / "rpl101_trigger.py")], config=config, root=REPO_ROOT
        )
        payload = json.loads(render_json(report))
        assert set(payload) == {
            "schema_version", "tool", "rules_enabled", "paths_scanned",
            "findings", "summary",
        }
        assert payload["schema_version"] == 3
        assert payload["tool"] == "reprolint"
        summary = payload["summary"]
        assert set(summary) == {
            "files", "findings", "suppressed", "clean", "by_rule"
        }
        assert summary["clean"] is False
        assert summary["findings"] == len(payload["findings"])
        # Per-rule counts cover every enabled rule (zeros included).
        assert summary["by_rule"] == {"RPL101": 4}
        for entry in payload["findings"]:
            assert set(entry) == {
                "rule", "path", "line", "col", "message", "symbol"
            }
            # Committed artifact stays machine-portable: relative paths only.
            assert not entry["path"].startswith("/")
        # Byte-identical across runs (no timestamps, stable ordering).
        second = analyze_paths(
            [str(FIXTURES / "rpl101_trigger.py")], config=config, root=REPO_ROOT
        )
        assert render_json(report) == render_json(second)

    def test_text_report_mentions_every_finding(self):
        report = run_fixture("rpl106_trigger.py", ["RPL106"])
        text = render_text(report)
        assert text.count("RPL106") == len(report.findings)
        assert "finding" in text.splitlines()[-1]

    def test_by_rule_reports_zero_for_silent_rules(self):
        report = run_fixture("rpl101_trigger.py", ["RPL101", "RPL102"])
        payload = json.loads(render_json(report))
        assert payload["summary"]["by_rule"] == {"RPL101": 4, "RPL102": 0}

    def test_github_format_emits_error_annotations(self):
        report = run_fixture("rpl101_trigger.py", ["RPL101"])
        out = render_github(report)
        lines = out.splitlines()
        annotations = [line for line in lines if line.startswith("::error ")]
        assert len(annotations) == len(report.findings) == 4
        first = report.findings[0]
        assert annotations[0].startswith(
            f"::error file={first.path},line={first.line},col={first.col},"
            f"title=reprolint RPL101::"
        )
        assert annotations[0].endswith(first.message)
        # The human summary line still closes the output.
        assert "finding" in lines[-1]

    def test_github_format_escapes_workflow_command_characters(self):
        from repro.analysis.findings import Finding, Report

        finding = Finding(
            rule_id="RPL101",
            path="pkg/weird,file.py",
            line=3,
            col=1,
            message="bad % and\nmultiline",
        )
        report = Report(
            findings=[finding], files_scanned=1, rules_enabled=["RPL101"]
        )
        out = render_github(report).splitlines()[0]
        # Property values escape %, newlines and commas; the message data
        # escapes % and newlines so the annotation stays one line.
        assert "file=pkg/weird%2Cfile.py" in out
        assert "bad %25 and%0Amultiline" in out
        assert "\n" not in out


class TestCli:
    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("RPL")]
        assert listed == ["RPL001", "RPL002", "RPL101", "RPL102", "RPL103",
                          "RPL104", "RPL106", "RPL107", "RPL203"]

    def test_unknown_rule_is_usage_error(self, capsys):
        assert cli_main(["--select", "RPL999", str(FIXTURES)]) == 2

    def test_missing_path_is_usage_error(self):
        assert cli_main(["no/such/path", "--root", str(REPO_ROOT)]) == 2

    def test_findings_exit_1_and_output_file(self, tmp_path, capsys):
        # The default config excludes tests/fixtures (even when named
        # explicitly), so drive the CLI on a copy outside that tree.
        target = tmp_path / "module.py"
        target.write_text((FIXTURES / "rpl101_trigger.py").read_text())
        out_file = tmp_path / "lint.json"
        code = cli_main([
            "module.py",
            "--root", str(tmp_path),
            "--select", "RPL101",
            "--output", str(out_file),
        ])
        assert code == 1
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["findings"] == 4
        assert "RPL101" in capsys.readouterr().out

    def test_default_config_excludes_fixtures_even_when_named(self, capsys):
        code = cli_main([
            "tests/fixtures/analysis/rpl101_trigger.py",
            "--root", str(REPO_ROOT),
            "--select", "RPL101",
        ])
        assert code == 0
        assert "0 files" in capsys.readouterr().out

    def test_clean_exit_0_json_stdout(self, tmp_path, capsys):
        target = tmp_path / "module.py"
        target.write_text((FIXTURES / "rpl101_clean.py").read_text())
        code = cli_main([
            "module.py",
            "--root", str(tmp_path),
            "--select", "RPL101",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["clean"] is True
        assert payload["paths_scanned"] == 1


class TestRepoClean:
    """The tree itself must pass with every rule enabled."""

    def test_repo_is_clean_under_full_default_config(self):
        report = analyze_paths(
            ["src", "benchmarks", "tests"], root=REPO_ROOT
        )
        assert report.findings == [], render_text(report)
        # Sanity: this really scanned the tree with the full catalog.
        assert report.files_scanned > 100
        assert report.rules_enabled == sorted(all_rules())
        # The tree carries no suppressions: every finding is fixed, not
        # waived.
        assert report.suppressed == 0

    def test_real_event_enum_is_exhaustively_handled(self):
        config = default_config()
        config.select = ["RPL107"]
        report = analyze_paths(["src/repro/sim"], config=config, root=REPO_ROOT)
        assert report.findings == [], render_text(report)

    def test_rpl107_catches_member_added_without_handler(self):
        # Regression guard for the cross-module visitor itself: extend the
        # real enum source with a fresh member and re-run the real rule
        # configuration against the patched copy.
        config = default_config()
        events_rel = config.options["RPL107"]["events_module"]
        original = (REPO_ROOT / events_rel).read_text()
        patched = original.replace(
            'END_OF_SIMULATION = "end_of_simulation"',
            'END_OF_SIMULATION = "end_of_simulation"\n'
            '    TOTALLY_NEW = "totally_new"',
        )
        assert patched != original
        from repro.analysis.module import SourceModule
        from repro.analysis.engine import analyze_modules

        modules = [SourceModule.from_source(patched, rel=events_rel)]
        config.select = ["RPL107"]
        report = analyze_modules(modules, config, REPO_ROOT)
        assert [f.symbol for f in report.findings] == ["EventType.TOTALLY_NEW"]
