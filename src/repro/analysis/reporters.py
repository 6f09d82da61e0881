"""Text, JSON and GitHub-annotation reporters.

The JSON payload is a committed artifact (``benchmarks/results/
reprolint.json``) gated by ``scripts/check_results_schema.py``, so its
top-level shape is versioned and changes require a schema bump:

.. code-block:: json

    {
      "schema_version": 3,
      "tool": "reprolint",
      "rules_enabled": ["RPL101", "..."],
      "paths_scanned": 123,
      "findings": [
        {"rule": "...", "path": "...", "line": 1, "col": 1,
         "message": "...", "symbol": "..."}
      ],
      "summary": {"files": 123, "findings": 0, "suppressed": 0,
                  "clean": true,
                  "by_rule": {"RPL101": 0, "...": 0}}
    }

Schema history: v1 had no ``summary.by_rule``/``summary.cache``; v2 added
both (per-rule post-suppression counts with zeros for every enabled rule,
and whether the incremental cache served the run); v3 dropped
``summary.cache`` with the cache itself.

Output is deterministic: findings sort by (path, line, col, rule) and no
timestamps or absolute paths appear anywhere.

The GitHub format emits one `workflow command
<https://docs.github.com/actions/reference/workflow-commands>`_ error
annotation per finding — CI runs surface findings inline on the PR diff —
followed by the text summary line (``::`` lines are consumed by the runner;
the summary keeps the raw log readable).
"""

from __future__ import annotations

import json

from repro.analysis.findings import Report

#: Bumped whenever the JSON payload's shape changes.
JSON_SCHEMA_VERSION = 3


def render_text(report: Report) -> str:
    lines = []
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule_id} {finding.message}"
        )
    suffix = f" ({report.suppressed} suppressed)" if report.suppressed else ""
    status = "clean — 0 findings" if report.clean else f"{len(report.findings)} finding(s)"
    lines.append(
        f"reprolint: {status}{suffix} across {report.files_scanned} files, "
        f"{len(report.rules_enabled)} rules enabled"
    )
    return "\n".join(lines)


def _escape_property(value: str) -> str:
    """Escape a workflow-command property value (file=, title=)."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    """Escape workflow-command message data."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(report: Report) -> str:
    """``::error`` annotations per finding, plus the text summary line."""
    lines = []
    for finding in report.findings:
        lines.append(
            "::error "
            f"file={_escape_property(finding.path)},"
            f"line={finding.line},"
            f"col={finding.col},"
            f"title={_escape_property('reprolint ' + finding.rule_id)}"
            f"::{_escape_data(finding.message)}"
        )
    suffix = f" ({report.suppressed} suppressed)" if report.suppressed else ""
    status = "clean — 0 findings" if report.clean else f"{len(report.findings)} finding(s)"
    lines.append(
        f"reprolint: {status}{suffix} across {report.files_scanned} files, "
        f"{len(report.rules_enabled)} rules enabled"
    )
    return "\n".join(lines)


def render_json(report: Report) -> str:
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": "reprolint",
        "rules_enabled": list(report.rules_enabled),
        "paths_scanned": report.files_scanned,
        "findings": [finding.to_dict() for finding in report.findings],
        "summary": {
            "files": report.files_scanned,
            "findings": len(report.findings),
            "suppressed": report.suppressed,
            "clean": report.clean,
            "by_rule": report.by_rule(),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
