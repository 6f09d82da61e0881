"""The ``reprolint`` command line: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage error.  ``--output`` always writes
the JSON payload (regardless of ``--format``, which controls stdout), so one
invocation can both gate CI and refresh the committed machine-readable
artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.config import default_config
from repro.analysis.engine import analyze_paths
from repro.analysis.registry import FRAMEWORK_RULES, all_rules
from repro.analysis.reporters import render_github, render_json, render_text

DEFAULT_PATHS = ("src", "benchmarks", "tests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: AST-based project-contract analyzer (determinism, "
            "seed-discipline and read-only invariants)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files/directories to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="project root for relative paths and path-scoped config "
             "(default: current directory)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="stdout report format (default: text); 'github' emits one "
             "::error workflow-command annotation per finding",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="also write the JSON payload to this file",
    )
    parser.add_argument(
        "--select", default=None, metavar="RPLxxx[,RPLxxx...]",
        help="run only these rule ids",
    )
    parser.add_argument(
        "--disable", default=None, metavar="RPLxxx[,RPLxxx...]",
        help="disable these rule ids",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_ids(raw: Optional[str]):
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def list_rules() -> str:
    lines = []
    for rule_id, desc in sorted(FRAMEWORK_RULES.items()):
        lines.append(f"{rule_id}  [framework]  {desc}")
    for rule_id, rule_cls in all_rules().items():
        lines.append(f"{rule_id}  [{rule_cls.name}]  {rule_cls.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    config = default_config()
    select = _split_ids(args.select)
    disable = _split_ids(args.disable)
    known = set(all_rules()) | set(FRAMEWORK_RULES)
    for requested in (select or []) + (disable or []):
        if requested not in known:
            print(f"unknown rule id {requested!r}", file=sys.stderr)
            return 2
    if select is not None:
        config.select = select
    if disable is not None:
        config.disable = disable

    root = (args.root or Path.cwd()).resolve()
    missing = [p for p in args.paths if not (root / p).exists() and not Path(p).exists()]
    if missing:
        print(f"no such path(s): {missing}", file=sys.stderr)
        return 2

    report = analyze_paths(args.paths, config=config, root=root)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(render_json(report), encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "github":
        print(render_github(report))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
