"""reprolint: AST-based project-contract static analysis.

The dynamic enforcement of this repository's invariants — the differential
campaigns proving SoA==reference and lean==full bitwise —
only catches a contract breach *after* it produces a divergent trajectory.
This package is the commit-time complement: a small lint framework whose
rules encode the contracts directly (no hidden RNG or clock state, no
id()-keyed caches, seed derivation through ``derive_seed``, no silent
broad excepts, event-handler exhaustiveness, read-only parameters), so a
violating diff fails ``make lint`` / CI before any campaign runs.
See ``docs/ANALYSIS.md`` for the rule catalog and how to add a rule.
"""

from repro.analysis.config import AnalysisConfig, RuleScope, default_config
from repro.analysis.engine import analyze_modules, analyze_paths, analyze_source
from repro.analysis.findings import Finding, Report
from repro.analysis.module import SourceModule
from repro.analysis.registry import FRAMEWORK_RULES, all_rules, register
from repro.analysis.reporters import (
    JSON_SCHEMA_VERSION,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.rules.base import FileRule, ProjectRule, Rule

__all__ = [
    "AnalysisConfig",
    "RuleScope",
    "default_config",
    "render_github",
    "analyze_modules",
    "analyze_paths",
    "analyze_source",
    "Finding",
    "Report",
    "SourceModule",
    "FRAMEWORK_RULES",
    "all_rules",
    "register",
    "JSON_SCHEMA_VERSION",
    "render_json",
    "render_text",
    "FileRule",
    "ProjectRule",
    "Rule",
]
