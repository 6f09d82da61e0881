"""reprolint: AST-based project-contract static analysis.

The dynamic enforcement of this repository's invariants — the differential
campaigns proving SoA==reference and lean==full bitwise —
only catches a contract breach *after* it produces a divergent trajectory.
This package is the commit-time complement: a small lint framework whose
rules encode the contracts directly (no hidden RNG or clock state, no
id()-keyed caches, seed derivation through ``derive_seed``, numpy/Python
shadow-ledger pairing, no silent broad excepts, event-handler
exhaustiveness), so a violating diff fails ``make lint`` / CI before any
campaign runs.  On top of the lexical rules sits a flow-sensitive layer —
an intra-procedural CFG (``cfg``) and worklist dataflow engine
(``dataflow``) powering the ordering/aliasing rules (shadow-ledger
staleness, read-only parameters).
See ``docs/ANALYSIS.md`` for the rule catalog and how to add a rule.
"""

from repro.analysis.cache import CacheStats, LintCache
from repro.analysis.cfg import CFG, Block, build_cfg
from repro.analysis.config import AnalysisConfig, RuleScope, default_config
from repro.analysis.dataflow import (
    ForwardAnalysis,
    ReachingDefinitions,
    defs_at,
    run_forward,
)
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
    "CFG",
    "Block",
    "build_cfg",
    "ForwardAnalysis",
    "ReachingDefinitions",
    "defs_at",
    "run_forward",
    "CacheStats",
    "LintCache",
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
