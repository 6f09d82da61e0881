"""The analysis driver: collect files, run rules, apply suppressions.

Every run parses each collected file and runs every enabled rule
(:func:`analyze_modules`); :func:`analyze_paths` and :func:`analyze_source`
only differ in where the modules come from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.config import AnalysisConfig, default_config
from repro.analysis.findings import Finding, Report
from repro.analysis.module import SourceModule
from repro.analysis.registry import all_rules
from repro.analysis.rules.base import FileRule, ProjectRule
from repro.analysis.suppressions import BAD_SUPPRESSION_RULE, PARSE_ERROR_RULE


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def collect_files(
    paths: Sequence[Path], root: Path, config: AnalysisConfig
) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen: Dict[str, Path] = {}
    for entry in paths:
        entry = entry if entry.is_absolute() else root / entry
        if entry.is_dir():
            candidates: Iterable[Path] = sorted(entry.rglob("*.py"))
        else:
            candidates = [entry]
        for candidate in candidates:
            rel = _rel_path(candidate, root)
            if config.excluded(rel):
                continue
            seen.setdefault(rel, candidate)
    return [seen[rel] for rel in sorted(seen)]


def _framework_findings(module: SourceModule) -> List[Finding]:
    findings: List[Finding] = []
    if module.parse_error is not None:
        line, msg = module.parse_error
        findings.append(
            Finding(PARSE_ERROR_RULE, module.rel, line, 1,
                    f"file does not parse: {msg}", symbol="syntax")
        )
    for line, detail in module.malformed_suppressions:
        findings.append(
            Finding(BAD_SUPPRESSION_RULE, module.rel, line, 1, detail,
                    symbol="repro-lint")
        )
    return findings


def _split_rules(config: AnalysisConfig):
    """(enabled ids, file-rule instances, project-rule instances)."""
    registered = all_rules()
    enabled = config.enabled_rules(list(registered))
    file_rules = []
    project_rules = []
    for rule_id in enabled:
        rule_cls = registered[rule_id]
        rule = rule_cls(config.options_for(rule_id))
        if issubclass(rule_cls, ProjectRule):
            project_rules.append(rule)
        elif issubclass(rule_cls, FileRule):
            file_rules.append(rule)
    return enabled, file_rules, project_rules


def _finalize(
    raw: List[Finding],
    suppression_maps: Dict[str, Dict[int, Set[str]]],
    root: Path,
    enabled: Sequence[str],
    rels: Sequence[str],
) -> Report:
    """Apply suppressions, sort the findings and build the report."""
    findings: List[Finding] = []
    suppressed = 0
    for finding in raw:
        lines = suppression_maps.get(finding.path)
        if lines is None:
            # Project-rule findings may land on files outside the scan set;
            # honor their inline suppressions too.
            target = root / finding.path
            try:
                lines = SourceModule.load(target, finding.path).suppressions
            except OSError:
                lines = {}
            suppression_maps[finding.path] = lines
        if finding.rule_id in lines.get(finding.line, ()):
            suppressed += 1
            continue
        findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return Report(
        findings=findings,
        files_scanned=len(rels),
        suppressed=suppressed,
        rules_enabled=sorted(enabled),
        paths=sorted(rels),
    )


def analyze_modules(
    modules: List[SourceModule],
    config: AnalysisConfig,
    root: Path,
) -> Report:
    """Run every enabled rule over pre-loaded modules."""
    enabled, file_rules, project_rules = _split_rules(config)
    raw: List[Finding] = []
    for module in modules:
        raw.extend(_framework_findings(module))
        for rule in file_rules:
            if config.scope_for(rule.rule_id).applies_to(module.rel):
                raw.extend(rule.check_module(module))
    by_rel = {module.rel: module for module in modules}
    for rule in project_rules:
        raw.extend(rule.check_project(by_rel, root))
    suppression_maps: Dict[str, Dict[int, Set[str]]] = {
        module.rel: module.suppressions for module in modules
    }
    return _finalize(raw, suppression_maps, root, enabled, sorted(by_rel))


def analyze_paths(
    paths: Sequence[str],
    config: Optional[AnalysisConfig] = None,
    root: Optional[Path] = None,
) -> Report:
    """Analyze files/directories; the main entry point for CLI and tests."""
    config = config if config is not None else default_config()
    root = (root or Path.cwd()).resolve()
    files = collect_files([Path(p) for p in paths], root, config)
    modules = [SourceModule.load(path, _rel_path(path, root)) for path in files]
    return analyze_modules(modules, config, root)


def analyze_source(
    text: str,
    rel: str = "<string>",
    config: Optional[AnalysisConfig] = None,
    root: Optional[Path] = None,
) -> Report:
    """Analyze a single in-memory module (rule unit tests)."""
    config = config if config is not None else default_config()
    module = SourceModule.from_source(text, rel=rel)
    return analyze_modules([module], config, (root or Path.cwd()).resolve())
