"""Rule base classes.

A :class:`FileRule` inspects one parsed module at a time; a
:class:`ProjectRule` runs once per analysis with access to every scanned
module (and may load configured modules that were outside the scan set).
Both receive their free-form option dict from the active configuration.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.module import SourceModule


class Rule:
    """Common surface: ``rule_id``, ``name``, ``description``, options."""

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def __init__(self, options: Optional[dict] = None):
        self.options = dict(options or {})

    def finding(
        self, module_rel: str, node, message: str, symbol: str = ""
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=module_rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            symbol=symbol,
        )


class FileRule(Rule):
    """A rule that inspects one module."""

    def check_module(self, module: SourceModule) -> List[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that inspects the whole scanned file set at once.

    ``modules`` maps root-relative POSIX paths to parsed modules; ``root``
    lets the rule load configured modules that the scan did not cover.
    """

    def check_project(
        self, modules: Dict[str, SourceModule], root: Path
    ) -> List[Finding]:
        raise NotImplementedError

    def load_module(
        self, modules: Dict[str, SourceModule], root: Path, rel: str
    ) -> Optional[SourceModule]:
        if rel in modules:
            return modules[rel]
        path = root / rel
        if not path.is_file():
            return None
        return SourceModule.load(path, rel)
