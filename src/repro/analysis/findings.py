"""The finding datatype shared by every reprolint rule and reporter."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is always the project-root-relative POSIX path, so findings are
    stable across machines and the JSON reporter output is byte-for-byte
    reproducible for the same tree.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: Short machine-readable slug of the offending construct (a dotted name,
    #: an attribute, an enum member) for grep-ability in JSON output.
    symbol: str = ""

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass
class Report:
    """The outcome of one analyzer run."""

    findings: list = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    rules_enabled: list = field(default_factory=list)
    paths: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_rule(self) -> Dict[str, int]:
        """Post-suppression finding counts per rule, zeros included for
        every enabled rule (sorted for deterministic JSON)."""
        counts = {rule_id: 0 for rule_id in self.rules_enabled}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))
