"""Analyzer configuration: enabled rules, per-path scoping, rule options.

The default configuration encodes this repository's contract surface:

* RPL102 (wall-clock reads) is waived for benchmark drivers, the experiment
  CLI and the injectable-clock seam in ``core/timeout.py`` — the three places
  that legitimately measure real elapsed time.
* RPL104 (seed arithmetic) applies to production code (``src``/``benchmarks``)
  only; tests may label ad-hoc campaign seeds arithmetically.
* RPL107 (event-handler exhaustiveness) is a cross-module rule configured
  with the event enum's module and the modules allowed to register handlers.
* RPL203 (read-only parameters) runs repo-wide; obligations come from
  ``# repro-lint: readonly=...`` anchors and frozen-dataclass annotations.
* ``tests/fixtures`` is excluded entirely: it holds deliberately-violating
  lint fixtures.

Paths in scopes are fnmatch globs matched against the project-root-relative
POSIX path of each file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class RuleScope:
    """Where one rule applies.

    ``only`` (when non-empty) restricts the rule to matching paths;
    ``skip`` then waives matching paths.  ``skip`` wins over ``only``.
    """

    only: Sequence[str] = ()
    skip: Sequence[str] = ()

    def applies_to(self, rel: str) -> bool:
        if any(fnmatch(rel, pattern) for pattern in self.skip):
            return False
        if self.only:
            return any(fnmatch(rel, pattern) for pattern in self.only)
        return True


@dataclass
class AnalysisConfig:
    """One analyzer run's configuration."""

    #: Glob patterns (root-relative POSIX) excluded from scanning entirely.
    exclude: Sequence[str] = ()
    #: Rule ids to run; None means every registered rule.
    select: Optional[Sequence[str]] = None
    #: Rule ids disabled on top of ``select``.
    disable: Sequence[str] = ()
    #: Per-rule path scoping.
    scopes: Dict[str, RuleScope] = field(default_factory=dict)
    #: Per-rule free-form options consumed by the rule implementation.
    options: Dict[str, dict] = field(default_factory=dict)

    def excluded(self, rel: str) -> bool:
        return any(fnmatch(rel, pattern) for pattern in self.exclude)

    def scope_for(self, rule_id: str) -> RuleScope:
        return self.scopes.get(rule_id, _UNSCOPED)

    def options_for(self, rule_id: str) -> dict:
        return self.options.get(rule_id, {})

    def enabled_rules(self, registered: Sequence[str]) -> List[str]:
        selected = list(self.select) if self.select is not None else list(registered)
        return [rid for rid in selected if rid not in set(self.disable)]


_UNSCOPED = RuleScope()


def default_config() -> AnalysisConfig:
    """The repository's committed rule configuration (see module docstring)."""
    return AnalysisConfig(
        exclude=(
            "tests/fixtures/*",
            "tests/fixtures/**/*",
        ),
        scopes={
            "RPL102": RuleScope(
                skip=(
                    "benchmarks/*",
                    "benchmarks/**/*",
                    "src/repro/experiments/cli.py",
                    "src/repro/core/timeout.py",
                )
            ),
            "RPL104": RuleScope(skip=("tests/*", "tests/**/*")),
        },
        options={
            "RPL107": {
                "events_module": "src/repro/sim/events.py",
                "enum_name": "EventType",
                "handler_modules": [
                    "src/repro/sim/engine.py",
                    "src/repro/sim/simulation.py",
                    "src/repro/serving/service.py",
                ],
                "register_methods": ["on"],
            },
        },
    )
