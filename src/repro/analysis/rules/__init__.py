"""The reprolint rule catalog.

Importing this package registers every rule; the import order below fixes
the registration (and therefore ``--list-rules``) order.
"""

from repro.analysis.rules.base import FileRule, ProjectRule, Rule
from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    caching,
    clock,
    events,
    exceptions,
    rng,
    readonly,
)

__all__ = ["FileRule", "ProjectRule", "Rule"]
