"""RPL106: no silent broad exception swallowing.

``except Exception: pass`` in a worker or cleanup path converts a real
failure (a crashed pool worker, a half-written cache file) into silent
state corruption that only surfaces campaigns later.  A broad catch must
re-raise, fence/report the failure (any call in the handler body counts —
e.g. a log call or a serial fallback), or carry an inline suppression
explaining why swallowing is correct there.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.module import SourceModule
from repro.analysis.registry import register
from repro.analysis.rules.base import FileRule

_BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    if isinstance(handler.type, ast.Name):
        return handler.type.id in _BROAD
    if isinstance(handler.type, ast.Tuple):
        return any(
            isinstance(elt, ast.Name) and elt.id in _BROAD
            for elt in handler.type.elts
        )
    return False


def _is_silent(handler: ast.ExceptHandler) -> bool:
    """True when the handler body neither raises nor calls anything."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.Call)):
                return False
    return True


@register
class SilentBroadExceptRule(FileRule):
    """Flag broad exception handlers that swallow without any action."""

    rule_id = "RPL106"
    name = "silent-broad-except"
    description = (
        "broad 'except Exception'/bare except whose body neither raises "
        "nor calls anything (silent swallow); re-raise, fence, or suppress "
        "with a reason"
    )

    def check_module(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        if module.tree is None:
            return findings
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node) and _is_silent(node):
                caught = (
                    "bare except" if node.type is None
                    else f"except {ast.unparse(node.type)}"
                )
                findings.append(
                    self.finding(
                        module.rel, node,
                        f"{caught} silently swallows the error; re-raise, "
                        "report/fence the failure, or add a suppression "
                        "with the rationale",
                        symbol="except",
                    )
                )
        return findings
