"""RPL107: every declared event type must have a registered handler.

The discrete-event engine dispatches by :class:`EventType`; an enum member
nobody registers a handler for is dropped on the floor at dispatch time
(the engine has no "unhandled event" failure mode — END_OF_SIMULATION is
special-cased by identity comparison inside the run loop).  Adding an event
type in ``sim/events.py`` without teaching ``sim/simulation.py`` or
``serving/service.py`` to handle it is exactly the kind of cross-module
drift a per-file linter cannot see, so this rule runs at project scope over
the configured modules.

Configured via options::

    events_module:    "src/repro/sim/events.py"
    enum_name:        "EventType"
    handler_modules:  ["src/repro/sim/engine.py", ...]
    register_methods: ["on"]
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

from repro.analysis.findings import Finding
from repro.analysis.module import SourceModule
from repro.analysis.registry import register
from repro.analysis.rules.base import ProjectRule


def _enum_members(module: SourceModule, enum_name: str) -> Dict[str, int]:
    """Member name → declaration line of the named enum class."""
    members: Dict[str, int] = {}
    if module.tree is None:
        return members
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == enum_name):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        members[target.id] = stmt.lineno
    return members


def _enum_refs(node: ast.AST, enum_name: str) -> Set[str]:
    """EventType.X member names referenced anywhere under ``node``."""
    refs: Set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == enum_name
        ):
            refs.add(sub.attr)
    return refs


def _handled_members(
    module: SourceModule, enum_name: str, register_methods: Set[str]
) -> Set[str]:
    """Members this module handles: registration args + dispatch comparisons.

    Creating an event (``Event.create(t, EventType.X)``) is *not* handling
    it, so only two contexts count: an ``EventType.X`` argument to a
    registration call (``engine.on(EventType.X, fn)``) and an identity or
    equality comparison against ``EventType.X`` (the engine's run-loop
    special case).
    """
    handled: Set[str] = set()
    if module.tree is None:
        return handled
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in register_methods
        ):
            for arg in node.args:
                handled.update(_enum_refs(arg, enum_name))
        elif isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.Is, ast.Eq)) for op in node.ops
        ):
            handled.update(_enum_refs(node, enum_name))
    return handled


@register
class EventHandlerExhaustivenessRule(ProjectRule):
    """Cross-module exhaustiveness of event-type handling."""

    rule_id = "RPL107"
    name = "event-handler-exhaustiveness"
    description = (
        "an EventType member declared in the events module has no handler "
        "registration (or dispatch comparison) in any handler module"
    )

    def project_inputs(self) -> List[str]:
        events_rel = self.options.get("events_module")
        handler_rels = list(self.options.get("handler_modules", ()))
        return ([events_rel] if events_rel else []) + handler_rels

    def check_project(
        self, modules: Dict[str, SourceModule], root: Path
    ) -> List[Finding]:
        events_rel = self.options.get("events_module")
        enum_name = self.options.get("enum_name", "EventType")
        handler_rels = list(self.options.get("handler_modules", ()))
        register_methods = set(self.options.get("register_methods", ("on",)))
        if not events_rel or not handler_rels:
            return []
        events_module = self.load_module(modules, root, events_rel)
        if events_module is None:
            return [
                Finding(
                    rule_id=self.rule_id,
                    path=events_rel,
                    line=1,
                    col=1,
                    message=f"configured events module {events_rel!r} not found",
                    symbol=enum_name,
                )
            ]
        members = _enum_members(events_module, enum_name)
        handled: Set[str] = set()
        searched: List[str] = []
        for rel in handler_rels:
            handler_module = self.load_module(modules, root, rel)
            if handler_module is None:
                continue
            searched.append(rel)
            handled.update(
                _handled_members(handler_module, enum_name, register_methods)
            )
        findings: List[Finding] = []
        for name in sorted(members):
            if name in handled:
                continue
            findings.append(
                Finding(
                    rule_id=self.rule_id,
                    path=events_rel,
                    line=members[name],
                    col=1,
                    message=(
                        f"{enum_name}.{name} has no registered handler in "
                        f"any of {searched}; events of this type are "
                        "silently dropped at dispatch"
                    ),
                    symbol=f"{enum_name}.{name}",
                )
            )
        return findings
