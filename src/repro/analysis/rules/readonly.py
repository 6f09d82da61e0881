"""RPL203: parameters documented read-only must not be mutated in place.

Batched numpy APIs pass big arrays (action masks, Q-value batches, demand
stacks) through many hands; the contract that a callee treats them as
read-only lives only in docstrings — until a ``masks[row] = False`` or an
``out=masks`` sneaks in and corrupts the caller's array for every lane at
once.  This rule makes the contract checkable with a one-line anchor inside
the function::

    def select_batch(self, q_values, step, masks=None, greedy=False):
        # repro-lint: readonly=q_values,masks
        ...

Any in-place mutation idiom (subscript store, augmented assignment,
``.fill()``, ``out=``, ``np.<ufunc>.at``) applied to an anchored parameter
— or to a local transitively aliased to a view of one — is a finding.
Rebinding the bare name (``masks = masks.copy()``) releases it: the
function now owns a private array, and mutating that is fine.  An anchor
naming something that is not a parameter is itself a finding, so anchors
cannot drift from signatures.

Parameters annotated with a frozen dataclass defined in the same module are
implicitly read-only for attribute stores: ``param.field = ...`` would raise
``FrozenInstanceError`` at runtime anyway; the rule reports it before a rare
path has to hit it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.module import SourceModule, resolve_dotted
from repro.analysis.mutation import (
    base_name_or_attr_refers,
    chained_alias_names,
    mutation_kind,
)
from repro.analysis.registry import register
from repro.analysis.rules.base import FileRule

_ANCHOR = re.compile(r"#\s*repro-lint:\s*readonly=([A-Za-z0-9_,\s]+?)\s*$")


def _anchor_comments(text: str) -> List[Tuple[int, "re.Match"]]:
    """(line, match) per anchor, from real COMMENT tokens only.

    Tokenizing (rather than regexing raw lines) keeps anchors quoted inside
    docstrings — like the example in this module's own docstring — from
    registering as live anchors.
    """
    anchors: List[Tuple[int, "re.Match"]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ANCHOR.search(tok.string)
            if match is not None:
                anchors.append((tok.start[0], match))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return anchors


def _param_names(fn) -> Set[str]:
    args = fn.args
    names = {arg.arg for arg in args.posonlyargs}
    names.update(arg.arg for arg in args.args)
    names.update(arg.arg for arg in args.kwonlyargs)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _frozen_dataclasses(tree: ast.AST, imports: Dict[str, str]) -> Set[str]:
    """Names of same-module classes decorated ``@dataclass(frozen=True)``."""
    frozen: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            func = call.func if call else deco
            if resolve_dotted(func, imports) != "dataclasses.dataclass":
                continue
            if call and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            ):
                frozen.add(node.name)
    return frozen


@register
class ReadonlyParamRule(FileRule):
    """Enforce ``# repro-lint: readonly=...`` parameter anchors."""

    rule_id = "RPL203"
    name = "readonly-param-mutation"
    description = (
        "a parameter anchored '# repro-lint: readonly=...' (or typed as a "
        "frozen dataclass) is mutated in place; the caller's array/object "
        "changes under it"
    )

    def check_module(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        if module.tree is None:
            return findings
        anchors = _anchor_comments(module.text)
        frozen = _frozen_dataclasses(module.tree, module.imports)
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        anchored: Dict[ast.AST, Set[str]] = {}
        for lineno, match in anchors:
            names = {
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            }
            fn = self._innermost(functions, lineno)
            if fn is None:
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        path=module.rel,
                        line=lineno,
                        col=1,
                        message=(
                            "readonly anchor is outside any function; it "
                            "protects nothing"
                        ),
                    )
                )
                continue
            params = _param_names(fn)
            for name in sorted(names - params):
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        path=module.rel,
                        line=lineno,
                        col=1,
                        message=(
                            f"readonly anchor names {name!r} which is not a "
                            f"parameter of {fn.name}(); fix the anchor so it "
                            "cannot drift from the signature"
                        ),
                        symbol=fn.name,
                    )
                )
            anchored.setdefault(fn, set()).update(names & params)
        for fn in functions:
            ro = anchored.get(fn, set())
            if ro:
                findings.extend(self._check_mutations(fn, ro, module))
            if frozen:
                findings.extend(self._check_frozen(fn, frozen, module))
        return findings

    @staticmethod
    def _innermost(functions, lineno: int):
        best = None
        for fn in functions:
            end = getattr(fn, "end_lineno", fn.lineno)
            if fn.lineno <= lineno <= end:
                if best is None or fn.lineno > best.lineno:
                    best = fn
        return best

    def _check_mutations(
        self, fn, readonly: Set[str], module: SourceModule
    ) -> List[Finding]:
        # A bare rebind (``masks = masks.copy()``) transfers ownership to the
        # function for the whole body — flow-insensitively, which errs toward
        # silence.
        rebound: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rebound.add(target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name):
                    rebound.add(node.target.id)
        tracked = readonly - rebound
        if not tracked:
            return []
        aliases = chained_alias_names(
            fn,
            lambda base: isinstance(base, ast.Name) and base.id in tracked,
        )
        names = tracked | aliases

        def refers(expr: ast.AST) -> bool:
            return base_name_or_attr_refers(expr, names, lambda base: False)

        findings = []
        for node in ast.walk(fn):
            kind = mutation_kind(node, refers, module.imports)
            if kind is not None:
                findings.append(
                    self.finding(
                        module.rel,
                        node,
                        f"{fn.name}() mutates read-only parameter data via "
                        f"{kind}; the caller's array changes under it — "
                        ".copy() first or drop the readonly anchor",
                        symbol=fn.name,
                    )
                )
        return findings

    def _check_frozen(
        self, fn, frozen: Set[str], module: SourceModule
    ) -> List[Finding]:
        frozen_params = {
            arg.arg
            for arg in (
                list(fn.args.posonlyargs)
                + list(fn.args.args)
                + list(fn.args.kwonlyargs)
            )
            if arg.annotation is not None
            and isinstance(arg.annotation, ast.Name)
            and arg.annotation.id in frozen
        }
        if not frozen_params:
            return []
        findings = []
        for node in ast.walk(fn):
            target = None
            if isinstance(node, ast.Assign):
                for candidate in node.targets:
                    if isinstance(candidate, ast.Attribute):
                        target = candidate
                        break
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Attribute
            ):
                target = node.target
            if (
                target is not None
                and isinstance(target.value, ast.Name)
                and target.value.id in frozen_params
            ):
                findings.append(
                    self.finding(
                        module.rel,
                        node,
                        f"{fn.name}() assigns to field "
                        f"'{target.value.id}.{target.attr}' of a frozen "
                        "dataclass parameter; this raises "
                        "FrozenInstanceError at runtime",
                        symbol=fn.name,
                    )
                )
        return findings
