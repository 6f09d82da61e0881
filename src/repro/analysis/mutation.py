"""In-place-mutation detection for numpy-heavy code.

RPL203 asks, for every function parameter declared read-only, "does this
AST node mutate that array?".  The site classifier lives here, apart from
the rule's anchor bookkeeping, with the catalog of mutation idioms it
recognizes (subscript stores, augmented assignment, ``.fill()``, ``out=``
keyword outputs, ``np.<ufunc>.at`` indexed updates).

Callers supply a predicate over candidate expressions; the classifier
applies it to the right sub-expression of each idiom (the store target, the
``.fill`` receiver, the ``out=`` value, the first ``.at`` argument).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Optional, Set

from repro.analysis.module import resolve_dotted, subscript_base

#: Classifier results (also used in finding messages).
SUBSCRIPT_STORE = "subscript store"
AUG_ASSIGN = "augmented assignment"
FILL_CALL = ".fill() call"
OUT_KWARG = "out= ufunc output"
UFUNC_AT = "ufunc .at() update"

Predicate = Callable[[ast.AST], bool]


def mutation_kind(
    node: ast.AST, refers: Predicate, imports: Dict[str, str]
) -> Optional[str]:
    """How ``node`` mutates an expression accepted by ``refers``, or None.

    ``refers`` receives the candidate expression exactly as written
    (subscript chains included) and decides whether it denotes the tracked
    array; rebinding checks (``self.attr = ...`` replacing the array
    wholesale) stay with the caller because their meaning is rule-specific.
    """
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and refers(target):
                return SUBSCRIPT_STORE
    elif isinstance(node, ast.AugAssign):
        if refers(node.target):
            return AUG_ASSIGN
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "fill"
            and refers(func.value)
        ):
            return FILL_CALL
        for kw in node.keywords:
            if kw.arg == "out" and refers(kw.value):
                return OUT_KWARG
        dotted = resolve_dotted(func, imports) or ""
        if dotted.endswith(".at") and node.args and refers(node.args[0]):
            return UFUNC_AT
    return None


def base_name_or_attr_refers(
    node: ast.AST, names: Set[str], attr_pred: Predicate
) -> bool:
    """True when ``node`` (possibly a subscript chain) is rooted at a tracked
    local name or at an attribute accepted by ``attr_pred``."""
    base = subscript_base(node)
    if attr_pred(base):
        return True
    return isinstance(node, (ast.Name, ast.Subscript)) and isinstance(
        base, ast.Name
    ) and base.id in names


def chained_alias_names(fn: ast.AST, seed_pred: Predicate) -> Set[str]:
    """Local names transitively bound to (views of) a tracked expression.

    Collects ``x = <seed>[...]`` binds plus chains through already-collected
    names (``y = x[...]``, ``z = y``), iterating ``ast.walk`` to a fixpoint.
    Flow-insensitive by design: a name that ever aliases the tracked array
    is treated as aliasing it everywhere, an over-approximation.
    """
    aliases: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name) or target.id in aliases:
                continue
            base = subscript_base(node.value)
            if seed_pred(base) or (
                isinstance(base, ast.Name) and base.id in aliases
            ):
                aliases.add(target.id)
                changed = True
    return aliases
