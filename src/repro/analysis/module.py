"""Parsed source modules and shared AST utilities.

Every rule works against a :class:`SourceModule`: the raw text, the parsed
tree, an import map that canonicalizes dotted names (``np.random.rand`` →
``numpy.random.rand`` regardless of aliasing), the per-line suppression
index, and parent links for the handful of rules that need to classify a
node by its syntactic context.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.suppressions import collect_suppressions


def build_import_map(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the canonical dotted path they were imported as.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``import numpy.random`` → ``{"numpy": "numpy"}``;
    ``from time import perf_counter as pc`` → ``{"pc": "time.perf_counter"}``;
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    mapping[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """The ``["np", "random", "rand"]`` chain of a Name/Attribute, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def resolve_dotted(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a Name/Attribute chain, or None.

    Only chains whose base name was imported resolve — a local variable that
    merely shadows a module name stays unresolved, which keeps instance
    attributes (``self.rng.random()``) out of module-level RNG findings.
    """
    parts = dotted_parts(node)
    if not parts or parts[0] not in imports:
        return None
    canonical = imports[parts[0]]
    rest = parts[1:]
    return ".".join([canonical] + rest) if rest else canonical


def subscript_base(node: ast.AST) -> ast.AST:
    """Peel subscript chains: ``a[i][j]`` → the ``a`` expression."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


@dataclass
class SourceModule:
    """One parsed file plus the per-module context rules consume."""

    path: Path
    rel: str
    text: str
    tree: Optional[ast.AST]
    parse_error: Optional[Tuple[int, str]] = None
    imports: Dict[str, str] = field(default_factory=dict)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    malformed_suppressions: List[Tuple[int, str]] = field(default_factory=list)
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(default=None, repr=False)

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceModule":
        text = path.read_text(encoding="utf-8")
        return cls.from_source(text, path=path, rel=rel)

    @classmethod
    def from_source(
        cls, text: str, path: Optional[Path] = None, rel: str = "<string>"
    ) -> "SourceModule":
        suppressions, malformed = collect_suppressions(text)
        tree: Optional[ast.AST] = None
        parse_error: Optional[Tuple[int, str]] = None
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            parse_error = (exc.lineno or 1, exc.msg or "syntax error")
        module = cls(
            path=path or Path(rel),
            rel=rel,
            text=text,
            tree=tree,
            parse_error=parse_error,
            suppressions=suppressions,
            malformed_suppressions=malformed,
        )
        if tree is not None:
            module.imports = build_import_map(tree)
        return module

    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent links, built lazily on first request."""
        if self._parents is None:
            links: Dict[ast.AST, ast.AST] = {}
            if self.tree is not None:
                for parent in ast.walk(self.tree):
                    for child in ast.iter_child_nodes(parent):
                        links[child] = parent
            self._parents = links
        return self._parents
