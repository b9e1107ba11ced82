"""Shared rule infrastructure: parsed modules and name resolution.

Every rule works on a :class:`ParsedModule` — source, AST and import
table — and yields :class:`Violation` objects.  The import
table is what keeps the rules honest: ``np.random.default_rng`` is
only an RNG call because ``np`` was imported as ``numpy``, and a local
variable that happens to be called ``random`` never matches.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.devtools.lint.config import is_worker_function
from repro.devtools.lint.violations import Violation


def build_import_table(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully dotted import path, for every import.

    ``import numpy as np`` maps ``np -> numpy``; ``import numpy.random``
    maps ``numpy -> numpy``; ``from numpy.random import default_rng as
    d`` maps ``d -> numpy.random.default_rng``.  Relative imports keep
    their leading dots and therefore never collide with the absolute
    module paths the rules match on.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{prefix}.{alias.name}" if prefix \
                    else alias.name
    return table


def dotted_parts(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains as a dotted string (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return ".".join(parts)


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    path: str
    source_lines: list[str]
    tree: ast.Module
    imports: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.imports = build_import_table(self.tree)

    def resolve_call_path(self, node: ast.expr) -> str | None:
        """Resolve a callee expression to its imported dotted path.

        Returns ``None`` when the head name was never imported — a
        local variable, parameter or builtin — so rules keyed on
        module paths cannot false-positive on shadowing names.
        """
        dotted = dotted_parts(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        base = self.imports.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base

    def worker_functions(
        self,
    ) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function in this module that is a worker zone."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_worker_function(self.path, node.name):
                    yield node


@dataclass(frozen=True)
class Rule:
    """A rule's identity; the check itself is a free function."""

    rule_id: str
    name: str
    description: str


def violation(
    module: ParsedModule, node: ast.AST, rule: Rule, message: str
) -> Violation:
    return Violation(
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule_id=rule.rule_id,
        message=message,
    )
