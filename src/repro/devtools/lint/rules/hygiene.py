"""API hygiene rules.

Classic Python failure modes that this repo has no excuse to carry:
mutable default arguments (shared across calls — and across forked
workers), bare ``except`` (swallows ``KeyboardInterrupt`` and real
bugs alike), and ``assert`` for runtime validation (compiled away
under ``python -O``, so the check silently vanishes in production).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.lint.config import rule_applies_to_path
from repro.devtools.lint.rules.base import (
    ParsedModule,
    Rule,
    Violation,
    dotted_parts,
    violation,
)

MUTABLE_DEFAULT = Rule(
    rule_id="REP401",
    name="mutable-default-arg",
    description=(
        "mutable default argument; the instance is shared across "
        "every call (use None and construct inside)"
    ),
)

BARE_EXCEPT = Rule(
    rule_id="REP402",
    name="bare-except",
    description=(
        "bare 'except:' catches SystemExit/KeyboardInterrupt; name "
        "the exceptions you can actually handle"
    ),
)

RUNTIME_ASSERT = Rule(
    rule_id="REP403",
    name="runtime-assert",
    description=(
        "assert used for runtime validation in library code; "
        "'python -O' strips it — raise a real exception"
    ),
)

_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "OrderedDict", "defaultdict", "deque",
    "Counter",
})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = dotted_parts(node.func)
        if callee is not None:
            return callee.split(".")[-1] in _MUTABLE_FACTORIES
    return False


def check_mutable_defaults(module: ParsedModule) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield violation(
                    module, default, MUTABLE_DEFAULT,
                    f"mutable default in {node.name}()",
                )


def check_bare_except(module: ParsedModule) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield violation(
                module, node, BARE_EXCEPT, "bare 'except:' clause"
            )


def check_runtime_assert(module: ParsedModule) -> Iterator[Violation]:
    if not rule_applies_to_path(RUNTIME_ASSERT.rule_id, module.path):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assert):
            yield violation(
                module, node, RUNTIME_ASSERT,
                "assert in library code (stripped under -O); raise "
                "instead",
            )
