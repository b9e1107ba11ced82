"""Documentation rules.

The library's modules double as its architecture documentation: every
public module states its role and — where it matters — its determinism
contract in the module docstring (``docs/architecture.md`` links into
them rather than duplicating).  REP501 keeps that true: a module under
``src/repro`` without a docstring fails lint, so new subsystems cannot
land undocumented.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.lint.config import rule_applies_to_path
from repro.devtools.lint.rules.base import (
    ParsedModule,
    Rule,
    Violation,
    violation,
)

MODULE_DOCSTRING = Rule(
    rule_id="REP501",
    name="missing-module-docstring",
    description=(
        "module in src/repro without a module docstring; state the "
        "module's role (and determinism contract, if any)"
    ),
)


def check_module_docstring(
    module: ParsedModule,
) -> Iterator[Violation]:
    """REP501: src/repro modules must open with a docstring.

    Empty files (an ``__init__.py`` that only marks a package) are
    exempt — there is nothing to document.
    """
    if not rule_applies_to_path(MODULE_DOCSTRING.rule_id, module.path):
        return
    if not module.tree.body:
        return
    if ast.get_docstring(module.tree) is None:
        yield violation(
            module, module.tree, MODULE_DOCSTRING,
            "module has no docstring; open with one stating the "
            "module's role (and determinism contract, if any)",
        )
