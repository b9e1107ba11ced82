"""Repo-specific determinism/safety static analysis (``repro lint``).

Public surface:

- :func:`lint_paths` / :func:`lint_source` — run the rules, get
  :class:`Violation` objects back.
- :data:`ALL_RULES` — the rule registry (IDs, names, rationales).
- :func:`main` — the CLI entry point shared by ``repro lint`` and
  ``python -m repro.devtools.lint``.

Suppress a single finding with a trailing
``# repro-lint: ignore[RULE]`` comment; see
:mod:`repro.devtools.lint.suppress`.
"""

from __future__ import annotations

from repro.devtools.lint.engine import lint_paths, lint_source, main
from repro.devtools.lint.rules import ALL_RULES, RULES_BY_ID
from repro.devtools.lint.violations import Violation

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Violation",
    "lint_paths",
    "lint_source",
    "main",
]
