"""The lint engine: walk files, run rules, filter suppressions.

Run it as ``repro lint`` or ``python -m repro.devtools.lint``::

    repro lint src/repro benchmarks
    repro lint --format json src/repro
    repro lint --list-rules

Exit status is 0 on a clean tree, 1 when violations remain, 2 on
usage errors (unreadable path, syntax error in a checked file).
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.devtools.lint.rules import ALL_CHECKERS, ALL_RULES
from repro.devtools.lint.rules.base import ParsedModule
from repro.devtools.lint.suppress import is_suppressed, suppressions_for
from repro.devtools.lint.violations import (
    Violation,
    format_json,
    format_text,
)


def iter_python_files(paths: Iterable[str]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    found: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                found[child] = None
        elif path.is_file():
            found[path] = None
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(found)


def lint_source(source: str, path: str) -> list[Violation]:
    """Lint one source string as if it lived at ``path``."""
    tree = ast.parse(source, filename=path)
    module = ParsedModule(
        path=path,
        source_lines=source.splitlines(),
        tree=tree,
    )
    suppressed = suppressions_for(module.source_lines)
    violations = [
        v
        for checker in ALL_CHECKERS
        for v in checker(module)
        if not is_suppressed(suppressed, v.line, v.rule_id)
    ]
    return sorted(set(violations))


def lint_paths(paths: Sequence[str]) -> tuple[list[Violation], int]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(violations, files_checked)``.  Syntax errors abort with
    the offending location — an unparseable file is a build problem,
    not a lint finding.
    """
    files = iter_python_files(paths)
    violations: list[Violation] = []
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        violations.extend(lint_source(source, str(file_path)))
    return sorted(violations), len(files)


def _rule_table() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.rule_id}  {rule.name}")
        lines.append(f"        {rule.description}")
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific determinism and safety lints",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro", "benchmarks"],
        help="files or directories to lint "
             "(default: src/repro benchmarks)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is stable and machine-parseable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.list_rules:
        print(_rule_table())
        return 0
    try:
        violations, n_files = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"repro lint: syntax error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(violations, n_files))
    else:
        print(format_text(violations, n_files))
    return 1 if violations else 0
