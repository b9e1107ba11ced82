"""Repo-specific scoping for the lint rules.

The rules themselves are generic AST checks; this module pins them to
the places where this codebase's determinism contracts actually live:

- which modules are *worker zones* (code that runs inside the
  runner's forked worker processes and must stay pure — see
  :mod:`repro.runner.task`),
- which files are allowed to touch global RNG machinery (only
  :mod:`repro.utils.rng`, the seed-derivation chokepoint),
- which paths each rule skips or is confined to (benchmarks assert
  their perf floors by design, so REP403 does not apply there).
"""

from __future__ import annotations

#: Functions that execute inside pool workers, keyed by a module path
#: suffix.  Purity rules (REP301/302/303) only fire inside these — or
#: inside any function named ``_worker*`` / ``*_worker`` anywhere,
#: so new worker entry points are covered by convention.
DEFAULT_WORKER_ZONES: dict[str, frozenset[str]] = {
    "repro/runner/task.py": frozenset({
        "run_task",
        "make_task_problem",
        "_cached_problem",
    }),
}

#: Files allowed to call global RNG constructors: the seed-derivation
#: chokepoint every stream must come from.
DEFAULT_RNG_EXEMPT: tuple[str, ...] = (
    "repro/utils/rng.py",
)

#: Per-rule path scopes: ``("skip", fragments)`` keeps a rule off any
#: path containing one of the fragments; ``("only", fragments)``
#: confines it to such paths.  Rules without an entry apply everywhere.
#: Benchmarks assert measured floors (that is their job) and tests are
#: pytest asserts, so the runtime-assert rule stays out of both; the
#: docstring rule documents the library, not benches or tests.
DEFAULT_RULE_SCOPES: dict[str, tuple[str, tuple[str, ...]]] = {
    "REP403": ("skip", ("benchmarks/", "tests/")),
    "REP501": ("only", ("src/repro/",)),
}


def _worker_name_matches(name: str) -> bool:
    return name.startswith("_worker") or name.endswith("_worker")


def is_worker_function(path: str, func_name: str) -> bool:
    """Is ``func_name`` in ``path`` a worker-zone function?"""
    if _worker_name_matches(func_name):
        return True
    normalized = path.replace("\\", "/")
    for suffix, names in DEFAULT_WORKER_ZONES.items():
        if normalized.endswith(suffix) and func_name in names:
            return True
    return False


def is_rng_exempt(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(s) for s in DEFAULT_RNG_EXEMPT)


def rule_applies_to_path(rule_id: str, path: str) -> bool:
    """Does ``rule_id`` lint ``path``?  See :data:`DEFAULT_RULE_SCOPES`."""
    scope = DEFAULT_RULE_SCOPES.get(rule_id)
    if scope is None:
        return True
    kind, fragments = scope
    normalized = path.replace("\\", "/")
    hit = any(fragment in normalized for fragment in fragments)
    return hit if kind == "only" else not hit
