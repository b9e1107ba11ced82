"""RNG discipline rules.

Reproducibility here rests on one invariant: every random draw comes
from a named stream derived via :func:`repro.utils.rng.rng_for` (or an
explicitly seeded generator threaded through arguments).  Module-level
RNG state — ``random.shuffle``, ``np.random.rand``, an unseeded
``default_rng()`` — silently couples components and breaks the
byte-identical serial/parallel/resume guarantees.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.lint.config import is_rng_exempt
from repro.devtools.lint.rules.base import (
    ParsedModule,
    Rule,
    Violation,
    violation,
)

RNG_GLOBAL_CALL = Rule(
    rule_id="REP101",
    name="rng-global-call",
    description=(
        "call into module-level RNG state (random.* / numpy.random.*) "
        "outside repro.utils.rng; derive a stream via rng_for instead"
    ),
)

RNG_UNSEEDED = Rule(
    rule_id="REP102",
    name="rng-unseeded",
    description=(
        "RNG constructed without a seed (default_rng() / "
        "random.Random()); seed it from rng_for/master_seed"
    ),
)

#: Seeded constructors: allowed with >= 1 positional seed argument.
_SEEDED_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.SeedSequence",
    "random.Random",
})


def check_rng(module: ParsedModule) -> Iterator[Violation]:
    exempt = is_rng_exempt(module.path)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        path = module.resolve_call_path(node.func)
        if path is None:
            continue
        if path in _SEEDED_CONSTRUCTORS:
            if not node.args and not node.keywords:
                yield violation(
                    module, node, RNG_UNSEEDED,
                    f"{path}() constructed without a seed",
                )
            continue
        if exempt:
            continue
        if path.startswith("numpy.random.") or path.startswith("random."):
            yield violation(
                module, node, RNG_GLOBAL_CALL,
                f"call to {path} uses module-level RNG state; "
                f"derive a generator from repro.utils.rng.rng_for",
            )
