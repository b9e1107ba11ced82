"""And-Inverter Graph library.

The AIG is the contest's required output representation: a network of
2-input AND gates with optionally complemented edges, capped at 5000
nodes.  This package provides the data structure, bit-parallel
simulation, AIGER file I/O, circuit builders, ABC-style size
optimization and the simulation-guided approximation used by Team 1.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro.aig.aig import (
    AIG,
    CONST0,
    CONST1,
    lit_make,
    lit_not,
    lit_var,
)
from repro.aig.aiger import dumps_aag, read_aag, write_aag

if TYPE_CHECKING:
    from repro.aig.approx import approximate_to_size
    from repro.aig.cec import check_equivalence
    from repro.aig.opt.passes import balance, compress, fraig_lite, refactor, rewrite

#: Exports loaded on first access (PEP 562), so that reading and
#: simulating a circuit does not load the optimization engine.
_LAZY = {
    "approximate_to_size": "repro.aig.approx",
    "check_equivalence": "repro.aig.cec",
    **dict.fromkeys(
        ("balance", "compress", "fraig_lite", "refactor", "rewrite"),
        "repro.aig.opt.passes",
    ),
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "AIG",
    "CONST0",
    "CONST1",
    "lit_make",
    "lit_not",
    "lit_var",
    "read_aag",
    "dumps_aag",
    "write_aag",
    "approximate_to_size",
    "balance",
    "check_equivalence",
    "compress",
    "fraig_lite",
    "refactor",
    "rewrite",
]
