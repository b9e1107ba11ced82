"""And-Inverter Graph library.

The AIG is the contest's required output representation: a network of
2-input AND gates with optionally complemented edges, capped at 5000
nodes.  This package provides the data structure, bit-parallel
simulation, AIGER file I/O, circuit builders, ABC-style size
optimization and the simulation-guided approximation used by Team 1.
"""

from repro.aig.aig import (
    AIG,
    CONST0,
    CONST1,
    lit_is_compl,
    lit_make,
    lit_not,
    lit_regular,
    lit_var,
)
from repro.aig.aiger import (dumps_aag, read_aag, read_aiger, write_aag,
                             write_aiger)
from repro.aig.approx import approximate_to_size
from repro.aig.cec import check_equivalence
from repro.aig.opt.passes import (balance, compress, fraig_lite, refactor,
                                  rewrite)

__all__ = [
    "AIG",
    "CONST0",
    "CONST1",
    "lit_is_compl",
    "lit_make",
    "lit_not",
    "lit_regular",
    "lit_var",
    "read_aag",
    "dumps_aag",
    "read_aiger",
    "write_aag",
    "write_aiger",
    "approximate_to_size",
    "balance",
    "check_equivalence",
    "compress",
    "fraig_lite",
    "refactor",
    "rewrite",
]
