"""Combinational equivalence checking.

The optimization and synthesis passes promise function preservation;
this module provides the checking tool (ABC's ``cec`` role): fast
random-simulation refutation followed by an exact BDD-based proof.
Used in tests and available to library users who modify circuits.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import AIG, lit_var
from repro.sim.batch import simulate_circuits
from repro.utils.rng import rng_for


def simulate_differs(
    a: AIG, b: AIG, rng: np.random.Generator | None = None,
) -> np.ndarray | None:
    """Random-simulation counterexample search over 4096 patterns.

    Returns an input row where the graphs differ, or None if none was
    found (which is *not* a proof of equivalence).
    """
    if a.n_inputs != b.n_inputs or a.num_outputs != b.num_outputs:
        raise ValueError("interface mismatch")
    if rng is None:
        rng = rng_for("cec")
    X = rng.integers(0, 2, size=(4096, a.n_inputs)).astype(np.uint8)
    # Pack the pattern matrix once and run both circuits against the
    # shared packed words (repro.sim batched evaluation).
    out_a, out_b = simulate_circuits([a, b], X)
    diff = np.nonzero((out_a != out_b).any(axis=1))[0]
    if diff.size:
        return X[diff[0]]
    return None


def _output_bdd(aig: AIG, manager, output: int) -> int:
    from repro.bdd.bdd import FALSE

    cache = {0: FALSE}
    values = [manager.var_node(i) for i in range(aig.n_inputs)]

    def node_bdd(var: int) -> int:
        if var in cache:
            return cache[var]
        if aig.is_input_var(var):
            result = values[var - 1]
        else:
            f0, f1 = aig.fanins(var)
            b0 = node_bdd(lit_var(f0))
            if f0 & 1:
                b0 = manager.not_(b0)
            b1 = node_bdd(lit_var(f1))
            if f1 & 1:
                b1 = manager.not_(b1)
            result = manager.and_(b0, b1)
        cache[var] = result
        return result

    lit = aig.outputs[output]
    f = node_bdd(lit_var(lit))
    return manager.not_(f) if lit & 1 else f


def check_equivalence(
    a: AIG, b: AIG, rng: np.random.Generator | None = None,
) -> tuple[bool, np.ndarray | None]:
    """Prove or refute equivalence.

    Returns ``(True, None)`` on a BDD proof of equivalence or
    ``(False, counterexample_row)`` otherwise.  Simulation runs first
    so most inequivalences are refuted cheaply.
    """
    from repro.bdd.bdd import BDD

    cex = simulate_differs(a, b, rng=rng)
    if cex is not None:
        return False, cex
    manager = BDD(a.n_inputs)
    for k in range(a.num_outputs):
        fa = _output_bdd(a, manager, k)
        fb = _output_bdd(b, manager, k)
        if fa != fb:
            # Extract a counterexample path from the XOR.
            diff = manager.xor_(fa, fb)
            row = _any_sat(manager, diff, a.n_inputs)
            return False, row
    return True, None


def _any_sat(manager, node: int, n_inputs: int) -> np.ndarray:
    """A satisfying assignment of a non-FALSE BDD node."""
    from repro.bdd.bdd import FALSE

    row = np.zeros(n_inputs, dtype=np.uint8)
    while node >= 2:
        var = manager.var_of(node)
        if manager.high(node) != FALSE:
            row[var] = 1
            node = manager.high(node)
        else:
            row[var] = 0
            node = manager.low(node)
    return row
