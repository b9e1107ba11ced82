"""The pre-array implementations, kept as differential-test oracles.

Each function or class here is the straightforward version of a hot
path that the library now implements differently; tests assert the
library returns exactly what these return.  Do not optimize this module.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import AIG, CONST0, CONST1, GateOps, lit_not
from repro.aig.isop import cofactor0, cofactor1, full_mask, var_mask

Cut = tuple[int, ...]

TRIVIAL_TABLE = 0b10


# ---------------------------------------------------------------------
# Cut enumeration: per-node tuple merging with set unions
# ---------------------------------------------------------------------
def _expand(table: int, sub: Cut, sup: Cut) -> int:
    """Re-express ``table`` (over leaves ``sub``) over superset ``sup``."""
    if sub == sup:
        return table
    positions = [sup.index(leaf) for leaf in sub]
    out = 0
    for m in range(1 << len(sup)):
        src = 0
        for i, p in enumerate(positions):
            if (m >> p) & 1:
                src |= 1 << i
        if (table >> src) & 1:
            out |= 1 << m
    return out


def _merge_node_cuts(
    cuts: dict[int, list[Cut]], aig: AIG, var: int, k: int, max_cuts: int
) -> tuple[list[Cut], dict[Cut, tuple[Cut, Cut]]]:
    """Pruned cut list for ``var`` plus each cut's source fanin pair."""
    f0, f1 = aig.fanins(var)
    v0, v1 = f0 >> 1, f1 >> 1
    merged: dict[Cut, tuple[Cut, Cut]] = {(var,): None}
    for c0 in cuts[v0]:
        s0 = set(c0)
        len0 = len(c0)
        for c1 in cuts[v1]:
            if len0 + len(c1) > k and (c0[-1] < c1[0] or c1[-1] < c0[0]):
                continue
            leaves = tuple(sorted(s0.union(c1)))
            if len(leaves) <= k and leaves not in merged:
                merged[leaves] = (c0, c1)
    pruned: list[Cut] = []
    pruned_sets: list[set] = []
    for cand in sorted(merged, key=len):
        cs = set(cand)
        if any(p <= cs for p in pruned_sets):
            continue
        pruned.append(cand)
        pruned_sets.append(cs)
    pruned.sort(key=lambda c: (len(c), c))
    return pruned[:max_cuts], merged


def enumerate_cuts(aig: AIG, k: int = 4, max_cuts: int = 8) -> dict[int, list[Cut]]:
    cuts: dict[int, list[Cut]] = {0: [()]}
    for i in range(aig.n_inputs):
        cuts[1 + i] = [(1 + i,)]
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        cuts[var], _ = _merge_node_cuts(cuts, aig, var, k, max_cuts)
    return cuts


def enumerate_cuts_with_truths(
    aig: AIG, k: int = 4, max_cuts: int = 8
) -> dict[int, list[tuple[Cut, int]]]:
    cuts: dict[int, list[Cut]] = {0: [()]}
    tables: dict[int, dict[Cut, int]] = {0: {(): 0}}
    for i in range(aig.n_inputs):
        v = 1 + i
        cuts[v] = [(v,)]
        tables[v] = {(v,): TRIVIAL_TABLE}
    base = aig.n_inputs + 1
    out: dict[int, list[tuple[Cut, int]]] = {}
    for v in range(base):
        out[v] = [(c, tables[v][c]) for c in cuts.get(v, [])]
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        v0, v1 = f0 >> 1, f1 >> 1
        kept, merged = _merge_node_cuts(cuts, aig, var, k, max_cuts)
        cuts[var] = kept
        node_tables: dict[Cut, int] = {(var,): TRIVIAL_TABLE}
        for cut in kept:
            if cut == (var,):
                continue
            c0, c1 = merged[cut]
            fm = full_mask(len(cut))
            a = _expand(tables[v0][c0], c0, cut)
            if f0 & 1:
                a = ~a & fm
            b = _expand(tables[v1][c1], c1, cut)
            if f1 & 1:
                b = ~b & fm
            node_tables[cut] = a & b
        tables[var] = node_tables
        out[var] = [(c, node_tables[c]) for c in kept]
    return out


# ---------------------------------------------------------------------
# ISOP: the recursive Minato-Morreale procedure
# ---------------------------------------------------------------------
def isop(lower: int, upper: int, k: int):
    return _isop(lower, upper, k, k)


def _isop(lower: int, upper: int, k: int, top: int):
    if lower == 0:
        return [], 0
    if upper == full_mask(k):
        return [()], full_mask(k)
    var = None
    for i in reversed(range(top)):
        if (
            cofactor0(lower, k, i) != cofactor1(lower, k, i)
            or cofactor0(upper, k, i) != cofactor1(upper, k, i)
        ):
            var = i
            break
    if var is None:
        return [()], full_mask(k)
    l0, l1 = cofactor0(lower, k, var), cofactor1(lower, k, var)
    u0, u1 = cofactor0(upper, k, var), cofactor1(upper, k, var)
    fm = full_mask(k)
    c0, f0 = _isop(l0 & ~u1 & fm, u0, k, var)
    c1, f1 = _isop(l1 & ~u0 & fm, u1, k, var)
    l_rest = (l0 & ~f0 & fm) | (l1 & ~f1 & fm)
    cr, fr = _isop(l_rest, u0 & u1, k, var)
    nm = var_mask(k, var)
    table = (f0 & ~nm & fm) | (f1 & nm) | fr
    cover = (
        [tuple(sorted(c + ((var, 0),))) for c in c0]
        + [tuple(sorted(c + ((var, 1),))) for c in c1]
        + cr
    )
    return cover, table


# ---------------------------------------------------------------------
# Candidate pricing: a strash-aware virtual builder driven gate by gate
# ---------------------------------------------------------------------
class BudgetExceeded(Exception):
    """Raised by a budgeted :class:`VirtualBuilder` on the first node
    that makes the candidate too expensive."""


class VirtualBuilder(GateOps):
    """Counts the AND nodes a construction would add to ``aig``.

    Literals returned by :meth:`add_and` are real literals of the
    target graph when the node already exists (strash hit or constant
    fold) and virtual literals, numbered from ``2 * aig.num_vars``
    upward, otherwise.  The target graph is never touched.  With
    ``budget`` set, :class:`BudgetExceeded` is raised as soon as
    ``n_new`` would exceed it.
    """

    def __init__(self, aig: AIG, budget: int = None):
        self._real_strash = aig._strash
        self._local: dict[tuple[int, int], int] = {}
        self._next_var = aig.num_vars
        self.budget = budget
        self.n_new = 0

    def add_and(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return CONST0
        key = (a, b)
        found = self._real_strash.get(key)
        if found is not None:
            return found
        found = self._local.get(key)
        if found is not None:
            return found
        if self.budget is not None and self.n_new >= self.budget:
            raise BudgetExceeded
        lit = 2 * self._next_var
        self._next_var += 1
        self._local[key] = lit
        self.n_new += 1
        return lit


def sop_over_leaves(sink, cover, leaves) -> int:
    """OR of cube-ANDs over leaf literals, gate by gate."""
    terms = []
    for cube in cover:
        lits = [
            leaves[var] if value else lit_not(leaves[var])
            for var, value in cube
        ]
        terms.append(sink.add_and_multi(lits))
    return sink.add_or_multi(terms)


# ---------------------------------------------------------------------
# Decision-tree prediction: route sample groups node by node
# ---------------------------------------------------------------------
def tree_predict(tree, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim == 1:
        X = X[None, :]
    out = np.zeros(X.shape[0], dtype=np.uint8)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node_id, idx = stack.pop()
        if idx.size == 0:
            continue
        node = tree.nodes[node_id]
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] == 1
        stack.append((node.left, idx[~mask]))
        stack.append((node.right, idx[mask]))
    return out
