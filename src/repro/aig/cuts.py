"""K-feasible cut enumeration and cut-function computation.

Used by the rewriting pass: every AND node (or every one in the fanin
cones of given roots) gets a set of cuts (leaf sets of bounded size)
and the truth table of the node in terms of each cut's leaves,
returned as the flat arrays of :class:`Cuts`, with no Python object
per cut.  Enumeration is level-batched array code: the
AND nodes of one logic level depend only on lower levels, so a level's
nodes merge their fanin cut lists together in numpy.

Encoding.  A node keeps at most ``max_cuts`` cuts, each a row of ``k``
int32 leaves sorted ascending and padded with :data:`_PAD`, a 64-bit
signature (bit ``leaf % 64`` set per leaf) and its truth table as one
bool per minterm.  Per level, for every node:

1. every fanin-cut pair whose signature union has more than ``k`` bits
   is rejected (the popcount is a lower bound on the union's size);
   the rest are unioned exactly by sorting;
2. candidates (unions of at most ``k`` leaves plus the trivial cut)
   are stably sorted by ``(len, leaves)``, so of equal copies the one
   from the first source pair (in fanin-cut order) comes first;
3. a candidate is dropped when one sorted before it is a subset of
   it: a proper subset dominates it, an equal one is its earlier copy.
   Signature containment is tested first, then exact containment;
4. the first ``max_cuts`` survivors are kept.

Once every level is merged, each kept cut's table is its two source
tables gathered onto its leaves through an :func:`_expand_map` row,
complemented per fanin and ANDed, a level at a time.

That is exactly what the straightforward per-node version computes —
sort by ``(len, leaves)``, keep the first ``max_cuts``, take the first
source pair — so results are identical cut for cut and table for
table.  Truth tables come from the fanin tables, so no cone is ever
walked and the cost per cut stays constant on chain-shaped graphs.
Cone evaluation over arbitrary leaf sets is
:func:`repro.aig.opt.traverse.cut_truth`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.aig.aig import AIG

_PAD = np.iinfo(np.int32).max  # leaf padding; sorts after every leaf

_BATCH = 256  # most nodes merged at once


@lru_cache(maxsize=8)
def _expand_map(k: int) -> np.ndarray:
    """Minterm projection for expanding sub-cut tables onto a cut.

    Row ``mask`` is for a sub-cut whose leaves sit at the cut positions
    set in ``mask``; entry ``m`` is the sub-cut minterm that cut
    minterm ``m`` projects to (``m`` with the bits at ``mask``'s
    positions gathered to the bottom).
    """
    size = 1 << k
    masks = np.arange(size)[:, None]
    minterms = np.arange(size)[None, :]
    src = np.zeros((size, size), dtype=np.intp)
    rank = np.zeros((size, 1), dtype=np.intp)
    for p in range(k):
        in_mask = (masks >> p) & 1
        src |= ((minterms >> p) & in_mask) << rank
        rank = rank + in_mask
    return src


@lru_cache(maxsize=256)
def _before(width: int) -> np.ndarray:
    """``out[p, c]``: candidate ``p`` sorts before candidate ``c``."""
    return np.triu(np.ones((width, width), dtype=bool), 1)


class _CutArrays:
    """Every node's kept cuts, in the encoding the module doc describes."""

    def __init__(self, aig: AIG, k: int, max_cuts: int, roots: np.ndarray | None):
        if k < 1 or max_cuts < 1:
            raise ValueError("k and max_cuts must be positive")
        self.k, self.max_cuts = k, max_cuts
        n_vars = aig.num_vars
        every = np.arange(n_vars)
        # Row v: the trivial cut (v,) and its signature.
        self.unit = np.full((n_vars, k), _PAD, dtype=np.int32)
        self.unit[:, 0] = every
        self.unit_sig = np.left_shift(np.uint64(1), (every % 64).astype(np.uint64))
        self.leaves = np.full((n_vars, max_cuts, k), _PAD, dtype=np.int32)
        # An unused slot's signature has every bit set, so it fails
        # the size test of step 1 against any cut.
        self.sigs = np.full((n_vars, max_cuts), ~np.uint64(0))
        # Truth tables one bit per minterm, so expansion is a gather.
        self.bits = np.zeros((n_vars, max_cuts, 1 << k), dtype=bool)
        # The constant has the one empty cut (table 0); every input
        # its trivial cut.
        self.counts = np.ones(n_vars, dtype=np.int64)
        self.sigs[0, 0] = 0
        inputs = every[1 : aig.n_inputs + 1]
        self.leaves[inputs, 0] = self.unit[inputs]
        self.sigs[inputs, 0] = self.unit_sig[inputs]
        self.bits[inputs, 0, 1] = True
        base = aig.n_inputs + 1
        ands = np.arange(aig.num_ands)
        if roots is not None:
            # A node's cuts depend only on its fanin cone, so the
            # roots' cones are enumerated as in the whole graph; every
            # other AND node keeps no cut.
            cone = aig.reachable_vars((2 * np.asarray(roots)).tolist())[base:]
            self.counts[base:][~cone] = 0
            ands = np.flatnonzero(cone)
        if ands.size == 0:
            return
        fanins = np.array([aig._fanin0, aig._fanin1], dtype=np.int64)
        levels = aig.compiled().var_levels[base:][ands]
        order = np.argsort(levels, kind="stable")
        bounds = np.flatnonzero(np.diff(levels[order])) + 1
        order = ands[order]
        # A level's nodes are independent; batching them bounds the
        # (nodes x candidates^2) dominance temporaries.
        batches = [
            nodes[lo : lo + _BATCH]
            for nodes in np.split(order, bounds)
            for lo in range(0, nodes.size, _BATCH)
        ]
        self._tables([
            self._merge_level(nodes + base, fanins[:, nodes])
            for nodes in batches
        ])

    def _merge_level(self, var, fanin):
        """Cuts of the nodes ``var`` (one level) from their fanins' cuts.

        Returns the flat slot of each kept non-trivial cut, its two
        source cuts' flat slots and the fanin complement bits; the
        tables are filled in afterwards by :meth:`_tables`.
        """
        k, cap = self.k, self.max_cuts
        n = var.size
        fan = fanin >> 1
        # 1. Fanin-cut pairs in source order: node, cut of a, cut of b.
        sigs = self.sigs[fan]
        pair_sig = sigs[0][:, :, None] | sigs[1][:, None, :]
        node, i, j = np.nonzero(np.bitwise_count(pair_sig) <= k)
        src = (fan * cap)[:, node] + np.stack((i, j))
        union = self.leaves.reshape(-1, k)[src.T].reshape(-1, 2 * k)
        union.sort(axis=1)
        tail = union[:, 1:]
        tail[tail == union[:, :-1]] = _PAD
        union.sort(axis=1)
        fits = np.flatnonzero(union[:, k] == _PAD)
        # 2. Candidates: the fitting unions, then each trivial cut,
        # stably sorted by (node, len, leaves).  Pairs come in source
        # order, so equal copies sort by source pair.
        pair_node = node[fits]
        sig = np.concatenate((pair_sig[pair_node, i[fits], j[fits]],
                              self.unit_sig[var]))
        node = np.concatenate((pair_node, np.arange(n)))
        cand = np.concatenate((union[fits, :k], self.unit[var]))
        source = np.concatenate((fits, np.full(n, -1)))
        # Big-endian rows of non-negative ints compare as bytes in
        # numeric order, so each (node, len, leaves) key is one value.
        key = np.empty((node.size, k + 1), dtype=">i4")
        key[:, 0] = node * (k + 1) + np.add.reduce(cand != _PAD, axis=1)
        key[:, 1:] = cand
        order = np.argsort(key.view(f"V{4 * (k + 1)}").ravel(), kind="stable")
        node, cand, sig = node[order], cand[order], sig[order]
        # 3. Drop every candidate with a subset sorted before it (a
        # proper subset always sorts before its superset), on each
        # node's candidates laid out densely.
        group = np.bincount(node, minlength=n)
        start = np.cumsum(group) - group
        width = int(group.max())
        dense = np.zeros((n, width), dtype=np.uint64)
        dense[node, np.arange(node.size) - start[node]] = sig
        maybe = (dense[:, :, None] & ~dense[:, None, :]) == 0
        maybe &= _before(width)
        maybe &= (np.arange(width) < group[:, None])[:, None, :]
        dn, dp, dc = np.nonzero(maybe)
        sub, sup = cand[start[dn] + dp], cand[start[dn] + dc]
        inside = sub == _PAD
        for q in range(k):
            inside |= sub == sup[:, q, None]
        keep = np.ones(node.size, dtype=bool)
        keep[(start[dn] + dc)[np.logical_and.reduce(inside, axis=1)]] = False
        # 4. The first max_cuts survivors of each node.
        kept_before = np.cumsum(keep) - keep
        slot = kept_before - kept_before[start][node]
        kept = np.flatnonzero(keep & (slot < cap))
        node = node[kept]
        dst = var[node] * cap + slot[kept]
        self.leaves.reshape(-1, k)[dst] = cand[kept]
        self.sigs.ravel()[dst] = sig[kept]
        self.counts[var] = np.bincount(node, minlength=n)
        pair = source[order[kept]]
        merged = pair >= 0
        self.bits.reshape(-1, 1 << k)[dst[~merged], 1] = True
        return dst[merged], src[:, pair[merged]], fanin[:, node[merged]] & 1

    def _tables(self, merges) -> None:
        """Fill in the merged cuts' tables, level by level.

        Each table is its two source tables gathered onto its leaves
        (the sub-cut's leaf positions select the :func:`_expand_map`
        row), complemented per fanin and ANDed.
        """
        k = self.k
        dst = np.concatenate([m[0] for m in merges])
        src = np.concatenate([m[1] for m in merges], axis=1)
        compl = np.concatenate([m[2] for m in merges], axis=1).astype(bool)
        leaves = self.leaves.reshape(-1, k)
        cut = leaves[dst]
        sub = leaves[src]
        at = cut == sub[..., 0, None]
        for q in range(1, k):
            at |= cut == sub[..., q, None]
        masks = (at & (cut != _PAD)) @ (1 << np.arange(k))
        size = np.add.reduce(cut != _PAD, axis=1)
        full = np.arange(1 << k) < (1 << size)[:, None]
        expand_map = _expand_map(k)
        first_bit = src << k
        bits = self.bits.ravel()
        lo = 0
        for hi in np.cumsum([len(m[0]) for m in merges]).tolist():
            part = slice(lo, hi)
            t = bits[first_bit[:, part, None] + expand_map[masks[:, part]]]
            t ^= compl[:, part, None]
            self.bits.reshape(-1, 1 << k)[dst[part]] = t[0] & t[1] & full[part]
            lo = hi


class Cuts(NamedTuple):
    """Every variable's kept cuts as flat arrays, in kept order.

    Variable ``v``'s cuts are rows ``start[v]:start[v + 1]`` (none for
    an AND node outside the enumerated cones).  Row ``c`` holds
    ``sizes[c]`` leaves, ascending, in ``leaves[c]``, padded with 0:
    the constant variable is never a leaf.  Its table,
    the root's function of those leaves with leaf ``i`` as bit ``i``
    of the minterm, is ``tables[c]`` packed by :func:`numpy.packbits`
    in little bit order, so for ``k = 4`` the row, read as one
    little-endian ``uint16``, is the table.
    """

    start: np.ndarray  # (num_vars + 1,) int64
    leaves: np.ndarray  # (cuts, k) int32
    sizes: np.ndarray  # (cuts,) int64
    tables: np.ndarray  # (cuts, ceil(2**k / 8)) uint8


def enumerate_cuts_with_truths(
    aig: AIG, k: int = 4, max_cuts: int = 8, roots: np.ndarray | None = None
) -> Cuts:
    """Per-variable k-feasible cuts, each with its root's truth table.

    Every variable keeps at most ``max_cuts`` cuts, the trivial cut
    ``(v,)`` with the identity table ``0b10`` among them; the constant
    has the one empty cut with table 0.  Tables are assembled
    bottom-up from the fanin cut tables.  Given ``roots`` (variable
    indices), only the AND nodes in their transitive fanin are
    enumerated, each with exactly the cuts the whole graph gives it;
    every other AND node has none.
    """
    arrays = _CutArrays(aig, k, max_cuts, roots)
    valid = np.arange(max_cuts) < arrays.counts[:, None]
    leaves = arrays.leaves[valid]
    leaves[leaves == _PAD] = 0
    return Cuts(
        start=np.concatenate(([0], np.cumsum(arrays.counts))),
        leaves=leaves,
        sizes=np.count_nonzero(leaves, axis=1),
        tables=np.packbits(arrays.bits, axis=2, bitorder="little")[valid],
    )
