"""The optimization passes, built on the NPN library engine.

All passes are greedy topological *rebuilds* into a fresh structurally
hashed graph, functionally equivalent to their input by construction:

``balance``
    Flattens single-fanout AND trees and rebuilds them with a
    Huffman-style pairing, minimizing depth (ABC's ``balance``).
``rewrite``
    DAG-aware 4-cut rewriting (ABC ``rewrite``): every node's cut
    functions are computed bottom-up during enumeration and mapped to
    their NPN class's best-known structure, folded into one program
    over the cut's leaves.  A node takes the first cut whose program
    the output graph already holds, checked against its strash table
    without building anything: a candidate that adds no node.  So
    only a node equal to an earlier variable, or its complement, can
    be rewritten; a simulation proof finds the others, whose cuts are
    neither enumerated nor priced.
``refactor``
    Cone-level resynthesis of maximum fanout-free cones up to 10
    leaves, accepted when the new cone (priced, not built) is no larger
    than the old MFFC.  Single-node cones are built directly.
``fraig_lite``
    Simulation-guided equivalence-class detection (ABC ``fraig``
    role): random bit-parallel simulation through the levelized engine
    proposes equivalence candidates that structural hashing cannot
    see, and each is proven by exhaustive truth tables over a bounded
    common cut before the nodes are merged.  Unproven candidates are
    left alone, so the pass is exact.

``compress`` chains them until no improvement, mirroring ABC script
usage (``resyn2``/``compress2rs``), and never returns a graph larger
than its input.  ``compress_deep`` hill-climbs a wider palette
(:data:`DEEP_PASSES`: ``compress``'s round plus a larger-cone
``refactor`` and a stronger ``fraig_lite``) to a fixpoint.  Every cone
walk is iterative (see :mod:`repro.aig.opt.traverse`) — chain-shaped
graphs of any depth are safe.
"""

from __future__ import annotations

import heapq
import operator
from functools import partial

import numpy as np

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.build import lut_choice
from repro.aig.cuts import enumerate_cuts_with_truths
from repro.aig.isop import full_mask
from repro.aig.opt.counting import replay
from repro.aig.opt.library import get_library
from repro.aig.opt.npn import MAX_NPN_VARS
from repro.aig.opt.traverse import bounded_cut, cone_truth, cut_truth, ffc_cones
from repro.utils.rng import rng_for


def _map_lit(mapping: list[int], lit: int) -> int:
    return mapping[lit >> 1] ^ (lit & 1)


def _sync_levels(aig: AIG, lv: list[int]) -> None:
    """Extend the incremental level array to cover new nodes."""
    base = aig.n_inputs + 1
    while len(lv) < aig.num_vars:
        j = len(lv) - base
        f0, f1 = aig._fanin0[j], aig._fanin1[j]
        lv.append(max(lv[f0 >> 1], lv[f1 >> 1]) + 1)


# ---------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------
def balance(aig: AIG) -> AIG:
    """Depth-oriented rebuild of AND trees (ABC ``balance``)."""
    fanout = aig.fanout_counts()
    internal = _tree_internal_mask(aig, fanout)
    new = AIG(aig.n_inputs)
    lv = [0] * (aig.n_inputs + 1)
    mapping = [0] * aig.num_vars
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        if internal[var]:
            # Swallowed by the gather of its unique AND parent; its
            # mapping is never read.  Skipping these is what makes
            # balance linear instead of quadratic on chain/tree
            # graphs: each single-fanout tree is flattened once, at
            # its root, not once per member.
            continue
        leaves = _gather_and_leaves(aig, var, fanout)
        heap = [(lv[_map_lit(mapping, leaf) >> 1], _map_lit(mapping, leaf))
                for leaf in leaves]
        heapq.heapify(heap)
        while len(heap) > 1:
            la, a = heapq.heappop(heap)
            lb, b = heapq.heappop(heap)
            lit = new.add_and(a, b)
            _sync_levels(new, lv)
            heapq.heappush(heap, (lv[lit >> 1], lit))
        mapping[var] = heap[0][1]
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


def _tree_internal_mask(aig: AIG, fanout: np.ndarray) -> np.ndarray:
    """Mask of AND nodes whose only reference is a plain AND fanin.

    Exactly the nodes :func:`_gather_and_leaves` expands into their
    parent's leaf set — complemented references, multi-fanout nodes
    and output-referenced nodes all stay tree roots.
    """
    internal = np.zeros(aig.num_vars, dtype=bool)
    for fanins in (aig._fanin0, aig._fanin1):
        f = np.asarray(fanins, dtype=np.int64)
        plain = f[(f & 1) == 0] >> 1
        internal[plain] = True
    internal &= fanout == 1
    internal[: aig.n_inputs + 1] = False
    return internal


def _gather_and_leaves(aig: AIG, var: int, fanout: np.ndarray) -> list[int]:
    """Leaves of the single-fanout AND tree rooted at ``var``.

    A fanin literal is expanded when it is a non-complemented AND node
    referenced only once; otherwise it is a leaf.
    """
    leaves: list[int] = []
    stack = list(aig.fanins(var))
    while stack:
        lit = stack.pop()
        v = lit >> 1
        if not (lit & 1) and aig.is_and_var(v) and fanout[v] == 1:
            stack.extend(aig.fanins(v))
        else:
            leaves.append(lit)
    return leaves


# ---------------------------------------------------------------------
# rewrite
# ---------------------------------------------------------------------
#: Simulation words (64 patterns each) of rewrite's duplicate proof.
SIG_WORDS = 16


def rewrite(aig: AIG) -> AIG:
    """DAG-aware NPN-library cut rewriting (ABC ``rewrite`` analogue).

    Up to 8 cuts of up to 4 leaves per node.  A node is rebuilt from
    the library program of its first cut, in kept order, that is
    already in the output graph: one that adds no node.  Otherwise
    it is built directly.

    Only a node that equals an earlier variable, or its complement,
    can take anything but a fresh ``add_and``: every ``add_and`` here
    builds one old node's function, and an accepted cut adds no node,
    so each literal of the output graph computes the constant, an
    input or an earlier old node, and so does every strash hit or
    constant fold.  The input is simulated once on :data:`SIG_WORDS`
    words; a node whose complement-normalized row no earlier variable
    shares provably differs from all of them and is built directly.
    Cuts are enumerated for the fanin cones of the other (*marked*)
    nodes only, and only theirs are priced.  With no marked node and
    every fanin pair sorted, the rebuild is the input itself.  The
    proof rests on the zero-cost acceptance rule: a rewrite that
    credits the MFFC a replacement frees accepts candidates that add
    nodes, and must narrow or drop this filter.
    """
    marked = _has_earlier_twin(aig)
    roots = np.flatnonzero(marked)
    if roots.size == 0 and all(map(operator.le, aig._fanin0, aig._fanin1)):
        return aig.extract_cone()
    cuts = enumerate_cuts_with_truths(
        aig, k=MAX_NPN_VARS, max_cuts=8, roots=roots
    )
    # Single-leaf and empty cuts are never candidates, nor are the
    # cuts of unmarked nodes; each distinct (size, table) of the others
    # is looked up once.
    owner = np.repeat(np.arange(aig.num_vars), np.diff(cuts.start))
    cand = np.flatnonzero((cuts.sizes >= 2) & marked[owner])
    sizes = cuts.sizes[cand]
    keys = sizes << 16 | cuts.tables.view("<u2")[cand, 0]
    distinct, which = np.unique(keys, return_inverse=True)
    lookup = get_library().lookup
    programs = [lookup(key & 0xFFFF, key >> 16) for key in distinct.tolist()]
    # Flat int lists, indexed by candidate: no object per candidate.
    which, sizes = which.tolist(), sizes.tolist()
    leaves = cuts.leaves[cand].ravel().tolist()
    bounds = np.searchsorted(cand, cuts.start).tolist()
    new = AIG(aig.n_inputs)
    strash = new._strash
    mapping = [0] * aig.num_vars
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    marked = marked.tolist()
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        ma, mb = _map_lit(mapping, f0), _map_lit(mapping, f1)
        a, b = (ma, mb) if ma < mb else (mb, ma)
        if not marked[var] or a < 2 or a == b or a ^ b == 1 or (a, b) in strash:
            # Unmarked (a new function), constant fold or strash hit.
            mapping[var] = new.add_and(ma, mb)
            continue
        for c in range(bounds[var], bounds[var + 1]):
            # The program over [CONST0, *leaves], mirroring add_and
            # (and counting.price with budget 0) up to the first node
            # the graph does not hold.
            nodes, out = programs[which[c]]
            row = MAX_NPN_VARS * c
            vals = [CONST0, *map(mapping.__getitem__, leaves[row:row + sizes[c]])]
            for n0, n1 in nodes:
                x = vals[n0 >> 1] ^ (n0 & 1)
                y = vals[n1 >> 1] ^ (n1 & 1)
                if x > y:
                    x, y = y, x
                if x < 2:
                    lit = y if x else x
                elif x == y:
                    lit = x
                elif x ^ y == 1:
                    lit = CONST0
                else:
                    lit = strash.get((x, y))
                    if lit is None:
                        break
                vals.append(lit)
            else:
                mapping[var] = vals[out >> 1] ^ (out & 1)
                break
        else:
            mapping[var] = new.add_and(ma, mb)
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


def _has_earlier_twin(aig: AIG) -> np.ndarray:
    """Mask of the AND nodes whose simulated row, complement-normalized,
    an earlier variable shares.

    Different rows prove different functions, so an unmarked node
    equals neither the constant, nor an input, nor an earlier node,
    nor the complement of any of them.
    """
    packed = rng_for("rewrite", aig.num_vars, aig.num_ands).integers(
        0, 1 << 64, size=(aig.n_inputs, SIG_WORDS), dtype=np.uint64
    )
    values = aig.simulate_packed_all(packed)
    # Complement rows whose first bit is set, so a node and its
    # negation share a row; the constant's row is all zeros.
    values ^= np.uint64(0) - (values[:, :1] & np.uint64(1))
    _, first, which = np.unique(
        values, axis=0, return_index=True, return_inverse=True
    )
    marked = first[which.ravel()] < np.arange(aig.num_vars)
    marked[: aig.n_inputs + 1] = False
    return marked


# ---------------------------------------------------------------------
# refactor
# ---------------------------------------------------------------------
def refactor(aig: AIG, max_leaves: int = 10) -> AIG:
    """MFFC cone resynthesis (ABC ``refactor`` analogue)."""
    cones, mffc, members = ffc_cones(
        aig, aig.fanout_counts().tolist(), max_leaves
    )
    new = AIG(aig.n_inputs)
    mapping = [0] * aig.num_vars
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        cone = cones[j]
        # A single-node cone is already its own positive SOP (the
        # negative polarity can only tie with it), so it is built
        # directly.
        if cone is not None and len(cone) >= 2 and mffc[j] >= 2:
            leaves = sorted(cone)
            nodes, start, end = members[j]
            table = cone_truth(aig, leaves, nodes[start:end])
            if table == 0 or table == full_mask(len(leaves)):
                mapping[var] = CONST0 if table == 0 else CONST1
                continue
            mapped = [mapping[leaf] for leaf in leaves]
            choice = lut_choice(new, table, mapped, budget=mffc[j])
            if choice is not None:
                mapping[var] = replay(new, *choice[1], [CONST0, *mapped])
                continue
        mapping[var] = new.add_and(
            _map_lit(mapping, f0), _map_lit(mapping, f1)
        )
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


# ---------------------------------------------------------------------
# fraig-lite
# ---------------------------------------------------------------------
def fraig_lite(
    aig: AIG,
    n_words: int = 4,
    max_leaves: int = 12,
    max_visit: int = 48,
    rng: np.random.Generator | None = None,
) -> AIG:
    """Merge simulation-equivalent nodes after a bounded exact proof.

    Random packed patterns are simulated once through the levelized
    engine; variables with identical (or complementary) signatures
    form candidate classes.
    A candidate is merged into its class representative only when
    exhaustive truth tables over a bounded common cut *prove* the
    equivalence, so the output is functionally identical to the input
    even though the signatures are random.
    """
    if aig.num_ands == 0:
        return aig.extract_cone()
    if rng is None:
        rng = rng_for("fraig-lite", aig.num_vars, aig.num_ands)
    packed = rng.integers(
        0, 1 << 64, size=(aig.n_inputs, n_words), dtype=np.uint64
    )
    values = aig.simulate_packed_all(packed)
    inverted = ~values
    # Canonical signature: complement rows whose first bit is set, so
    # a node and its negation land in the same class.
    reps = {}
    subst = {}
    for var in range(aig.num_vars):
        neg = bool(values[var, 0] & 1)
        key = (inverted[var] if neg else values[var]).tobytes()
        entry = reps.get(key)
        if entry is None:
            reps[key] = (var, neg)
            continue
        if not aig.is_and_var(var):
            continue  # never merge inputs into anything
        rep, rep_neg = entry
        cut = bounded_cut(
            aig, (rep, var), max_leaves=max_leaves, max_visit=max_visit
        )
        if cut is None:
            continue
        t_rep = cut_truth(aig, rep, cut)
        t_var = cut_truth(aig, var, cut)
        compl = neg ^ rep_neg
        expected = ~t_rep & full_mask(len(cut)) if compl else t_rep
        if t_var == expected:
            subst[var] = (rep, compl)
    if not subst:
        return aig.extract_cone()
    new = AIG(aig.n_inputs)
    mapping = [0] * aig.num_vars
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        found = subst.get(var)
        if found is not None:
            rep, compl = found
            mapping[var] = mapping[rep] ^ compl
        else:
            f0, f1 = aig.fanins(var)
            mapping[var] = new.add_and(
                _map_lit(mapping, f0), _map_lit(mapping, f1)
            )
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


# ---------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------
def compress(aig: AIG) -> AIG:
    """Iterated optimization script (``resyn2``/``compress2rs`` role):
    at most three rounds of the four passes.

    Guaranteed not to increase the used-node count.
    """
    best = aig.extract_cone()
    passes = (balance, rewrite, refactor, fraig_lite)
    # The graph each pass last ran on.  Every pass is deterministic in
    # its input, so a pass handed the graph it already ran on (nothing
    # was adopted since) would return what was rejected then: skip it.
    last_input: list[AIG | None] = [None] * len(passes)
    for _ in range(3):
        size_before = best.num_ands
        # No trailing rewrite (the seed script had one): the round
        # loop iterates to a fixpoint, so the next round's rewrite
        # subsumes it at half the enumeration cost.
        for i, pass_fn in enumerate(passes):
            if last_input[i] is best:
                continue
            last_input[i] = best
            cand = pass_fn(best)
            if cand.num_ands < best.num_ands or (
                cand.num_ands == best.num_ands and cand.depth() < best.depth()
            ):
                best = cand
        if best.num_ands >= size_before:
            break
    return best


#: ``compress``'s round, then the two moves it never makes: refactor
#: cones up to 14 leaves and a fraig with more simulation words and a
#: wider proof cut.
DEEP_PASSES = (
    balance,
    rewrite,
    refactor,
    fraig_lite,
    partial(refactor, max_leaves=14),
    partial(fraig_lite, n_words=8, max_leaves=16, max_visit=128),
)


def compress_deep(aig: AIG) -> AIG:
    """Fixed-order hill climb over :data:`DEEP_PASSES` to a fixpoint.

    Tries the passes in order, adopts the first result whose
    ``(num_ands, depth)`` is strictly smaller and restarts from the
    first pass; returns when a full sweep adopts nothing.  Every
    adoption strictly lowers that pair, so the loop terminates, and
    the result is never larger than the input cone.
    """
    best = aig.extract_cone()
    qor = (best.num_ands, best.depth())
    improved = True
    while improved and best.num_ands:
        improved = False
        for pass_fn in DEEP_PASSES:
            cand = pass_fn(best)
            cand_qor = (cand.num_ands, cand.depth())
            if cand_qor < qor:
                best, qor, improved = cand, cand_qor, True
                break
    return best
