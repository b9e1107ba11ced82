"""The optimization passes, built on the NPN library engine.

All passes are greedy topological *rebuilds* into a fresh structurally
hashed graph, functionally equivalent to their input by construction:

``balance``
    Flattens single-fanout AND trees and rebuilds them with a
    Huffman-style pairing, minimizing depth (ABC's ``balance``).
``rewrite``
    DAG-aware 4-cut rewriting (ABC ``rewrite``): every node's cut
    functions are computed bottom-up during enumeration, reduced to
    their NPN class, and the class's best-known structure is *priced*
    against the output graph with mutation-free strash-aware counting.
    Only the winning candidate is built, with no per-candidate ISOP:
    nodes are only appended, so a built loser would stay.
``refactor``
    Cone-level resynthesis of maximum fanout-free cones up to 10
    leaves, accepted when the new cone (priced, not built) is no larger
    than the old MFFC.
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
from functools import partial

import numpy as np

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.build import lut_choice
from repro.aig.cuts import enumerate_cuts_with_truths
from repro.aig.isop import full_mask
from repro.aig.opt.counting import price, replay
from repro.aig.opt.library import NpnLibrary, get_library
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
def rewrite(
    aig: AIG,
    k: int = 4,
    max_cuts: int = 8,
    library: NpnLibrary | None = None,
) -> AIG:
    """DAG-aware NPN-library cut rewriting (ABC ``rewrite`` analogue).

    Cuts up to ``lib.max_vars`` leaves (4 by default) are priced
    through the NPN library; wider cuts — the seed supported any
    ``k`` — fall back to mutation-free ISOP pricing, so the public
    ``k`` parameter keeps its old range.
    """
    lib = library if library is not None else get_library()
    node_cuts = enumerate_cuts_with_truths(aig, k=k, max_cuts=max_cuts)
    max_vars, lookup = lib.max_vars, lib.lookup
    new = AIG(aig.n_inputs)
    strash = new._strash
    mapping = [0] * aig.num_vars
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        ma, mb = _map_lit(mapping, f0), _map_lit(mapping, f1)
        a, b = (ma, mb) if ma < mb else (mb, ma)
        if a < 2 or a == b or a ^ b == 1 or (a, b) in strash:
            # Constant fold or strash hit: nothing can beat zero cost,
            # and add_and appends nothing.
            mapping[var] = new.add_and(ma, mb)
            continue
        best_cost = 1  # the direct build
        best = None
        next_var = new.num_vars
        for cut, table in node_cuts[var]:
            n = len(cut)
            if n < 2:
                continue
            # A candidate only wins with strictly fewer new nodes, so
            # price it with that budget and abandon it at the first
            # node that cannot be shared.
            if n <= max_vars:
                recipe, perm, phase, out_neg = lookup(table, n)
                vals = [CONST0] * (1 + n)
                for i, leaf in enumerate(cut):
                    vals[1 + perm[i]] = mapping[leaf] ^ ((phase >> i) & 1)
                program = (recipe.nodes, recipe.out ^ out_neg)
                priced = price(*program, vals, strash, next_var, best_cost - 1)
            else:
                vals = [CONST0, *(mapping[leaf] for leaf in cut)]
                priced = lut_choice(new, table, vals[1:], budget=best_cost - 1)
                if priced is not None:
                    program = priced[1]
            if priced is not None and priced[0] < best_cost:
                best_cost = priced[0]
                best = (program, vals)
                if best_cost == 0:
                    break  # nothing beats a free candidate
        if best is None:
            mapping[var] = new.add_and(ma, mb)
        else:
            program, vals = best
            mapping[var] = replay(new, *program, vals)
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


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
        if cone is not None and len(cone) >= 2:
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
def compress(aig: AIG, max_rounds: int = 3) -> AIG:
    """Iterated optimization script (``resyn2``/``compress2rs`` role).

    Guaranteed not to increase the used-node count.
    """
    best = aig.extract_cone()
    for _ in range(max_rounds):
        size_before = best.num_ands
        # No trailing rewrite (the seed script had one): the round
        # loop iterates to a fixpoint, so the next round's rewrite
        # subsumes it at half the enumeration cost.
        for pass_fn in (balance, rewrite, refactor, fraig_lite):
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
