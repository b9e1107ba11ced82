"""The pre-array implementations, kept as differential-test oracles.

Each function or class here is the straightforward version of a hot
path that the library now implements differently; tests assert the
library returns exactly what these return.  The seed optimization
passes at the end are also the baseline ``bench_opt_engine.py`` races
the engine against.  Do not optimize this module.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.aig import build
from repro.aig import isop as isop_lib
from repro.aig.aig import AIG, CONST0, CONST1, GateOps, lit_not
from repro.aig.cuts import enumerate_cuts_with_truths as library_cuts
from repro.aig.isop import cofactor0, cofactor1, full_mask, var_mask
from repro.aig.opt.passes import _map_lit, balance
from repro.aig.opt.traverse import cut_truth
from repro.cgp.genome import _IMPL, CGPGenome
from repro.ml.decision_tree import DecisionTree, TreeNode, gini
from repro.ml.metrics import accuracy
from repro.ml.mlp import _act
from repro.utils.bitops import pack_bits, popcount64

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


# ---------------------------------------------------------------------
# Learners: per-node row copies, per-tree column copies, one predict
# per shuffled copy, one Python bit list per neuron pattern, and a
# fresh active-set walk for every CGP evaluation and size query
# ---------------------------------------------------------------------
def entropy(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    total = np.maximum(total, 1e-12)
    p = np.clip(pos / total, 1e-12, 1 - 1e-12)
    return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))


def act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
    return _act(name, z)


def neuron_table(weights: np.ndarray, bias: float, activation: str) -> int:
    k = weights.shape[0]
    table = 0
    for pattern in range(1 << k):
        bits = np.array([(pattern >> i) & 1 for i in range(k)], dtype=float)
        z = float(weights @ bits + bias)
        if act(activation, np.array(z)) >= 0.5:
            table |= 1 << pattern
    return table


def permutation_importance(predict, X, y, n_repeats=5, rng=None):
    if rng is None:
        rng = np.random.default_rng(0)
    X = np.asarray(X)
    y = np.asarray(y).ravel()
    baseline = accuracy(y, predict(X))
    importances = np.zeros(X.shape[1])
    for col in range(X.shape[1]):
        drops = []
        for _ in range(n_repeats):
            shuffled = X.copy()
            shuffled[:, col] = shuffled[rng.permutation(X.shape[0]), col]
            drops.append(baseline - accuracy(y, predict(shuffled)))
        importances[col] = float(np.mean(drops))
    return importances


def looks_complement(Xn, yn, feature) -> bool:
    """Team 8's complement test, one row at a time: each row is keyed
    by its other features and compared with the first row seen under
    that key."""
    other_cols = [c for c in range(Xn.shape[1]) if c != feature]
    seen = {}
    for row, label in zip(Xn, yn, strict=True):
        key = row[other_cols].tobytes()
        side = row[feature]
        prev = seen.get(key)
        if prev is None:
            seen[key] = (int(side), int(label))
        else:
            prev_side, prev_label = prev
            if prev_side != side and prev_label == label:
                return False
    return True


class ReferenceTree(DecisionTree):
    """:class:`DecisionTree` growing over row-index arrays, copying
    ``X[idx]`` at every node and banning features by an int bitmask."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        self.n_inputs = X.shape[1]
        self.nodes = []
        self._routing = None
        self._grow(X, y, np.arange(X.shape[0]), depth=0, banned=0)
        return self

    def _impurity(self, pos, total):
        fn = entropy if self.criterion == "entropy" else gini
        return fn(pos, total)

    def _grow(self, X, y, idx, depth, banned) -> int:
        node_id = len(self.nodes)
        y_here = y[idx]
        n = len(idx)
        n_pos = int(y_here.sum())
        value = 1 if 2 * n_pos > n else 0
        node = TreeNode(value=value, n_samples=n,
                        n_errors=min(n_pos, n - n_pos))
        self.nodes.append(node)
        if (
            n_pos == 0
            or n_pos == n
            or (self.max_depth is not None and depth >= self.max_depth)
            or n < max(2, 2 * self.min_samples_leaf)
        ):
            return node_id
        feature, gain = self._best_split(X, y, idx, banned)
        if feature is None:
            return node_id
        if self.decomposition_tau is not None and gain < self.decomposition_tau:
            alt = self._decomposition_split(X, y, idx, banned)
            if alt is not None:
                feature = alt
        elif gain < self.min_gain:
            return node_id
        mask = X[idx, feature] == 1
        idx_left = idx[~mask]
        idx_right = idx[mask]
        if (
            len(idx_left) < self.min_samples_leaf
            or len(idx_right) < self.min_samples_leaf
        ):
            return node_id
        node.feature = feature
        node.is_leaf = False
        new_banned = banned | (1 << feature)
        node.left = self._grow(X, y, idx_left, depth + 1, new_banned)
        node.right = self._grow(X, y, idx_right, depth + 1, new_banned)
        return node_id

    def _best_split(self, X, y, idx, banned):
        Xn = X[idx]
        yn = y[idx]
        n = len(idx)
        ones = Xn.sum(axis=0).astype(np.float64)
        pos_ones = Xn[yn == 1].sum(axis=0).astype(np.float64)
        n_pos = float(yn.sum())
        zeros = n - ones
        pos_zeros = n_pos - pos_ones
        parent = self._impurity(np.array(n_pos), np.array(float(n)))
        child = (
            ones / n * self._impurity(pos_ones, ones)
            + zeros / n * self._impurity(pos_zeros, zeros)
        )
        gains = parent - child
        gains = np.where((ones == 0) | (zeros == 0), -np.inf, gains)
        if banned:
            banned_idx = [i for i in range(X.shape[1]) if banned & (1 << i)]
            gains[banned_idx] = -np.inf
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]):
            return None, 0.0
        return best, float(gains[best])

    def _decomposition_split(self, X, y, idx, banned):
        Xn = X[idx]
        yn = y[idx]
        chosen = None
        for feature in range(X.shape[1]):
            if banned & (1 << feature):
                continue
            mask = Xn[:, feature] == 1
            y0, y1 = yn[~mask], yn[mask]
            if len(y0) == 0 or len(y1) == 0:
                continue
            constant = y0.min() == y0.max() or y1.min() == y1.max()
            if constant or looks_complement(Xn, yn, feature):
                chosen = feature
        return chosen


def forest_votes(forest, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim == 1:
        X = X[None, :]
    out = np.zeros((X.shape[0], forest.n_trees), dtype=np.uint8)
    for t, (tree, cols) in enumerate(
        zip(forest.trees, forest.feature_subsets, strict=True)
    ):
        out[:, t] = tree.predict(X[:, cols])
    return out


def cgp_active_nodes(genome) -> list[int]:
    active = set()
    stack = [genome.output - genome.n_inputs]
    while stack:
        node = stack.pop()
        if node < 0 or node in active:
            continue
        active.add(node)
        for ref in (genome.in0[node], genome.in1[node]):
            stack.append(int(ref) - genome.n_inputs)
    return sorted(active)


def cgp_evaluate_packed(genome, packed_inputs: np.ndarray) -> np.ndarray:
    n_words = packed_inputs.shape[1]
    values = {i: packed_inputs[i] for i in range(genome.n_inputs)}
    for node in cgp_active_nodes(genome):
        fn = _IMPL[genome.function_set[genome.funcs[node]]]
        a = values[int(genome.in0[node])]
        b = values[int(genome.in1[node])]
        values[genome.n_inputs + node] = fn(a, b)
    out = values.get(genome.output)
    if out is None:
        out = np.zeros(n_words, dtype=np.uint64)
    return out


def cgp_run(evolver, X, y, generations=2000, seed_genome=None):
    """``CGPEvolver.run`` evaluating and sizing every genome afresh."""

    def fitness(genome, packed, y_packed, n_samples):
        wrong = cgp_evaluate_packed(genome, packed) ^ y_packed
        pad = n_samples % 64
        if pad:
            wrong[-1] &= np.uint64((1 << pad) - 1)
        return 1.0 - int(popcount64(wrong).sum()) / n_samples

    def size(genome):
        return len(cgp_active_nodes(genome))

    X = np.asarray(X, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8).ravel()
    n = X.shape[0]
    packed_full = pack_bits(X)
    y_packed_full = pack_bits(y[:, None])[0]
    if seed_genome is not None:
        parent = seed_genome
    else:
        parent = CGPGenome.random(
            X.shape[1], evolver.n_nodes, evolver.rng, evolver.function_set
        )
    rate = evolver.mutation_rate
    batch = None
    packed, y_packed, n_eval = packed_full, y_packed_full, n
    parent_fit = fitness(parent, packed, y_packed, n_eval)
    for gen in range(generations):
        if evolver.batch_size is not None and evolver.batch_size < n:
            if batch is None or gen % evolver.batch_generations == 0:
                batch = evolver.rng.choice(n, size=evolver.batch_size,
                                           replace=False)
                packed = pack_bits(X[batch])
                y_packed = pack_bits(y[batch][:, None])[0]
                n_eval = evolver.batch_size
                parent_fit = fitness(parent, packed, y_packed, n_eval)
        best_child = None
        best_fit = -1.0
        for _ in range(evolver.lam):
            child = parent.mutate(rate, evolver.rng)
            fit = fitness(child, packed, y_packed, n_eval)
            if fit > best_fit or (
                fit == best_fit
                and best_child is not None
                and size(child) > size(best_child)
            ):
                best_fit = fit
                best_child = child
        improved = best_fit > parent_fit
        if best_fit > parent_fit or (
            best_fit == parent_fit and size(best_child) >= size(parent)
        ):
            parent = best_child
            parent_fit = best_fit
        min_rate = 1.0 / (3 * parent.n_nodes + 1)
        if improved:
            rate = min(rate * 1.5, 0.5)
        else:
            rate = max(rate * 1.5 ** (-0.25), min_rate)
        evolver.log.fitness.append(parent_fit)
        evolver.log.mutation_rate.append(rate)
    return parent, fitness(parent, packed_full, y_packed_full, n)


# ---------------------------------------------------------------------
# Fanout-free cones: one walk per node
# ---------------------------------------------------------------------
def mffc_size(aig: AIG, var: int, fanout: Sequence[int]) -> int:
    """Size of the maximum fanout-free cone rooted at ``var``: the AND
    nodes that would become dead if ``var`` were removed."""
    if not aig.is_and_var(var):
        return 0
    counted = set()
    stack = [(var, True)]
    while stack:
        v, is_root = stack.pop()
        if v in counted or not aig.is_and_var(v):
            continue
        if not is_root and fanout[v] > 1:
            continue
        counted.add(v)
        f0, f1 = aig.fanins(v)
        stack.append((f0 >> 1, False))
        stack.append((f1 >> 1, False))
    return len(counted)


def ffc_leaves(
    aig: AIG, var: int, fanout: Sequence[int], max_leaves: int
) -> Cut | None:
    """Leaf variables of the fanout-free cone of ``var``, or None when
    the cone has fewer than 2 or more than ``max_leaves`` leaves."""
    leaves = set()
    stack = [lit >> 1 for lit in aig.fanins(var)]
    while stack:
        v = stack.pop()
        if aig.is_and_var(v) and fanout[v] == 1:
            stack.extend(lit >> 1 for lit in aig.fanins(v))
        elif not aig.is_const_var(v):
            leaves.add(v)
        if len(leaves) > max_leaves:
            return None
    if len(leaves) < 2:
        return None
    return tuple(sorted(leaves))


# ---------------------------------------------------------------------
# The seed optimization passes: build, measure, roll back
# ---------------------------------------------------------------------
# Every rewrite candidate is tentatively built into the output graph
# (per-candidate ISOP resynthesis included), measured, rolled back,
# and the winner rebuilt.  Cut enumeration, ``cut_truth`` and
# ``balance`` are the library's current versions, so the baseline
# measures the seed *algorithm*, not its recursion crashes.
#
# ``AIG`` only appends nodes, so the seed's checkpoint and rollback
# live here as the two helpers below.
def checkpoint(aig: AIG) -> tuple[int, int]:
    """Snapshot for :func:`rollback`: (node count, output count)."""
    return (aig.num_ands, len(aig.outputs))


def rollback(aig: AIG, state: tuple[int, int]) -> None:
    """Undo every node and output added after ``state`` was taken.

    Drops the compiled engine too: the graph may grow back to the same
    node count and outputs with different nodes, which its cache key
    would not tell apart.
    """
    n_ands, n_outs = state
    for key in zip(aig._fanin0[n_ands:], aig._fanin1[n_ands:], strict=True):
        aig._strash.pop(key, None)
    del aig._fanin0[n_ands:]
    del aig._fanin1[n_ands:]
    del aig.outputs[n_outs:]
    aig._compiled = None


def seed_lut(aig: AIG, table: int, leaves) -> int:
    """The seed ``build.lut``: per-call double ISOP, build both
    polarities behind a checkpoint, roll back, rebuild the winner."""
    k = len(leaves)
    full = (1 << (1 << k)) - 1
    table &= full
    if table == 0:
        return CONST0
    if table == full:
        return CONST1
    pos_cover, _ = isop_lib.isop(table, table, k)
    neg_cover, _ = isop_lib.isop(~table & full, ~table & full, k)
    state = checkpoint(aig)
    build.sop_over_leaves(aig, pos_cover, leaves)
    pos_cost = aig.num_ands - state[0]
    rollback(aig, state)
    neg = build.sop_over_leaves(aig, neg_cover, leaves)
    neg_cost = aig.num_ands - state[0]
    if neg_cost < pos_cost:
        return lit_not(neg)
    rollback(aig, state)
    return build.sop_over_leaves(aig, pos_cover, leaves)


def reference_rewrite(aig: AIG, k: int = 4, max_cuts: int = 8) -> AIG:
    """Seed cut rewriting: build, measure, roll back every candidate."""
    node_cuts = library_cuts(aig, k=k, max_cuts=max_cuts)
    new = AIG(aig.n_inputs)
    mapping = np.zeros(aig.num_vars, dtype=np.int64)
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        candidates = [("direct", None, None)]
        for cut, _ in node_cuts[var]:
            if len(cut) < 2 or cut == (var,):
                continue
            table = cut_truth(aig, var, cut)
            candidates.append(("cut", cut, table))
        best_cost = None
        best_kind = None
        for kind, cut, table in candidates:
            state = checkpoint(new)
            if kind == "direct":
                new.add_and(_map_lit(mapping, f0), _map_lit(mapping, f1))
            else:
                seed_lut(new, table, [int(mapping[leaf]) for leaf in cut])
            cost = new.num_ands - state[0]
            rollback(new, state)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_kind = (kind, cut, table)
        kind, cut, table = best_kind
        if kind == "direct":
            mapping[var] = new.add_and(
                _map_lit(mapping, f0), _map_lit(mapping, f1)
            )
        else:
            mapping[var] = seed_lut(new, table, [int(mapping[leaf]) for leaf in cut])
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


def reference_refactor(aig: AIG, max_leaves: int = 10) -> AIG:
    """Seed MFFC resynthesis: build the cone, compare, roll back."""
    fanout = aig.fanout_counts()
    new = AIG(aig.n_inputs)
    mapping = np.zeros(aig.num_vars, dtype=np.int64)
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        f0, f1 = aig.fanins(var)
        direct = lambda: new.add_and(  # noqa: E731 - tiny local thunk
            _map_lit(mapping, f0), _map_lit(mapping, f1)
        )
        leaves = ffc_leaves(aig, var, fanout, max_leaves)
        if leaves is None:
            mapping[var] = direct()
            continue
        table = cut_truth(aig, var, leaves)
        old_cone = mffc_size(aig, var, fanout)
        state = checkpoint(new)
        cand = seed_lut(new, table, [int(mapping[leaf]) for leaf in leaves])
        cost = new.num_ands - state[0]
        if cost <= old_cone:
            mapping[var] = cand
        else:
            rollback(new, state)
            mapping[var] = direct()
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


def reference_compress(aig: AIG, max_rounds: int = 3) -> AIG:
    """Seed optimization script (no fraig pass existed yet)."""
    best = aig.extract_cone()
    for _ in range(max_rounds):
        size_before = best.num_ands
        for pass_fn in (
            balance, reference_rewrite, reference_refactor, reference_rewrite
        ):
            cand = pass_fn(best)
            if cand.num_ands < best.num_ands or (
                cand.num_ands == best.num_ands and cand.depth() < best.depth()
            ):
                best = cand
        if best.num_ands >= size_before:
            break
    return best
