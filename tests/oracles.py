"""The pre-array implementations, kept as differential-test oracles.

Each function or class here is the straightforward version of a hot
path that the library now implements differently; tests assert the
library returns exactly what these return.  The reference helpers
section holds checks and fixtures that left the package because no
entry point ran them.  The seed optimization passes at the end are
also the baseline ``bench_opt_engine.py`` races the engine against.
Do not optimize this module.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from itertools import combinations
from math import comb

import numpy as np

from repro.aig import build
from repro.aig import isop as isop_lib
from repro.aig.aig import AIG, CONST0, CONST1, GateOps, lit_not
from repro.aig.approx import substitute_constants
from repro.aig.build import lut_choice
from repro.aig.cuts import enumerate_cuts_with_truths as library_cuts
from repro.aig.isop import full_mask, var_mask
from repro.aig.opt.counting import Program, price, replay
from repro.aig.opt.library import Recipe, get_library
from repro.aig.opt.npn import MAX_NPN_VARS, npn_canon
from repro.aig.opt.passes import _map_lit, balance
from repro.aig.opt.traverse import cone_truth, cut_truth, ffc_cones
from repro.cgp.genome import _IMPL, CGPGenome
from repro.ml.decision_tree import DecisionTree, TreeNode, gini
from repro.ml.metrics import accuracy
from repro.ml.mlp import MLP, _act, _act_grad
from repro.runner.task import TaskSpec, make_task_problem
from repro.utils.rng import rng_for
from repro.utils.bitops import pack_bits, popcount64, rows_to_ints, unpack_bits

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
def cofactor0(table: int, k: int, i: int) -> int:
    """Cofactor with variable ``i`` = 0, expanded back over k vars."""
    s = 1 << i
    half = table & ~var_mask(k, i)
    return half | (half << s)


def cofactor1(table: int, k: int, i: int) -> int:
    """Cofactor with variable ``i`` = 1, expanded back over k vars."""
    s = 1 << i
    half = table & var_mask(k, i)
    return half | (half >> s)


def support(table: int, k: int) -> list[int]:
    """Variables the function actually depends on."""
    return [
        i for i in range(k) if cofactor0(table, k, i) != cofactor1(table, k, i)
    ]


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
# Cover evaluation: one minterm at a time
# ---------------------------------------------------------------------
def evaluate_minterm(cover, minterm: int) -> int:
    return int(any(c.contains_minterm(minterm) for c in cover.cubes))


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


def pessimistic_errors(n, errors, cf: float):
    """C4.5's upper error bound through ``stats.beta.ppf``.

    Vectorized over ``n`` and ``errors`` (``0 <= errors < n``); the
    library's guards for ``n == 0`` and ``errors >= n`` are unchanged
    and not repeated here.
    """
    from scipy import stats  # 0.5 s to import: only this oracle needs it

    return n * stats.beta.ppf(1 - cf, errors + 1, n - errors)


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


class PackedTree(DecisionTree):
    """:class:`DecisionTree` growing one node at a time, depth first:
    popcount split counts per node, one ``_best_split`` call each."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X/y length mismatch")
        self.n_inputs = X.shape[1]
        self.nodes = []
        self._routing = None
        # Node sample sets are bit masks over the rows, and split
        # counts are popcounts of column AND mask: no per-node copy.
        # ``cols[1]`` keeps only the positive rows of ``cols[0]``.
        cols = pack_bits(X).T  # (n_words, n_features)
        cols = np.stack([cols, cols & pack_bits(y[:, None]).T])
        everyone = pack_bits(np.ones((X.shape[0], 1), dtype=np.uint8))[0]
        self._grow(X, y, cols, everyone, X.shape[0], int(y.sum()),
                   depth=0, banned=np.zeros(X.shape[1], dtype=bool))
        return self

    def _grow(self, X, y, cols, mask, n, n_pos, depth, banned) -> int:
        """Grow a subtree over the ``n`` rows set in ``mask``, ``n_pos``
        of them positive; returns its node index.

        ``cols`` holds the feature columns packed 64 rows to a word,
        over all rows and over the positive rows; ``banned`` flags the
        features already used on this path (re-splitting a binary
        feature is useless).
        """
        node_id = len(self.nodes)
        value = 1 if 2 * n_pos > n else 0
        node = TreeNode(
            value=value,
            n_samples=n,
            n_errors=min(n_pos, n - n_pos),
        )
        self.nodes.append(node)
        if (
            n_pos == 0
            or n_pos == n
            or (self.max_depth is not None and depth >= self.max_depth)
            or n < max(2, 2 * self.min_samples_leaf)
        ):
            return node_id
        # Per feature: rows, and positive rows, with the feature at 1.
        ones, pos_ones = np.bitwise_count(cols & mask[:, None]).sum(axis=1)
        feature, gain = self._best_split(ones, pos_ones, n, n_pos, banned)
        if feature is None:
            return node_id
        use_decomposition = (
            self.decomposition_tau is not None
            and gain < self.decomposition_tau
        )
        if use_decomposition:
            idx = np.flatnonzero(unpack_bits(mask, X.shape[0])[:, 0])
            alt = self._decomposition_split(X, y, idx, banned)
            if alt is not None:
                feature = alt
        elif gain < self.min_gain:
            return node_id
        n_right, pos_right = int(ones[feature]), int(pos_ones[feature])
        if (
            n - n_right < self.min_samples_leaf
            or n_right < self.min_samples_leaf
        ):
            return node_id
        node.feature = feature
        node.is_leaf = False
        new_banned = banned.copy()
        new_banned[feature] = True
        column = cols[0, :, feature]
        node.left = self._grow(X, y, cols, mask & ~column, n - n_right,
                               n_pos - pos_right, depth + 1, new_banned)
        node.right = self._grow(X, y, cols, mask & column, n_right,
                                pos_right, depth + 1, new_banned)
        return node_id

    def _best_split(self, ones, pos_ones, n, n_pos,
                    banned) -> tuple[int | None, float]:
        """Highest-gain feature from the node's per-feature counts.

        The parent and both sides of every split go through one
        impurity call; it is elementwise, so each value is the one a
        separate call would give.
        """
        ones = ones.astype(np.float64)
        pos_ones = pos_ones.astype(np.float64)
        n_pos = float(n_pos)
        zeros = n - ones
        pos_zeros = n_pos - pos_ones
        impurity = self._impurity(
            np.concatenate([pos_ones, pos_zeros, [n_pos]]),
            np.concatenate([ones, zeros, [float(n)]]),
        )
        d = len(ones)
        child = ones / n * impurity[:d] + zeros / n * impurity[d:-1]
        gains = impurity[-1] - child
        # A split is useless if one side is empty or the feature was
        # already used on this path.
        gains[(ones == 0) | (zeros == 0) | banned] = -np.inf
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]):
            return None, 0.0
        return best, float(gains[best])


def expand_all(
    cubes_mask: np.ndarray,
    cubes_val: np.ndarray,
    off: np.ndarray,
    on: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Espresso's EXPAND with each cube's OFF-row disagreement counts
    kept in a numpy vector, several numpy calls per literal test.

    ``cubes_mask``/``cubes_val`` are (n_cubes, n_inputs) uint8 matrices;
    returns the expanded pair.  Literals are tried cheapest-first
    (fewest OFF-rows one disagreement away).

    When ``on`` is given (and row-aligned with the cubes, as in the
    first EXPAND where every cube is one ON-minterm), cubes whose
    minterm is already covered by an earlier expansion are skipped —
    the standard espresso coverage shortcut that keeps the pass close
    to linear in the number of primes rather than minterms.
    """
    n_cubes, n_inputs = cubes_mask.shape
    out_mask = cubes_mask.copy()
    out_val = cubes_val.copy()
    aligned = on is not None and on.shape[0] == n_cubes
    covered = np.zeros(n_cubes, dtype=bool) if aligned else None
    kept_rows: list[int] = []
    for ci in range(n_cubes):
        if aligned and covered[ci]:
            continue
        kept_rows.append(ci)
        val = out_val[ci]
        if off.shape[0] == 0:
            out_mask[ci] = 0
            out_val[ci] = 0
            if aligned:
                covered[:] = True
            continue
        # diffs[r, j]: OFF-row r disagrees with the cube at bound pos j.
        bound = np.nonzero(out_mask[ci])[0]
        diffs = off[:, bound] != val[bound]
        diff_count = diffs.sum(axis=1)
        # Literal order: fewest blocking rows (rows with exactly one
        # disagreement, at that literal) first.
        blocking = diffs[diff_count == 1].sum(axis=0)
        order = np.argsort(blocking, kind="stable")
        removed = np.zeros(len(bound), dtype=bool)
        for j in order:
            single = diff_count == 1
            if diffs[single, j].any():
                continue  # removal would admit an OFF-row
            removed[j] = True
            diff_count = diff_count - diffs[:, j]
            diffs[:, j] = False
        keep = bound[~removed]
        new_mask = np.zeros(n_inputs, dtype=np.uint8)
        new_mask[keep] = 1
        out_mask[ci] = new_mask
        out_val[ci] = val * new_mask
        if aligned:
            if keep.size:
                hits = (on[:, keep] == out_val[ci][keep]).all(axis=1)
            else:
                hits = np.ones(n_cubes, dtype=bool)
            covered |= hits
    if aligned:
        rows = np.array(kept_rows, dtype=np.int64)
        return out_mask[rows], out_val[rows]
    return out_mask, out_val


def dense_forward(layer, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = x @ (layer.W * layer.mask) + layer.b
    return z, _act(layer.activation, z)


def adam_step(layer, dW, db, lr, t) -> None:
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    mW, vW, mb, vb = layer._adam_state
    mW[:] = beta1 * mW + (1 - beta1) * dW
    vW[:] = beta2 * vW + (1 - beta2) * dW * dW
    mb[:] = beta1 * mb + (1 - beta1) * db
    vb[:] = beta2 * vb + (1 - beta2) * db * db
    mhW = mW / (1 - beta1**t)
    vhW = vW / (1 - beta2**t)
    mhb = mb / (1 - beta1**t)
    vhb = vb / (1 - beta2**t)
    layer.W -= lr * mhW / (np.sqrt(vhW) + eps)
    layer.b -= lr * mhb / (np.sqrt(vhb) + eps)
    layer.W *= layer.mask


class ReferenceMLP(MLP):
    """:class:`MLP` whose training multiplies by the connection masks
    on every step, all-ones masks included."""

    def fit(self, X, y, epochs=30, reset=True):
        batch_size, lr = 64, 1e-3
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if reset or not self.layers:
            self._build(X.shape[1])
        for layer in self.layers:
            layer.init_adam()
        n = X.shape[0]
        t = 0
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb, yb = X[idx], y[idx]
                zs, acts = [], [xb]
                for layer in self.layers:
                    z, a = dense_forward(layer, acts[-1])
                    zs.append(z)
                    acts.append(a)
                delta = (acts[-1].ravel() - yb)[:, None] / len(idx)
                t += 1
                for li in reversed(range(len(self.layers))):
                    layer = self.layers[li]
                    if li < len(self.layers) - 1:
                        delta = delta * _act_grad(
                            layer.activation, zs[li], acts[li + 1]
                        )
                    dW = acts[li].T @ delta * layer.mask
                    db = delta.sum(axis=0)
                    new_delta = delta @ (layer.W * layer.mask).T
                    adam_step(layer, dW, db, lr, t)
                    delta = new_delta
        return self


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


def cgp_mutate(genome, rate: float, rng: np.random.Generator) -> CGPGenome:
    """``CGPGenome.mutate`` drawing through boolean masks, empty
    draws included, and reporting no genes."""
    child = genome.copy()
    n = genome.n_nodes
    flip_f = rng.random(n) < rate
    child.funcs[flip_f] = rng.integers(
        0, len(genome.function_set), size=int(flip_f.sum())
    )
    limits = genome.n_inputs + np.arange(n)
    flip_0 = rng.random(n) < rate
    child.in0[flip_0] = rng.integers(0, limits[flip_0])
    flip_1 = rng.random(n) < rate
    child.in1[flip_1] = rng.integers(0, limits[flip_1])
    if rng.random() < rate:
        child.output = int(rng.integers(0, genome.n_inputs + n))
    nothing_flipped = (
        not flip_f.any() and not flip_0.any() and not flip_1.any()
    )
    if rate > 0 and nothing_flipped:
        node = int(rng.integers(0, n))
        which = rng.integers(0, 3)
        if which == 0:
            child.funcs[node] = rng.integers(0, len(genome.function_set))
        elif which == 1:
            child.in0[node] = rng.integers(0, limits[node])
        else:
            child.in1[node] = rng.integers(0, limits[node])
    return child


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
            child = cgp_mutate(parent, rate, evolver.rng)
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
# Reference helpers: checks and fixtures no entry point runs
# ---------------------------------------------------------------------
def npn_apply(table: int, k: int, perm, phase: int, out_neg: bool) -> int:
    """Apply an NPN transform to ``table``.

    Returns the table ``g`` with ``g(y) = f(x) ^ out_neg`` where
    ``x_i = y[perm[i]] ^ phase_i``; cross-checks ``npn_canon``.
    """
    out = 0
    for m in range(1 << k):
        src = 0
        for i in range(k):
            if ((m >> perm[i]) & 1) ^ ((phase >> i) & 1):
                src |= 1 << i
        if ((table >> src) & 1) ^ int(out_neg):
            out |= 1 << m
    return out


def instantiate(library, sink, table: int, leaves: Sequence[int]) -> int:
    """Realize ``table`` over leaf literals from ``library``'s recipe
    for its NPN class, through ``sink.add_and``; returns the output."""
    recipe, perm, phase, out_neg = lookup(library, table, len(leaves))
    vals: list[int] = [CONST0] * (1 + len(leaves))
    for i, leaf in enumerate(leaves):
        vals[1 + perm[i]] = leaf ^ ((phase >> i) & 1)
    return replay(sink, recipe.nodes, recipe.out ^ out_neg, vals)


def cover_table(cover, k: int) -> int:
    """Truth table over ``k`` variables of an ISOP cover (OR of cubes
    of ``(var, value)`` pairs)."""
    table = 0
    for cube in cover:
        term = full_mask(k)
        for var, value in cube:
            m = var_mask(k, var)
            term &= m if value else ~m & full_mask(k)
        table |= term
    return table


def num_literals(cube) -> int:
    """Bound inputs of a two-level ``Cube``."""
    return bin(cube.mask).count("1")


def contains_cube(outer, inner) -> bool:
    """True if every minterm of cube ``inner`` is in cube ``outer``."""
    if outer.mask & ~inner.mask:
        return False
    return (outer.value ^ inner.value) & outer.mask == 0


def predict_quantized(model, X: np.ndarray) -> np.ndarray:
    """Team 7's leaf quantization of a boosted ensemble: each tree
    votes 1 when its leaf weight is positive, and the majority wins."""
    X = np.asarray(X, dtype=np.uint8)
    if not model.trees:
        return np.zeros(X.shape[0], np.uint8)  # margin 0 predicts 0
    bits = np.stack([tree.predict(X) > 0 for tree in model.trees], axis=1)
    return (bits.sum(axis=1) * 2 >= bits.shape[1]).astype(np.uint8)


def exact_shapley(predict, background: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact Shapley values by subset enumeration (small n only).

    The value of a coalition S is the mean prediction with features in
    S taken from ``x`` and the rest from each background row.
    """
    background = np.asarray(background)
    x = np.asarray(x).ravel()
    n = x.shape[0]
    if n > 12:
        raise ValueError("exact_shapley is exponential; use n <= 12")
    cache: dict[frozenset, float] = {}

    def value(subset) -> float:
        key = frozenset(subset)
        if key not in cache:
            rows = np.array(background, copy=True)
            for feat in subset:
                rows[:, feat] = x[feat]
            cache[key] = float(np.mean(predict(rows)))
        return cache[key]

    values = np.zeros(n)
    for feat in range(n):
        others = [f for f in range(n) if f != feat]
        for size in range(n):
            weight = 1.0 / (n * comb(n - 1, size))
            for subset in combinations(others, size):
                values[feat] += weight * (value(subset + (feat,)) - value(subset))
    return values


def ripple_chain(word_width: int = 4, n_nodes: int = 5000) -> AIG:
    """Deep ripple-carry accumulator: the same input word added into a
    ``word_width``-bit accumulator until ``n_nodes`` ANDs, a carry
    chain thousands of levels deep over few inputs."""
    aig = AIG(2 * word_width)
    lits = aig.input_lits()
    acc, word = lits[:word_width], lits[word_width:]
    while aig.num_ands < n_nodes:
        acc = build.ripple_adder(aig, acc, word)[:word_width]
    for bit in acc:
        aig.set_output(bit)
    return aig


def multiplier_low_bits(k: int, n_bits: int):
    """``(n_inputs, n_outputs, label_fn)`` of the ``n_bits`` least
    significant product bits of a k-bit multiplier, in the spec shape
    ``make_multioutput_problem`` takes."""

    def fn(X: np.ndarray) -> np.ndarray:
        a = rows_to_ints(X[:, :k])
        b = rows_to_ints(X[:, k:])
        out = np.zeros((X.shape[0], n_bits), dtype=np.uint8)
        for r, (av, bv) in enumerate(zip(a, b, strict=True)):
            p = av * bv
            for j in range(n_bits):
                out[r, j] = (p >> j) & 1
        return out

    return 2 * k, n_bits, fn


def parse_metrics_text(text: str) -> dict[str, float]:
    """Parse a ``/metrics`` exposition blob into ``{name{labels}: value}``:
    exact for what ``MetricsRegistry.render`` emits, not a general
    Prometheus parser."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        out[key] = float("inf") if raw == "+Inf" else float(raw)
    return out


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
    node_cuts = pairs(library_cuts(aig, k=k, max_cuts=max_cuts))
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


# ---------------------------------------------------------------------
# The engine passes before they read the cut arrays
# ---------------------------------------------------------------------
# ``rewrite`` priced every cut through ``counting.price`` with the
# library's un-folded recipe and NPN transform, over ``(cut, table)``
# tuples; ``refactor`` priced single-node cones too; ``compile_sop``
# reduced through ``GateOps._reduce_balanced``.
def pairs(cuts) -> dict[int, list[tuple[Cut, int]]]:
    """``{var: [(cut, table), ...]}`` in kept order, from the arrays
    ``repro.aig.cuts.enumerate_cuts_with_truths`` returns."""
    out = {}
    for var in range(len(cuts.start) - 1):
        out[var] = [
            (tuple(cuts.leaves[c, : cuts.sizes[c]].tolist()),
             int.from_bytes(cuts.tables[c].tobytes(), "little"))
            for c in range(cuts.start[var], cuts.start[var + 1])
        ]
    return out


def lookup(library, table: int, k: int) -> tuple[Recipe, tuple[int, ...], int, bool]:
    """``(recipe, perm, phase, out_neg)`` realizing a ``k``-input table.

    Canonical input ``perm[i]`` is driven by leaf ``i``, complemented
    when bit ``i`` of ``phase`` is set, and the recipe's output is
    complemented when ``out_neg`` is set.  The constant tables map to
    an empty recipe.
    """
    fm = full_mask(k)
    table &= fm
    if table == 0 or table == fm:
        return Recipe(k, (), CONST0, 0), tuple(range(k)), 0, table == fm
    ctable, perm, phase, out_neg = npn_canon(table, k)
    return library.recipe(ctable, k), perm, phase, out_neg


def rewrite(aig: AIG) -> AIG:
    """Cut rewriting that prices each cut with ``counting.price``."""
    node_cuts = pairs(library_cuts(aig, k=MAX_NPN_VARS, max_cuts=8))
    library = get_library()
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
            mapping[var] = new.add_and(ma, mb)
            continue
        best_cost = 1  # the direct build
        best = None
        next_var = new.num_vars
        for cut, table in node_cuts[var]:
            n = len(cut)
            if n < 2:
                continue
            recipe, perm, phase, out_neg = lookup(library, table, n)
            vals = [CONST0] * (1 + n)
            for i, leaf in enumerate(cut):
                vals[1 + perm[i]] = mapping[leaf] ^ ((phase >> i) & 1)
            program = (recipe.nodes, recipe.out ^ out_neg)
            priced = price(*program, vals, strash, next_var, best_cost - 1)
            if priced is not None and priced[0] < best_cost:
                best_cost = priced[0]
                best = (program, vals)
                if best_cost == 0:
                    break
        if best is None:
            mapping[var] = new.add_and(ma, mb)
        else:
            program, vals = best
            mapping[var] = replay(new, *program, vals)
    for lit in aig.outputs:
        new.set_output(_map_lit(mapping, lit))
    return new.extract_cone()


def refactor(aig: AIG, max_leaves: int = 10) -> AIG:
    """MFFC cone resynthesis that prices every cone of 2+ leaves."""
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


def compile_sop(cover, k: int) -> Program:
    """Compile an OR of cube-ANDs over ``k`` leaves into an AND
    program through ``GateOps._reduce_balanced`` and two closures."""
    nodes: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}

    def conj(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        lit = index.get(key)
        if lit is None:
            nodes.append(key)
            lit = index[key] = 2 * (k + len(nodes))
        return lit

    def disj(a: int, b: int) -> int:
        return conj(a ^ 1, b ^ 1) ^ 1

    terms = [
        GateOps._reduce_balanced(
            [2 + 2 * var + (value ^ 1) for var, value in cube], conj, CONST1
        )
        for cube in cover
    ]
    out = GateOps._reduce_balanced(terms, disj, CONST0)
    return tuple(nodes), out


# ---------------------------------------------------------------------
# Sampled-data fingerprints
# ---------------------------------------------------------------------
def dataset_fingerprint(
    benchmark: int | str,
    n_train: int,
    n_valid: int,
    n_test: int,
    master_seed: int = 0,
) -> str:
    """SHA-256 over a problem's sampled bytes (split-order sensitive).

    Identical fingerprints across processes prove the parallel runner's
    workers see exactly the data a serial run would have seen.
    """
    spec = TaskSpec(
        benchmark=benchmark, flow="-", seed=master_seed,
        n_train=n_train, n_valid=n_valid, n_test=n_test,
    )
    problem = make_task_problem(spec)
    digest = hashlib.sha256()
    for ds in (problem.train, problem.valid, problem.test):
        digest.update(np.ascontiguousarray(ds.X).tobytes())
        digest.update(np.ascontiguousarray(ds.y).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------
# Approximation: counting ones on the variable-order value matrix
# ---------------------------------------------------------------------
def approximate_to_size(
    aig: AIG,
    max_ands: int,
    rng: np.random.Generator | None = None,
    patterns: np.ndarray | None = None,
) -> AIG:
    """Team 1's size reducer popcounting the full value matrix in
    variable order and ranking the candidates with a full stable sort."""
    if rng is None:
        rng = rng_for("approx")
    aig = aig.extract_cone()
    if patterns is not None:
        patterns = np.asarray(patterns, dtype=np.uint8)
        fixed_packed = pack_bits(patterns)
        n_samples = patterns.shape[0]
        pad = n_samples % 64
    n_words = 4096 // 64
    while aig.num_ands > max_ands:
        if patterns is not None:
            values = aig.simulate_packed_all(fixed_packed)
            if pad:
                values[:, -1] &= np.uint64((1 << pad) - 1)
            ones = popcount64(values).sum(axis=1).astype(np.int64)
            total = n_samples
        else:
            packed = rng.integers(
                0, np.iinfo(np.uint64).max, size=(aig.n_inputs, n_words),
                dtype=np.uint64, endpoint=True,
            )
            values = aig.simulate_packed_all(packed)
            ones = popcount64(values).sum(axis=1).astype(np.int64)
            total = n_words * 64
        levels = aig.levels()
        depth = int(levels.max(initial=0))
        base = aig.n_inputs + 1
        margin = 3
        candidates = np.array([], dtype=np.int64)
        while candidates.size == 0 and margin >= 0:
            level_ok = levels[base:] <= depth - margin
            candidates = np.nonzero(level_ok)[0] + base
            margin -= 1
        if candidates.size == 0:
            break
        skew = np.maximum(ones[candidates], total - ones[candidates])
        # Replace a small batch per round, proportional to the excess
        # (Team 1 replaced one node at a time; small batches keep the
        # per-node skew ranking honest while staying fast).
        excess = aig.num_ands - max_ands
        batch = max(1, min(excess, candidates.size, excess // 500 + 1))
        order = np.argsort(-skew, kind="stable")[:batch]
        overrides = {}
        for idx in order:
            var = int(candidates[idx])
            majority_one = ones[var] * 2 >= total
            overrides[var] = CONST1 if majority_one else CONST0
        smaller = substitute_constants(aig, overrides)
        if smaller.num_ands == 0 and aig.num_ands > max(1, max_ands):
            # Catastrophic collapse to a constant: retry one node at a
            # time and keep the first substitution that preserves a
            # non-trivial circuit ("to avoid the result being constant
            # 0 or 1", as Team 1's guard intends).
            smaller = None
            for idx in np.argsort(-skew, kind="stable"):
                var = int(candidates[idx])
                majority_one = ones[var] * 2 >= total
                attempt = substitute_constants(
                    aig, {var: CONST1 if majority_one else CONST0}
                )
                if 0 < attempt.num_ands < aig.num_ands:
                    smaller = attempt
                    break
            if smaller is None:
                break
        if smaller.num_ands >= aig.num_ands:
            break
        aig = smaller
    return aig
