"""C4.5-style decision trees on binary features.

This single implementation covers the roles the contest teams filled
with WEKA's J48 (Team 2), scikit-learn's CART (Teams 5 and 10) and two
custom C4.5 variants (Teams 3 and 8):

* information-gain or gini splitting on 0/1 features;
* depth / minimum-samples stopping (`max_depth`, `min_samples_leaf`);
* C4.5 *confidence-factor* (pessimistic error) subtree pruning, the
  knob Team 2 sweeps over {0.001, 0.01, 0.1, 0.25, 0.5};
* Team 8's *functional decomposition* fallback: when the best mutual
  information is below a threshold ``tau``, split instead on a feature
  for which one branch looks constant or one branch looks like the
  complement of the other (checked aggressively: assumed true until a
  counterexample is found, picking the last satisfying feature, as in
  their contest implementation).

Trees expose their structure (`nodes` array) so the synthesis bridges
can turn them into MUX-tree AIGs or path covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betaincinv

from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube
from repro.utils.bitops import pack_bits, unpack_bits

_EPS = 1e-12
#: Words of one chunk of the level-wise split counts (per feature,
#: frontier node and packed row word); bounds their scratch memory.
_COUNT_WORDS = 1 << 16


def entropy(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Binary entropy of ``pos`` successes out of ``total`` (vectorized)."""
    total = np.maximum(total, _EPS)
    # Bitwise the same as ``np.clip``, without its dispatch overhead.
    p = np.minimum(np.maximum(pos / total, _EPS), 1 - _EPS)
    return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))


def gini(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gini impurity (vectorized)."""
    total = np.maximum(total, _EPS)
    p = pos / total
    return 2 * p * (1 - p)


@dataclass
class TreeNode:
    """One node; leaves have ``feature == -1``."""

    feature: int = -1
    left: int = -1   # child when feature value is 0
    right: int = -1  # child when feature value is 1
    value: int = 0   # majority label (used when leaf)
    n_samples: int = 0
    n_errors: int = 0  # training errors if this node were a leaf
    is_leaf: bool = True


class DecisionTree:
    """Binary-feature classification tree.

    Parameters
    ----------
    max_depth:
        Depth cap; ``None`` grows until purity (Team 7's "unlimited").
    min_samples_leaf:
        Minimum samples to keep splitting (WEKA's ``-M``).
    criterion:
        ``"entropy"`` (C4.5/J48) or ``"gini"`` (CART).
    min_gain:
        Minimum impurity gain to accept a split.
    decomposition_tau:
        When set, enables Team 8's functional-decomposition fallback
        for splits whose best gain is below this threshold.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        criterion: str = "entropy",
        min_gain: float = 1e-9,
        decomposition_tau: float | None = None,
    ):
        if criterion not in ("entropy", "gini"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.min_gain = min_gain
        self.decomposition_tau = decomposition_tau
        self.nodes: list[TreeNode] = []
        self.n_inputs: int | None = None
        # Routing arrays for predict; built on first use, dropped by
        # fit and prune.
        self._routing: tuple | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        """Grow the tree one level at a time.

        Node sample sets are bit masks over the rows, and split counts
        are popcounts of column AND mask: no per-node copy.  Every
        frontier node of a level is counted and scored together; the
        nodes are then numbered in depth-first preorder, left child
        first, as a recursive grower would number them.
        """
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X/y length mismatch")
        n_rows, d = X.shape
        self.n_inputs = d
        self._routing = None
        # ``cols[1]`` keeps only the positive rows of ``cols[0]``.
        cols = pack_bits(X).T  # (n_words, n_features)
        cols = np.stack([cols, cols & pack_bits(y[:, None]).T])
        # The frontier: row masks, row and positive counts, and the
        # features already used on each node's path (re-splitting a
        # binary feature is useless).
        masks = pack_bits(np.ones((n_rows, 1), dtype=np.uint8))
        n = np.array([n_rows], dtype=np.int64)
        n_pos = np.array([int(y.sum())], dtype=np.int64)
        banned = np.zeros((1, d), dtype=bool)
        levels = []
        depth = 0
        while n.size:
            feature = np.full(n.size, -1, dtype=np.int64)
            if self.max_depth is None or depth < self.max_depth:
                grow = np.flatnonzero(
                    (n_pos != 0) & (n_pos != n)
                    & (n >= max(2, 2 * self.min_samples_leaf))
                )
                if grow.size:
                    feature[grow], n_right, pos_right = self._split_level(
                        X, y, cols, masks[grow], n[grow], n_pos[grow],
                        banned[grow],
                    )
            levels.append((n, n_pos, feature))
            split = np.flatnonzero(feature >= 0)
            if not split.size:
                break
            chosen = feature[split]
            column = cols[0].T[chosen]
            parent = masks[split]
            # Children in split order, the left (feature 0) one first.
            masks = np.stack([parent & ~column, parent & column], axis=1)
            masks = masks.reshape(-1, masks.shape[-1])
            n = np.stack([n[split] - n_right, n_right], axis=1).ravel()
            n_pos = np.stack([n_pos[split] - pos_right, pos_right],
                             axis=1).ravel()
            banned = np.repeat(banned[split], 2, axis=0)
            banned[np.arange(n.size), np.repeat(chosen, 2)] = True
            depth += 1
        self.nodes = _preorder(levels)
        return self

    def _impurity(self, pos, total):
        fn = entropy if self.criterion == "entropy" else gini
        return fn(pos, total)

    def _split_level(self, X, y, cols, masks, n, n_pos, banned):
        """The split feature of every node in one frontier (``-1``
        keeps the node a leaf), and for each split made, in frontier
        order, the rows and positive rows its right child gets.

        The counts are bounded by chunking the frontier.  The parent
        and both sides of every split go through one impurity call;
        it is elementwise, so each value is the one a separate call
        per node would give.
        """
        n_nodes, d = banned.shape
        chunk = max(1, _COUNT_WORDS // (masks.shape[1] * d))
        ones = np.empty((n_nodes, d), dtype=np.int64)
        pos_ones = np.empty((n_nodes, d), dtype=np.int64)
        for lo in range(0, n_nodes, chunk):
            part = masks[lo:lo + chunk, :, None]
            ones[lo:lo + chunk], pos_ones[lo:lo + chunk] = np.bitwise_count(
                cols[:, None] & part).sum(axis=2)
        total = n.astype(np.float64)[:, None]
        total_pos = n_pos.astype(np.float64)[:, None]
        ones_f = ones.astype(np.float64)
        pos_f = pos_ones.astype(np.float64)
        zeros = total - ones_f
        pos_zeros = total_pos - pos_f
        impurity = self._impurity(
            np.concatenate([pos_f, pos_zeros, total_pos], axis=1),
            np.concatenate([ones_f, zeros, total], axis=1),
        )
        child = (ones_f / total * impurity[:, :d]
                 + zeros / total * impurity[:, d:-1])
        gains = impurity[:, -1:] - child
        # A split is useless if one side is empty or the feature was
        # already used on this path.
        gains[(ones == 0) | (zeros == 0) | banned] = -np.inf
        rows = np.arange(n_nodes)
        feature = np.argmax(gains, axis=1)
        gain = gains[rows, feature]
        found = np.isfinite(gain)
        # Team 8's fallback replaces weak splits, and the gain floor
        # does not apply to them.
        weak = np.zeros(n_nodes, dtype=bool)
        if self.decomposition_tau is not None:
            weak = found & (gain < self.decomposition_tau)
        accept = found & (weak | ~(gain < self.min_gain))
        for i in np.flatnonzero(weak).tolist():
            idx = np.flatnonzero(unpack_bits(masks[i], X.shape[0])[:, 0])
            alt = self._decomposition_split(X, y, idx, banned[i])
            if alt is not None:
                feature[i] = alt
        n_right = ones[rows, feature]
        pos_right = pos_ones[rows, feature]
        accept &= ((n - n_right >= self.min_samples_leaf)
                   & (n_right >= self.min_samples_leaf))
        feature[~accept] = -1
        return feature, n_right[accept], pos_right[accept]

    def _decomposition_split(self, X, y, idx, banned) -> int | None:
        """Team 8's fallback: constant branch or complement branches.

        Checked aggressively (complement assumed until a counterexample
        is seen) and picking the *last* satisfying feature, both
        matching the behaviour their write-up describes.
        """
        Xn = X[idx]
        yn = y[idx]
        chosen = None
        for feature in range(X.shape[1]):
            if banned[feature]:
                continue
            mask = Xn[:, feature] == 1
            y0, y1 = yn[~mask], yn[mask]
            if len(y0) == 0 or len(y1) == 0:
                continue
            constant = (
                y0.min() == y0.max() or y1.min() == y1.max()
            )
            if constant or self._looks_complement(Xn, yn, feature):
                chosen = feature
        return chosen

    @staticmethod
    def _looks_complement(Xn, yn, feature) -> bool:
        """True unless a counterexample to branch-complementarity exists.

        Two samples that agree on every feature except ``feature``
        must have opposite labels for the branches to be complements.
        Rows are grouped by their other features, and each row is
        checked against the *first* row of its group — the check the
        row-at-a-time scan made, so duplicate rows count the same.
        """
        keys = np.array(Xn, order="C")
        side = keys[:, feature].copy()
        keys[:, feature] = 0
        # One opaque bytes value per row: np.unique sorts these by
        # memcmp, far faster than its row-wise ``axis=0`` mode.
        width = keys.shape[1] * keys.itemsize
        rows = keys.view(np.dtype((np.void, width))).ravel()
        _, first, group = np.unique(rows, return_index=True, return_inverse=True)
        lead = first[group]
        return not np.any((side != side[lead]) & (yn == yn[lead]))

    # ------------------------------------------------------------------
    # C4.5 confidence-factor pruning
    # ------------------------------------------------------------------
    def prune(self, confidence_factor: float = 0.25) -> "DecisionTree":
        """Pessimistic-error subtree replacement (J48's ``-C``).

        Smaller confidence factors prune more aggressively.
        """
        if not self.nodes:
            return self
        self._routing = None
        self._prune_rec(0, confidence_factor)
        return self

    def _prune_rec(self, node_id: int, cf: float) -> float:
        """Returns the estimated error count of the (pruned) subtree."""
        node = self.nodes[node_id]
        leaf_error = _pessimistic_errors(node.n_samples, node.n_errors, cf)
        if node.is_leaf:
            return leaf_error
        subtree_error = self._prune_rec(node.left, cf) + self._prune_rec(
            node.right, cf
        )
        if leaf_error <= subtree_error + 0.1:
            node.is_leaf = True
            node.feature = -1
            node.left = -1
            node.right = -1
            return leaf_error
        return subtree_error

    # ------------------------------------------------------------------
    # Prediction and export
    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        routes = self._routes()
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[None, :]
        # Routing reads a flattened X, so a narrower X would be read
        # past its rows; extra columns are never tested and are ignored.
        if X.shape[1] < self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} features, got {X.shape[1]}"
            )
        return route(X, routes, np.zeros(1, dtype=np.intp))[:, 0]

    def _routes(self) -> tuple:
        """The compiled routing arrays, built on first use."""
        if not self.nodes:
            raise ValueError("tree is not fitted")
        if self._routing is None:
            self._routing = self._compile_routing()
        return self._routing

    def _compile_routing(self) -> tuple:
        """Per-node split feature, children and leaf value, plus depth.

        A leaf tests feature 0 and has itself as both children, so
        rows that reach it early stay there; the depth of the
        reachable tree is the number of routing steps.
        """
        n = len(self.nodes)
        feature = np.zeros(n, dtype=np.intp)
        left = np.arange(n, dtype=np.intp)
        right = left.copy()
        value = np.zeros(n, dtype=np.uint8)
        depth = 0
        stack = [(0, 0)]
        while stack:
            node_id, level = stack.pop()
            node = self.nodes[node_id]
            value[node_id] = node.value
            if node.is_leaf:
                depth = max(depth, level)
                continue
            feature[node_id] = node.feature
            left[node_id], right[node_id] = node.left, node.right
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
        return feature, left, right, value, depth

    def depth(self) -> int:
        """Maximum root-to-leaf edge count."""
        if not self.nodes:
            return 0

        def rec(node_id):
            node = self.nodes[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(0)

    def num_leaves(self) -> int:
        """Count of leaves reachable from the root (after pruning)."""
        count = 0
        stack = [0] if self.nodes else []
        while stack:
            node = self.nodes[stack.pop()]
            if node.is_leaf:
                count += 1
            else:
                stack.append(node.left)
                stack.append(node.right)
        return count

    def to_cover(self) -> Cover:
        """Cover of root-to-leaf paths ending in a 1-leaf (DT -> PLA).

        This is exactly Team 2's ``j48topla`` conversion.
        """
        if self.n_inputs is None:
            raise RuntimeError("tree is not fitted")
        cubes: list[Cube] = []

        def rec(node_id: int, path: list[tuple[int, int]]):
            node = self.nodes[node_id]
            if node.is_leaf:
                if node.value == 1:
                    cubes.append(Cube.from_literals(path))
                return
            rec(node.left, path + [(node.feature, 0)])
            rec(node.right, path + [(node.feature, 1)])

        rec(0, [])
        return Cover(self.n_inputs, cubes)


def _preorder(levels) -> list[TreeNode]:
    """Tree nodes from level-by-level frontiers, in depth-first preorder.

    ``levels`` holds each frontier's row counts, positive counts and
    split features (``-1`` for a leaf).  The children of a level's
    k-th split node are the next level's nodes ``2k`` and ``2k + 1``.
    """
    # (rows, positive rows, feature, level-order index of the left child)
    flat = []
    for n, n_pos, feature in levels:
        child = len(flat) + n.size
        for count, pos, feat in zip(n.tolist(), n_pos.tolist(),
                                    feature.tolist(), strict=True):
            flat.append((count, pos, feat, child))
            if feat >= 0:
                child += 2
    # A left child follows its parent; a right child is numbered when
    # the walk reaches it, after the left subtree.
    nodes: list[TreeNode] = []
    stack: list[tuple[int, TreeNode | None]] = [(0, None)]
    while stack:
        i, parent = stack.pop()
        if parent is not None:
            parent.right = len(nodes)
        count, pos, feat, child = flat[i]
        node = TreeNode(feat, len(nodes) + 1 if feat >= 0 else -1, -1,
                        1 if 2 * pos > count else 0, count,
                        min(pos, count - pos), feat < 0)
        nodes.append(node)
        if feat >= 0:
            stack.append((child + 1, node))
            stack.append((child, None))
    return nodes

def route(X, routes: tuple, roots: np.ndarray) -> np.ndarray:
    """Leaf values reached by every row of ``X`` from every root node.

    ``routes`` is ``(feature, left, right, value, depth)`` as
    :meth:`DecisionTree._compile_routing` builds it, possibly for many
    trees concatenated; the result has shape ``(n_rows, len(roots))``.
    One step per level; leaves route to themselves.  ``X`` must be at
    least as wide as the largest split feature.
    """
    feature, left, right, value, depth = routes
    n, d = X.shape
    flat = np.ascontiguousarray(X).ravel()
    base = (np.arange(n) * d)[:, None]
    # Child of node i on bit b is children[2 * i + b].
    children = np.stack([left, right], axis=1).ravel()
    node = np.broadcast_to(roots, (n, len(roots)))
    for _ in range(depth):
        bit = flat.take(base + feature.take(node)) == 1
        node = children.take(2 * node + bit)
    return value.take(node)


@lru_cache(maxsize=1 << 14)
def _pessimistic_errors(n: int, errors: int, cf: float) -> float:
    """C4.5 upper confidence bound on errors at a node.

    Uses the Clopper-Pearson upper bound on the binomial error rate at
    confidence level ``cf`` (J48's ``CF`` parameter), scaled by ``n``.
    ``betaincinv`` returns the same beta quantile as
    ``scipy.stats.beta.ppf``, bit for bit, without the cost of
    importing ``scipy.stats``.
    """
    if n == 0:
        return 0.0
    if errors >= n:
        return float(n)
    upper = betaincinv(errors + 1, n - errors, 1 - cf)
    return float(n * upper)
