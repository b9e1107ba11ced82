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

    def _impurity(self, pos, total):
        fn = entropy if self.criterion == "entropy" else gini
        return fn(pos, total)

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
