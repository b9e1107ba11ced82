"""Second-order gradient boosting of regression trees (XGBoost role).

Team 7's non-matching path trains "an extreme gradient boosting of 125
trees with a maximum depth of five" and then quantizes each leaf to one
bit so the ensemble becomes a majority vote realizable with MAJ-5
gates.  This module implements the Chen & Guestrin formulation for
binary logistic loss on binary features: per-split gain

    gain = 1/2 * [GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)]

with leaf weight ``-G/(H+lam)``, ``lam`` = :data:`REG_LAMBDA`, and a
0.5 base score (margin 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: L2 regularization of the leaf weights (``lam`` above).
REG_LAMBDA = 1.0
#: Smallest hessian sum a split may leave on either side.
MIN_CHILD_WEIGHT = 1e-3
#: Shrinkage applied to each tree's output.
LEARNING_RATE = 0.3


@dataclass
class _RegNode:
    feature: int = -1
    left: int = -1
    right: int = -1
    weight: float = 0.0
    is_leaf: bool = True


class _RegressionTree:
    """Depth-limited tree fit to (gradient, hessian) statistics."""

    def __init__(self, max_depth: int):
        self.max_depth = max_depth
        self.nodes: list[_RegNode] = []

    def fit(self, X, grad, hess):
        self.nodes = []
        self._grow(X, grad, hess, np.arange(X.shape[0]), 0)
        return self

    def _grow(self, X, grad, hess, idx, depth) -> int:
        node_id = len(self.nodes)
        g = float(grad[idx].sum())
        h = float(hess[idx].sum())
        node = _RegNode(weight=-g / (h + REG_LAMBDA))
        self.nodes.append(node)
        if depth >= self.max_depth or idx.size < 2:
            return node_id
        feature, gain = self._best_split(X, grad, hess, idx, g, h)
        if feature is None or gain <= 0:
            return node_id
        mask = X[idx, feature] == 1
        left_idx, right_idx = idx[~mask], idx[mask]
        node.feature = feature
        node.is_leaf = False
        node.left = self._grow(X, grad, hess, left_idx, depth + 1)
        node.right = self._grow(X, grad, hess, right_idx, depth + 1)
        return node_id

    def _best_split(self, X, grad, hess, idx, g, h) -> tuple[int | None, float]:
        Xn = X[idx].astype(np.float64)
        gn = grad[idx]
        hn = hess[idx]
        g_right = gn @ Xn            # sum of grads where feature = 1
        h_right = hn @ Xn
        g_left = g - g_right
        h_left = h - h_right
        lam = REG_LAMBDA
        parent = g * g / (h + lam)
        gains = 0.5 * (
            g_left**2 / (h_left + lam)
            + g_right**2 / (h_right + lam)
            - parent
        )
        bad = (h_left < MIN_CHILD_WEIGHT) | (h_right < MIN_CHILD_WEIGHT)
        gains = np.where(bad, -np.inf, gains)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]):
            return None, 0.0
        return best, float(gains[best])

    def predict(self, X) -> np.ndarray:
        out = np.zeros(X.shape[0], dtype=np.float64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node_id, idx = stack.pop()
            if idx.size == 0:
                continue
            node = self.nodes[node_id]
            if node.is_leaf:
                out[idx] = node.weight
                continue
            mask = X[idx, node.feature] == 1
            stack.append((node.left, idx[~mask]))
            stack.append((node.right, idx[mask]))
        return out


class GradientBoostedTrees:
    """Boosted ensemble with logistic loss on binary features."""

    def __init__(
        self,
        n_estimators: int = 125,
        max_depth: int = 5,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.trees: list[_RegressionTree] = []
        self.n_inputs: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.float64).ravel()
        self.n_inputs = X.shape[1]
        self.trees = []
        margin = np.zeros(X.shape[0])
        for _ in range(self.n_estimators):
            p = 1.0 / (1.0 + np.exp(-margin))
            grad = p - y
            hess = p * (1.0 - p)
            tree = _RegressionTree(self.max_depth)
            tree.fit(X, grad, hess)
            step = tree.predict(X)
            if not np.any(step):
                break
            margin = margin + LEARNING_RATE * step
            self.trees.append(tree)
        return self

    def decision_margin(self, X: np.ndarray) -> np.ndarray:
        """Raw log-odds margin (sum of leaf values)."""
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[None, :]
        margin = np.zeros(X.shape[0])
        for tree in self.trees:
            margin += LEARNING_RATE * tree.predict(X)
        return margin

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_margin(X) > 0).astype(np.uint8)
