"""Random forests of binary decision trees.

The contest teams used forests with a plain majority vote (not
probability averaging) because a majority gate is cheap in an AIG:
Team 8 used 17 trees of depth 8, Team 5 used 3 trees to stay inside
the 5000-gate cap.  Each tree sees a bootstrap sample and a random
feature subset, per Breiman.
"""

from __future__ import annotations

import numpy as np

from repro.ml.decision_tree import DecisionTree, route


class RandomForest:
    """Bagged decision trees with majority voting."""

    def __init__(
        self,
        n_trees: int = 17,
        max_depth: int | None = 8,
        feature_fraction: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        if n_trees % 2 == 0:
            raise ValueError("use an odd tree count so the vote cannot tie")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.feature_fraction = feature_fraction
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.trees: list[DecisionTree] = []
        self.feature_subsets: list[np.ndarray] = []
        self.n_inputs: int | None = None
        self._routing: tuple | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        self.n_inputs = X.shape[1]
        self.trees = []
        self.feature_subsets = []
        n = X.shape[0]
        n_features = X.shape[1]
        if self.feature_fraction is None:
            k = max(1, int(round(np.sqrt(n_features))))
        else:
            k = max(1, int(round(self.feature_fraction * n_features)))
        for _ in range(self.n_trees):
            idx = self.rng.integers(0, n, size=n)
            cols = np.sort(
                self.rng.choice(n_features, size=min(k, n_features),
                                replace=False)
            )
            tree = DecisionTree(max_depth=self.max_depth)
            tree.fit(X[np.ix_(idx, cols)], y[idx])
            self.trees.append(tree)
            self.feature_subsets.append(cols)
        self._routing = self._concatenated_routes()
        return self

    def _concatenated_routes(self) -> tuple:
        """Every tree's routing arrays, concatenated, and each tree's
        root: split features are mapped through the tree's feature
        subset and children offset by the tree's root."""
        feature, left, right, value, depth = zip(
            *(tree._routes() for tree in self.trees), strict=True
        )
        roots = np.cumsum([0] + [len(f) for f in feature[:-1]])
        routes = (
            np.concatenate([cols[f] for cols, f in
                            zip(self.feature_subsets, feature, strict=True)]),
            np.concatenate([c + r for c, r in zip(left, roots, strict=True)]),
            np.concatenate([c + r for c, r in zip(right, roots, strict=True)]),
            np.concatenate(value),
            max(depth),
        )
        return routes, roots

    def votes(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_samples, n_trees)``.

        All trees route together on the full ``X`` through the routing
        arrays ``fit`` concatenated, so no per-tree column copy is made.
        """
        if self._routing is None:
            raise ValueError("forest is not fitted")
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} features, got {X.shape[1]}"
            )
        return route(X, *self._routing)

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = self.votes(X)
        return (votes.sum(axis=1) * 2 > self.n_trees).astype(np.uint8)
