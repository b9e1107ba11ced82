"""C4.5-style decision tree: fitting, pruning, export."""

import numpy as np
import pytest

from repro.ml.decision_tree import DecisionTree, _pessimistic_errors, entropy
from repro.ml.metrics import accuracy


def _make(rng, fn, n=800, d=8):
    X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    return X, fn(X).astype(np.uint8)


class TestFitting:
    def test_learns_conjunction(self, rng):
        X, y = _make(rng, lambda X: X[:, 0] & X[:, 3])
        tree = DecisionTree().fit(X, y)
        Xt, yt = _make(rng, lambda X: X[:, 0] & X[:, 3], n=300)
        assert accuracy(yt, tree.predict(Xt)) == 1.0

    def test_learns_disjunction_with_gini(self, rng):
        X, y = _make(rng, lambda X: X[:, 1] | X[:, 2])
        tree = DecisionTree(criterion="gini").fit(X, y)
        assert accuracy(y, tree.predict(X)) == 1.0

    def test_depth_limit_respected(self, rng):
        X, y = _make(rng, lambda X: X[:, 0] ^ X[:, 1] ^ X[:, 2])
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_min_samples_controls_growth(self, rng):
        X, y = _make(rng, lambda X: (X.sum(axis=1) % 3 == 0))
        big = DecisionTree(min_samples_leaf=1).fit(X, y)
        small = DecisionTree(min_samples_leaf=50).fit(X, y)
        assert small.num_leaves() < big.num_leaves()

    def test_pure_node_is_leaf(self):
        X = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        y = np.array([1, 1, 1], dtype=np.uint8)
        tree = DecisionTree().fit(X, y)
        assert tree.num_leaves() == 1
        assert tree.predict(X).tolist() == [1, 1, 1]

    def test_predict_rejects_narrow_width(self, rng):
        # Routing reads a flattened X, so a narrower X must not be
        # indexed past its rows.
        X, y = _make(rng, lambda X: X[:, 0] & X[:, 7])
        tree = DecisionTree().fit(X, y)
        with pytest.raises(ValueError, match="expected 8 features"):
            tree.predict(X[:, :7])

    def test_predict_ignores_extra_columns(self, rng):
        X, y = _make(rng, lambda X: X[:, 0] & X[:, 7])
        tree = DecisionTree().fit(X, y)
        wide = np.hstack([X, 1 - X[:, :3]])
        assert tree.predict(wide).tolist() == tree.predict(X).tolist()

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree(criterion="mse")

    def test_feature_not_reused_on_path(self, rng):
        X, y = _make(rng, lambda X: X[:, 0])
        tree = DecisionTree().fit(X, y)
        # One split suffices; reusing x0 would be useless anyway.
        assert tree.num_leaves() == 2

    def test_xor_fails_shallow_succeeds_deep(self, rng):
        """The paper's Team 8 example: XOR confuses greedy gain."""
        X, y = _make(rng, lambda X: X[:, 0] ^ X[:, 1], n=2000, d=4)
        deep = DecisionTree().fit(X, y)
        assert accuracy(y, deep.predict(X)) == 1.0


class TestPruning:
    def test_pessimistic_error_bounds(self):
        # Zero observed errors still yield a positive pessimistic count.
        assert _pessimistic_errors(100, 0, 0.25) > 0
        # More confidence (smaller cf) -> larger estimate.
        assert _pessimistic_errors(100, 5, 0.01) > _pessimistic_errors(
            100, 5, 0.5
        )
        assert _pessimistic_errors(10, 10, 0.25) == 10.0
        assert _pessimistic_errors(0, 0, 0.25) == 0.0

    def test_pruning_shrinks_noisy_tree(self, rng):
        X = rng.integers(0, 2, size=(600, 10)).astype(np.uint8)
        y = (X[:, 0] & X[:, 1]).astype(np.uint8)
        noise = rng.random(600) < 0.15
        y_noisy = y ^ noise.astype(np.uint8)
        tree = DecisionTree().fit(X, y_noisy)
        before = tree.num_leaves()
        tree.prune(0.25)
        assert tree.num_leaves() < before

    def test_aggressive_cf_prunes_more(self, rng):
        X = rng.integers(0, 2, size=(600, 10)).astype(np.uint8)
        y = ((X[:, 0] | X[:, 1]) ^ (rng.random(600) < 0.2)).astype(np.uint8)
        loose = DecisionTree().fit(X, y)
        tight = DecisionTree().fit(X, y)
        loose.prune(0.5)
        tight.prune(0.001)
        assert tight.num_leaves() <= loose.num_leaves()

    def test_pruned_tree_still_predicts(self, rng):
        X = rng.integers(0, 2, size=(500, 8)).astype(np.uint8)
        y = (X[:, 2] | (X[:, 3] & X[:, 4])).astype(np.uint8)
        tree = DecisionTree().fit(X, y)
        tree.prune(0.25)
        assert accuracy(y, tree.predict(X)) > 0.9


class TestFunctionalDecomposition:
    def test_fallback_triggers_on_low_gain(self, rng):
        """XOR of two features has ~zero single-feature gain at the
        root; the decomposition split must still pick a relevant
        feature (complement-branch test)."""
        X = rng.integers(0, 2, size=(1500, 6)).astype(np.uint8)
        y = (X[:, 4] ^ X[:, 5]).astype(np.uint8)
        plain = DecisionTree(max_depth=2).fit(X, y)
        decomp = DecisionTree(max_depth=2, decomposition_tau=0.05).fit(X, y)
        assert accuracy(y, decomp.predict(X)) >= accuracy(
            y, plain.predict(X)
        )


class TestExport:
    def test_cover_matches_predictions(self, rng):
        X = rng.integers(0, 2, size=(400, 7)).astype(np.uint8)
        y = ((X[:, 0] & X[:, 1]) | (X[:, 5] & ~X[:, 6] & 1)).astype(np.uint8)
        tree = DecisionTree(max_depth=6).fit(X, y)
        cover = tree.to_cover()
        assert np.array_equal(cover.evaluate(X), tree.predict(X))

    def test_cover_requires_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTree().to_cover()

    def test_entropy_vectorized(self):
        vals = entropy(np.array([0.0, 5.0, 10.0]), np.array([10.0] * 3))
        assert vals[0] == pytest.approx(0.0, abs=1e-6)
        assert vals[1] == pytest.approx(1.0)
        assert vals[2] == pytest.approx(0.0, abs=1e-6)
