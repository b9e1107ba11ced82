"""Random forests and gradient boosting."""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import RandomForest
from repro.ml.metrics import accuracy
from tests.oracles import predict_quantized


def _problem(rng, n=1500, d=12):
    X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    y = ((X[:, 0] & X[:, 1]) | (X[:, 4] & X[:, 7])).astype(np.uint8)
    return X[:1000], y[:1000], X[1000:], y[1000:]


class TestForest:
    def test_learns_and_generalizes(self, rng):
        X, y, Xt, yt = _problem(rng)
        forest = RandomForest(
            n_trees=9, max_depth=8, feature_fraction=0.8, rng=rng
        ).fit(X, y)
        assert accuracy(yt, forest.predict(Xt)) > 0.95

    def test_even_tree_count_rejected(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=4)

    def test_votes_shape(self, rng):
        X, y, Xt, _ = _problem(rng)
        forest = RandomForest(n_trees=5, rng=rng).fit(X, y)
        votes = forest.votes(Xt)
        assert votes.shape == (Xt.shape[0], 5)
        # Majority of votes equals predict.
        maj = (votes.sum(axis=1) * 2 > 5).astype(np.uint8)
        assert np.array_equal(maj, forest.predict(Xt))

    def test_feature_subsets_recorded(self, rng):
        X, y, _, _ = _problem(rng)
        forest = RandomForest(
            n_trees=3, feature_fraction=0.5, rng=rng
        ).fit(X, y)
        for cols in forest.feature_subsets:
            assert len(cols) == 6
            assert np.all(np.diff(cols) > 0)

    def test_unfitted_forest_raises(self):
        X = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="not fitted"):
            RandomForest(n_trees=3).predict(X)
        with pytest.raises(ValueError, match="not fitted"):
            RandomForest(n_trees=3).votes(X)

    def test_wrong_width_raises(self, rng):
        X, y, Xt, _ = _problem(rng)
        forest = RandomForest(n_trees=3, rng=rng).fit(X, y)
        for bad in (Xt[:, :-1], np.hstack([Xt, Xt[:, :1]])):
            with pytest.raises(ValueError, match="expected 12 features"):
                forest.predict(bad)

    def test_deterministic_with_seed(self, rng):
        X, y, Xt, _ = _problem(rng)
        f1 = RandomForest(n_trees=5, rng=np.random.default_rng(3)).fit(X, y)
        f2 = RandomForest(n_trees=5, rng=np.random.default_rng(3)).fit(X, y)
        assert np.array_equal(f1.predict(Xt), f2.predict(Xt))


class TestBoosting:
    def test_learns_and_generalizes(self, rng):
        X, y, Xt, yt = _problem(rng)
        model = GradientBoostedTrees(n_estimators=40, max_depth=3).fit(X, y)
        assert accuracy(yt, model.predict(Xt)) > 0.95

    def test_margin_monotone_in_rounds(self, rng):
        """More boosting rounds should not hurt training accuracy."""
        X, y, _, _ = _problem(rng)
        few = GradientBoostedTrees(n_estimators=3, max_depth=2).fit(X, y)
        many = GradientBoostedTrees(n_estimators=50, max_depth=2).fit(X, y)
        assert accuracy(y, many.predict(X)) >= accuracy(y, few.predict(X))

    def test_quantized_vote_close_to_exact(self, rng):
        X, y, Xt, yt = _problem(rng)
        model = GradientBoostedTrees(n_estimators=31, max_depth=3).fit(X, y)
        exact = accuracy(yt, model.predict(Xt))
        quant = accuracy(yt, predict_quantized(model, Xt))
        assert quant > exact - 0.1

    def test_learns_xor_unlike_single_shallow_tree(self, rng):
        X = rng.integers(0, 2, size=(2000, 6)).astype(np.uint8)
        y = (X[:, 0] ^ X[:, 1]).astype(np.uint8)
        model = GradientBoostedTrees(n_estimators=40, max_depth=3).fit(
            X[:1500], y[:1500]
        )
        assert accuracy(y[1500:], model.predict(X[1500:])) > 0.95

