"""Feature selection scores and Shapley attribution."""

import numpy as np
import pytest

from repro.ml.feature_select import (
    chi2_scores,
    f_classif_scores,
    mutual_info_scores,
    permutation_importance,
    select_k_best,
    select_percentile,
)
from repro.ml.shap import mean_abs_shapley, sampling_shapley
from tests.oracles import exact_shapley


def _relevant_problem(rng, n=2000, d=10):
    X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    y = ((X[:, 2] & X[:, 5]) | X[:, 8]).astype(np.uint8)
    return X, y


class TestScores:
    @pytest.mark.parametrize(
        "scorer", [chi2_scores, f_classif_scores, mutual_info_scores]
    )
    def test_relevant_features_score_higher(self, rng, scorer):
        X, y = _relevant_problem(rng)
        scores = scorer(X, y)
        relevant = {2, 5, 8}
        top3 = set(np.argsort(-scores)[:3].tolist())
        assert len(top3 & relevant) >= 2

    def test_constant_feature_scores_zero_chi2(self, rng):
        X, y = _relevant_problem(rng)
        X[:, 0] = 0
        assert chi2_scores(X, y)[0] == 0.0

    def test_mutual_info_nonnegative(self, rng):
        X, y = _relevant_problem(rng)
        assert (mutual_info_scores(X, y) >= -1e-9).all()

    def test_select_k_best_sorted_indices(self, rng):
        X, y = _relevant_problem(rng)
        idx = select_k_best(X, y, 4)
        assert np.all(np.diff(idx) > 0)
        assert len(idx) == 4

    def test_select_k_larger_than_d(self, rng):
        X = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
        y = (X[:, 0] | X[:, 1]).astype(np.uint8)
        assert len(select_k_best(X, y, 99)) == 5

    def test_select_percentile(self, rng):
        X, y = _relevant_problem(rng)
        assert len(select_percentile(X, y, 50)) == 5

    def test_permutation_importance_ranks_relevant(self, rng):
        X, y = _relevant_problem(rng, n=800)

        def predict(mat):
            return ((mat[:, 2] & mat[:, 5]) | mat[:, 8]).astype(np.uint8)

        imp = permutation_importance(predict, X, y, n_repeats=3, rng=rng)
        top3 = set(np.argsort(-imp)[:3].tolist())
        assert top3 == {2, 5, 8}

    @pytest.mark.parametrize("n_repeats", [0, -1])
    def test_permutation_importance_rejects_no_repeats(self, rng, n_repeats):
        X, y = _relevant_problem(rng)
        with pytest.raises(ValueError, match="n_repeats"):
            permutation_importance(lambda m: m[:, 2], X, y,
                                   n_repeats=n_repeats, rng=rng)


class TestShapley:
    def test_sampled_matches_exact_linear(self, rng):
        background = rng.integers(0, 2, size=(50, 5)).astype(np.uint8)

        def f(mat):
            return 2.0 * mat[:, 0] - 1.0 * mat[:, 3]

        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        exact = exact_shapley(f, background, x)
        sampled = sampling_shapley(f, background, x,
                                   n_permutations=300, rng=rng)
        assert np.allclose(exact, sampled, atol=0.15)

    def test_efficiency_property(self, rng):
        """Shapley values sum to f(x) - E[f(background)]."""
        background = rng.integers(0, 2, size=(40, 4)).astype(np.uint8)

        def f(mat):
            return (mat[:, 0] & mat[:, 1]).astype(float) + 0.5 * mat[:, 2]

        x = np.ones(4, dtype=np.uint8)
        values = exact_shapley(f, background, x)
        gap = float(f(x[None, :])[0]) - float(np.mean(f(background)))
        assert np.isclose(values.sum(), gap, atol=1e-9)

    def test_irrelevant_feature_gets_zero(self, rng):
        background = rng.integers(0, 2, size=(30, 4)).astype(np.uint8)

        def f(mat):
            return mat[:, 1].astype(float)

        x = np.ones(4, dtype=np.uint8)
        values = exact_shapley(f, background, x)
        assert abs(values[0]) < 1e-12
        assert abs(values[3]) < 1e-12

    def test_exact_rejects_wide(self, rng):
        background = rng.integers(0, 2, size=(5, 13)).astype(np.uint8)
        with pytest.raises(ValueError):
            exact_shapley(lambda m: m[:, 0], background, background[0])

    def test_mean_abs_vs_signed(self, rng):
        background = rng.integers(0, 2, size=(30, 3)).astype(np.uint8)
        # Probe only samples with x0 = 1: for f = -x0 their feature-0
        # attribution is f(x) - E[f] = -1 + mean(bg x0) <= 0.
        samples = np.ones((10, 3), dtype=np.uint8)
        samples[:, 1:] = rng.integers(0, 2, size=(10, 2))

        def f(mat):
            return -1.0 * mat[:, 0]

        # Same seeded draws for both estimators so Jensen's inequality
        # (mean of |v| >= |mean of v|) holds exactly.
        draws = np.random.default_rng(5)
        signed = np.mean([
            sampling_shapley(f, background, row, 50, draws) for row in samples
        ], axis=0)
        absolute = mean_abs_shapley(f, background, samples,
                                    n_permutations=50,
                                    rng=np.random.default_rng(5))
        assert signed[0] <= 0
        assert absolute[0] >= abs(signed[0]) - 1e-9
