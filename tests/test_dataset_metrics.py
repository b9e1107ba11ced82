"""Dataset plumbing and evaluation metrics."""

import numpy as np
import pytest

from repro.ml.dataset import Dataset
from repro.ml.metrics import accuracy, cross_val_accuracy, stratified_kfold


class TestDataset:
    def _make(self, rng, n=100, d=6, frac=0.3):
        X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
        y = (rng.random(n) < frac).astype(np.uint8)
        return Dataset(X, y)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_merge(self, rng):
        a = self._make(rng, n=30)
        b = self._make(rng, n=20)
        merged = a.merge(b)
        assert merged.n_samples == 50
        assert np.array_equal(merged.X[:30], a.X)

    def test_merge_rejects_width_mismatch(self, rng):
        a = self._make(rng, d=4)
        b = self._make(rng, d=5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_stratified_split_preserves_ratio(self, rng):
        data = self._make(rng, n=1000, frac=0.25)
        first, second = data.split_stratified(0.8, rng)
        assert abs(first.onset_fraction() - data.onset_fraction()) < 0.02
        assert abs(second.onset_fraction() - data.onset_fraction()) < 0.05
        assert first.n_samples + second.n_samples == data.n_samples

    def test_split_is_a_partition(self, rng):
        data = self._make(rng, n=200)
        first, second = data.split_stratified(0.5, rng)
        all_rows = {tuple(r) + (int(lb),) for r, lb in zip(data.X, data.y, strict=True)}
        got = {tuple(r) + (int(lb),) for r, lb in zip(first.X, first.y, strict=True)}
        got |= {tuple(r) + (int(lb),) for r, lb in zip(second.X, second.y, strict=True)}
        assert got <= all_rows  # duplicates collapse, none invented

    def test_pla_roundtrip(self, rng):
        data = self._make(rng, n=40)
        back = Dataset.from_pla(data.to_pla())
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)



class TestMetrics:
    def test_accuracy_basics(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)
        assert accuracy([], []) == 0.0

    def test_accuracy_shape_check(self):
        with pytest.raises(ValueError):
            accuracy([1, 0], [1])

    def test_stratified_kfold_partitions(self, rng):
        y = (rng.random(101) < 0.3).astype(np.uint8)
        seen = []
        for train_idx, test_idx in stratified_kfold(y, 5, rng):
            assert set(train_idx) & set(test_idx) == set()
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(101))

    def test_stratified_kfold_balance(self, rng):
        y = np.array([0] * 80 + [1] * 20, dtype=np.uint8)
        for _, test_idx in stratified_kfold(y, 4, rng):
            frac = y[test_idx].mean()
            assert 0.1 <= frac <= 0.3

    def test_cross_val_perfect_learner(self, rng):
        X = rng.integers(0, 2, size=(200, 4)).astype(np.uint8)
        y = X[:, 1]

        def fit_predict(Xa, ya, Xb):
            del Xa, ya
            return Xb[:, 1]

        assert cross_val_accuracy(fit_predict, X, y, 5, rng) == 1.0

    def test_cross_val_skips_empty_folds(self, rng):
        # 3 rows over 5 folds leave test folds empty; they must not
        # count as accuracy 0 (which gave 0.4 for a perfect learner).
        X = np.array([[0], [1], [1]], dtype=np.uint8)
        y = X[:, 0].copy()
        calls = []

        def fit_predict(Xa, ya, Xb):
            calls.append(len(Xb))
            return Xb[:, 0]

        assert cross_val_accuracy(fit_predict, X, y, 5, rng) == 1.0
        assert sum(calls) == 3 and 0 not in calls

    def test_cross_val_rejects_no_samples(self, rng):
        X = np.zeros((0, 2), dtype=np.uint8)
        y = np.zeros(0, dtype=np.uint8)
        with pytest.raises(ValueError, match="no samples"):
            cross_val_accuracy(lambda Xa, ya, Xb: Xb[:, 0], X, y, 3, rng)
