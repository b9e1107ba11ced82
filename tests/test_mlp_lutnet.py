"""MLPs (with pruning / sine / log-interaction) and LUT networks."""

import numpy as np
import pytest

from repro.ml.lutnet import LUTNetwork
from repro.ml.metrics import accuracy
from repro.ml.mlp import MLP, LogInteractionNet


def _simple(rng, n=1200, d=8):
    X = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    y = ((X[:, 0] & X[:, 1]) | X[:, 3]).astype(np.uint8)
    return X, y


class TestMLP:
    def test_learns_simple_function(self, rng):
        X, y = _simple(rng)
        mlp = MLP(hidden_sizes=(16,), rng=rng).fit(
            X.astype(float), y, epochs=40
        )
        assert accuracy(y, mlp.predict(X.astype(float))) > 0.95

    def test_sine_activation_learns_parity(self, rng):
        X = rng.integers(0, 2, size=(3000, 6)).astype(np.uint8)
        y = (X.sum(axis=1) % 2).astype(np.uint8)
        sine = MLP(hidden_sizes=(24,), activation="sine",
                   rng=np.random.default_rng(0))
        sine.fit(X[:2500].astype(float), y[:2500], epochs=60)
        acc = accuracy(y[2500:], sine.predict(X[2500:].astype(float)))
        assert acc > 0.8

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            MLP(activation="swish")

    def test_pruning_respects_fanin_and_keeps_accuracy(self, rng):
        X, y = _simple(rng)
        mlp = MLP(hidden_sizes=(16, 8), rng=rng).fit(
            X.astype(float), y, epochs=25
        )
        mlp.prune_to_fanin(4, X.astype(float), y, rounds=2,
                           retrain_epochs=8)
        assert mlp.max_fanin() <= 4
        assert accuracy(y, mlp.predict(X.astype(float))) > 0.9

    def test_prune_requires_fit(self):
        with pytest.raises(RuntimeError):
            MLP().prune_to_fanin(4, np.zeros((1, 2)), np.zeros(1))

    def test_feature_importance_finds_relevant(self, rng):
        X, y = _simple(rng)
        mlp = MLP(hidden_sizes=(32,), rng=rng).fit(
            X.astype(float), y, epochs=25
        )
        ranked = np.argsort(-mlp.feature_importance())
        assert {0, 1, 3} & set(ranked[:4].tolist())


class TestLogInteractionNet:
    def test_learns_conjunction(self, rng):
        X, y = _simple(rng)
        model = LogInteractionNet(n_cross=32, hidden_sizes=(32,),
                                  rng=np.random.default_rng(1))
        model.fit(X, y, epochs=50)
        assert accuracy(y, model.predict(X)) > 0.9


class TestLUTNetwork:
    def test_memorizes_training_data(self, rng):
        X, y = _simple(rng, n=600)
        net = LUTNetwork(n_layers=2, luts_per_layer=32, lut_size=4,
                         rng=rng).fit(X, y)
        assert accuracy(y, net.predict(X)) > 0.9

    def test_generalizes_some(self, rng):
        X, y = _simple(rng, n=2000)
        net = LUTNetwork(n_layers=3, luts_per_layer=64, lut_size=4,
                         rng=rng).fit(X[:1500], y[:1500])
        assert accuracy(y[1500:], net.predict(X[1500:])) > 0.75

    def test_unique_scheme_uses_all_outputs(self, rng):
        net = LUTNetwork(n_layers=1, luts_per_layer=16, lut_size=4,
                         scheme="unique", rng=rng)
        X = rng.integers(0, 2, size=(200, 8)).astype(np.uint8)
        y = X[:, 0]
        net.fit(X, y)
        # 16 LUTs x 4 wires = 64 wires over 8 inputs: every input must
        # appear exactly 8 times under the unique scheme.
        counts = np.bincount(net.connections[0].ravel(), minlength=8)
        assert counts.tolist() == [8] * 8

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            LUTNetwork(scheme="sorted")

    def test_num_luts(self, rng):
        net = LUTNetwork(n_layers=2, luts_per_layer=10, lut_size=2,
                         rng=rng)
        X = rng.integers(0, 2, size=(100, 5)).astype(np.uint8)
        net.fit(X, X[:, 0])
        # 2 layers of 10 + output LUT
        assert [t.shape[0] for t in net.tables] == [10, 10, 1]

    def test_forward_deterministic(self, rng):
        X, y = _simple(rng, n=300)
        net = LUTNetwork(rng=np.random.default_rng(5)).fit(X, y)
        a = net.predict(X)
        b = net.predict(X)
        assert np.array_equal(a, b)
