"""Model-to-AIG bridges: every bridge must agree with its model."""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostedTrees
from repro.ml.decision_tree import DecisionTree
from repro.ml.forest import RandomForest
from repro.ml.fringe import FringeDT
from repro.ml.lutnet import LUTNetwork
from repro.ml.mlp import MLP, _act
from repro.ml.rules import PartRuleLearner
from repro.synth import (
    boosted_to_aig,
    cover_to_aig,
    forest_to_aig,
    fringe_dt_to_aig,
    lutnet_to_aig,
    mlp_to_aig,
    rules_to_aig,
    tree_to_aig,
)
from tests.oracles import predict_quantized


@pytest.fixture
def data(rng):
    X = rng.integers(0, 2, size=(900, 9)).astype(np.uint8)
    y = ((X[:, 0] & X[:, 1]) | (X[:, 4] & X[:, 6])).astype(np.uint8)
    Xt = rng.integers(0, 2, size=(400, 9)).astype(np.uint8)
    return X, y, Xt


class TestTreeBridges:
    def test_tree_to_aig_exact(self, data):
        X, y, Xt = data
        tree = DecisionTree(max_depth=8).fit(X, y)
        aig = tree_to_aig(tree)
        assert np.array_equal(aig.simulate(Xt)[:, 0], tree.predict(Xt))

    def test_cover_to_aig_exact(self, data):
        X, y, Xt = data
        tree = DecisionTree(max_depth=8).fit(X, y)
        cover = tree.to_cover()
        aig = cover_to_aig(cover)
        assert np.array_equal(aig.simulate(Xt)[:, 0], cover.evaluate(Xt))

    def test_fringe_to_aig_exact(self, rng):
        X = rng.integers(0, 2, size=(1200, 6)).astype(np.uint8)
        y = (X[:, 0] ^ X[:, 1]).astype(np.uint8)
        model = FringeDT(max_depth=6).fit(X, y)
        aig = fringe_dt_to_aig(model)
        Xt = rng.integers(0, 2, size=(300, 6)).astype(np.uint8)
        assert np.array_equal(aig.simulate(Xt)[:, 0], model.predict(Xt))

    def test_constant_tree(self):
        X = np.zeros((10, 3), dtype=np.uint8)
        y = np.ones(10, dtype=np.uint8)
        aig = tree_to_aig(DecisionTree().fit(X, y))
        assert aig.simulate(X)[:, 0].tolist() == [1] * 10


class TestEnsembleBridges:
    def test_forest_to_aig_exact(self, data, rng):
        X, y, Xt = data
        forest = RandomForest(n_trees=5, max_depth=6, rng=rng).fit(X, y)
        aig = forest_to_aig(forest)
        assert np.array_equal(aig.simulate(Xt)[:, 0], forest.predict(Xt))

    def test_rules_to_aig_exact(self, data):
        X, y, Xt = data
        rules = PartRuleLearner().fit(X, y)
        aig = rules_to_aig(rules)
        assert np.array_equal(aig.simulate(Xt)[:, 0], rules.predict(Xt))

    def test_boosted_to_aig_matches_quantized(self, data):
        X, y, Xt = data
        # Over 125 trees the vote is the exact ones-counter.
        model = GradientBoostedTrees(n_estimators=127, max_depth=3).fit(X, y)
        assert len(model.trees) == 127
        aig = boosted_to_aig(model)
        assert np.array_equal(
            aig.simulate(Xt)[:, 0], predict_quantized(model, Xt)
        )

    def test_boosted_maj5_close_to_quantized(self, data):
        X, y, Xt = data
        model = GradientBoostedTrees(n_estimators=25, max_depth=3).fit(X, y)
        aig = boosted_to_aig(model)
        agree = (
            aig.simulate(Xt)[:, 0] == predict_quantized(model, Xt)
        ).mean()
        assert agree > 0.9

    def test_unfitted_forest_rejected(self):
        with pytest.raises(RuntimeError):
            forest_to_aig(RandomForest(n_trees=3))


class TestNetworkBridges:
    def test_lutnet_to_aig_exact(self, data, rng):
        X, y, Xt = data
        net = LUTNetwork(n_layers=2, luts_per_layer=16, lut_size=4,
                         rng=rng).fit(X, y)
        aig = lutnet_to_aig(net)
        assert np.array_equal(aig.simulate(Xt)[:, 0], net.predict(Xt))

    def test_mlp_to_aig_matches_quantized_forward(self, data, rng):
        X, y, Xt = data
        mlp = MLP(hidden_sizes=(10, 5), rng=rng).fit(
            X.astype(float), y, epochs=20
        )
        mlp.prune_to_fanin(5, X.astype(float), y, rounds=2,
                           retrain_epochs=5)
        aig = mlp_to_aig(mlp)

        def quantized_forward(mat):
            prev = mat.astype(float)
            for layer in mlp.layers:
                z = prev @ (layer.W * layer.mask) + layer.b
                prev = (_act(layer.activation, z) >= 0.5).astype(float)
            return prev[:, 0].astype(np.uint8)

        assert np.array_equal(
            aig.simulate(Xt)[:, 0], quantized_forward(Xt)
        )

    def test_mlp_bridge_rejects_wide_fanin(self, data, rng):
        X, y, _ = data
        MLP(hidden_sizes=(40,), rng=rng).fit(X.astype(float), y, epochs=2)
        # 9 inputs -> fanin 9 <= 16 is fine; force failure with a fake
        # wide layer by not pruning a 40-wide second layer input.
        from repro.synth.from_mlp import _neuron_table

        with pytest.raises(ValueError):
            _neuron_table(np.ones(20), 0.0, "sigmoid")
