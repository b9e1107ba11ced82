"""PART rule lists and fringe feature extraction."""

import numpy as np
import pytest

from repro.ml import rules as rules_module
from repro.ml.fringe import MAX_FEATURES, CompositeFeature, FringeDT
from repro.ml.metrics import accuracy
from repro.ml.rules import PartRuleLearner, Rule, RuleList


class TestRules:
    def test_rule_matching(self):
        rule = Rule(literals=((0, 1), (2, 0)), label=1)
        X = np.array([[1, 0, 0], [1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        assert rule.matches(X).tolist() == [True, False, False]

    def test_first_match_wins(self):
        rules = RuleList(
            [Rule(((0, 1),), 1), Rule(((1, 1),), 0)], default=1, n_inputs=2
        )
        X = np.array([[1, 1], [0, 1], [0, 0]], dtype=np.uint8)
        assert rules.predict(X).tolist() == [1, 0, 1]

    def test_learns_simple_function(self, rng):
        X = rng.integers(0, 2, size=(800, 8)).astype(np.uint8)
        y = ((X[:, 0] & X[:, 1]) | X[:, 5]).astype(np.uint8)
        rules = PartRuleLearner().fit(X, y)
        assert accuracy(y, rules.predict(X)) == 1.0
        assert len(rules) <= 6

    def test_generalizes(self, rng):
        X = rng.integers(0, 2, size=(1200, 10)).astype(np.uint8)
        y = ((X[:, 2] | X[:, 3]) & X[:, 7]).astype(np.uint8)
        rules = PartRuleLearner().fit(X[:800], y[:800])
        assert accuracy(y[800:], rules.predict(X[800:])) > 0.95

    def test_pure_data_yields_default_only(self):
        X = np.zeros((50, 4), dtype=np.uint8)
        y = np.ones(50, dtype=np.uint8)
        rules = PartRuleLearner().fit(X, y)
        assert len(rules) == 0
        assert rules.predict(X).tolist() == [1] * 50

    def test_max_rules_cap(self, rng, monkeypatch):
        monkeypatch.setattr(rules_module, "MAX_RULES", 5)
        X = rng.integers(0, 2, size=(500, 12)).astype(np.uint8)
        y = rng.integers(0, 2, size=500).astype(np.uint8)  # pure noise
        rules = PartRuleLearner().fit(X, y)
        assert len(rules) <= 5


class TestComposite:
    @pytest.mark.parametrize("op,expected", [
        ("and", [0, 0, 0, 1]),
        ("or", [0, 1, 1, 1]),
        ("xor", [0, 1, 1, 0]),
        ("xnor", [1, 0, 0, 1]),
        ("nand", [1, 1, 1, 0]),
        ("nor", [1, 0, 0, 0]),
        ("and_na", [0, 0, 1, 0]),
        ("and_nb", [0, 1, 0, 0]),
        ("or_na", [1, 0, 1, 1]),
        ("or_nb", [1, 1, 0, 1]),
        ("not_a", [1, 0, 1, 0]),
        ("not_b", [1, 1, 0, 0]),
    ])
    def test_ops(self, op, expected):
        a = np.array([0, 1, 0, 1], dtype=np.uint8)
        b = np.array([0, 0, 1, 1], dtype=np.uint8)
        feat = CompositeFeature(0, 1, op)
        assert feat.evaluate(a, b).tolist() == expected

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            CompositeFeature(0, 1, "imp").evaluate(
                np.zeros(2, np.uint8), np.zeros(2, np.uint8)
            )


class TestFringeDT:
    def test_xor_recovery(self, rng):
        """The motivating case: plain shallow DTs fail XOR, fringe
        features recover it (Team 3's Fr-DT result)."""
        X = rng.integers(0, 2, size=(1500, 8)).astype(np.uint8)
        y = (X[:, 0] ^ X[:, 1]).astype(np.uint8)
        Xt = rng.integers(0, 2, size=(500, 8)).astype(np.uint8)
        yt = (Xt[:, 0] ^ Xt[:, 1]).astype(np.uint8)
        model = FringeDT(max_depth=6).fit(X, y)
        assert accuracy(yt, model.predict(Xt)) == 1.0
        assert len(model.features) > 0

    def test_nested_composites_allowed(self, rng):
        X = rng.integers(0, 2, size=(2000, 6)).astype(np.uint8)
        y = (X[:, 0] ^ X[:, 1] ^ X[:, 2]).astype(np.uint8)
        model = FringeDT(max_depth=8, max_iterations=8).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95

    def test_feature_cap(self, rng):
        X = rng.integers(0, 2, size=(500, 10)).astype(np.uint8)
        y = rng.integers(0, 2, size=500).astype(np.uint8)
        model = FringeDT().fit(X, y)
        assert len(model.features) <= MAX_FEATURES

    def test_predict_after_iteration_cap(self, rng):
        # Stopping at max_iterations right after adding fringe features
        # leaves a tree fitted on fewer columns than featurize() returns;
        # the tree reads only its own columns.
        X = rng.integers(0, 2, size=(600, 6)).astype(np.uint8)
        y = (X[:, 0] ^ X[:, 1]).astype(np.uint8)
        model = FringeDT(max_iterations=1).fit(X, y)
        assert len(model.features) > 0
        Xa = model.featurize(X)
        assert Xa.shape[1] > model.tree.n_inputs
        expected = model.tree.predict(Xa[:, : model.tree.n_inputs])
        assert model.predict(X).tolist() == expected.tolist()

    def test_predict_requires_fit(self):
        with pytest.raises(RuntimeError):
            FringeDT().predict(np.zeros((1, 3), dtype=np.uint8))


class TestFullFringePatterns:
    def test_or_pattern_discovered(self, rng):
        """f = (x0|x1) & (x2|x3): a full fringe subtree with a 1-leaf
        sibling encodes an OR composite — the shape only the complete
        12-pattern extraction catches."""
        X = rng.integers(0, 2, size=(3000, 6)).astype(np.uint8)
        y = ((X[:, 0] | X[:, 1]) & (X[:, 2] | X[:, 3])).astype(np.uint8)
        model = FringeDT(max_depth=6, max_iterations=6).fit(X, y)
        ops = {f.op for f in model.features}
        assert ops & {"or", "or_na", "or_nb", "nand", "nor",
                      "and", "and_na", "and_nb"}
        assert accuracy(y, model.predict(X)) == 1.0

    def test_full_pattern_tt_mapping(self):
        from repro.ml.fringe import _full_pattern_op

        # parent splits a; a=1 branch splits b into leaves (0,1);
        # a=0 branch is constant 1 -> f = !a | (a & b) = !a | b.
        assert _full_pattern_op(1, 1, 0, 1) == "or_na"
        # a=0 branch splits b into (0,1); a=1 constant 1 -> a | b.
        assert _full_pattern_op(0, 1, 0, 1) == "or"
        # a=1 branch (0,1), a=0 constant 0 -> a & b.
        assert _full_pattern_op(1, 0, 0, 1) == "and"
        # Constant/single-var tables yield no composite.
        assert _full_pattern_op(1, 1, 1, 1) is None
