"""Verilog export, ARFF conversion and the CEC tool."""

import numpy as np
import pytest

from repro.aig.aig import AIG, lit_not
from repro.aig.cec import check_equivalence, simulate_differs
from repro.aig.opt.passes import compress
from repro.ml.arff import read_arff, write_arff
from repro.ml.dataset import Dataset
from repro.ml.decision_tree import DecisionTree
from repro.synth.verilog import (
    VerilogEvaluator,
    aig_to_verilog,
    tree_to_verilog,
)
from tests.conftest import random_aig


class TestVerilog:
    def test_aig_verilog_matches_simulation(self, rng):
        aig = random_aig(5, 30, seed=4, n_outputs=2)
        source = aig_to_verilog(aig)
        evaluator = VerilogEvaluator(source)
        X = rng.integers(0, 2, size=(50, 5)).astype(np.uint8)
        sim = aig.simulate(X)
        for row, want in zip(X, sim, strict=True):
            env = {f"x{i}": int(v) for i, v in enumerate(row)}
            out = evaluator.evaluate(env)
            assert out["y0"] == want[0]
            assert out["y1"] == want[1]

    def test_constant_and_inverted_outputs(self):
        aig = AIG(1)
        aig.set_output(1)
        aig.set_output(lit_not(aig.input_lit(0)))
        evaluator = VerilogEvaluator(aig_to_verilog(aig))
        out = evaluator.evaluate({"x0": 1})
        assert out["y0"] == 1
        assert out["y1"] == 0

    def test_tree_verilog_matches_predictions(self, rng):
        X = rng.integers(0, 2, size=(500, 6)).astype(np.uint8)
        y = ((X[:, 0] & X[:, 1]) | X[:, 4]).astype(np.uint8)
        tree = DecisionTree(max_depth=5).fit(X, y)
        evaluator = VerilogEvaluator(tree_to_verilog(tree))
        pred = tree.predict(X)
        for row, want in zip(X[:100], pred[:100], strict=True):
            env = {f"x{i}": int(v) for i, v in enumerate(row)}
            assert evaluator.evaluate(env)["y"] == want

    def test_tree_verilog_requires_fit(self):
        with pytest.raises(RuntimeError):
            tree_to_verilog(DecisionTree())

    def test_module_name(self):
        aig = AIG(1)
        aig.set_output(aig.input_lit(0))
        assert "module counter (" in aig_to_verilog(aig, "counter")


class TestArff:
    def test_roundtrip(self, rng, tmp_path):
        data = Dataset(
            rng.integers(0, 2, size=(40, 7)).astype(np.uint8),
            rng.integers(0, 2, size=40).astype(np.uint8),
        )
        path = tmp_path / "d.arff"
        write_arff(data, path)
        back = read_arff(path)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)

    def test_header_format(self, rng, tmp_path):
        data = Dataset(np.zeros((2, 3), np.uint8), np.zeros(2, np.uint8))
        path = tmp_path / "h.arff"
        write_arff(data, path, relation="ex42")
        text = path.read_text()
        assert "@RELATION ex42" in text
        assert text.count("@ATTRIBUTE") == 4  # 3 inputs + class

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text(
            "@RELATION r\n@ATTRIBUTE x0 {0,1}\n@ATTRIBUTE class {0,1}\n"
            "@DATA\n0,1\n0\n"
        )
        with pytest.raises(ValueError):
            read_arff(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.arff"
        path.write_text(
            "% comment\n@RELATION r\n@ATTRIBUTE x0 {0,1}\n"
            "@ATTRIBUTE class {0,1}\n@DATA\n% another\n1,0\n"
        )
        data = read_arff(path)
        assert data.n_samples == 1


class TestCEC:
    def test_equivalent_after_compress(self):
        for seed in range(3):
            aig = random_aig(5, 40, seed=seed)
            opt = compress(aig)
            ok, cex = check_equivalence(aig, opt)
            assert ok and cex is None

    def test_detects_inequivalence(self):
        a = AIG(2)
        a.set_output(a.add_and(a.input_lit(0), a.input_lit(1)))
        b = AIG(2)
        b.set_output(b.add_or(b.input_lit(0), b.input_lit(1)))
        ok, cex = check_equivalence(a, b)
        assert not ok
        assert cex is not None
        # The counterexample really distinguishes them.
        assert a.simulate(cex)[0, 0] != b.simulate(cex)[0, 0]

    def test_interface_mismatch_rejected(self):
        a = AIG(2)
        a.set_output(0)
        b = AIG(3)
        b.set_output(0)
        with pytest.raises(ValueError):
            simulate_differs(a, b)

    def test_simulation_finds_easy_difference(self, rng):
        a = AIG(4)
        a.set_output(a.input_lit(0))
        b = AIG(4)
        b.set_output(lit_not(b.input_lit(0)))
        cex = simulate_differs(a, b, n_patterns=64, rng=rng)
        assert cex is not None

    def test_bdd_catches_rare_difference(self):
        """A difference on exactly one minterm of 16: simulation may
        miss it with few patterns, the BDD proof never does."""
        n = 10
        a = AIG(n)
        a.set_output(a.add_and_multi(a.input_lits()))  # all-ones minterm
        b = AIG(n)
        b.set_output(0)
        ok, cex = check_equivalence(a, b, n_patterns=4)
        assert not ok
        assert cex is not None
        assert a.simulate(cex)[0, 0] != b.simulate(cex)[0, 0]
