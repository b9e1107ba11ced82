"""Edge cases and failure injection across the library."""

import numpy as np
import pytest

from repro.aig.aig import AIG, CONST0, CONST1, lit_not
from repro.aig.aiger import read_aag, read_aiger, write_aag, write_aiger
from repro.aig.approx import approximate_to_size
from repro.aig.build import ripple_adder
from repro.aig.opt.passes import balance, compress, rewrite
from repro.contest import Solution, evaluate_solution
from repro.ml.dataset import Dataset
from repro.ml.decision_tree import DecisionTree
from repro.ml.forest import RandomForest
from repro.ml.lutnet import LUTNetwork
from repro.twolevel.cube import Cube
from repro.twolevel.espresso import espresso


class TestDegenerateCircuits:
    def test_empty_aig_passes(self):
        aig = AIG(0)
        aig.set_output(CONST1)
        assert aig.simulate(np.zeros((4, 0), dtype=np.uint8))[:, 0].tolist() == [1] * 4

    def test_no_outputs_depth_zero(self):
        aig = AIG(3)
        assert aig.depth() == 0

    def test_optimize_identity_output(self):
        aig = AIG(2)
        aig.set_output(aig.input_lit(1))
        for pass_fn in (balance, rewrite, compress):
            out = pass_fn(aig)
            assert out.truth_tables() == aig.truth_tables()
            assert out.num_ands == 0

    def test_duplicate_outputs(self):
        aig = AIG(2)
        x = aig.add_and(aig.input_lit(0), aig.input_lit(1))
        aig.set_output(x)
        aig.set_output(x)
        aig.set_output(lit_not(x))
        out = compress(aig)
        assert out.truth_tables() == aig.truth_tables()

    def test_approximate_constant_circuit(self):
        aig = AIG(4)
        aig.set_output(CONST0)
        out = approximate_to_size(aig, max_ands=10)
        assert out.num_ands == 0

    def test_adder_zero_width(self):
        aig = AIG(0)
        bits = ripple_adder(aig, [], [])
        assert bits == [CONST0]  # just the carry


class TestDegenerateLearners:
    def test_dt_single_sample(self):
        tree = DecisionTree().fit(
            np.array([[1, 0]], dtype=np.uint8), np.array([1], np.uint8)
        )
        assert tree.predict(np.array([[0, 0]], np.uint8))[0] == 1

    def test_dt_all_identical_features(self):
        X = np.ones((50, 3), dtype=np.uint8)
        y = np.array([0, 1] * 25, dtype=np.uint8)
        tree = DecisionTree().fit(X, y)
        assert tree.num_leaves() == 1  # nothing to split on

    def test_forest_constant_labels(self, rng):
        X = rng.integers(0, 2, size=(60, 4)).astype(np.uint8)
        y = np.ones(60, dtype=np.uint8)
        forest = RandomForest(n_trees=3, rng=rng).fit(X, y)
        assert forest.predict(X).tolist() == [1] * 60

    def test_lutnet_single_input(self, rng):
        X = rng.integers(0, 2, size=(100, 1)).astype(np.uint8)
        net = LUTNetwork(n_layers=1, luts_per_layer=2, lut_size=2,
                         rng=rng).fit(X, X[:, 0])
        assert (net.predict(X) == X[:, 0]).mean() == 1.0

    def test_dataset_empty_rows(self):
        data = Dataset(np.zeros((0, 5), np.uint8), np.zeros(0, np.uint8))
        assert data.onset_fraction() == 0.0


class TestEvaluationGuards:
    def test_illegal_solution_flagged(self, small_problem):
        aig = AIG(small_problem.n_inputs)
        acc = CONST1
        # Burn nodes well past the cap with a long useless chain.
        x = aig.add_and(aig.input_lit(0), aig.input_lit(1))
        for _ in range(30):
            x = aig.add_and(x, aig.input_lit(0) ^ 1)
            x = aig.add_or(x, aig.input_lit(1))
        aig.set_output(x)
        del acc
        score = evaluate_solution(
            small_problem, Solution(aig=aig, method="bloat"),
            max_nodes=3,
        )
        assert not score.legal

    def test_multi_output_solutions_rejected(self, small_problem):
        aig = AIG(small_problem.n_inputs)
        aig.set_output(CONST0)
        aig.set_output(CONST1)
        with pytest.raises(ValueError):
            evaluate_solution(small_problem,
                              Solution(aig=aig, method="x"))


class TestFormatRobustness:
    def test_aiger_single_node_delta_encoding(self, tmp_path):
        # Deltas of exactly 0 between rhs literals stress the varint.
        aig = AIG(1)
        x = aig.input_lit(0)
        aig.set_output(aig.add_and(x, lit_not(x) ^ 1))  # folded: x
        path = tmp_path / "one.aig"
        write_aiger(aig, path)
        assert read_aiger(path).truth_tables() == aig.truth_tables()

    def test_aiger_large_graph(self, tmp_path):
        aig = AIG(8)
        lits = aig.input_lits()
        for bit in ripple_adder(aig, lits[:4], lits[4:]):
            aig.set_output(bit)
        a = tmp_path / "big.aag"
        b = tmp_path / "big.aig"
        write_aag(aig, a)
        write_aiger(aig, b)
        assert read_aag(a).truth_tables() == read_aiger(b).truth_tables()

    def test_espresso_matrix_inputs(self, rng):
        X = rng.integers(0, 2, size=(80, 10)).astype(np.uint8)
        y = (X[:, 0] & X[:, 4]).astype(np.uint8)
        cover = espresso(X[y == 1], X[y == 0], 10)
        assert np.array_equal(cover.evaluate(X), y)

    def test_cube_full_space(self):
        cube = Cube.full()
        assert cube.num_literals() == 0
        assert cube.contains_minterm(12345)
        assert cube.to_string(4) == "----"
