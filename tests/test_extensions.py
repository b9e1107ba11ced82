"""Extensions: multi-output, trade-off flow, suite export and the CLI."""

import numpy as np
import pytest

from repro.contest import DEFAULT_REGISTRY
from repro.contest.export import export_benchmarks
from repro.contest.multioutput import (
    adder_all_bits,
    evaluate_multioutput,
    make_multioutput_problem,
    shared_tree_flow,
)
from repro.flows.tradeoff import run_tradeoff
from repro.twolevel.pla import read_pla
from tests.oracles import multiplier_low_bits


class TestMultiOutput:
    def test_adder_all_bits_problem(self):
        problem = make_multioutput_problem(
            "add4", adder_all_bits(4), n_train=600, n_test=300
        )
        assert problem.n_inputs == 8
        assert problem.n_outputs == 5
        # Ground truth is consistent: recompute one row.
        row = problem.train_X[0]
        a = sum(int(row[i]) << i for i in range(4))
        b = sum(int(row[4 + i]) << i for i in range(4))
        got = sum(int(v) << j for j, v in enumerate(problem.train_Y[0]))
        assert got == a + b

    def test_shared_flow_learns_low_bits(self):
        problem = make_multioutput_problem(
            "mul-low", multiplier_low_bits(4, 3), n_train=2000,
            n_test=500,
        )
        aig = shared_tree_flow(problem, max_depth=8)
        report = evaluate_multioutput(problem, aig)
        # LSB of a product is just a0&b0; low bits are learnable.
        assert report["per_output"][0] == 1.0
        assert report["mean_accuracy"] > 0.8

    def test_sharing_factor_at_least_one(self):
        problem = make_multioutput_problem(
            "add3", adder_all_bits(3), n_train=800, n_test=200
        )
        aig = shared_tree_flow(problem, max_depth=6)
        report = evaluate_multioutput(problem, aig)
        assert report["sharing_factor"] >= 1.0

    def test_output_count_checked(self):
        problem = make_multioutput_problem(
            "add3b", adder_all_bits(3), n_train=300, n_test=100
        )
        from repro.aig.aig import AIG

        wrong = AIG(problem.n_inputs)
        wrong.set_output(0)
        with pytest.raises(ValueError):
            evaluate_multioutput(problem, wrong)


class TestTradeoffFlow:
    def test_frontier_shape(self, small_problem):
        frontier = run_tradeoff(small_problem, effort="small")
        assert len(frontier) >= 2
        sizes = [p.num_ands for p in frontier]
        accs = [p.valid_accuracy for p in frontier]
        assert sizes == sorted(sizes)
        assert accs == sorted(accs)
        assert all(p.num_ands <= 5000 for p in frontier)

    def test_frontier_spans_accuracy(self, small_problem):
        frontier = run_tradeoff(small_problem, effort="small")
        assert frontier[-1].valid_accuracy > 0.8
        assert frontier[-1].valid_accuracy > frontier[0].valid_accuracy


class TestExportAndCLI:
    def test_export_writes_triples(self, tmp_path):
        written = list(
            export_benchmarks(tmp_path, indices=[30], samples=50)
        )
        assert len(written) == 3
        pla = read_pla(tmp_path / "ex30.train.pla")
        X, y = pla.to_samples()
        assert X.shape == (50, 20)
        # Labels match the ground-truth comparator.
        label_fn = DEFAULT_REGISTRY.materialize("ex30").label_fn
        assert np.array_equal(y, label_fn(X))

    def test_cli_list(self, capsys):
        from repro.cli import main

        main(["list"])
        out = capsys.readouterr().out
        assert "ex00" in out and "ex99" in out

    def test_cli_run(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "sol.aag"
        main([
            "run", "--benchmark", "30", "--flow", "team10",
            "--samples", "200", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert "test acc" in out
        assert out_path.exists()

    def test_cli_contest(self, capsys):
        from repro.cli import main

        main([
            "contest", "--benchmarks", "30", "--flows", "team10",
            "--samples", "150",
        ])
        out = capsys.readouterr().out
        assert "team10" in out
        assert "And gates" in out
