"""Cross-module integration tests: full pipelines end to end."""

import pytest

from repro.aig import read_aag, write_aag
from repro.aig.cec import check_equivalence
from repro.aig.opt.passes import compress
from repro.analysis import table3, win_rates
from repro.contest import DEFAULT_REGISTRY, evaluate_solution
from repro.flows import get_flow
from repro.ml.dataset import Dataset
from repro.ml.decision_tree import DecisionTree
from repro.runner import contest_tasks, run_contest_tasks
from repro.synth.from_tree import tree_to_aig
from repro.twolevel.pla import read_pla, write_pla


class TestPlaToAigPipeline:
    """The contest's data path: PLA file -> learner -> AIG file."""

    def test_full_roundtrip(self, tmp_path, small_problem):
        # 1. Distribute the training data as a PLA file.
        train_pla = tmp_path / "train.pla"
        write_pla(small_problem.train.to_pla(), train_pla)
        # 2. A participant reads it, trains, writes an AIG.
        data = Dataset.from_pla(read_pla(train_pla))
        tree = DecisionTree(max_depth=8).fit(data.X, data.y)
        aig = compress(tree_to_aig(tree))
        aig_path = tmp_path / "solution.aag"
        write_aag(aig, aig_path)
        # 3. The organizers read the AIG and score it on hidden data.
        submitted = read_aag(aig_path)
        from repro.contest import Solution

        score = evaluate_solution(
            small_problem, Solution(aig=submitted, method="pipeline")
        )
        assert score.legal
        assert score.test_accuracy > 0.8


class TestOptimizationSoundness:
    """compress must be provably safe on real flow outputs."""

    def test_flow_output_equivalence(self, small_problem):
        solution = get_flow("team10").run(small_problem, effort="small")
        optimized = compress(solution.aig)
        ok, cex = check_equivalence(solution.aig, optimized)
        assert ok, f"optimization broke the circuit at {cex}"


class TestMiniContest:
    @pytest.fixture(scope="class")
    def contest(self):
        return run_contest_tasks(contest_tasks(
            [30, 74], ["team01", "team07", "team10"],
            n_train=200, n_valid=200, n_test=200,
        ))

    def test_scores_complete(self, contest):
        for team, scores in contest.scores_by_team.items():
            assert len(scores) == 2, team
            for s in scores:
                assert 0.0 <= s.test_accuracy <= 1.0
                assert s.legal

    def test_table3_and_winrates_consistent(self, contest):
        rows = table3(contest.scores_by_team)
        assert len(rows) == 3
        wins = win_rates(contest.scores_by_team)
        assert sum(w["best"] for w in wins.values()) >= 2

    def test_matching_teams_ace_parity(self, contest):
        """ex74 is 16-parity: the matching flows must hit 100%."""
        for team in ("team01", "team07"):
            parity_score = next(
                s for s in contest.scores_by_team[team]
                if s.benchmark == "ex74"
            )
            assert parity_score.test_accuracy == 1.0


class TestHardBenchmarksStayHard:
    """The paper's Fig. 3 hard tail must be hard for learners."""

    @pytest.mark.parametrize("idx", [21])  # 8-bit multiplier middle bit
    def test_dt_fails_multiplier_middle(self, idx):
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(idx), n_train=400, n_valid=200,
            n_test=400,
        )
        tree = DecisionTree(max_depth=8).fit(
            problem.train.X, problem.train.y
        )
        acc = float(
            (tree.predict(problem.test.X) == problem.test.y).mean()
        )
        assert acc < 0.8, "multiplier middle bits should resist DTs"
