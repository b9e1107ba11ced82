"""Analysis: Table III aggregation, Pareto curve, win rates."""

import pytest

from repro.analysis import (
    accuracy_size_tradeoff,
    format_table3,
    pareto_curve,
    per_benchmark_best,
    size_needed_for_accuracy,
    table3,
    win_rates,
)
from repro.contest.evaluate import Score
from repro.flows.portfolio import virtual_best


def _score(benchmark, method, acc, ands, valid=None, levels=5, legal=True):
    return Score(
        benchmark=benchmark,
        method=method,
        test_accuracy=acc,
        valid_accuracy=acc if valid is None else valid,
        train_accuracy=1.0,
        num_ands=ands,
        levels=levels,
        legal=legal,
    )


@pytest.fixture
def runs():
    return {
        "alpha": [
            _score("ex00", "a", 0.90, 100),
            _score("ex01", "a", 0.80, 200, valid=0.85),
        ],
        "beta": [
            _score("ex00", "b", 0.95, 500),
            _score("ex01", "b", 0.70, 50),
        ],
    }


class TestTable3:
    def test_sorted_by_accuracy(self, runs):
        rows = table3(runs)
        assert rows[0]["team"] == "alpha"
        assert rows[0]["test_accuracy"] == pytest.approx(0.85)
        assert rows[1]["team"] == "beta"

    def test_overfit_column(self, runs):
        rows = table3(runs)
        alpha = next(r for r in rows if r["team"] == "alpha")
        assert alpha["overfit"] == pytest.approx(0.025)

    def test_format_matches_paper_layout(self, runs):
        text = format_table3(table3(runs))
        assert "test acc" in text
        assert "And gates" in text
        assert "alpha" in text


class TestVirtualBestAndWins:
    def test_virtual_best_per_benchmark(self, runs):
        best = virtual_best(runs)
        by_name = {s.benchmark: s for s in best}
        assert by_name["ex00"].test_accuracy == 0.95
        assert by_name["ex01"].test_accuracy == 0.80

    def test_virtual_best_ties_break_by_size(self):
        runs = {
            "a": [_score("ex00", "a", 0.9, 100)],
            "b": [_score("ex00", "b", 0.9, 50)],
        }
        assert virtual_best(runs)[0].num_ands == 50

    def test_per_benchmark_best(self, runs):
        best = per_benchmark_best(runs)
        assert best == {"ex00": 0.95, "ex01": 0.80}

    def test_win_rates(self, runs):
        wins = win_rates(runs)
        assert wins["beta"]["best"] == 1
        assert wins["alpha"]["best"] == 1
        # top-1% includes near ties.
        assert wins["alpha"]["top1pct"] >= wins["alpha"]["best"]

    def test_win_rates_exact_tie_counts_both_best(self):
        runs = {
            "a": [_score("ex00", "a", 0.9, 100)],
            "b": [_score("ex00", "b", 0.9, 50)],
            "c": [_score("ex00", "c", 0.5, 10)],
        }
        wins = win_rates(runs)
        assert wins["a"]["best"] == 1
        assert wins["b"]["best"] == 1
        assert wins["c"]["best"] == 0

    def test_win_rates_tolerance_is_absolute(self):
        # top = 0.90; the default 0.01 margin is one accuracy *point*
        # (absolute), so 0.89 is in and anything below is out.
        runs = {
            "top": [_score("ex00", "t", 0.90, 10)],
            "edge": [_score("ex00", "e", 0.89, 10)],
            "below": [_score("ex00", "b", 0.8899, 10)],
        }
        wins = win_rates(runs)
        assert wins["top"]["top1pct"] == 1
        assert wins["edge"]["top1pct"] == 1
        assert wins["below"]["top1pct"] == 0

    def test_win_rates_multi_trial_counts_every_trial(self):
        # Two seed-aligned trials on one benchmark: team a wins the
        # first, team b the second.  Both wins must be counted instead
        # of the last trial silently overwriting the first.
        runs = {
            "a": [_score("ex00", "a", 0.9, 10), _score("ex00", "a", 0.6, 10)],
            "b": [_score("ex00", "b", 0.7, 10), _score("ex00", "b", 0.8, 10)],
        }
        wins = win_rates(runs)
        assert wins["a"]["best"] == 1
        assert wins["b"]["best"] == 1

    def test_win_rates_partial_trials_align_by_seed(self):
        # An interrupted store: team a has seeds 0 and 1, team b only
        # seed 1.  b's lone score must be compared at seed 1 (where it
        # wins), never positionally against a's seed-0 score.
        def seeded(team, acc, seed):
            s = _score("ex00", team, acc, 10)
            s.seed = seed
            return s

        runs = {
            "a": [seeded("a", 0.9, 0), seeded("a", 0.6, 1)],
            "b": [seeded("b", 0.8, 1)],
        }
        wins = win_rates(runs)
        assert wins["a"]["best"] == 1  # seed 0, uncontested
        assert wins["b"]["best"] == 1  # seed 1: 0.8 > 0.6


class TestPareto:
    def test_frontier_monotone(self):
        points = [(100, 0.9), (50, 0.8), (200, 0.95), (150, 0.85)]
        frontier = pareto_curve(points)
        sizes = [p[0] for p in frontier]
        accs = [p[1] for p in frontier]
        assert sizes == sorted(sizes)
        assert accs == sorted(accs)
        assert (150, 0.85) not in frontier  # dominated by (100, 0.9)? no:
        # (100,0.9) has smaller size and higher accuracy -> dominates.

    def test_tradeoff_curve_shape(self, runs):
        frontier = accuracy_size_tradeoff(runs)
        assert len(frontier) >= 1
        sizes = [p[0] for p in frontier]
        assert sizes == sorted(sizes)

    def test_size_needed(self):
        frontier = [(50, 0.8), (100, 0.9), (500, 0.95)]
        assert size_needed_for_accuracy(frontier, 0.9) == 100
        assert size_needed_for_accuracy(frontier, 0.99) != 100

    def test_illegal_solutions_excluded(self):
        runs = {
            "a": [_score("ex00", "a", 1.0, 9999, legal=False)],
            "b": [_score("ex00", "b", 0.7, 10)],
        }
        frontier = accuracy_size_tradeoff(runs)
        assert all(acc <= 0.7 + 1e-9 for _, acc in frontier)

    def test_empty_points_give_empty_frontier(self):
        assert pareto_curve([]) == []
        assert accuracy_size_tradeoff({}) == []
        assert accuracy_size_tradeoff({"a": []}) == []

    def test_all_dominated_collapse_to_one_point(self):
        # (10, 0.9) dominates every other point: smaller and better.
        points = [(10, 0.9), (20, 0.8), (30, 0.7), (40, 0.9)]
        assert pareto_curve(points) == [(10, 0.9)]

    def test_size_needed_edge_cases(self):
        import math

        assert math.isnan(size_needed_for_accuracy([], 0.5))
        frontier = [(50, 0.8), (100, 0.9)]
        # Unreachable accuracy -> NaN, not an arbitrary size.
        assert math.isnan(size_needed_for_accuracy(frontier, 0.95))
        assert size_needed_for_accuracy(frontier, 0.8) == 50

    def test_accuracy_grid_honored(self, runs):
        import math

        frontier = accuracy_size_tradeoff(runs)
        assert not math.isnan(size_needed_for_accuracy(frontier, 0.5))
        assert math.isnan(size_needed_for_accuracy(frontier, 0.99))


class TestPerCategory:
    def test_per_category_table(self, runs):
        from repro.analysis import per_category_table

        categories = {"ex00": "adder", "ex01": "comparator"}
        table = per_category_table(runs, categories)
        assert table["alpha"]["adder"] == pytest.approx(0.90)
        assert table["alpha"]["comparator"] == pytest.approx(0.80)
        assert table["beta"]["adder"] == pytest.approx(0.95)

    def test_unknown_category_bucketed(self, runs):
        from repro.analysis import per_category_table

        table = per_category_table(runs, {})
        assert "unknown" in table["alpha"]
