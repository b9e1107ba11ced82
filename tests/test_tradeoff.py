"""Edge cases for the accuracy-size tradeoff layers.

Covers ``repro.flows.tradeoff.run_tradeoff`` (the per-benchmark
Pareto-set flow) and reading ``repro.analysis.accuracy_size_tradeoff``'s
frontier at target accuracies beyond what ``tests/test_analysis.py``
pins.
"""

import math

from repro.analysis import Score, accuracy_size_tradeoff, size_needed_for_accuracy
from repro.flows.tradeoff import run_tradeoff


def _score(acc: float, size: int, benchmark: str = "ex00") -> Score:
    return Score(
        benchmark=benchmark,
        method="t",
        test_accuracy=acc,
        valid_accuracy=acc,
        train_accuracy=1.0,
        num_ands=size,
        levels=4,
        legal=True,
    )


class TestAccuracyGrid:
    def _runs(self):
        return {
            "t": [
                _score(0.6, 10),
                _score(0.8, 100),
                _score(0.95, 1000),
            ]
        }

    def _sizes(self, targets):
        frontier = accuracy_size_tradeoff(self._runs())
        return [size_needed_for_accuracy(frontier, t) for t in targets]

    def test_grid_on_empty_scores_is_empty(self):
        for runs in ({}, {"t": []}):
            frontier = accuracy_size_tradeoff(runs)
            assert frontier == []
            assert math.isnan(size_needed_for_accuracy(frontier, 0.5))

    def test_sizes_monotone_in_target(self):
        sizes = self._sizes((0.5, 0.7, 0.9))
        sizes = [size for size in sizes if not math.isnan(size)]
        assert sizes == sorted(sizes)

    def test_target_above_best_is_nan_below_worst_is_min(self):
        easiest, impossible = self._sizes((0.0, 1.0))
        assert not math.isnan(easiest)
        assert math.isnan(impossible)


class TestRunTradeoff:
    def test_frontier_strictly_monotone_and_capped(self, small_problem):
        frontier = run_tradeoff(small_problem, effort="small")
        assert frontier
        sizes = [p.num_ands for p in frontier]
        accs = [p.valid_accuracy for p in frontier]
        assert sizes == sorted(sizes)
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert all(a < b for a, b in zip(accs, accs[1:]))
        assert all(s <= 5000 for s in sizes)

    def test_deterministic_across_calls(self, small_problem):
        one = run_tradeoff(small_problem, effort="small", master_seed=3)
        two = run_tradeoff(small_problem, effort="small", master_seed=3)
        assert [(p.num_ands, p.valid_accuracy) for p in one] == [
            (p.num_ands, p.valid_accuracy) for p in two
        ]

    def test_seed_changes_forest_candidates_but_stays_valid(
        self, small_problem
    ):
        frontier = run_tradeoff(small_problem, effort="small", master_seed=9)
        sizes = [p.num_ands for p in frontier]
        assert sizes == sorted(sizes)
        assert all(0.0 <= p.valid_accuracy <= 1.0 for p in frontier)
