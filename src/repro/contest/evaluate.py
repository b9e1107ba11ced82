"""Contest scoring.

"The score assigned to each participant was the average test accuracy
over all the benchmarks with possible ties being broken by the circuit
size." — plus the paper's Table III columns: average AND count,
average level count, and the overfit gap (validation minus test
accuracy)."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.contest.problem import LearningProblem, Solution
from repro.ml.metrics import accuracy
from repro.sim.batch import output_predictions


@dataclass
class Score:
    """Evaluation of one solution on one benchmark.

    ``seed`` identifies the trial in multi-seed runs (the runner's
    store sets it when reconstructing scores); ``None`` for ad-hoc
    single evaluations.  ``num_ands`` counts *used* AND nodes (the
    transitive fanin of the output) so dead logic in a non-extracted
    candidate neither inflates the size column nor flips ``legal``.
    """

    benchmark: str
    method: str
    test_accuracy: float
    valid_accuracy: float
    train_accuracy: float
    num_ands: int
    levels: int
    legal: bool
    seed: int | None = None

    @property
    def overfit(self) -> float:
        """Generalization gap as the paper defines it (valid - test)."""
        return self.valid_accuracy - self.test_accuracy


def _check_interface(problem: LearningProblem, solution: Solution) -> None:
    aig = solution.aig
    if aig.n_inputs != problem.n_inputs:
        raise ValueError(
            f"solution has {aig.n_inputs} inputs, problem has "
            f"{problem.n_inputs}"
        )
    if aig.num_outputs != 1:
        raise ValueError("contest solutions are single-output")


def evaluate_solutions(
    problem: LearningProblem,
    solutions: Sequence[Solution],
) -> list[Score]:
    """Score many solutions on one benchmark in a single batched pass.

    The test/valid/train matrices are stacked and bit-packed once;
    every circuit is then evaluated against the shared packed words,
    so scoring N candidates costs one packing plus N engine runs
    instead of 3N full simulations.
    """
    solutions = list(solutions)
    if not solutions:
        return []
    for solution in solutions:
        _check_interface(problem, solution)
    stacked = np.vstack((problem.test.X, problem.valid.X, problem.train.X))
    preds = output_predictions([s.aig for s in solutions], stacked)
    n_test = problem.test.n_samples
    n_valid = problem.valid.n_samples
    scores = []
    for solution, pred in zip(solutions, preds, strict=True):
        aig = solution.aig
        scores.append(
            Score(
                benchmark=problem.name,
                method=solution.method,
                test_accuracy=accuracy(problem.test.y, pred[:n_test]),
                valid_accuracy=accuracy(
                    problem.valid.y, pred[n_test : n_test + n_valid]
                ),
                train_accuracy=accuracy(
                    problem.train.y, pred[n_test + n_valid :]
                ),
                num_ands=aig.count_used_ands(),
                levels=aig.depth(),
                legal=solution.is_legal(),
            )
        )
    return scores


def evaluate_solution(
    problem: LearningProblem,
    solution: Solution,
) -> Score:
    """Score a solution on all three sample sets (one simulation pass)."""
    return evaluate_solutions(problem, [solution])[0]


def summarize(scores: Iterable[Score]) -> dict[str, float]:
    """Table III row for one team: averages over benchmarks."""
    scores = list(scores)
    if not scores:
        raise ValueError("no scores to summarize")
    return {
        "test_accuracy": float(np.mean([s.test_accuracy for s in scores])),
        "and_gates": float(np.mean([s.num_ands for s in scores])),
        "levels": float(np.mean([s.levels for s in scores])),
        "overfit": float(np.mean([s.overfit for s in scores])),
        "legal_fraction": float(np.mean([s.legal for s in scores])),
    }
