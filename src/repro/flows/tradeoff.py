"""Accuracy-area trade-off flow (the paper's second proposed extension).

The conclusion asks for "algorithms generating an optimal trade-off
between accuracy and area (instead of a single solution)".  This flow
returns a *Pareto set* of solutions per benchmark: candidates are
generated along two axes that the paper identifies as the main
accuracy/size levers — model capacity (tree depth / forest size) and
Team 1-style post-hoc approximation — then filtered to the frontier
using validation accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.aig import AIG
from repro.aig.approx import approximate_to_size
from repro.contest.problem import MAX_AND_NODES, LearningProblem, Solution
from repro.flows.common import aig_accuracy, flow_rng
from repro.ml.decision_tree import DecisionTree
from repro.ml.forest import RandomForest
from repro.synth.from_forest import forest_to_aig
from repro.synth.from_tree import tree_to_aig


@dataclass
class TradeoffPoint:
    """One Pareto-frontier entry."""

    solution: Solution
    valid_accuracy: float

    @property
    def num_ands(self) -> int:
        return self.solution.num_ands


def run_tradeoff(
    problem: LearningProblem,
    effort: str = "small",
    master_seed: int = 0,
) -> list[TradeoffPoint]:
    """Return the validation-accuracy/size Pareto set (size ascending).

    Every returned circuit respects the contest node cap; successive
    entries strictly increase in both size and validation accuracy.
    """
    rng = flow_rng("tradeoff", problem, master_seed)
    depths = (2, 4, 6, 8) if effort == "small" else (2, 4, 6, 8, 10, 12)
    forest_sizes = (3, 7) if effort == "small" else (3, 7, 11, 15)

    candidates: list[AIG] = []
    for depth in depths:
        tree = DecisionTree(max_depth=depth).fit(
            problem.train.X, problem.train.y
        )
        candidates.append(tree_to_aig(tree).extract_cone())
    for n_trees in forest_sizes:
        forest = RandomForest(
            n_trees=n_trees, max_depth=8, feature_fraction=0.6, rng=rng
        ).fit(problem.train.X, problem.train.y)
        candidates.append(forest_to_aig(forest).extract_cone())
    # Approximation ladder from the largest candidate.
    largest = max(candidates, key=lambda a: a.num_ands)
    target = largest.num_ands // 2
    while target >= 8:
        candidates.append(
            approximate_to_size(largest, max_ands=target, rng=rng)
        )
        target //= 2

    scored = [
        (aig, aig_accuracy(aig, problem.valid))
        for aig in candidates
        if aig.num_ands <= MAX_AND_NODES
    ]
    scored.sort(key=lambda entry: (entry[0].num_ands, -entry[1]))
    frontier: list[TradeoffPoint] = []
    best = -1.0
    for aig, acc in scored:
        if acc > best:
            best = acc
            frontier.append(
                TradeoffPoint(
                    solution=Solution(aig=aig, method="tradeoff"),
                    valid_accuracy=acc,
                )
            )
    return frontier
