"""Team 10 (Utah): depth-8 decision trees with training augmentation.

Train a max-depth-8 DT on the training PLA; if validation accuracy is
below 70%, merge the validation set into the training set and retrain
(the paper notes the failing cases hovered around 50% regardless).
The tree is annotated as a multiplexer netlist and optimized — the
flow that produced the smallest circuits in the contest (average 140
AND nodes, none above 300).
"""

from __future__ import annotations

from repro.flows.api import (
    Candidate,
    FinalizeSpec,
    Flow,
    FlowContext,
    Stage,
    select_sole_candidate,
)
from repro.flows.common import aig_accuracy
from repro.flows.registry import register
from repro.ml.decision_tree import DecisionTree
from repro.synth.from_tree import tree_to_aig

MAX_DEPTH = 8
MIN_VALID_ACCURACY = 0.70


def _tree_stage(ctx: FlowContext) -> list[Candidate]:
    problem = ctx.problem
    tree = DecisionTree(max_depth=MAX_DEPTH, criterion="gini")
    tree.fit(problem.train.X, problem.train.y)
    aig = tree_to_aig(tree)
    valid_acc = aig_accuracy(aig, problem.valid)
    augmented = False
    if valid_acc < MIN_VALID_ACCURACY:
        merged = ctx.merged_train_valid()
        tree = DecisionTree(max_depth=MAX_DEPTH, criterion="gini")
        tree.fit(merged.X, merged.y)
        aig = tree_to_aig(tree)
        augmented = True
    return [Candidate(
        "dt8", aig,
        provenance={"augmented": augmented, "leaves": tree.num_leaves()},
    )]


FLOW = register(Flow(
    "team10",
    team="Utah",
    techniques={"decision tree"},
    description="Depth-8 decision tree, retrained on train+valid when "
                "validation accuracy dips below 70%",
    # A single configuration: the effort knob is accepted (contract)
    # but changes nothing.
    efforts={"small": {}, "full": {}},
    stages=(
        Stage("dt8", _tree_stage,
              "depth-8 DT with conditional augmentation"),
    ),
    finalize=FinalizeSpec(),
    select=select_sole_candidate,
))
