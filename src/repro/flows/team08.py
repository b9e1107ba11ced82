"""Team 8 (Cornell): bucket-of-models ensemble.

Three model classes are trained independently — a C4.5-style tree
augmented with functional decomposition when the information gain is
weak, a 17-tree depth-8 random forest, and an MLP whose activation may
be *sine* (periodic features; their parity-circuit rescue).  The MLP is
synthesized by full truth-table enumeration, which restricts it to
benchmarks with fewer than ~20 inputs.  The model with the best
validation accuracy that stays under 5000 gates is submitted.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import AIG
from repro.aig.build import from_truth_table
from repro.flows.api import Candidate, FinalizeSpec, Flow, FlowContext, Stage
from repro.flows.registry import register
from repro.ml.decision_tree import DecisionTree
from repro.ml.forest import RandomForest
from repro.ml.mlp import MLP
from repro.synth.from_forest import forest_to_aig
from repro.synth.from_tree import tree_to_aig


def _decomposing_tree_stage(ctx: FlowContext) -> list[Candidate]:
    """Custom C4.5 with functional decomposition (grid over tau / N)."""
    params, problem = ctx.params, ctx.problem
    X, y = problem.train.X, problem.train.y
    out: list[Candidate] = []
    for tau in params["taus"]:
        for min_samples in params["min_samples"]:
            tree = DecisionTree(
                min_samples_leaf=min_samples,
                decomposition_tau=tau,
                max_depth=12,
            ).fit(X, y)
            out.append(Candidate(
                f"bdt[tau={tau},N={min_samples}]", tree_to_aig(tree)
            ))
    return out


def _forest_stage(ctx: FlowContext) -> list[Candidate]:
    params, problem = ctx.params, ctx.problem
    forest = RandomForest(
        n_trees=params["forest_trees"], max_depth=8, rng=ctx.rng
    ).fit(problem.train.X, problem.train.y)
    return [Candidate(
        f"rf{params['forest_trees']}", forest_to_aig(forest)
    )]


def _mlp_truth_table_aig(
    problem, params, activation: str, rng
) -> AIG:
    """Train an MLP and synthesize it by exhaustive enumeration."""
    n = problem.n_inputs
    mlp = MLP(hidden_sizes=params["mlp_hidden"], activation=activation,
              rng=rng)
    mlp.fit(problem.train.X.astype(float), problem.train.y,
            epochs=params["mlp_epochs"])
    grid = np.zeros((1 << n, n), dtype=np.uint8)
    for i in range(n):
        grid[:, i] = (np.arange(1 << n) >> i) & 1
    pred = mlp.predict(grid.astype(float))
    table = 0
    for m in np.nonzero(pred)[0]:
        table |= 1 << int(m)
    return from_truth_table(table, n)


def _mlp_stage(ctx: FlowContext) -> list[Candidate]:
    """Sine/ReLU MLPs via full truth-table enumeration (small inputs)."""
    params, problem = ctx.params, ctx.problem
    if problem.n_inputs > params["mlp_max_inputs"]:
        return []
    return [
        Candidate(
            f"mlp-{activation}",
            _mlp_truth_table_aig(problem, params, activation, ctx.rng),
        )
        for activation in ("sine", "relu")
    ]


FLOW = register(Flow(
    "team08",
    team="Cornell",
    techniques={"decision tree", "random forest", "neural network",
                "ensemble"},
    description="Bucket of models: decomposing C4.5 grid, 17-tree "
                "forest, sine/ReLU MLPs by truth-table enumeration",
    efforts={
        "small": {
            "taus": (0.01,),
            "min_samples": (1, 8),
            "forest_trees": 9,
            "mlp_max_inputs": 16,
            "mlp_epochs": 30,
            "mlp_hidden": (24, 12),
        },
        "full": {
            "taus": (0.005, 0.02, 0.05),
            "min_samples": (1, 4, 8, 16),
            "forest_trees": 17,
            "mlp_max_inputs": 20,
            "mlp_epochs": 80,
            "mlp_hidden": (64, 32),
        },
    },
    stages=(
        Stage("decomposing-trees", _decomposing_tree_stage,
              "C4.5 + functional decomposition grid"),
        Stage("forest", _forest_stage, "17-tree random forest"),
        Stage("mlp", _mlp_stage, "sine/ReLU MLP truth-table synthesis"),
    ),
    finalize=FinalizeSpec(),
))
