"""Team 7 (Wisconsin/IBM): function matching, else trees or XGBoost.

Before any ML, the training data is checked against symmetric
functions and pre-defined arithmetic patterns (the SHAP analysis in
the appendix is how such patterns were found); a hit emits the exact
custom AIG.  Otherwise 10-fold cross-validation decides between a
single unlimited-depth decision tree and a gradient-boosted ensemble
(125 trees, depth 5 at full effort); tree leaves become minimized SOP
terms, boosted leaves are quantized to one bit and aggregated with the
MAJ-5 network of Fig. 25.  Depth/round reductions kick in if the AIG
busts the cap.
"""

from __future__ import annotations

from repro.contest.problem import MAX_AND_NODES
from repro.flows.api import (
    Candidate,
    FinalizeSpec,
    Flow,
    FlowContext,
    Stage,
    match_standard_stage,
    select_sole_candidate,
)
from repro.flows.registry import register
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.decision_tree import DecisionTree
from repro.ml.metrics import cross_val_accuracy
from repro.synth.from_boosted import boosted_to_aig
from repro.synth.from_sop import cover_to_aig


def _model_stage(ctx: FlowContext) -> list[Candidate]:
    """CV chooses DT vs boosted trees; cap recovery refits smaller."""
    params, rng = ctx.params, ctx.rng
    X, y = ctx.problem.train.X, ctx.problem.train.y
    dt_cv = cross_val_accuracy(
        lambda Xa, ya, Xb: DecisionTree().fit(Xa, ya).predict(Xb),
        X, y, params["cv_folds"], rng,
    )
    xgb_cv = cross_val_accuracy(
        lambda Xa, ya, Xb: GradientBoostedTrees(
            n_estimators=params["n_rounds"] // 2,
            max_depth=params["depth"],
        ).fit(Xa, ya).predict(Xb),
        X, y, params["cv_folds"], rng,
    )

    if dt_cv >= xgb_cv:
        tree = DecisionTree().fit(X, y)
        aig = cover_to_aig(tree.to_cover())
        # Cap handling: re-fit shallower trees until legal.
        depth = 16
        while aig.num_ands > MAX_AND_NODES and depth >= 4:
            tree = DecisionTree(max_depth=depth).fit(X, y)
            aig = cover_to_aig(tree.to_cover())
            depth -= 4
        family = "dt"
    else:
        rounds, depth = params["n_rounds"], params["depth"]
        model = GradientBoostedTrees(
            n_estimators=rounds, max_depth=depth
        ).fit(X, y)
        aig = boosted_to_aig(model)
        while aig.num_ands > MAX_AND_NODES and rounds > 5:
            rounds //= 2
            model = GradientBoostedTrees(
                n_estimators=rounds, max_depth=depth
            ).fit(X, y)
            aig = boosted_to_aig(model)
        family = "xgb"
    return [Candidate(
        family, aig, provenance={"dt_cv": dt_cv, "xgb_cv": xgb_cv}
    )]


FLOW = register(Flow(
    "team07",
    team="Wisconsin/IBM",
    techniques={"decision tree", "boosting", "function matching",
                "feature selection"},
    description="Standard-function matching, else CV-chosen DT vs "
                "gradient boosting with cap recovery",
    efforts={
        "small": {"n_rounds": 40, "depth": 4, "cv_folds": 3},
        "full": {"n_rounds": 125, "depth": 5, "cv_folds": 10},
    },
    stages=(
        Stage("match", match_standard_stage,
              "exact standard-function hit ends the flow"),
        Stage("model", _model_stage,
              "CV-selected DT or boosted ensemble"),
    ),
    finalize=FinalizeSpec(),
    select=select_sole_candidate,
))
