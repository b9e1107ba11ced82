"""Team 2 (UFPel/UFRGS): J48 and PART via cross-validated selection.

The WEKA pipeline: convert the PLA to a tabular dataset, run J48
(C4.5) and PART with five confidence factors each, pick the winning
classifier+CF by cross-validation, then tune the minimum-instances
parameter (``-M``), train on train+validation merged and convert —
J48 through a PLA (``j48topla``), PART through a priority network.
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
from repro.flows.registry import register
from repro.ml.decision_tree import DecisionTree
from repro.ml.metrics import cross_val_accuracy
from repro.ml.rules import PartRuleLearner
from repro.synth.from_rules import rules_to_aig
from repro.synth.from_sop import cover_to_aig


def _fit_j48(X, y, cf: float, min_inst: int) -> DecisionTree:
    tree = DecisionTree(min_samples_leaf=max(1, min_inst))
    tree.fit(X, y)
    tree.prune(cf)
    return tree


def _cv_family_stage(ctx: FlowContext) -> None:
    """Step 1: pick classifier family and confidence factor by CV."""
    params, rng = ctx.params, ctx.rng
    merged = ctx.merged_train_valid()
    X, y = merged.X, merged.y
    best = None  # (cv_acc, family, cf)
    for cf in params["confidence_factors"]:
        j48_cv = cross_val_accuracy(
            lambda Xa, ya, Xb, cf=cf: _fit_j48(Xa, ya, cf, 2).predict(Xb),
            X, y, params["cv_folds"], rng,
        )
        part_cv = cross_val_accuracy(
            lambda Xa, ya, Xb, cf=cf: PartRuleLearner(
                confidence_factor=cf
            ).fit(Xa, ya).predict(Xb),
            X, y, params["cv_folds"], rng,
        )
        for family, acc in (("j48", j48_cv), ("part", part_cv)):
            if best is None or acc > best[0]:
                best = (acc, family, cf)
    _, ctx.state["family"], ctx.state["cf"] = best


def _tune_min_instances_stage(ctx: FlowContext) -> None:
    """Step 2: tune the minimum-instances parameter."""
    params, rng = ctx.params, ctx.rng
    merged = ctx.merged_train_valid()
    X, y = merged.X, merged.y
    family, cf = ctx.state["family"], ctx.state["cf"]
    best_m = None  # (cv_acc, m)
    for m in params["min_instances"]:
        if family == "j48":
            acc = cross_val_accuracy(
                lambda Xa, ya, Xb, m=m: _fit_j48(Xa, ya, cf, m).predict(Xb),
                X, y, params["cv_folds"], rng,
            )
        else:
            acc = cross_val_accuracy(
                lambda Xa, ya, Xb, m=m: PartRuleLearner(
                    confidence_factor=cf, min_samples_leaf=max(1, m)
                ).fit(Xa, ya).predict(Xb),
                X, y, params["cv_folds"], rng,
            )
        if best_m is None or acc > best_m[0]:
            best_m = (acc, m)
    _, ctx.state["min_instances"] = best_m


def _train_final_stage(ctx: FlowContext) -> list[Candidate]:
    """Step 3: final training and conversion."""
    merged = ctx.merged_train_valid()
    X, y = merged.X, merged.y
    family, cf = ctx.state["family"], ctx.state["cf"]
    m = ctx.state["min_instances"]
    if family == "j48":
        tree = _fit_j48(X, y, cf, m)
        aig = cover_to_aig(tree.to_cover())
        meta = {"family": "j48", "cf": cf, "min_instances": m,
                "leaves": tree.num_leaves()}
    else:
        rules = PartRuleLearner(
            confidence_factor=cf, min_samples_leaf=max(1, m)
        ).fit(X, y)
        aig = rules_to_aig(rules)
        meta = {"family": "part", "cf": cf, "min_instances": m,
                "rules": len(rules)}
    return [Candidate(family, aig, provenance=meta)]


FLOW = register(Flow(
    "team02",
    team="UFPel/UFRGS",
    techniques={"decision tree", "rule learner"},
    description="J48 vs PART by cross-validation, -M tuning, retrain "
                "on train+valid",
    efforts={
        "small": {
            "confidence_factors": (0.01, 0.25),
            "min_instances": (1, 3),
            "cv_folds": 3,
        },
        "full": {
            "confidence_factors": (0.001, 0.01, 0.1, 0.25, 0.5),
            "min_instances": (1, 2, 3, 4, 5, 10),
            "cv_folds": 10,
        },
    },
    stages=(
        Stage("cv-family", _cv_family_stage,
              "choose J48 vs PART and the confidence factor by CV"),
        Stage("tune-min-instances", _tune_min_instances_stage,
              "tune -M at the chosen family/CF"),
        Stage("train-final", _train_final_stage,
              "train on train+valid merged and convert to an AIG"),
    ),
    finalize=FinalizeSpec(),
    select=select_sole_candidate,
))
