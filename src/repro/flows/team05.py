"""Team 5 (UFRGS/UFSC): DT/RF grids + NN-guided expression search.

Decision trees and 3-tree forests are swept over depth {10, 20}, two
training-set proportions (80% and 40% of the merged data, both scored
on the same 20% validation split) and SelectKBest / SelectPercentile
feature pre-selection with three scoring functions.  Separately, an
MLP ranks features by first-layer weight magnitude and a small
exhaustive search applies OR/XOR/AND/NOT combinations over the top
four features (the XOR2 rescue path).  The best SOP under the node cap
wins.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from repro.aig.aig import AIG, lit_not
from repro.flows.api import (
    ArtifactCache,
    Candidate,
    FinalizeSpec,
    Flow,
    FlowContext,
    Stage,
)
from repro.flows.registry import register
from repro.ml.dataset import Dataset
from repro.ml.decision_tree import DecisionTree
from repro.ml.feature_select import select_k_best, select_percentile
from repro.ml.forest import RandomForest
from repro.ml.metrics import accuracy
from repro.ml.mlp import MLP
from repro.synth.from_forest import forest_to_aig
from repro.synth.from_tree import tree_to_aig

# The 2-level expression shapes of the exhaustive four-feature search.
_OPS = ("and", "or", "xor")


def _apply_op(op: str, a, b):
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return a ^ b


def _expression_search(
    features: np.ndarray, X, y, Xv, yv
) -> tuple[float, tuple]:
    """Exhaustive OR/XOR/AND/NOT combinations over <= 4 features."""
    best = (-1.0, None)
    cols = {f: X[:, f].astype(bool) for f in features}
    vcols = {f: Xv[:, f].astype(bool) for f in features}
    for subset in list(combinations(features, 2)) + list(
        combinations(features, 3)
    ) + list(combinations(features, 4)):
        for negs in product((0, 1), repeat=len(subset)):
            vals = [
                ~cols[f] if neg else cols[f]
                for f, neg in zip(subset, negs, strict=True)
            ]
            vvals = [
                ~vcols[f] if neg else vcols[f]
                for f, neg in zip(subset, negs, strict=True)
            ]
            for ops in product(_OPS, repeat=len(subset) - 1):
                acc_val = vals[0]
                vacc = vvals[0]
                for op, nxt, vnxt in zip(ops, vals[1:], vvals[1:], strict=True):
                    acc_val = _apply_op(op, acc_val, nxt)
                    vacc = _apply_op(op, vacc, vnxt)
                train_acc = accuracy(y, acc_val.astype(np.uint8))
                if train_acc < 0.75:
                    continue
                valid_acc = accuracy(yv, vacc.astype(np.uint8))
                if valid_acc > best[0]:
                    best = (valid_acc, (subset, negs, ops))
    return best


def _expression_aig(n_inputs: int, recipe) -> AIG:
    subset, negs, ops = recipe
    aig = AIG(n_inputs)
    lits = [
        lit_not(aig.input_lit(f)) if neg else aig.input_lit(f)
        for f, neg in zip(subset, negs, strict=True)
    ]
    out = lits[0]
    for op, nxt in zip(ops, lits[1:], strict=True):
        if op == "and":
            out = aig.add_and(out, nxt)
        elif op == "or":
            out = aig.add_or(out, nxt)
        else:
            out = aig.add_xor(out, nxt)
    aig.set_output(out)
    return aig


def _split_stage(ctx: FlowContext) -> None:
    """80/20 stratified split preserving the label distribution; the
    20% side is the flow's private selection set."""
    merged = ctx.merged_train_valid()
    train80, valid20 = merged.split_stratified(0.8, ctx.rng)
    ctx.state["train80"] = train80
    ctx.state["selection_data"] = valid20


def _grid_stage(ctx: FlowContext) -> list[Candidate]:
    """The DT/RF sweep over (seed, proportion, selector, depth).

    Decision trees are deterministic in their training data, so the
    synthesized+embedded tree AIG is cached by a digest of (columns,
    data): at full effort the 80%-proportion grid cells are identical
    across the three sweep seeds and train once.  Forests draw from
    the per-seed RNG stream and are never cached.
    """
    params, problem = ctx.params, ctx.problem
    train80 = ctx.state["train80"]
    out: list[Candidate] = []
    for seed in params["seeds"]:
        seed_rng = ctx.derive_rng("grid", seed)
        for proportion in params["proportions"]:
            if proportion >= 0.8:
                train = train80
            else:
                train = train80.sample_fraction(
                    proportion / 0.8, seed_rng
                )
            for selector in params["selectors"]:
                cols = _select(train, selector)
                Xs = train.X[:, cols]
                for depth in params["depths"]:
                    digest = ArtifactCache.dataset_digest(
                        Xs, train.y, cols
                    )
                    tree_aig = ctx.artifact(
                        "decision-tree",
                        (digest, depth, "gini", problem.n_inputs),
                        lambda: _embed(
                            tree_to_aig(DecisionTree(
                                max_depth=depth, criterion="gini"
                            ).fit(Xs, train.y)),
                            cols, problem.n_inputs,
                        ),
                    )
                    out.append(Candidate(
                        f"dt[d={depth},p={proportion}]", tree_aig
                    ))
                    forest = RandomForest(
                        n_trees=3, max_depth=depth,
                        feature_fraction=0.7, rng=seed_rng,
                    ).fit(Xs, train.y)
                    out.append(Candidate(
                        f"rf3[d={depth},p={proportion}]",
                        _embed(forest_to_aig(forest), cols,
                               problem.n_inputs),
                    ))
    return out


def _expression_stage(ctx: FlowContext) -> list[Candidate]:
    """NN-guided four-feature expression search."""
    params, problem = ctx.params, ctx.problem
    train80 = ctx.state["train80"]
    valid20 = ctx.state["selection_data"]
    mlp = MLP(hidden_sizes=(100,), activation="relu", rng=ctx.rng)
    mlp.fit(train80.X.astype(float), train80.y,
            epochs=params["mlp_epochs"])
    top4 = np.argsort(-mlp.feature_importance(), kind="stable")[:4]
    score, recipe = _expression_search(
        top4, train80.X, train80.y, valid20.X, valid20.y
    )
    if recipe is None:
        return []
    return [Candidate("nn-expr", _expression_aig(problem.n_inputs, recipe))]


def _select(train: Dataset, selector) -> np.ndarray:
    if selector is None:
        return np.arange(train.n_inputs)
    kind, amount, score = selector
    if kind == "kbest":
        k = max(1, int(round(amount * train.n_inputs)))
        return select_k_best(train.X, train.y, k, score)
    return select_percentile(train.X, train.y, amount, score)


def _embed(aig: AIG, cols: np.ndarray, n_inputs: int) -> AIG:
    """Remap a model built on selected columns to the full input list."""
    if len(cols) == n_inputs and np.array_equal(cols,
                                                np.arange(n_inputs)):
        return aig
    out = AIG(n_inputs)
    mapping = {0: 0}
    for local, global_col in enumerate(cols):
        mapping[1 + local] = out.input_lit(int(global_col))
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        f0, f1 = aig.fanins(base + j)
        a = mapping[f0 >> 1] ^ (f0 & 1)
        b = mapping[f1 >> 1] ^ (f1 & 1)
        mapping[base + j] = out.add_and(a, b)
    lit = aig.outputs[0]
    out.set_output(mapping[lit >> 1] ^ (lit & 1))
    return out


FLOW = register(Flow(
    "team05",
    team="UFRGS/UFSC",
    techniques={"decision tree", "random forest", "neural network",
                "feature selection"},
    description="DT/RF hyper-grid with feature pre-selection plus the "
                "NN-guided 4-feature expression rescue",
    efforts={
        "small": {
            "depths": (10,),
            "proportions": (0.8, 0.4),
            "selectors": (None, ("kbest", 0.5, "chi2")),
            "seeds": (0,),
            "mlp_epochs": 10,
        },
        "full": {
            "depths": (10, 20),
            "proportions": (0.8, 0.4),
            "selectors": (
                None,
                ("kbest", 0.25, "chi2"), ("kbest", 0.5, "chi2"),
                ("kbest", 0.75, "chi2"),
                ("kbest", 0.5, "f_classif"),
                ("kbest", 0.5, "mutual_info_classif"),
                ("percentile", 25, "chi2"), ("percentile", 50, "chi2"),
                ("percentile", 75, "chi2"),
            ),
            "seeds": (0, 1, 2),
            "mlp_epochs": 30,
        },
    },
    stages=(
        Stage("split", _split_stage, "80/20 stratified re-split"),
        Stage("grid", _grid_stage, "DT/RF sweep with feature selection"),
        Stage("nn-expr", _expression_stage,
              "NN-ranked 4-feature expression search"),
    ),
    # The team skipped the expensive passes on big SOPs.
    finalize=FinalizeSpec(optimize=lambda aig: aig.num_ands < 4000),
))
