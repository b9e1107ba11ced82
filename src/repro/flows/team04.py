"""Team 4 (UT Austin): feature selection + AFN-style net + subspace
expansion.

The boolean space is pruned by a two-level feature-importance ranking
(an ensemble-model permutation importance, then score-based
cross-checked rankings) producing top-k feature groups for k in
[10, 16].  A logarithmic-interaction network (our AFN substitute) is
trained per group; its predictions over the full 2^k sub-hypercube are
expanded into a PLA whose pruned inputs are don't cares, synthesized,
and the best accuracy-vs-node candidate is kept (re-splitting the data
and retrying when everything scores badly).
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import AIG
from repro.aig.build import mux_tree_from_table
from repro.contest.problem import Solution
from repro.flows.api import Candidate, Flow, FlowContext, Stage
from repro.flows.common import constant_solution, finalize_aig, pick_best
from repro.flows.registry import register
from repro.ml.feature_select import (
    chi2_scores,
    mutual_info_scores,
    permutation_importance,
)
from repro.ml.forest import RandomForest
from repro.ml.mlp import LogInteractionNet


def _feature_groups(problem, params, rng) -> list[np.ndarray]:
    """Two-level importance ranking -> candidate feature index groups."""
    X, y = problem.train.X, problem.train.y
    n = X.shape[1]
    groups: list[np.ndarray] = []
    # Level 1: permutation importance of a small forest ensemble.
    forest = RandomForest(
        n_trees=9, max_depth=6, feature_fraction=0.5, rng=rng
    ).fit(X, y)
    sub = problem.valid.X[:512], problem.valid.y[:512]
    perm = permutation_importance(
        forest.predict, sub[0], sub[1],
        n_repeats=params["perm_repeats"], rng=rng,
    )
    # Level 2: model-free scores cross-checked.
    scores2 = chi2_scores(X, y) + mutual_info_scores(X, y)
    for k in params["ks"]:
        k = min(k, n)
        groups.append(np.sort(np.argsort(-perm, kind="stable")[:k]))
        groups.append(np.sort(np.argsort(-scores2, kind="stable")[:k]))
    # Deduplicate identical groups.
    unique = []
    seen = set()
    for g in groups:
        key = tuple(g.tolist())
        if key not in seen:
            seen.add(key)
            unique.append(g)
    return unique


def _subspace_aig(
    problem, group: np.ndarray, model: LogInteractionNet
) -> AIG:
    """Predict all 2^k patterns and synthesize over the selected
    features (the pruned inputs become structural don't cares)."""
    k = len(group)
    grid = np.zeros((1 << k, k), dtype=np.uint8)
    for i in range(k):
        grid[:, i] = (np.arange(1 << k) >> i) & 1
    pred = model.predict(grid)
    table = 0
    for m in np.nonzero(pred)[0]:
        table |= 1 << int(m)
    aig = AIG(problem.n_inputs)
    leaves = [aig.input_lit(int(c)) for c in group]
    aig.set_output(mux_tree_from_table(aig, table, leaves))
    return aig


def _afn_search_stage(ctx: FlowContext) -> list[Candidate]:
    """The whole retry loop: rank features, train per-group nets,
    expand subspaces, keep retrying (fresh RNG stream per attempt)
    until a candidate validates at 60%+ or attempts run out.  The
    chosen attempt's ``pick_best`` result is stashed for the selector,
    so the validation sweep runs once."""
    params, problem = ctx.params, ctx.problem
    candidates: list[Candidate] = []
    best = None
    for attempt in range(params["retries"] + 1):
        rng = ctx.derive_rng(attempt)
        groups = _feature_groups(problem, params, rng)
        candidates = []
        for gi, group in enumerate(groups):
            model = LogInteractionNet(
                n_cross=params["n_cross"],
                hidden_sizes=params["hidden"],
                rng=rng,
            )
            model.fit(
                problem.train.X[:, group], problem.train.y,
                epochs=params["epochs"],
            )
            aig = _subspace_aig(problem, group, model)
            aig = finalize_aig(aig, rng)
            candidates.append(Candidate(f"afn[k={len(group)},g={gi}]", aig))
        best = pick_best(
            [(c.name, c.aig) for c in candidates], problem.valid
        )
        if best is not None and best[2] >= 0.6:
            break
    ctx.state["best"] = best
    return candidates


def _select_stashed_best(ctx: FlowContext) -> Solution:
    """Package the winner the search stage already scored (identical
    outcome to the default funnel, minus a redundant re-simulation)."""
    best = ctx.state["best"]
    if best is None:
        return constant_solution(ctx.problem, ctx.flow.name)
    name, aig, acc = best
    return ctx.flow.package(ctx, name, aig, acc)


FLOW = register(Flow(
    "team04",
    team="UT Austin",
    techniques={"neural network", "feature selection", "boosting"},
    description="Importance-ranked feature groups, AFN-style nets, "
                "2^k subspace expansion with retries",
    efforts={
        "small": {
            "ks": (10, 12),
            "epochs": 15,
            "n_cross": 24,
            "hidden": (32,),
            "perm_repeats": 2,
            "retries": 1,
        },
        "full": {
            "ks": (10, 11, 12, 13, 14, 15, 16),
            "epochs": 60,
            "n_cross": 64,
            "hidden": (80, 64),
            "perm_repeats": 10,
            "retries": 3,
        },
    },
    stages=(
        Stage("afn-search", _afn_search_stage,
              "feature groups -> subspace nets, retry on bad scores"),
    ),
    finalize=None,  # finalization happens inside the attempt loop
    select=_select_stashed_best,
))
