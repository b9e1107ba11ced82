"""Team 3 (NTU): DT / fringe-DT / pruned-NN models, 3-way ensemble.

The merged train+validation data is re-divided into three partitions;
each of the three leave-one-out groupings trains several models
(decision trees, fringe-feature trees, and a pruned MLP synthesized
neuron-by-neuron into LUTs) and keeps its validation winner.  The
submitted circuit is the majority vote of the three kept models; if it
busts the node cap the largest member is swapped for a smaller one.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import AIG
from repro.contest.problem import MAX_AND_NODES
from repro.flows.api import (
    Candidate,
    FinalizeSpec,
    Flow,
    FlowContext,
    Stage,
    StageOutcome,
    select_sole_candidate,
)
from repro.flows.common import aig_accuracy, constant_solution
from repro.flows.registry import register
from repro.ml.dataset import Dataset
from repro.ml.decision_tree import DecisionTree
from repro.ml.fringe import FringeDT
from repro.ml.mlp import MLP
from repro.synth.from_mlp import mlp_to_aig
from repro.synth.from_tree import fringe_dt_to_aig, tree_to_aig


def _train_candidates(
    train: Dataset, params, rng
) -> list[tuple[str, AIG]]:
    out: list[tuple[str, AIG]] = []
    for depth in params["dt_depths"]:
        tree = DecisionTree(max_depth=depth).fit(train.X, train.y)
        tree.prune(0.25)
        out.append((f"dt{depth}", tree_to_aig(tree)))
    fringe = FringeDT(
        max_iterations=params["fringe_iterations"],
        max_depth=10,
    ).fit(train.X, train.y)
    out.append(("fringe", fringe_dt_to_aig(fringe)))
    if train.n_inputs <= params["mlp_max_inputs"]:
        mlp = MLP(hidden_sizes=params["mlp_hidden"], activation="sigmoid",
                  rng=rng)
        mlp.fit(train.X.astype(float), train.y,
                epochs=params["mlp_epochs"])
        mlp.prune_to_fanin(
            params["prune_fanin"], train.X.astype(float), train.y,
            rounds=2, retrain_epochs=max(3, params["mlp_epochs"] // 4),
        )
        out.append(("nn", mlp_to_aig(mlp)))
    return out


def _ensemble_stage(ctx: FlowContext) -> StageOutcome:
    """Train per-partition winners, majority-vote them, recover size."""
    params, rng, problem = ctx.params, ctx.rng, ctx.problem
    merged = ctx.merged_train_valid()
    n = merged.n_samples
    order = rng.permutation(n)
    thirds = np.array_split(order, 3)

    members: list[tuple[str, AIG, float]] = []
    for g in range(3):
        valid_idx = thirds[g]
        train_idx = np.concatenate([thirds[j] for j in range(3) if j != g])
        train = merged.subset(train_idx)
        valid = merged.subset(valid_idx)
        best: tuple[str, AIG, float] | None = None
        for name, aig in _train_candidates(train, params, rng):
            aig = aig.extract_cone()
            acc = aig_accuracy(aig, valid)
            if best is None or acc > best[2] or (
                acc == best[2] and aig.num_ands < best[1].num_ands
            ):
                best = (name, aig, acc)
        if best is not None:
            members.append(best)

    if not members:
        return constant_solution(problem, "team03")

    def ensemble_of(selected: list[tuple[str, AIG, float]]) -> AIG:
        ens = AIG(problem.n_inputs)
        inputs = ens.input_lits()
        if len(selected) == 3:
            votes = [_graft(ens, aig, inputs) for _, aig, _ in selected]
            ens.set_output(ens.add_maj3(*votes))
        else:
            # Fewer than three members: fall back to the single best.
            _, aig, _ = max(selected, key=lambda m: m[2])
            ens.set_output(_graft(ens, aig, inputs))
        return ens

    members_now = list(members)
    ensemble = ensemble_of(members_now)
    # Size recovery: drop the largest member while over budget.
    while ensemble.num_ands > MAX_AND_NODES and len(members_now) > 1:
        largest = max(range(len(members_now)),
                      key=lambda i: members_now[i][1].num_ands)
        members_now.pop(largest)
        ensemble = ensemble_of(members_now)
    return [Candidate(
        "ensemble", ensemble,
        provenance={"members": [m[0] for m in members_now]},
    )]


def _graft(target: AIG, source: AIG, input_lits) -> int:
    """Copy ``source``'s single output cone into ``target``."""
    mapping = {0: 0}
    for i in range(source.n_inputs):
        mapping[1 + i] = input_lits[i]
    base = source.n_inputs + 1
    for j in range(source.num_ands):
        f0, f1 = source.fanins(base + j)
        a = mapping[f0 >> 1] ^ (f0 & 1)
        b = mapping[f1 >> 1] ^ (f1 & 1)
        mapping[base + j] = target.add_and(a, b)
    out = source.outputs[0]
    return mapping[out >> 1] ^ (out & 1)


FLOW = register(Flow(
    "team03",
    team="NTU",
    techniques={"decision tree", "neural network", "ensemble"},
    description="3-partition leave-one-out winners, MAJ-3 vote with "
                "size recovery",
    efforts={
        "small": {
            "dt_depths": (8,),
            "fringe_iterations": 4,
            "mlp_hidden": (24,),
            "mlp_epochs": 15,
            "mlp_max_inputs": 64,
            "prune_fanin": 8,
        },
        "full": {
            "dt_depths": (8, 12, None),
            "fringe_iterations": 10,
            "mlp_hidden": (64, 32),
            "mlp_epochs": 60,
            "mlp_max_inputs": 256,
            "prune_fanin": 12,
        },
    },
    stages=(
        Stage("ensemble", _ensemble_stage,
              "per-partition winners, majority vote, size recovery"),
    ),
    finalize=FinalizeSpec(),
    select=select_sole_candidate,
))
