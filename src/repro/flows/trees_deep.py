"""``trees-deep``: decision-tree candidates finalized by ``compress_deep``.

Decision trees at a few leaf granularities, trained on train+valid
merged and synthesized through the SOP path, then finalized with
``FinalizeSpec(deep=True)``: ``finalize_aig`` runs the fixed-order
deep hill climb (:func:`repro.aig.opt.passes.compress_deep`) where every
team flow runs ``compress``.  Every pass is exact, so the flow's
validation accuracy equals that of a plain-``compress`` twin over the
same candidates and only sizes differ — ``bench_deep_compress.py``
pins both.

Tree training is deterministic, so each tree is artifact-cached by
its data digest and hyper-parameters; a twin run with the same
:class:`~repro.flows.api.ArtifactCache` starts from the same circuits.
"""

from __future__ import annotations

from repro.flows.api import (
    ArtifactCache,
    Candidate,
    FinalizeSpec,
    Flow,
    FlowContext,
    Stage,
)
from repro.flows.registry import register
from repro.ml.decision_tree import DecisionTree
from repro.synth.from_sop import cover_to_aig


def _tree_candidates_stage(ctx: FlowContext) -> list[Candidate]:
    """Decision trees at the effort grid's leaf granularities."""
    merged = ctx.merged_train_valid()
    X, y = merged.X, merged.y
    digest = ArtifactCache.dataset_digest(X, y)
    out: list[Candidate] = []
    for leaf in ctx.params["leaf_sizes"]:
        aig = ctx.artifact(
            "sop-tree",
            (digest, leaf, ctx.params["prune_cf"]),
            lambda leaf=leaf: cover_to_aig(
                DecisionTree(min_samples_leaf=leaf)
                .fit(X, y)
                .prune(ctx.params["prune_cf"])
                .to_cover()
            ),
        )
        out.append(Candidate(f"tree-m{leaf}", aig, {"leaf": leaf}))
    return out


_EFFORTS = {
    "small": {"leaf_sizes": (1, 3), "prune_cf": 0.25},
    "full": {"leaf_sizes": (1, 2, 4, 8), "prune_cf": 0.25},
}

FLOW = register(Flow(
    "trees-deep",
    team="trees-deep",
    techniques={"decision tree"},
    description="Decision-tree candidates finalized by the fixed-order "
                "deep compress",
    efforts=_EFFORTS,
    stages=(
        Stage("candidates", _tree_candidates_stage,
              "decision trees at several leaf granularities"),
    ),
    finalize=FinalizeSpec(deep=True),
))
