"""Team 1 (Tokyo/Berkeley) — the contest winner.

Portfolio of four methods, best-on-validation wins:

1. pre-defined standard function matching (adders, comparators,
   symmetric functions, ...) — "the most important method in the
   contest";
2. ESPRESSO stopped after the first irredundant pass;
3. a memorization LUT network whose shape parameters are beam-searched
   while validation accuracy improves;
4. random forests with 4-16 estimators.

Any circuit above 5000 AND nodes is reduced by simulation-guided
constant substitution (``repro.aig.approx``).
"""

from __future__ import annotations

from repro.flows.api import (
    Candidate,
    FinalizeSpec,
    Flow,
    FlowContext,
    Stage,
    match_standard_stage,
)
from repro.flows.common import aig_accuracy
from repro.flows.registry import register
from repro.ml.forest import RandomForest
from repro.ml.lutnet import LUTNetwork
from repro.synth.from_forest import forest_to_aig
from repro.synth.from_lutnet import lutnet_to_aig
from repro.synth.from_sop import cover_to_aig
from repro.twolevel.espresso import espresso_from_samples


def _espresso_stage(ctx: FlowContext) -> list[Candidate]:
    """ESPRESSO with first-irredundant stop (subsampled when large:
    two-level covers of huge sample sets overfit anyway)."""
    limit = ctx.params["espresso_max_samples"]
    esp_data = ctx.problem.train
    if esp_data.n_samples > limit:
        # The subsample draws from the flow's RNG stream, so the cover
        # is flow-specific and must not be cached.
        esp_data = esp_data.sample_fraction(
            limit / esp_data.n_samples, ctx.rng
        )
        cover = espresso_from_samples(
            esp_data.X, esp_data.y, first_irredundant=True
        )
    else:
        # Deterministic function of the training set: shareable.
        cover = ctx.artifact(
            "espresso-cover", ("train", True),
            lambda: espresso_from_samples(
                esp_data.X, esp_data.y, first_irredundant=True
            ),
        )
    return [Candidate("espresso", cover_to_aig(cover))]


def _lut_beam_stage(ctx: FlowContext) -> list[Candidate]:
    """Increment LUT-network shape while validation accuracy improves."""
    layers, width = ctx.params["lut_start"]
    out: list[Candidate] = []
    best_acc = -1.0
    for _ in range(ctx.params["lut_beam_steps"]):
        net = LUTNetwork(
            n_layers=layers, luts_per_layer=width, lut_size=4, rng=ctx.rng
        )
        net.fit(ctx.problem.train.X, ctx.problem.train.y)
        aig = lutnet_to_aig(net).extract_cone()
        acc = aig_accuracy(aig, ctx.problem.valid)
        out.append(Candidate(f"lutnet[{layers}x{width}]", aig))
        if acc <= best_acc:
            break
        best_acc = acc
        layers, width = layers + 1, width * 2
    return out


def _forest_stage(ctx: FlowContext) -> list[Candidate]:
    """Random forests, 4-16 estimators (odd counts for clean votes)."""
    out: list[Candidate] = []
    for n_trees in ctx.params["forest_sizes"]:
        forest = RandomForest(
            n_trees=n_trees,
            max_depth=ctx.params["forest_depth"],
            feature_fraction=0.5,
            rng=ctx.rng,
        )
        forest.fit(ctx.problem.train.X, ctx.problem.train.y)
        out.append(Candidate(f"rf{n_trees}", forest_to_aig(forest)))
    return out


FLOW = register(Flow(
    "team01",
    team="Tokyo/Berkeley",
    techniques={"random forest", "LUT network", "ESPRESSO/SOP",
                "function matching", "approximation"},
    description="Match / espresso / LUT-net beam / forests, "
                "best-on-validation (the contest winner)",
    efforts={
        "small": {
            "forest_sizes": (5, 9),
            "forest_depth": 8,
            "lut_start": (2, 32),     # layers, width
            "lut_beam_steps": 2,
            "espresso_max_samples": 3000,
        },
        "full": {
            "forest_sizes": (5, 7, 9, 11, 13, 15),
            "forest_depth": 10,
            "lut_start": (2, 64),
            "lut_beam_steps": 6,
            "espresso_max_samples": 13000,
        },
    },
    stages=(
        Stage("match", match_standard_stage,
              "exact standard-function hit ends the flow"),
        Stage("espresso", _espresso_stage,
              "first-irredundant two-level cover"),
        Stage("lutnet-beam", _lut_beam_stage,
              "LUT-network shape beam search"),
        Stage("forests", _forest_stage, "random forest sweep"),
    ),
    # Approximate oversize candidates before comparing, as the team did.
    finalize=FinalizeSpec(),
))
