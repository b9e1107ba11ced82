"""Team 6 (TU Dresden): pure memorization LUT networks.

Builds Chatterjee-style LUT networks over the training minterms,
sweeping the four hyper-parameters the write-up lists — LUT arity,
LUTs per layer, wiring scheme ('random set of inputs' vs 'unique but
random set of inputs') and depth — and keeps the best validation
configuration.  4-input LUTs gave the team the best average, which the
ablation bench reproduces.
"""

from __future__ import annotations

from repro.flows.api import Candidate, Flow, FlowContext, Stage
from repro.flows.common import finalize_aig
from repro.flows.registry import register
from repro.ml.lutnet import LUTNetwork
from repro.synth.from_lutnet import lutnet_to_aig


def _lut_sweep_stage(ctx: FlowContext) -> list[Candidate]:
    """Sweep scheme x arity x shape; candidates are finalized inline
    (the RNG stream interleaves training and finalization, as the
    original flow did)."""
    params, rng, problem = ctx.params, ctx.rng, ctx.problem
    out: list[Candidate] = []
    for scheme in params["schemes"]:
        for lut_size in params["lut_sizes"]:
            for layers, width in params["shapes"]:
                net = LUTNetwork(
                    n_layers=layers,
                    luts_per_layer=width,
                    lut_size=lut_size,
                    scheme=scheme,
                    rng=rng,
                )
                net.fit(problem.train.X, problem.train.y)
                aig = lutnet_to_aig(net)
                aig = finalize_aig(aig, rng, optimize=aig.num_ands < 4000)
                out.append(Candidate(
                    f"lutnet[{scheme},k={lut_size},{layers}x{width}]", aig
                ))
    return out


FLOW = register(Flow(
    "team06",
    team="TU Dresden",
    techniques={"LUT network"},
    description="Memorization LUT networks over arity/shape/wiring "
                "sweeps",
    efforts={
        "small": {
            "shapes": ((2, 32), (3, 64)),
            "lut_sizes": (4,),
            "schemes": ("random", "unique"),
        },
        "full": {
            "shapes": ((2, 64), (3, 128), (4, 256), (6, 256)),
            "lut_sizes": (2, 4, 6),
            "schemes": ("random", "unique"),
        },
    },
    stages=(
        Stage("lut-sweep", _lut_sweep_stage,
              "LUT-network hyper-parameter sweep"),
    ),
    finalize=None,  # finalization interleaves with training
))
