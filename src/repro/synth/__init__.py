"""Bridges from learned models to And-Inverter Graphs.

Each team's flow ends by compiling its model into the contest's AIG
format: decision trees become MUX trees (Teams 8/10) or path covers
(Teams 2/5/7), rule lists become priority networks (Team 2), forests
get a majority voter (Teams 5/8), boosted trees a MAJ-5 tree (Team 7),
pruned MLP neurons and LUT-network cells become LUTs (Teams 3/6).
"""

from repro.synth.from_boosted import boosted_to_aig
from repro.synth.from_forest import forest_to_aig
from repro.synth.from_lutnet import lutnet_to_aig
from repro.synth.from_mlp import mlp_to_aig
from repro.synth.from_rules import rules_to_aig
from repro.synth.from_sop import cover_to_aig
from repro.synth.from_tree import fringe_dt_to_aig, tree_to_aig
from repro.synth.matching import match_standard_function

__all__ = [
    "cover_to_aig",
    "tree_to_aig",
    "fringe_dt_to_aig",
    "forest_to_aig",
    "rules_to_aig",
    "boosted_to_aig",
    "mlp_to_aig",
    "lutnet_to_aig",
    "match_standard_function",
]
