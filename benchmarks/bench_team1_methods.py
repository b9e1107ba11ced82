"""Figs. 5 and 6: Team 1's preliminary experiment.

ESPRESSO vs LUT network vs random forest run as single methods over a
benchmark spread, reporting test accuracy (Fig. 5) and AIG size
(Fig. 6).  Paper shape: "Generally Random forests works best, but LUT
network works better in a few cases among case 90-99"; all methods
fail (≈50%) on the wide adder/multiplier/sqrt cases; ESPRESSO always
stays well under 5000 nodes because it conforms to the training
minterms.
"""

import numpy as np

from _report import echo
from repro.contest import DEFAULT_REGISTRY
from repro.flows.common import aig_accuracy
from repro.ml.forest import RandomForest
from repro.ml.lutnet import LUTNetwork
from repro.synth.from_forest import forest_to_aig
from repro.synth.from_lutnet import lutnet_to_aig
from repro.synth.from_sop import cover_to_aig
from repro.twolevel.espresso import espresso_from_samples
from repro.utils.rng import rng_for

CASES = [0, 21, 30, 41, 60, 75, 80, 90]  # easy + hard spread


def _run_methods(samples):
    results = {}
    for idx in CASES:
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(idx), n_train=samples,
            n_valid=samples, n_test=samples,
        )
        rng = rng_for("bench-team1", idx)
        row = {}
        cover = espresso_from_samples(
            problem.train.X, problem.train.y, first_irredundant=True
        )
        esp_aig = cover_to_aig(cover).extract_cone()
        row["espresso"] = (aig_accuracy(esp_aig, problem.test),
                           esp_aig.num_ands)
        net = LUTNetwork(n_layers=3, luts_per_layer=64, lut_size=4,
                         rng=rng).fit(problem.train.X, problem.train.y)
        lut_aig = lutnet_to_aig(net).extract_cone()
        row["lutnet"] = (aig_accuracy(lut_aig, problem.test),
                         lut_aig.num_ands)
        forest = RandomForest(n_trees=9, max_depth=8,
                              feature_fraction=0.5, rng=rng)
        forest.fit(problem.train.X, problem.train.y)
        rf_aig = forest_to_aig(forest).extract_cone()
        row["forest"] = (aig_accuracy(rf_aig, problem.test),
                         rf_aig.num_ands)
        results[problem.name] = row
    return results


def test_fig5_fig6_single_methods(scale):
    samples = min(scale["samples"], 1000)
    results = _run_methods(samples)
    echo(f"\n=== Figs. 5/6: single-method accuracy and size ===")
    echo(f"  {'case':6s} {'espresso':>16} {'lutnet':>16} {'forest':>16}")
    for name, row in results.items():
        cells = "".join(
            f"  {100 * acc:6.1f}% {ands:6d}" for acc, ands in row.values()
        )
        echo(f"  {name:6s}{cells}")

    accs = {m: np.mean([row[m][0] for row in results.values()])
            for m in ("espresso", "lutnet", "forest")}
    echo(f"  averages: {accs}")
    # Fig. 5 shape: forests are the best single method on average.
    assert accs["forest"] >= accs["lutnet"] - 0.02
    assert accs["forest"] >= accs["espresso"] - 0.02
    # All methods near-chance on the wide multiplier middle bit (ex21
    # analogue of the paper's failures on 20-29 / 40-49).
    for method in ("espresso", "lutnet", "forest"):
        assert results["ex21"][method][0] < 0.75
    # Fig. 6 shape: espresso covers stay bounded by the sample count.
    for name, row in results.items():
        assert row["espresso"][1] < 40 * samples
