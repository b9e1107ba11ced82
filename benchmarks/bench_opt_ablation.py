"""Ablation: what each AIG optimization pass contributes.

The flows lean on ``compress`` the way the teams leaned on ABC.
Expected shapes: every pass preserves function (asserted in tests;
here we measure sizes), ``balance`` cuts depth on chain-heavy logic,
``rewrite``/``refactor`` cut nodes on redundant logic, and the
combined script at least matches the best single pass.
"""

import numpy as np

from _report import echo
from repro.aig.aig import AIG
from repro.aig.build import symmetric_function
from repro.aig.opt.passes import balance, compress, refactor, rewrite
from repro.ml.decision_tree import DecisionTree
from repro.synth.from_sop import cover_to_aig
from repro.utils.rng import rng_for


def _victims():
    """Circuits with known slack: DT path covers and symmetric SOPs."""
    rng = rng_for("bench-opt")
    out = []
    X = rng.integers(0, 2, size=(800, 12)).astype(np.uint8)
    y = ((X[:, 0] & X[:, 1]) | (X[:, 2] & X[:, 3]) |
         (X[:, 4] & X[:, 5])).astype(np.uint8)
    tree = DecisionTree(max_depth=10).fit(X, y)
    out.append(("dt-cover", cover_to_aig(tree.to_cover()).extract_cone()))
    aig = AIG(9)
    aig.set_output(symmetric_function(aig, aig.input_lits(),
                                      "0101010101"))
    out.append(("symmetric", aig.extract_cone()))
    return out


def test_optimization_ablation(benchmark):
    victims = _victims()

    def run():
        rows = []
        for name, aig in victims:
            row = {"original": (aig.num_ands, aig.depth())}
            for pass_fn in (balance, rewrite, refactor, compress):
                opt = pass_fn(aig)
                row[pass_fn.__name__] = (opt.num_ands, opt.depth())
            rows.append((name, row))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    echo("\n=== Ablation: AIG optimization passes (ands, depth) ===")
    for name, row in rows:
        cells = "  ".join(
            f"{p}={a}/{d}" for p, (a, d) in row.items()
        )
        echo(f"  {name}: {cells}")
    for name, row in rows:
        orig_ands, orig_depth = row["original"]
        # compress never grows and matches the best single pass.
        best_single = min(
            row[p][0] for p in ("balance", "rewrite", "refactor")
        )
        assert row["compress"][0] <= orig_ands
        assert row["compress"][0] <= best_single + max(
            2, int(0.1 * best_single)
        )
        # balance must not worsen depth.
        assert row["balance"][1] <= orig_depth
