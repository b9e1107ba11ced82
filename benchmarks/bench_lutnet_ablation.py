"""Ablation: LUT-network wiring scheme and arity (Team 6).

Team 6 "notice[d] from our experiments that 4-input LUTs returns the
best average numbers across the benchmark suite", and offered two
wiring schemes.  Expected shapes: arity 4 beats arity 2 on average;
arity 6 does not clearly beat 4 (memorization dilutes); the unique
scheme is at least as good as pure random wiring on narrow inputs.
"""

import numpy as np

from _report import echo
from repro.contest import DEFAULT_REGISTRY
from repro.ml.lutnet import LUTNetwork
from repro.ml.metrics import accuracy
from repro.utils.rng import rng_for

CASES = [30, 50, 60, 80]


def _sweep(samples):
    results = {}
    for idx in CASES:
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(idx), n_train=samples,
            n_valid=samples, n_test=samples,
        )
        row = {}
        for arity in (2, 4, 6):
            for scheme in ("random", "unique"):
                rng = rng_for("bench-lutnet", idx, arity, scheme)
                net = LUTNetwork(
                    n_layers=3, luts_per_layer=64, lut_size=arity,
                    scheme=scheme, rng=rng,
                ).fit(problem.train.X, problem.train.y)
                row[(arity, scheme)] = accuracy(
                    problem.test.y, net.predict(problem.test.X)
                )
        results[problem.name] = row
    return results


def test_lutnet_ablation(benchmark, scale):
    samples = min(scale["samples"], 800)
    results = benchmark.pedantic(
        lambda: _sweep(samples), rounds=1, iterations=1
    )
    echo("\n=== Ablation: LUT arity x wiring scheme ===")
    configs = sorted(next(iter(results.values())))
    header = "  case   " + "  ".join(f"k{a}/{s[:3]}" for a, s in configs)
    echo(header)
    for name, row in results.items():
        cells = "  ".join(f"{100 * row[c]:6.1f}" for c in configs)
        echo(f"  {name} {cells}")
    mean = {
        c: float(np.mean([row[c] for row in results.values()]))
        for c in configs
    }
    by_arity = {
        a: np.mean([v for (ar, _), v in mean.items() if ar == a])
        for a in (2, 4, 6)
    }
    echo(f"  mean by arity: { {a: round(float(v), 3) for a, v in by_arity.items()} }")
    # Team 6's finding: 4-input LUTs are the sweet spot.
    assert by_arity[4] >= by_arity[2] - 0.01
    assert by_arity[4] >= by_arity[6] - 0.03
