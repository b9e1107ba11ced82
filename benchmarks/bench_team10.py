"""Figs. 32 and 33: Team 10's per-benchmark accuracy and tiny sizes.

Paper claims: "average accuracy over the validation set of 84%, with
an average size of AIG of 140 nodes (and no AIG with more than 300
nodes)"; many cases above 90% with fewer than 50 nodes.  We run the
flow across the scaled suite and assert the size discipline (all
circuits small) and the accuracy profile (solid average, some
near-perfect cases).
"""

import numpy as np

from _report import echo
from repro.contest import DEFAULT_REGISTRY, evaluate_solution
from repro.flows import get_flow


def _run(indices, samples):
    scores = []
    for idx in indices:
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(idx), n_train=samples,
            n_valid=samples, n_test=samples,
        )
        solution = get_flow("team10").run(problem, effort="small")
        scores.append(evaluate_solution(problem, solution))
    return scores


def test_fig32_fig33_team10(benchmark, scale):
    samples = min(scale["samples"], 1000)
    scores = benchmark.pedantic(
        lambda: _run(scale["indices"], samples), rounds=1, iterations=1
    )
    echo("\n=== Figs. 32/33: Team 10 accuracy and AIG size ===")
    for s in scores:
        echo(f"  {s.benchmark}: acc {100 * s.test_accuracy:6.2f}%  "
              f"size {s.num_ands:4d}")
    accs = [s.test_accuracy for s in scores]
    sizes = [s.num_ands for s in scores]
    echo(f"  mean acc {100 * np.mean(accs):.2f}%  "
          f"mean size {np.mean(sizes):.1f}  max size {max(sizes)}")
    # Size discipline: depth-8 trees stay tiny (paper: max 300 at 6400
    # samples; the bound scales with leaves = min(2^8, samples)).
    assert max(sizes) <= 2000
    assert np.mean(sizes) < 400
    # Accuracy profile: decent average, some strong cases.
    assert np.mean(accs) > 0.65
    assert max(accs) > 0.9
