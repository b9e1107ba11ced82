"""Ablation: DT impurity criterion and functional decomposition.

Two design choices DESIGN.md calls out:
* entropy vs gini — the paper's teams used both; expected shape: near
  identical accuracy on the contest-style tasks (Team 5 observed
  'both metrics led to very similar results');
* Team 8's functional-decomposition fallback — expected shape: it
  rescues XOR-at-the-root cases that plain gain-splitting loses, and
  does not hurt the ordinary cases.
"""

import numpy as np

from _report import echo
from repro.contest import DEFAULT_REGISTRY
from repro.ml.decision_tree import DecisionTree
from repro.ml.metrics import accuracy

CASES = [30, 50, 60, 80]


def _criterion_sweep(samples):
    rows = {}
    for idx in CASES:
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(idx), n_train=samples,
            n_valid=samples, n_test=samples,
        )
        row = {}
        for criterion in ("entropy", "gini"):
            tree = DecisionTree(max_depth=8, criterion=criterion)
            tree.fit(problem.train.X, problem.train.y)
            row[criterion] = accuracy(
                problem.test.y, tree.predict(problem.test.X)
            )
        rows[problem.name] = row
    return rows


def test_criterion_ablation(benchmark, scale):
    samples = min(scale["samples"], 800)
    rows = benchmark.pedantic(
        lambda: _criterion_sweep(samples), rounds=1, iterations=1
    )
    echo("\n=== Ablation: entropy vs gini ===")
    gaps = []
    for name, row in rows.items():
        echo(f"  {name}: entropy {100 * row['entropy']:6.2f}%  "
              f"gini {100 * row['gini']:6.2f}%")
        gaps.append(abs(row["entropy"] - row["gini"]))
    assert float(np.mean(gaps)) < 0.05, "criteria should agree closely"


def test_functional_decomposition_ablation(benchmark, rng):
    def run():
        X = rng.integers(0, 2, size=(3000, 8)).astype(np.uint8)
        y = (X[:, 6] ^ X[:, 7]).astype(np.uint8)
        plain = DecisionTree(max_depth=2).fit(X[:2000], y[:2000])
        decomp = DecisionTree(max_depth=2, decomposition_tau=0.05).fit(
            X[:2000], y[:2000]
        )
        return (
            accuracy(y[2000:], plain.predict(X[2000:])),
            accuracy(y[2000:], decomp.predict(X[2000:])),
        )

    plain_acc, decomp_acc = benchmark.pedantic(run, rounds=1,
                                               iterations=1)
    echo(f"\n  XOR root split: plain {100 * plain_acc:.1f}% vs "
          f"decomposition {100 * decomp_acc:.1f}%")
    # Team 8's claim: decomposition finds the XOR structure a gain
    # split misses at depth 2.
    assert decomp_acc >= plain_acc
    assert decomp_acc > 0.9
