"""Figs. 11 and 12: Team 2's J48-vs-PART comparison.

The paper compares the two classifiers on the ten functions where they
diverge most, finding (i) large per-benchmark differences (up to
~30%), (ii) close *average* accuracy (~1% apart), and (iii) no
consistent size winner — their argument for classifier diversity.
We run both on a benchmark spread and assert those three shapes.
"""

import numpy as np

from _report import echo
from repro.contest import DEFAULT_REGISTRY
from repro.flows.common import aig_accuracy
from repro.ml.decision_tree import DecisionTree
from repro.ml.rules import PartRuleLearner
from repro.synth.from_rules import rules_to_aig
from repro.synth.from_sop import cover_to_aig

CASES = [0, 21, 30, 50, 60, 74, 75, 80, 90]


def _compare(samples):
    rows = {}
    for idx in CASES:
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(idx), n_train=samples,
            n_valid=samples, n_test=samples,
        )
        merged = problem.merged_train_valid()
        tree = DecisionTree().fit(merged.X, merged.y)
        tree.prune(0.25)
        j48_aig = cover_to_aig(tree.to_cover()).extract_cone()
        rules = PartRuleLearner(confidence_factor=0.25).fit(
            merged.X, merged.y
        )
        part_aig = rules_to_aig(rules).extract_cone()
        rows[problem.name] = {
            "j48": (aig_accuracy(j48_aig, problem.test),
                    j48_aig.num_ands),
            "part": (aig_accuracy(part_aig, problem.test),
                     part_aig.num_ands),
        }
    return rows


def test_fig11_fig12_j48_vs_part(benchmark, scale):
    samples = min(scale["samples"], 800)
    rows = benchmark.pedantic(
        lambda: _compare(samples), rounds=1, iterations=1
    )
    echo("\n=== Figs. 11/12: J48 vs PART ===")
    echo(f"  {'case':6s} {'J48 acc':>8} {'PART acc':>9} "
          f"{'J48 ands':>9} {'PART ands':>10}")
    for name, row in rows.items():
        echo(f"  {name:6s} {100 * row['j48'][0]:7.1f}% "
              f"{100 * row['part'][0]:8.1f}% "
              f"{row['j48'][1]:9d} {row['part'][1]:10d}")

    j48_avg = np.mean([r["j48"][0] for r in rows.values()])
    part_avg = np.mean([r["part"][0] for r in rows.values()])
    echo(f"  averages: J48 {100 * j48_avg:.2f}% "
          f"PART {100 * part_avg:.2f}%")
    # (ii) averages close (paper: ~1%; allow 6 points at small scale).
    assert abs(j48_avg - part_avg) < 0.06
    # (i) individual benchmarks diverge strongly (paper: up to 29.5%).
    max_gap = max(
        abs(r["j48"][0] - r["part"][0]) for r in rows.values()
    )
    echo(f"  max per-case accuracy gap: {100 * max_gap:.1f}%")
    assert max_gap > 0.03, "classifier choice should matter per case"
    # (iii) sizes diverge strongly per benchmark too.  Deviation from
    # the paper noted in EXPERIMENTS.md: our PART priority networks
    # are consistently smaller than the J48 path covers (WEKA's PART
    # emits more rules than our partial-tree learner), so the paper's
    # mixed size ordering does not reproduce — the size *divergence*
    # does.
    ratios = [
        max(r["j48"][1], r["part"][1]) / max(1, min(r["j48"][1],
                                                    r["part"][1]))
        for r in rows.values()
    ]
    assert max(ratios) > 1.5
