"""The paper's future-work proposals, implemented and measured.

Conclusion: "Future extensions of this contest could target circuits
with multiple outputs and algorithms generating an optimal trade-off
between accuracy and area (instead of a single solution)."

* multi-output: a shared AIG for all adder sum bits should be
  substantially smaller than the sum of its per-output cones
  (sharing factor > 1);
* trade-off: the Pareto flow returns a frontier whose top matches the
  single-solution flow and whose smallest entries are far cheaper.
"""

from _report import echo
from repro.contest import DEFAULT_REGISTRY
from repro.contest.multioutput import (
    adder_all_bits,
    evaluate_multioutput,
    make_multioutput_problem,
    shared_tree_flow,
)
from repro.flows.tradeoff import run_tradeoff


def test_multioutput_sharing(benchmark, scale):
    samples = min(scale["samples"] * 4, 3000)

    def run():
        problem = make_multioutput_problem(
            "adder6-all", adder_all_bits(6), n_train=samples,
            n_test=samples // 2,
        )
        aig = shared_tree_flow(problem, max_depth=8)
        return evaluate_multioutput(problem, aig)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    echo("\n=== Future work: multi-output sharing ===")
    echo(f"  per-output acc: "
          f"{[round(a, 3) for a in report['per_output']]}")
    echo(f"  shared ANDs {report['shared_ands']} vs sum-of-cones "
          f"{report['sum_of_cones']} "
          f"(sharing x{report['sharing_factor']:.2f})")
    # Low-order sum bits are exactly learnable.
    assert report["per_output"][0] == 1.0
    # Sharing pays: the merged netlist beats independent cones.
    assert report["sharing_factor"] > 1.05


def test_tradeoff_frontier(benchmark, scale):
    samples = min(scale["samples"], 800)

    def run():
        problem = DEFAULT_REGISTRY.problem("ex80", n_train=samples,
                                           n_valid=samples, n_test=samples)
        return problem, run_tradeoff(problem, effort="small")

    problem, frontier = benchmark.pedantic(run, rounds=1, iterations=1)
    echo("\n=== Future work: accuracy-area frontier (ex80) ===")
    for point in frontier:
        test_acc = float(
            (point.solution.aig.simulate(problem.test.X)[:, 0]
             == problem.test.y).mean()
        )
        echo(f"  {point.num_ands:5d} ANDs  valid "
              f"{100 * point.valid_accuracy:6.2f}%  test "
              f"{100 * test_acc:6.2f}%")
    assert len(frontier) >= 3
    # The knee again: a mid-frontier point reaches within 5 points of
    # the top at a fraction of its size.
    top = frontier[-1]
    cheap = [
        p for p in frontier
        if p.num_ands <= max(8, top.num_ands // 2)
    ]
    assert cheap, "frontier should include small circuits"
    assert max(p.valid_accuracy for p in cheap) >= top.valid_accuracy - 0.08
