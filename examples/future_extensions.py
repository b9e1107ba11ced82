"""The paper's future-work proposals, runnable.

The conclusion of the paper sketches two extensions: contests over
*multi-output* circuits, and flows that return an *accuracy-area
trade-off* instead of a single solution.  Both are implemented in this
library; this example demonstrates them.

Run:  python examples/future_extensions.py
"""

from repro.contest import DEFAULT_REGISTRY
from repro.contest.multioutput import (
    adder_all_bits,
    evaluate_multioutput,
    make_multioutput_problem,
    shared_tree_flow,
)
from repro.flows.tradeoff import run_tradeoff
from repro.ml.metrics import accuracy


def multi_output_demo() -> None:
    print("-- multi-output: all 7 sum bits of a 6-bit adder --")
    problem = make_multioutput_problem(
        "adder6", adder_all_bits(6), n_train=3000, n_test=1000
    )
    aig = shared_tree_flow(problem, max_depth=8)
    report = evaluate_multioutput(problem, aig)
    for j, acc in enumerate(report["per_output"]):
        print(f"  sum bit {j}: {100 * acc:6.2f}%")
    print(f"  shared netlist: {report['shared_ands']} ANDs; "
          f"independent cones would need {report['sum_of_cones']} "
          f"(sharing x{report['sharing_factor']:.2f})")


def tradeoff_demo() -> None:
    print("\n-- accuracy-area Pareto set on an MNIST-like benchmark --")
    problem = DEFAULT_REGISTRY.problem("ex80", n_train=1200, n_valid=600,
                                       n_test=1200)
    frontier = run_tradeoff(problem, effort="small")
    print(f"  {'ANDs':>6} {'valid acc':>10} {'test acc':>9}")
    for point in frontier:
        test_acc = accuracy(
            problem.test.y,
            point.solution.aig.simulate(problem.test.X)[:, 0],
        )
        print(f"  {point.num_ands:6d} "
              f"{100 * point.valid_accuracy:9.2f}% "
              f"{100 * test_acc:8.2f}%")
    print("\ninstead of one circuit, the flow hands the designer the "
          "whole exactness-vs-area menu.")


if __name__ == "__main__":
    multi_output_demo()
    tradeoff_demo()
