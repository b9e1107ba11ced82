"""Trading exactness for size: approximate logic synthesis.

The paper's headline finding: "sacrificing a little accuracy allows
for a significant reduction in the size of the circuit".  This example
shows both halves of that trade:

1. Team 1's simulation-guided approximation applied to an exact
   multiplier-MSB cone — accuracy degrades gracefully as nodes are
   stripped (the paper's Fig. 7: <=5% loss for thousands of nodes).
2. A learned random-forest circuit for an image-like benchmark, swept
   over forest sizes — the accuracy-vs-AND-gates Pareto the paper
   plots in Fig. 2.

Run:  python examples/approximate_synthesis.py
"""

import numpy as np

from repro.aig.aig import AIG
from repro.aig.approx import approximate_to_size
from repro.aig.build import multiplier
from repro.contest import DEFAULT_REGISTRY
from repro.ml.forest import RandomForest
from repro.ml.metrics import accuracy
from repro.synth.from_forest import forest_to_aig
from repro.utils.rng import rng_for


def exact_circuit_approximation() -> None:
    print("-- Team 1 approximation on an exact 8x8 multiplier MSB --")
    k = 8
    aig = AIG(2 * k)
    lits = aig.input_lits()
    product = multiplier(aig, lits[:k], lits[k:])
    aig.set_output(product[2 * k - 1])
    aig = aig.extract_cone()
    rng = rng_for("example-approx")
    X = rng.integers(0, 2, size=(4000, 2 * k)).astype(np.uint8)
    golden = aig.simulate(X)[:, 0]
    print(f"{'target':>8} {'ands':>6} {'agreement':>10}")
    print(f"{'exact':>8} {aig.num_ands:6d} {1.0:10.3f}")
    for target in (200, 120, 80, 40, 20):
        small = approximate_to_size(aig, max_ands=target, rng=rng)
        agree = accuracy(golden, small.simulate(X)[:, 0])
        print(f"{target:8d} {small.num_ands:6d} {agree:10.3f}")


def learned_circuit_tradeoff() -> None:
    print("\n-- accuracy vs size on an MNIST-like benchmark --")
    problem = DEFAULT_REGISTRY.problem("ex80", n_train=1500, n_valid=500,
                                       n_test=1500)
    rng = rng_for("example-pareto")
    print(f"{'trees':>6} {'depth':>6} {'ands':>6} {'test acc':>9}")
    for n_trees, depth in [(1, 4), (1, 8), (3, 8), (7, 8), (15, 8)]:
        forest = RandomForest(
            n_trees=n_trees, max_depth=depth, feature_fraction=0.5,
            rng=rng,
        ).fit(problem.train.X, problem.train.y)
        aig = forest_to_aig(forest).extract_cone()
        acc = accuracy(problem.test.y, aig.simulate(problem.test.X)[:, 0])
        print(f"{n_trees:6d} {depth:6d} {aig.num_ands:6d} {acc:9.3f}")
    print("\nnote the knee: most of the accuracy is available at a "
          "fraction of the size,\nthe paper's 'trading exactness for "
          "generalization' in circuit form.")


if __name__ == "__main__":
    exact_circuit_approximation()
    learned_circuit_tradeoff()
