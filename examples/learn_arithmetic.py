"""Learning arithmetic circuit bits: why matching beats learning.

The contest's hardest benchmarks are output bits of wide arithmetic
circuits.  This example reproduces the paper's core observation on the
2nd MSB of a 16-bit adder (ex01-style):

* a depth-8 decision tree (Team 10's flow) barely beats chance,
* a BDD minimized against the care set with an MSB-first interleaved
  variable order learns it well (Team 1's appendix experiment),
* pre-defined standard function matching recognizes the adder from the
  samples and emits an exact ripple-carry circuit.

Run:  python examples/learn_arithmetic.py
"""

from repro.bdd import BDD, restrict
from repro.contest import DEFAULT_REGISTRY
from repro.ml.decision_tree import DecisionTree
from repro.ml.metrics import accuracy
from repro.synth.matching import match_standard_function


def main() -> None:
    spec = DEFAULT_REGISTRY.by_index(1)  # 2nd MSB of a 16-bit adder
    problem = DEFAULT_REGISTRY.problem(spec, n_train=2000, n_valid=500,
                                       n_test=2000)
    k = spec.n_inputs // 2
    print(f"benchmark {spec.name}: {spec.description}\n")

    # 1. Decision tree (Team 10 style).
    tree = DecisionTree(max_depth=8).fit(problem.train.X, problem.train.y)
    dt_acc = accuracy(problem.test.y, tree.predict(problem.test.X))
    print(f"decision tree (depth 8)        test accuracy: {dt_acc:.3f}")

    # 2. BDD with don't-care minimization, MSB-first interleaved order
    #    (the appendix reports ~98% for 2-word adders).
    order = []
    for j in reversed(range(k)):
        order.extend([j, k + j])
    bdd = BDD(spec.n_inputs)
    X_train = problem.train.X[:, order]
    onset = bdd.from_samples(X_train[problem.train.y == 1])
    care = bdd.from_samples(X_train)
    minimized = restrict(bdd, onset, care)
    pred = bdd.evaluate(minimized, problem.test.X[:, order])
    bdd_acc = accuracy(problem.test.y, pred)
    print(f"BDD one-sided matching         test accuracy: {bdd_acc:.3f} "
          f"({bdd.count_nodes(minimized)} BDD nodes)")

    # 3. Standard function matching (Teams 1 and 7).
    merged = problem.merged_train_valid()
    match = match_standard_function(merged.X, merged.y)
    assert match is not None, "adder should be recognized"
    match_pred = match.aig.simulate(problem.test.X)[:, 0]
    match_acc = accuracy(problem.test.y, match_pred)
    print(f"function matching ({match.name})"
          f"  test accuracy: {match_acc:.3f} "
          f"({match.aig.num_ands} AND nodes)")

    print("\npaper's story: learning generalizes poorly on wide "
          "arithmetic;\nstructure recognition (matching, or a "
          "well-ordered BDD) wins.")
    assert match_acc > bdd_acc > dt_acc


if __name__ == "__main__":
    main()
