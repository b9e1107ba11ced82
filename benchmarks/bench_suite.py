"""Tables I and II: the benchmark taxonomy and group comparisons.

Prints the suite inventory and verifies the structural claims of
Table I (10 categories x 10 cases, input ranges) and Table II (the
MNIST/CIFAR group pairs).
"""

from collections import Counter

from _report import echo
from repro.contest import DEFAULT_REGISTRY
from repro.contest.imagelike import GROUP_COMPARISONS


def _taxonomy():
    suite = [DEFAULT_REGISTRY.by_index(i) for i in range(100)]
    by_category = Counter(s.category for s in suite)
    return suite, by_category


def test_table1_taxonomy(benchmark):
    suite, by_category = benchmark.pedantic(
        _taxonomy, rounds=1, iterations=1
    )
    echo("\n=== Table I: benchmark taxonomy ===")
    ranges = {}
    for s in suite:
        lo, hi = ranges.get(s.category, (10**9, 0))
        ranges[s.category] = (min(lo, s.n_inputs), max(hi, s.n_inputs))
    for category, count in sorted(by_category.items()):
        lo, hi = ranges[category]
        echo(f"  {category:14s} x{count:3d}   inputs {lo}-{hi}")
    # Table I structure: 100 cases; arithmetic categories have 10 each.
    assert sum(by_category.values()) == 100
    for cat in ("adder", "divider", "multiplier", "comparator", "sqrt",
                "mnist-like", "cifar-like"):
        assert by_category[cat] == 10, cat
    # "PicoJava/i10 ... with 16-200 inputs".
    for cat in ("picojava-like", "i10-like"):
        lo, hi = ranges[cat]
        assert 16 <= lo and hi <= 200


def test_table2_group_comparisons(benchmark):
    groups = benchmark.pedantic(
        lambda: GROUP_COMPARISONS, rounds=1, iterations=1
    )
    echo("\n=== Table II: group comparisons (A -> 0, B -> 1) ===")
    for i, (a, b) in enumerate(groups):
        echo(f"  row {i}: A={a} B={b}")
    # The exact pairs from the paper's Table II.
    assert groups[0] == ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    assert groups[1] == ((1, 3, 5, 7, 9), (0, 2, 4, 6, 8))
    assert groups[2] == ((0, 1, 2), (3, 4, 5))
    assert groups[3] == ((0, 1), (2, 3))
    assert groups[9] == ((0, 3), (8, 9))
    assert len(groups) == 10


def test_sampling_protocol(benchmark):
    """The contest protocol: three same-sized disjoint PLA sets."""
    def sample():
        return DEFAULT_REGISTRY.problem("ex30", n_train=200, n_valid=200,
                                        n_test=200)

    problem = benchmark.pedantic(sample, rounds=1, iterations=1)
    assert problem.train.n_samples == 200
    assert problem.valid.n_samples == 200
    assert problem.test.n_samples == 200
    train_rows = {tuple(r) for r in problem.train.X}
    assert not any(tuple(r) in train_rows for r in problem.test.X)
