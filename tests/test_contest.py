"""Benchmark suite, problems and scoring."""

import numpy as np
import pytest

from repro.aig.aig import AIG, CONST1
from repro.contest import (
    DEFAULT_REGISTRY,
    Solution,
    default_small_indices,
    evaluate_solution,
)
from repro.contest.functions import (
    SYMMETRIC_SIGNATURES,
    adder_bit,
    comparator,
    cordic_sign,
    divider_bit,
    multiplier_bit,
    parity,
    sqrt_bit,
    symmetric16,
    t481_like,
)
from repro.contest.imagelike import (
    GROUP_COMPARISONS,
    cifar_like_model,
    group_comparison_sampler,
    mnist_like_model,
)
from repro.contest.problem import MAX_AND_NODES
from repro.contest.randomlogic import random_cone_function


def _paper_suite():
    """The 100 paper benchmark specs, index-aligned with Table I."""
    return [DEFAULT_REGISTRY.by_index(i) for i in range(100)]


class TestSuiteStructure:
    def test_has_100_benchmarks(self):
        suite = _paper_suite()
        assert len(suite) == 100
        assert [s.index for s in suite] == list(range(100))
        assert [s.name for s in suite] == DEFAULT_REGISTRY.names()

    def test_table1_categories(self):
        suite = _paper_suite()
        expected = {
            "adder": range(0, 10),
            "divider": range(10, 20),
            "multiplier": range(20, 30),
            "comparator": range(30, 40),
            "sqrt": range(40, 50),
            "picojava-like": range(50, 60),
            "i10-like": range(60, 70),
            "mcnc-like": range(70, 75),
            "symmetric": range(75, 80),
            "mnist-like": range(80, 90),
            "cifar-like": range(90, 100),
        }
        for category, indices in expected.items():
            for i in indices:
                assert suite[i].category == category, (i, suite[i].category)

    def test_names(self):
        suite = _paper_suite()
        assert suite[0].name == "ex00"
        assert suite[99].name == "ex99"

    def test_small_indices_cover_categories(self):
        suite = _paper_suite()
        cats = {suite[i].category for i in default_small_indices()}
        assert len(cats) == 11

    def test_input_ranges(self):
        suite = _paper_suite()
        assert suite[0].n_inputs == 32      # 16-bit adder
        assert suite[9].n_inputs == 512     # 256-bit adder bits
        assert suite[74].n_inputs == 16     # parity
        assert suite[80].n_inputs == 196    # 14x14 MNIST-like
        assert suite[90].n_inputs == 256    # 16x16 CIFAR-like


class TestGroundTruthFunctions:
    def test_adder_bit_values(self, rng):
        fn = adder_bit(4, 4)
        X = rng.integers(0, 2, size=(100, 8)).astype(np.uint8)
        a = [sum(int(r[i]) << i for i in range(4)) for r in X]
        b = [sum(int(r[4 + i]) << i for i in range(4)) for r in X]
        want = [(x + z) >> 4 & 1 for x, z in zip(a, b, strict=True)]
        assert fn(X).tolist() == want

    def test_divider_by_zero_convention(self):
        fn = divider_bit(4, "quotient")
        X = np.zeros((1, 8), dtype=np.uint8)
        X[0, :4] = [1, 0, 0, 0]  # a=1, b=0
        assert fn(X)[0] == 1  # all-ones quotient -> MSB set

    def test_divider_remainder(self, rng):
        fn = divider_bit(4, "remainder")
        X = rng.integers(0, 2, size=(50, 8)).astype(np.uint8)
        out = fn(X)
        assert set(np.unique(out)) <= {0, 1}

    def test_multiplier_bit(self, rng):
        fn = multiplier_bit(3, 5)
        X = rng.integers(0, 2, size=(64, 6)).astype(np.uint8)
        a = [sum(int(r[i]) << i for i in range(3)) for r in X]
        b = [sum(int(r[3 + i]) << i for i in range(3)) for r in X]
        assert fn(X).tolist() == [((x * z) >> 5) & 1 for x, z in zip(a, b, strict=True)]

    def test_comparator(self, rng):
        fn = comparator(5)
        X = rng.integers(0, 2, size=(80, 10)).astype(np.uint8)
        a = [sum(int(r[i]) << i for i in range(5)) for r in X]
        b = [sum(int(r[5 + i]) << i for i in range(5)) for r in X]
        assert fn(X).tolist() == [int(x > z) for x, z in zip(a, b, strict=True)]

    def test_sqrt_lsb(self):
        import math

        fn = sqrt_bit(8, "lsb")
        X = np.zeros((256, 8), dtype=np.uint8)
        for v in range(256):
            for i in range(8):
                X[v, i] = (v >> i) & 1
        want = [math.isqrt(v) & 1 for v in range(256)]
        assert fn(X).tolist() == want

    def test_symmetric_signatures_are_17_chars(self):
        for sig in SYMMETRIC_SIGNATURES:
            assert len(sig) == 17

    def test_symmetric16(self, rng):
        fn = symmetric16(SYMMETRIC_SIGNATURES[0])
        X = rng.integers(0, 2, size=(200, 16)).astype(np.uint8)
        counts = X.sum(axis=1)
        want = [
            1 if SYMMETRIC_SIGNATURES[0][c] == "1" else 0 for c in counts
        ]
        assert fn(X).tolist() == want

    def test_parity16(self, rng):
        fn = parity(16)
        X = rng.integers(0, 2, size=(100, 16)).astype(np.uint8)
        assert np.array_equal(fn(X), X.sum(axis=1) % 2)

    def test_t481_like_balanced(self, rng):
        fn = t481_like()
        X = rng.integers(0, 2, size=(4000, 16)).astype(np.uint8)
        frac = fn(X).mean()
        assert 0.3 < frac < 0.7

    def test_cordic_deterministic_and_nontrivial(self, rng):
        fn = cordic_sign()
        X = rng.integers(0, 2, size=(500, fn.n_inputs)).astype(np.uint8)
        a = fn(X)
        b = fn(X)
        assert np.array_equal(a, b)
        assert 0.05 < a.mean() < 0.95


class TestRandomCones:
    def test_balanced(self):
        fn = random_cone_function(20, "control", seed=1)
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(2000, 20)).astype(np.uint8)
        assert 0.3 <= fn(X).mean() <= 0.7

    def test_deterministic_across_calls(self):
        f1 = random_cone_function(16, "mixed", seed=2)
        f2 = random_cone_function(16, "mixed", seed=2)
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(100, 16)).astype(np.uint8)
        assert np.array_equal(f1(X), f2(X))

    def test_flavours_differ(self):
        f1 = random_cone_function(16, "control", seed=3)
        f2 = random_cone_function(16, "mixed", seed=3)
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(500, 16)).astype(np.uint8)
        assert not np.array_equal(f1(X), f2(X))


class TestImageLike:
    def test_group_table_matches_paper(self):
        assert GROUP_COMPARISONS[1] == ((1, 3, 5, 7, 9), (0, 2, 4, 6, 8))
        assert GROUP_COMPARISONS[6] == ((1, 7), (3, 8))

    def test_sampler_shapes_and_balance(self, rng):
        model = mnist_like_model()
        sampler = group_comparison_sampler(model, 0)
        X, y = sampler(500, rng)
        assert X.shape == (500, 196)
        assert 0.4 < y.mean() < 0.6

    def test_cifar_harder_than_mnist(self, rng):
        """A fixed-capacity learner must find the CIFAR-like model
        clearly harder — the property that drives the paper's accuracy
        ordering (ex80s easy, ex90s hard)."""
        from repro.ml.forest import RandomForest
        from repro.ml.metrics import accuracy

        def learned_accuracy(model):
            sampler = group_comparison_sampler(model, 0)
            X, y = sampler(2000, rng)
            forest = RandomForest(
                n_trees=9, max_depth=8, feature_fraction=0.3, rng=rng
            ).fit(X[:1500], y[:1500])
            return accuracy(y[1500:], forest.predict(X[1500:]))

        mnist_acc = learned_accuracy(mnist_like_model())
        cifar_acc = learned_accuracy(cifar_like_model())
        assert mnist_acc > cifar_acc + 0.05


class TestProblemsAndScoring:
    def test_sets_disjoint_for_functions(self):
        p = DEFAULT_REGISTRY.problem("ex30", n_train=200, n_valid=200,
                                     n_test=200)
        seen = {tuple(r) for r in p.train.X}
        assert not any(tuple(r) in seen for r in p.test.X)

    def test_problem_reproducible(self):
        p1 = DEFAULT_REGISTRY.problem("ex75", n_train=100, n_valid=100,
                                      n_test=100)
        p2 = DEFAULT_REGISTRY.problem("ex75", n_train=100, n_valid=100,
                                      n_test=100)
        assert np.array_equal(p1.train.X, p2.train.X)
        assert np.array_equal(p1.test.y, p2.test.y)

    def test_evaluation_scores_constant(self, small_problem):
        aig = AIG(small_problem.n_inputs)
        aig.set_output(CONST1)
        score = evaluate_solution(
            small_problem, Solution(aig=aig, method="const1")
        )
        assert score.test_accuracy == pytest.approx(
            small_problem.test.y.mean()
        )
        assert score.num_ands == 0
        assert score.legal

    def test_scoring_counts_used_nodes_only(self, small_problem):
        # Satellite regression: Score.num_ands and Solution.is_legal
        # are over used nodes — a deliberately dirty graph (dead logic
        # that was never cone-extracted) must score by what it ships,
        # not be mis-ranked or wrongly rejected as over-cap.
        aig = AIG(small_problem.n_inputs)
        x = aig.input_lit(0)
        for i in range(MAX_AND_NODES + 1):  # a dead chain over the cap
            x = aig.add_and(x, aig.input_lit(1 + i % (aig.n_inputs - 1)))
        aig.set_output(CONST1)
        assert aig.num_ands > MAX_AND_NODES
        solution = Solution(aig=aig, method="dirty-const")
        assert solution.num_ands == 0
        assert solution.is_legal()  # raw count would fail
        score = evaluate_solution(small_problem, solution)
        assert score.num_ands == 0
        assert score.legal

    def test_evaluation_rejects_input_mismatch(self, small_problem):
        aig = AIG(small_problem.n_inputs + 1)
        aig.set_output(CONST1)
        with pytest.raises(ValueError):
            evaluate_solution(small_problem, Solution(aig=aig, method="x"))

    def test_overfit_definition(self, small_problem):
        aig = AIG(small_problem.n_inputs)
        aig.set_output(CONST1)
        score = evaluate_solution(
            small_problem, Solution(aig=aig, method="c")
        )
        assert score.overfit == pytest.approx(
            score.valid_accuracy - score.test_accuracy
        )


class TestSamplingBalance:
    def test_split_fractions_agree(self):
        """Regression: set-order leakage once skewed the three splits'
        label distributions on narrow-input benchmarks."""
        for idx in (30, 74, 21):
            p = DEFAULT_REGISTRY.problem(f"ex{idx}", n_train=400,
                                         n_valid=400, n_test=400)
            fracs = [
                p.train.onset_fraction(),
                p.valid.onset_fraction(),
                p.test.onset_fraction(),
            ]
            spread = max(fracs) - min(fracs)
            assert spread < 0.12, (p.name, fracs)
