"""Cube algebra, covers, espresso and Quine-McCluskey."""

import random

import numpy as np
import pytest

from repro.twolevel.cover import Cover, cover_from_samples
from repro.twolevel.cube import Cube
from repro.twolevel.espresso import espresso, espresso_from_samples
from repro.twolevel.quine import prime_implicants, quine_mccluskey
from tests.oracles import contains_cube, evaluate_minterm, num_literals


class TestCube:
    def test_from_string_roundtrip(self):
        cube = Cube.from_string("01-1-")
        assert cube.to_string(5) == "01-1-"
        assert num_literals(cube) == 3

    def test_minterm_containment(self):
        cube = Cube.from_string("1-0")
        assert cube.contains_minterm(0b001)
        assert cube.contains_minterm(0b011)
        assert not cube.contains_minterm(0b101)

    def test_cube_containment(self):
        big = Cube.from_string("1--")
        small = Cube.from_string("1-0")
        assert contains_cube(big, small)
        assert not contains_cube(small, big)

    def test_literal_editing(self):
        cube = Cube.from_string("10-")
        assert cube.without_literal(0).to_string(3) == "-0-"

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Cube(mask=0b01, value=0b10)

    def test_from_minterm(self):
        cube = Cube.from_minterm(0b101, 3)
        assert cube.to_string(3) == "101"

    def test_literals_iteration(self):
        cube = Cube.from_string("0-1")
        assert sorted(cube.literals()) == [(0, 0), (2, 1)]


class TestCover:
    def test_vectorized_eval_matches_minterm_eval(self, rng):
        cover = Cover(
            10,
            [Cube.from_string("1---0-----"), Cube.from_string("--11------")],
        )
        X = rng.integers(0, 2, size=(100, 10)).astype(np.uint8)
        fast = cover.evaluate(X)
        for row, got in zip(X, fast, strict=True):
            m = sum(int(b) << i for i, b in enumerate(row))
            assert got == evaluate_minterm(cover, m)

    def test_universal_cube(self):
        cover = Cover(4, [Cube.full()])
        X = np.zeros((3, 4), dtype=np.uint8)
        assert cover.evaluate(X).tolist() == [1, 1, 1]

    def test_empty_cover_is_zero(self):
        cover = Cover(4, [])
        X = np.ones((3, 4), dtype=np.uint8)
        assert cover.evaluate(X).tolist() == [0, 0, 0]

    def test_cover_from_samples_majority(self):
        X = np.array([[0, 1]] * 3 + [[1, 0]] * 2, dtype=np.uint8)
        y = np.array([1, 1, 0, 0, 0], dtype=np.uint8)
        onset, offset, n = cover_from_samples(X, y)
        assert onset == [2]      # 0b10 pattern, majority label 1
        assert offset == [1]     # 0b01 pattern
        assert n == 2

    def test_cover_from_samples_tie_goes_off(self):
        X = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        y = np.array([1, 0], dtype=np.uint8)
        onset, offset, _ = cover_from_samples(X, y)
        assert onset == []
        assert offset == [3]


class TestEspresso:
    def _random_instance(self, rnd):
        n = rnd.randint(3, 7)
        universe = list(range(1 << n))
        rnd.shuffle(universe)
        n_on = rnd.randint(1, 1 << (n - 1))
        n_off = rnd.randint(1, 1 << (n - 1))
        return n, universe[:n_on], universe[n_on : n_on + n_off]

    def test_validity_random(self):
        rnd = random.Random(10)
        for _ in range(40):
            n, onset, offset = self._random_instance(rnd)
            cover = espresso(onset, offset, n)
            assert all(evaluate_minterm(cover, m) for m in onset)
            assert not any(evaluate_minterm(cover, m) for m in offset)

    def test_first_irredundant_validity(self):
        rnd = random.Random(11)
        for _ in range(20):
            n, onset, offset = self._random_instance(rnd)
            cover = espresso(onset, offset, n, first_irredundant=True)
            assert all(evaluate_minterm(cover, m) for m in onset)
            assert not any(evaluate_minterm(cover, m) for m in offset)

    def test_close_to_exact(self):
        rnd = random.Random(12)
        for _ in range(25):
            n, onset, offset = self._random_instance(rnd)
            dcset = [
                m for m in range(1 << n)
                if m not in set(onset) and m not in set(offset)
            ]
            heur = espresso(onset, offset, n)
            exact = quine_mccluskey(onset, dcset, n)
            assert len(heur) <= 2 * max(1, len(exact))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            espresso([1, 2], [2, 3], 3)

    def test_empty_onset(self):
        assert len(espresso([], [0, 1], 2)) == 0

    def test_empty_offset_collapses_to_tautology(self):
        cover = espresso([0, 3], [], 2)
        assert len(cover) == 1
        assert num_literals(cover.cubes[0]) == 0

    def test_from_samples_resolves_contradictions(self, rng):
        X = rng.integers(0, 2, size=(200, 8)).astype(np.uint8)
        y = (X[:, 0] & X[:, 1]).astype(np.uint8)
        # Inject a contradicting duplicate.
        X[10] = X[0]
        y[10] = 1 - y[0]
        cover = espresso_from_samples(X, y)
        acc = (cover.evaluate(X) == y).mean()
        assert acc > 0.95

    def test_generalizes_simple_function(self, rng):
        X = rng.integers(0, 2, size=(400, 12)).astype(np.uint8)
        y = ((X[:, 2] & X[:, 5]) | X[:, 9]).astype(np.uint8)
        cover = espresso_from_samples(X[:300], y[:300])
        test_acc = (cover.evaluate(X[300:]) == y[300:]).mean()
        assert test_acc > 0.9


class TestQuine:
    def test_primes_of_known_function(self):
        # f = x0 x1 + x0' x1' over 2 vars: primes are exactly those 2.
        primes = prime_implicants([0b00, 0b11], [], 2)
        strings = sorted(p.to_string(2) for p in primes)
        assert strings == ["00", "11"]

    def test_dontcares_enlarge_primes(self):
        # onset {00}, dc {01}: prime becomes 0- (x1 free? input0=0).
        cover = quine_mccluskey([0b00], [0b10], 2)
        assert len(cover) == 1
        assert num_literals(cover.cubes[0]) == 1

    def test_exact_on_full_truth_tables(self):
        rnd = random.Random(13)
        for _ in range(20):
            n = rnd.randint(2, 4)
            onset = [m for m in range(1 << n) if rnd.random() < 0.5]
            if not onset:
                continue
            cover = quine_mccluskey(onset, [], n)
            for m in range(1 << n):
                assert evaluate_minterm(cover, m) == (m in set(onset))

    def test_empty(self):
        assert len(quine_mccluskey([], [], 3)) == 0
