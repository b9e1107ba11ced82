"""Standard function matching (Teams 1/7)."""

import numpy as np
import pytest

from repro.synth import matching
from repro.synth.matching import (
    match_adder_bit,
    match_comparator,
    match_multiplier_bit,
    match_standard_function,
    match_symmetric,
    match_wordwise,
)
from repro.utils.bitops import rows_to_ints


def _words(rng, k, n=600):
    X = rng.integers(0, 2, size=(n, 2 * k)).astype(np.uint8)
    return X, rows_to_ints(X[:, :k]), rows_to_ints(X[:, k:])


class TestAdder:
    def test_msb_recognized_and_exact(self, rng):
        k = 12
        X, a, b = _words(rng, k)
        y = np.array([((x + z) >> k) & 1 for x, z in zip(a, b, strict=True)], np.uint8)
        m = match_adder_bit(X, y)
        assert m is not None
        assert "adder" in m.name
        assert np.array_equal(m.aig.simulate(X)[:, 0], y)

    def test_second_msb(self, rng):
        k = 8
        X, a, b = _words(rng, k)
        y = np.array(
            [((x + z) >> (k - 1)) & 1 for x, z in zip(a, b, strict=True)], np.uint8
        )
        m = match_adder_bit(X, y)
        assert m is not None and f"bit{k-1}" in m.name

    def test_rejects_odd_width(self, rng):
        X = rng.integers(0, 2, size=(100, 7)).astype(np.uint8)
        assert match_adder_bit(X, X[:, 0]) is None

    def test_rejects_non_adder(self, rng):
        k = 8
        X, _, _ = _words(rng, k)
        y = rng.integers(0, 2, size=X.shape[0]).astype(np.uint8)
        assert match_adder_bit(X, y) is None


class TestComparator:
    @pytest.mark.parametrize("op,fn", [
        ("gt", lambda a, b: a > b),
        ("lt", lambda a, b: a < b),
        ("ge", lambda a, b: a >= b),
        ("le", lambda a, b: a <= b),
    ])
    def test_all_predicates(self, rng, op, fn):
        k = 10
        X, a, b = _words(rng, k)
        y = np.array([int(fn(x, z)) for x, z in zip(a, b, strict=True)], np.uint8)
        m = match_comparator(X, y)
        assert m is not None
        assert np.array_equal(m.aig.simulate(X)[:, 0], y)

    def test_equality(self, rng):
        k = 4
        X, a, b = _words(rng, k, n=400)
        X[:50, k:] = X[:50, :k]  # ensure equal pairs exist
        a = rows_to_ints(X[:, :k])
        b = rows_to_ints(X[:, k:])
        y = np.array([int(x == z) for x, z in zip(a, b, strict=True)], np.uint8)
        m = match_comparator(X, y)
        assert m is not None and "eq" in m.name


class TestSymmetricAndWordwise:
    def test_symmetric_majority(self, rng):
        X = rng.integers(0, 2, size=(800, 9)).astype(np.uint8)
        y = (X.sum(axis=1) >= 5).astype(np.uint8)
        m = match_symmetric(X, y)
        assert m is not None
        assert np.array_equal(m.aig.simulate(X)[:, 0], y)

    def test_symmetric_rejects_asymmetric(self, rng):
        X = rng.integers(0, 2, size=(800, 9)).astype(np.uint8)
        y = X[:, 0]
        assert match_symmetric(X, y) is None

    def test_parity(self, rng):
        X = rng.integers(0, 2, size=(400, 16)).astype(np.uint8)
        y = (X.sum(axis=1) % 2).astype(np.uint8)
        m = match_wordwise(X, y)
        assert m is not None and m.name == "xor_all"

    def test_or_all(self, rng):
        X = rng.integers(0, 2, size=(300, 6)).astype(np.uint8)
        y = (X.sum(axis=1) > 0).astype(np.uint8)
        m = match_wordwise(X, y)
        assert m is not None and m.name == "or_all"


class TestMultiplier:
    def test_small_multiplier_bit(self, rng):
        k = 6
        X, a, b = _words(rng, k)
        y = np.array(
            [((x * z) >> (k - 1)) & 1 for x, z in zip(a, b, strict=True)], np.uint8
        )
        m = match_multiplier_bit(X, y)
        assert m is not None
        assert np.array_equal(m.aig.simulate(X)[:, 0], y)

    def test_wide_multiplier_skipped(self, rng):
        k = 32
        X, a, b = _words(rng, k, n=100)
        y = np.array(
            [((x * z) >> (k - 1)) & 1 for x, z in zip(a, b, strict=True)], np.uint8
        )
        assert match_multiplier_bit(X, y) is None


class TestDispatcher:
    def test_match_priority_and_cap(self, rng):
        # Parity matches the cheap wordwise matcher before symmetric.
        X = rng.integers(0, 2, size=(500, 16)).astype(np.uint8)
        y = (X.sum(axis=1) % 2).astype(np.uint8)
        m = match_standard_function(X, y)
        assert m.name == "xor_all"

    def test_no_match_returns_none(self, rng):
        X = rng.integers(0, 2, size=(500, 10)).astype(np.uint8)
        y = rng.integers(0, 2, size=500).astype(np.uint8)
        assert match_standard_function(X, y) is None

    def test_empty_data(self):
        X = np.zeros((0, 8), dtype=np.uint8)
        y = np.zeros(0, dtype=np.uint8)
        assert match_standard_function(X, y) is None

    def test_node_cap_respected(self, rng, monkeypatch):
        monkeypatch.setattr(matching, "MAX_AND_NODES", 3)
        k = 12
        X, a, b = _words(rng, k)
        y = np.array([((x + z) >> k) & 1 for x, z in zip(a, b, strict=True)], np.uint8)
        assert match_standard_function(X, y) is None
