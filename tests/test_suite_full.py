"""Whole-suite smoke coverage: every one of the 100 benchmarks must
sample cleanly and deterministically."""

import numpy as np
import pytest

from repro.contest import DEFAULT_REGISTRY
from repro.utils.rng import rng_for


@pytest.fixture(scope="module")
def suite():
    return [DEFAULT_REGISTRY.by_index(i) for i in range(100)]


def _sample(spec, n, rng):
    return DEFAULT_REGISTRY.materialize(spec).sample(spec.n_inputs, n, rng)


@pytest.mark.parametrize("index", range(100))
def test_benchmark_samples(index, suite):
    spec = suite[index]
    rng = rng_for("suite-smoke", index)
    X, y = _sample(spec, 40, rng)
    assert X.shape == (40, spec.n_inputs)
    assert y.shape == (40,)
    assert X.dtype == np.uint8
    assert set(np.unique(X)) <= {0, 1}
    assert set(np.unique(y)) <= {0, 1}


def test_sampling_deterministic_per_index(suite):
    for index in (0, 25, 55, 85):
        spec = suite[index]
        X1, y1 = _sample(spec, 30, rng_for("det", index))
        X2, y2 = _sample(spec, 30, rng_for("det", index))
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)


def test_deterministic_functions_are_functions(suite):
    """Same inputs -> same labels for the non-generative benchmarks."""
    for index in (3, 13, 23, 33, 43, 53, 63, 73):
        spec = suite[index]
        rng = rng_for("fn", index)
        X, y = _sample(spec, 25, rng)
        again = DEFAULT_REGISTRY.materialize(spec).label_fn(X)
        assert np.array_equal(y, again), spec.name


def test_category_difficulty_ordering(suite):
    """Wide-word categories expose more inputs than the sample count
    can pin down — the paper's generalization challenge in numbers."""
    widths = {spec.name: spec.n_inputs for spec in suite}
    assert widths["ex09"] == 512   # 256-bit adder: 2^512 input space
    assert widths["ex74"] == 16    # parity: fully coverable
