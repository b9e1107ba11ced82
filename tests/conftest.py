"""Shared fixtures for the test suite."""

import random

import numpy as np
import pytest

from repro.aig.aig import AIG


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_aig(n_inputs: int, n_nodes: int, seed: int, n_outputs: int = 1) -> AIG:
    """A random strashed AIG used by many structural tests."""
    rnd = random.Random(seed)
    aig = AIG(n_inputs)
    pool = list(aig.input_lits())
    for _ in range(n_nodes):
        a = rnd.choice(pool) ^ rnd.randint(0, 1)
        b = rnd.choice(pool) ^ rnd.randint(0, 1)
        pool.append(aig.add_and(a, b))
    for k in range(n_outputs):
        aig.set_output(pool[-(1 + 3 * k) if len(pool) > 3 * k else -1])
    return aig


@pytest.fixture
def small_problem():
    """A tiny but non-trivial learning problem (10-bit comparator)."""
    from repro.contest import DEFAULT_REGISTRY

    return DEFAULT_REGISTRY.problem("ex30", n_train=300, n_valid=300,
                                    n_test=300)
