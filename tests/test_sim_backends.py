"""Differential tests of the batched simulation API against the oracle.

Every batch entry point must return exactly the rows the seed loop
(``reference_simulate_packed_all``) computes, compared with
``tobytes()`` equality.  Each case runs twice, once per arena state the
engine can be in.  The ids keep the names of the two executors that
used to cover those states:

* ``numpy`` — a freshly compiled engine, whose arena is allocated by
  the call under test;
* ``fused`` — an engine that already ran the same shapes on other
  stimulus, so the call under test reuses a dirty arena (the engine
  promises no zero-fill is needed).
"""

import numpy as np
import pytest

from repro.sim import (
    compile_aig,
    output_predictions,
    simulate_circuits,
    simulate_datasets,
    simulate_rows_grouped,
)
from repro.utils.bitops import pack_bits, unpack_bits
from tests.test_sim_engine import build_random_aig, reference_outputs

ARENA_STATES = ["fused", "numpy"]


def reference_rows(aig, samples):
    """``AIG.simulate`` semantics computed by the oracle."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.uint8))
    packed = pack_bits(samples)
    return unpack_bits(reference_outputs(aig, packed), samples.shape[0])


class TestDifferential:
    @pytest.mark.parametrize("name", ARENA_STATES)
    def test_simulate_datasets_matches_numpy(self, name):
        aig = build_random_aig(7, 120, 3)
        rng = np.random.default_rng(3)
        mats = [
            rng.integers(0, 2, size=(n, 7)).astype(np.uint8)
            for n in (1, 63, 64, 65, 200)
        ]
        if name == "fused":
            simulate_datasets(aig, [1 - m for m in mats])
        got = simulate_datasets(aig, mats)
        for m, g in zip(mats, got, strict=True):
            assert g.tobytes() == reference_rows(aig, m).tobytes()

    @pytest.mark.parametrize("name", ARENA_STATES)
    def test_simulate_circuits_matches_numpy(self, name):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 2, size=(150, 6)).astype(np.uint8)
        aigs = [
            build_random_aig(6, n, seed=n, n_outputs=1)
            for n in (0, 15, 90)
        ]
        refs = [reference_rows(aig, X) for aig in aigs]
        if name == "fused":
            simulate_circuits(aigs, 1 - X)
        got = simulate_circuits(aigs, X)
        for r, g in zip(refs, got, strict=True):
            assert g.tobytes() == r.tobytes()
        got_p = output_predictions(aigs, X)
        for r, g in zip(refs, got_p, strict=True):
            assert g.tobytes() == r[:, 0].tobytes()

    @pytest.mark.parametrize("name", ARENA_STATES)
    def test_simulate_rows_grouped_matches_numpy(self, name):
        aig = build_random_aig(5, 60, 9, n_outputs=2)
        rng = np.random.default_rng(9)
        blocks = [
            rng.integers(0, 2, size=(n, 5)).astype(np.uint8)
            for n in (1, 30, 64, 100)
        ]
        blocks.append(blocks[1][0])  # a single (n_inputs,) row
        compiled = compile_aig(aig)
        if name == "fused":
            simulate_rows_grouped(compiled, [1 - b for b in blocks])
        got = simulate_rows_grouped(compiled, blocks)
        for b, g in zip(blocks, got, strict=True):
            assert g.tobytes() == reference_rows(aig, b).tobytes()
