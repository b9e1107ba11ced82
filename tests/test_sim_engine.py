"""Tests for the levelized simulation engine (repro.sim).

The engine must be bit-exact with the seed per-node simulation loop
(kept as ``reference_simulate_packed_all``, the oracle); the property
tests drive randomized AIGs with varied input counts, complemented and
constant outputs, and sample counts on and off the 64-bit word
boundary, plus adversarial chain shapes, and compare packed words with
``tobytes()`` equality.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG, CONST0, CONST1, lit_var
from repro.contest.evaluate import evaluate_solution, evaluate_solutions
from repro.contest.problem import Solution
from repro.sim import (
    CompiledAIG,
    output_predictions,
    reference_simulate_packed_all,
    simulate_circuits,
    simulate_rows_grouped,
)
from repro.sim.engine import _levelize
from repro.utils.bitops import pack_bits, unpack_bits
from tests.oracles import checkpoint, rollback


def build_random_aig(n_inputs, n_nodes, seed, n_outputs=3):
    """Random strashed AIG whose pool includes the constants, so
    outputs can land on const/input/AND literals of either polarity."""
    rnd = random.Random(seed)
    aig = AIG(n_inputs)
    pool = list(aig.input_lits()) + [CONST0, CONST1]
    for _ in range(n_nodes):
        a = rnd.choice(pool) ^ rnd.randint(0, 1)
        b = rnd.choice(pool) ^ rnd.randint(0, 1)
        pool.append(aig.add_and(a, b))
    for _ in range(n_outputs):
        aig.set_output(rnd.choice(pool) ^ rnd.randint(0, 1))
    return aig


def build_chain_aig(n_nodes):
    """A pure AND chain: depth == n_nodes, one node per level — the
    adversarial shape for the Jacobi levelizer."""
    aig = AIG(2)
    lit = aig.input_lit(0)
    for i in range(n_nodes):
        lit = aig.add_and(lit, aig.input_lit(1) ^ (i & 1))
    aig.set_output(lit)
    return aig


def random_packed(n_inputs, n_words, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 2**63, size=(n_inputs, n_words), dtype=np.int64
    ).astype(np.uint64)


def reference_outputs(aig, packed):
    """Output gather on top of the seed loop (the seed output simulation)."""
    values = reference_simulate_packed_all(aig, packed)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    out = np.empty((aig.num_outputs, values.shape[1]), dtype=np.uint64)
    for k, lit in enumerate(aig.outputs):
        v = values[lit_var(lit)]
        out[k] = v ^ ones if lit & 1 else v
    return out


def _levelize_stats(aig):
    f0 = np.asarray(aig._fanin0, dtype=np.int64)
    f1 = np.asarray(aig._fanin1, dtype=np.int64)
    stats = {}
    lv = _levelize(aig.n_inputs, f0 >> 1, f1 >> 1, _stats=stats)
    return lv, stats


class TestEngineBitExact:
    @settings(max_examples=60, deadline=None)
    @given(
        n_inputs=st.integers(min_value=1, max_value=10),
        n_nodes=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=10**6),
        n_samples=st.one_of(
            st.integers(min_value=1, max_value=200),
            st.sampled_from([64, 128, 256]),  # exact word multiples
        ),
        n_outputs=st.integers(min_value=0, max_value=4),
    )
    def test_matches_seed_simulator(
        self, n_inputs, n_nodes, seed, n_samples, n_outputs
    ):
        aig = build_random_aig(n_inputs, n_nodes, seed, n_outputs)
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(n_samples, n_inputs)).astype(np.uint8)
        packed = pack_bits(X)
        ref_all = reference_simulate_packed_all(aig, packed)
        assert np.array_equal(aig.simulate_packed_all(packed), ref_all)
        ref_out = reference_outputs(aig, packed)
        assert np.array_equal(aig.compiled().run_packed(packed), ref_out)
        assert np.array_equal(
            aig.simulate(X), unpack_bits(ref_out, n_samples)
        )

    def test_constant_and_passthrough_outputs(self):
        aig = AIG(2)
        aig.set_output(CONST1)
        aig.set_output(CONST0)
        aig.set_output(aig.input_lit(1))
        aig.set_output(aig.input_lit(0) ^ 1)
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        expect = np.array(
            [[1, 0, 0, 1], [1, 0, 1, 1], [1, 0, 0, 0], [1, 0, 1, 0]],
            dtype=np.uint8,
        )
        assert np.array_equal(aig.simulate(X), expect)

    def test_no_outputs_and_no_inputs(self):
        aig = AIG(0)
        aig.set_output(CONST1)
        out = aig.simulate(np.zeros((5, 0), dtype=np.uint8))
        assert np.array_equal(out, np.ones((5, 1), dtype=np.uint8))
        empty = AIG(3)
        assert empty.simulate(
            np.zeros((4, 3), dtype=np.uint8)
        ).shape == (4, 0)

    def test_depth_grouping(self):
        aig = AIG(4)
        a = aig.add_and(aig.input_lit(0), aig.input_lit(1))
        b = aig.add_and(aig.input_lit(2), aig.input_lit(3))
        c = aig.add_and(a, b ^ 1)
        aig.set_output(c)
        compiled = CompiledAIG(aig)
        assert compiled.depth == 2
        assert [hi - lo for lo, hi, *_ in compiled.level_ops] == [2, 1]

    def test_wrong_input_rows_raises(self):
        aig = build_random_aig(4, 10, 0)
        with pytest.raises(ValueError):
            aig.simulate_packed_all(np.zeros((3, 1), dtype=np.uint64))


class TestOracle:
    """The engine agrees with the seed loop byte for byte."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_inputs=st.integers(min_value=1, max_value=12),
        n_nodes=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=10**6),
        n_words=st.integers(min_value=1, max_value=5),
    )
    def test_run_packed_all_byte_identical(
        self, n_inputs, n_nodes, seed, n_words
    ):
        aig = build_random_aig(n_inputs, n_nodes, seed)
        compiled = CompiledAIG(aig)
        packed = random_packed(n_inputs, n_words, seed)
        ref = reference_simulate_packed_all(aig, packed)
        assert compiled.run_packed_all(packed).tobytes() == ref.tobytes()
        assert compiled.run_packed(packed).tobytes() == \
            reference_outputs(aig, packed).tobytes()

    @pytest.mark.parametrize("n_nodes", [5000])
    def test_chain_shape_byte_identical(self, n_nodes):
        aig = build_chain_aig(n_nodes)
        compiled = CompiledAIG(aig)
        assert compiled.depth == n_nodes
        packed = random_packed(2, 3, seed=n_nodes)
        ref = reference_simulate_packed_all(aig, packed)
        assert compiled.run_packed_all(packed).tobytes() == ref.tobytes()

    def test_oracle_accepts_1d_word_vector(self):
        # One word per input, the shape run_packed_all also accepts.
        aig = build_random_aig(3, 20, 4)
        words = random_packed(3, 1, 4)[:, 0]
        ref = reference_simulate_packed_all(aig, words)
        assert ref.shape == (aig.num_vars, 1)
        assert ref.tobytes() == \
            reference_simulate_packed_all(aig, words[:, None]).tobytes()
        assert aig.simulate_packed_all(words).tobytes() == ref.tobytes()
        with pytest.raises(ValueError, match="expected 3 input rows"):
            reference_simulate_packed_all(aig, words[:2])

    def test_results_are_owned_copies(self):
        # The engine reuses its arena: a result held across a later run
        # (or mutated by the caller) must not alias the internal buffers.
        aig = build_random_aig(6, 80, 13)
        compiled = CompiledAIG(aig)
        packed = random_packed(6, 2, 13)
        first = compiled.run_packed_all(packed)
        snapshot = first.copy()
        second = compiled.run_packed_all(packed)
        first[:] = 0  # caller scribbles on its result
        assert second.tobytes() == snapshot.tobytes()
        assert compiled.run_packed_all(packed).tobytes() == \
            reference_simulate_packed_all(aig, packed).tobytes()

    def test_arena_resizes_across_word_counts(self):
        aig = build_random_aig(8, 100, 21)
        compiled = CompiledAIG(aig)
        for n_words in (3, 1, 5, 3):
            packed = random_packed(8, n_words, n_words)
            ref = reference_simulate_packed_all(aig, packed)
            out = compiled.run_packed_all(packed)
            assert out.tobytes() == ref.tobytes(), n_words


class TestLevelizeCutover:
    def test_depth_65_stays_on_fast_path(self):
        # The old hard cap (min(num_ands + 1, 64) rounds) kicked a
        # depth-65 circuit off the vectorized path one round early;
        # the measured-progress cutover must keep it.
        aig = build_chain_aig(65)
        lv, stats = _levelize_stats(aig)
        assert stats["fallback"] is False
        assert stats["rounds"] == 65
        assert int(lv.max()) == 65

    def test_long_chain_bails_after_two_rounds(self):
        # A chain settles one node per round: the forecast must trip
        # immediately instead of running O(depth) vector rounds.
        aig = build_chain_aig(5000)
        lv, stats = _levelize_stats(aig)
        assert stats["fallback"] is True
        assert stats["rounds"] == 2
        base = 1 + aig.n_inputs
        assert np.array_equal(
            lv[base:], np.arange(1, 5001, dtype=np.int32)
        )

    def test_balanced_circuit_never_trips_cutover(self):
        # Wide levels settle a whole row per round; the forecast stays
        # far below break-even, so the fast path runs to completion.
        aig = build_random_aig(10, 400, 17)
        lv, stats = _levelize_stats(aig)
        assert stats["fallback"] is False
        scalar = [0] * (1 + aig.n_inputs)
        for f0, f1 in zip(aig._fanin0, aig._fanin1, strict=True):
            scalar.append(1 + max(scalar[f0 >> 1], scalar[f1 >> 1]))
        assert lv.tolist() == scalar

    def test_widening_levels_stay_on_fast_path(self):
        # A learned MLP's cone: level widths grow geometrically (about
        # 1.8x per level from 24 over 16 inputs), so round 2 settles
        # few nodes while thousands still churn.  A forecast that
        # assumed the same few per round would bail; the widening
        # forecast keeps every round vectorized.
        rnd = random.Random(5)
        aig = AIG(16)
        levels = [list(aig.input_lits())]
        for depth in range(1, 10):
            row = []
            below = [lit for lits in levels for lit in lits]
            while len(row) < int(24 * 1.8 ** (depth - 1)):
                # One fanin on the level below: a new node lands on
                # level ``depth`` (strash hits and folds add none).
                a = rnd.choice(levels[-1]) ^ rnd.randint(0, 1)
                b = rnd.choice(below) ^ rnd.randint(0, 1)
                num_ands = aig.num_ands
                lit = aig.add_and(a, b)
                if aig.num_ands > num_ands:
                    row.append(lit)
            levels.append(row)
        aig.set_output(levels[-1][0])
        lv, stats = _levelize_stats(aig)
        assert stats["fallback"] is False
        assert stats["rounds"] == 9
        widths = np.bincount(lv[1 + aig.n_inputs:]).tolist()
        assert widths == [0] + [len(row) for row in levels[1:]]

    def test_empty_program(self):
        aig = AIG(3)
        lv, stats = _levelize_stats(aig)
        assert stats == {"rounds": 0, "fallback": False}
        assert lv.tolist() == [0, 0, 0, 0]


class TestCompileCache:
    def test_cache_invalidated_by_mutation_and_rollback(self):
        aig = AIG(2)
        aig.set_output(aig.add_and(aig.input_lit(0), aig.input_lit(1)))
        X = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        first = aig.compiled()
        assert aig.compiled() is first  # cached while unchanged
        state = checkpoint(aig)
        aig.set_output(aig.add_and(aig.input_lit(0), aig.input_lit(1) ^ 1))
        assert aig.compiled() is not first
        assert np.array_equal(
            aig.simulate(X), np.array([[1, 0], [0, 1]], dtype=np.uint8)
        )
        rollback(aig, state)
        assert np.array_equal(
            aig.simulate(X), np.array([[1], [0]], dtype=np.uint8)
        )

    def test_rollback_then_regrow_recompiles(self):
        # Regrown to the same node count and outputs with a different
        # node: the rollback helper drops the engine that the cache key
        # cannot tell from the new graph's.
        aig = AIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        state = checkpoint(aig)
        aig.set_output(aig.add_and(a, b ^ 1))
        stale = aig.compiled()
        rollback(aig, state)
        aig.set_output(aig.add_and(a ^ 1, b))
        assert aig._compiled is None
        assert aig.compiled() is not stale
        X = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert np.array_equal(aig.simulate(X)[:, 0], [1, 0])

    def test_cache_holds_one_engine(self):
        aig = build_random_aig(5, 30, 6)
        engine = aig.compiled()
        assert aig._compiled == (aig.num_ands, tuple(aig.outputs), engine)
        aig.set_output(aig.input_lit(0))  # structural change
        assert aig.compiled() is not engine

    def test_cache_tracks_direct_fanin_appends(self):
        # The cache is keyed on the node count, so a node appended to
        # the fanin lists directly (bypassing add_and) is seen too.
        aig = AIG(2)
        aig.set_output(aig.add_and(aig.input_lit(0), aig.input_lit(1)))
        engine = aig.compiled()
        aig._fanin0.append(aig.input_lit(0) ^ 1)
        aig._fanin1.append(aig.input_lit(1))
        assert aig.compiled() is not engine
        assert aig.levels().tolist() == [0, 0, 0, 1, 1]

    def test_cache_tracks_inplace_output_rewiring(self):
        # `outputs` is a public list; complementing an entry in place
        # must not serve stale cached simulation results.
        aig = AIG(1)
        aig.set_output(aig.input_lit(0))
        X = np.array([[0], [1]], dtype=np.uint8)
        assert np.array_equal(aig.simulate(X)[:, 0], [0, 1])
        aig.outputs[0] ^= 1
        assert np.array_equal(aig.simulate(X)[:, 0], [1, 0])


class TestBatch:
    def test_simulate_rows_grouped_matches_individual(self):
        aig = build_random_aig(6, 40, 7)
        rng = np.random.default_rng(7)
        mats = [
            rng.integers(0, 2, size=(n, 6)).astype(np.uint8)
            for n in (5, 64, 130)
        ]
        batched = simulate_rows_grouped(aig.compiled(), mats)
        assert len(batched) == 3
        for m, out in zip(mats, batched, strict=True):
            assert np.array_equal(out, aig.simulate(m))
        assert simulate_rows_grouped(aig.compiled(), []) == []

    def test_simulate_circuits_matches_individual(self):
        rng = np.random.default_rng(11)
        X = rng.integers(0, 2, size=(100, 5)).astype(np.uint8)
        aigs = [build_random_aig(5, n, seed=n, n_outputs=1)
                for n in (0, 10, 50)]
        batched = simulate_circuits(aigs, X)
        for aig, out in zip(aigs, batched, strict=True):
            assert np.array_equal(out, aig.simulate(X))
        preds = output_predictions(aigs, X)
        for aig, p in zip(aigs, preds, strict=True):
            assert np.array_equal(p, aig.simulate(X)[:, 0])
        assert simulate_circuits([], X) == []


class TestTruthTables:
    @settings(max_examples=30, deadline=None)
    @given(
        n_inputs=st.integers(min_value=1, max_value=6),
        n_nodes=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_per_bit_loop(self, n_inputs, n_nodes, seed):
        aig = build_random_aig(n_inputs, n_nodes, seed, n_outputs=2)
        values = aig.simulate(
            np.array(
                [
                    [(m >> i) & 1 for i in range(n_inputs)]
                    for m in range(1 << n_inputs)
                ],
                dtype=np.uint8,
            )
        )
        expected = []
        for k in range(aig.num_outputs):
            table = 0
            for m in np.nonzero(values[:, k])[0]:
                table |= 1 << int(m)
            expected.append(table)
        assert aig.truth_tables() == expected


class TestEvaluateSolutions:
    def test_matches_single_evaluation(self, small_problem):
        solutions = [
            Solution(aig=build_random_aig(
                small_problem.n_inputs, n, seed=n, n_outputs=1
            ), method=f"rand{n}")
            for n in (0, 20, 100)
        ]
        batched = evaluate_solutions(small_problem, solutions)
        singles = [evaluate_solution(small_problem, s) for s in solutions]
        assert batched == singles
        assert evaluate_solutions(small_problem, []) == []
