"""Tests for ISOP (Minato-Morreale) and cut enumeration."""

import random

import numpy as np
import pytest

from repro.aig.cuts import enumerate_cuts_with_truths
from repro.aig.isop import full_mask, isop, var_mask
from repro.aig.opt.traverse import cut_truth, ffc_cones
from tests.conftest import random_aig
from tests.oracles import cofactor0, cofactor1, cover_table, pairs, support


def _cuts(aig, k):
    """``{var: [cut, ...]}`` without the tables."""
    return {
        var: [cut for cut, _ in entries]
        for var, entries in pairs(enumerate_cuts_with_truths(aig, k=k)).items()
    }


def _mffc_size(aig, var):
    """MFFC size of ``var`` from the one-sweep cone pass (sizes do not
    depend on ``max_leaves``)."""
    _, sizes, _ = ffc_cones(aig, aig.fanout_counts().tolist(), max_leaves=2)
    return sizes[var - aig.n_inputs - 1]


class TestTruthTableOps:
    def test_var_mask_known(self):
        assert var_mask(2, 0) == 0b1010
        assert var_mask(2, 1) == 0b1100

    def test_cofactors_partition(self):
        rnd = random.Random(0)
        for _ in range(50):
            k = rnd.randint(1, 5)
            f = rnd.getrandbits(1 << k)
            for i in range(k):
                f0 = cofactor0(f, k, i)
                f1 = cofactor1(f, k, i)
                nm = var_mask(k, i)
                recombined = (f0 & ~nm) | (f1 & nm)
                assert recombined & full_mask(k) == f & full_mask(k)

    def test_support(self):
        # f = x0 over 3 vars.
        f = var_mask(3, 0)
        assert support(f, 3) == [0]


class TestIsop:
    def test_exact_functions(self):
        rnd = random.Random(1)
        for _ in range(200):
            k = rnd.randint(1, 5)
            f = rnd.getrandbits(1 << k) & full_mask(k)
            cover, table = isop(f, f, k)
            assert table == f
            assert cover_table(cover, k) == f

    def test_interval_respected(self):
        rnd = random.Random(2)
        for _ in range(200):
            k = rnd.randint(1, 5)
            fm = full_mask(k)
            f = rnd.getrandbits(1 << k) & fm
            dc = rnd.getrandbits(1 << k) & fm
            lower = f & ~dc & fm
            upper = (f | dc) & fm
            cover, table = isop(lower, upper, k)
            assert lower & ~table & fm == 0
            assert table & ~upper & fm == 0
            assert cover_table(cover, k) == table

    def test_irredundant(self):
        rnd = random.Random(3)
        for _ in range(50):
            k = rnd.randint(2, 4)
            f = rnd.getrandbits(1 << k) & full_mask(k)
            cover, table = isop(f, f, k)
            for drop in range(len(cover)):
                reduced = cover[:drop] + cover[drop + 1 :]
                assert cover_table(reduced, k) != table or not cover

    def test_infeasible_interval_raises(self):
        with pytest.raises(ValueError):
            isop(0b11, 0b01, 2)

    def test_constants(self):
        assert isop(0, 0, 3) == ([], 0)
        cover, table = isop(full_mask(3), full_mask(3), 3)
        assert table == full_mask(3)
        assert cover == [()]


class TestCuts:
    def test_trivial_cuts_present(self):
        aig = random_aig(4, 10, seed=5)
        cuts = _cuts(aig, k=4)
        for var in range(1 + aig.n_inputs, aig.num_vars):
            assert (var,) in cuts[var]

    def test_cut_size_bounded(self):
        aig = random_aig(6, 40, seed=6)
        cuts = _cuts(aig, k=3)
        for var, cl in cuts.items():
            for cut in cl:
                if cut != (var,):
                    assert len(cut) <= 3

    def test_cut_functions_match_simulation(self):
        from repro.utils.bitops import pack_bits, unpack_bits

        aig = random_aig(5, 25, seed=8)
        grid = np.array(
            [[(m >> i) & 1 for i in range(5)] for m in range(32)],
            dtype=np.uint8,
        )
        values = unpack_bits(aig.simulate_packed_all(pack_bits(grid)), 32)
        cuts = _cuts(aig, k=4)
        checked = 0
        for var, cl in cuts.items():
            if not aig.is_and_var(var):
                continue
            for cut in cl:
                if cut == (var,):
                    continue
                table = cut_truth(aig, var, cut)
                for m in range(32):
                    idx = 0
                    for pos, leaf in enumerate(cut):
                        if values[m, leaf]:
                            idx |= 1 << pos
                    assert (table >> idx) & 1 == values[m, var]
                checked += 1
        assert checked > 0

    def test_cut_function_rejects_non_cut(self):
        aig = random_aig(4, 15, seed=9)
        last = aig.num_vars - 1
        with pytest.raises(ValueError):
            cut_truth(aig, last, ())

    def test_mffc_of_chain(self):
        from repro.aig.aig import AIG

        aig = AIG(3)
        a, b, c = (aig.input_lit(i) for i in range(3))
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.set_output(y)
        assert _mffc_size(aig, y >> 1) == 2

    def test_mffc_iterative_on_deep_chain(self):
        # Satellite regression: the recursive walk blew the Python
        # recursion limit on single-fanout chains of this depth.
        from repro.aig.aig import AIG

        n = 5000
        aig = AIG(n)
        acc = aig.input_lit(0)
        for i in range(1, n):
            acc = aig.add_and(acc, aig.input_lit(i))
        aig.set_output(acc)
        assert _mffc_size(aig, acc >> 1) == n - 1

    def test_cut_function_iterative_on_deep_cone(self):
        # Satellite regression: a 4-leaf cut of a chain over repeated
        # inputs spans the whole chain; the recursive evaluator
        # crashed, the iterative one must agree with simulation.
        from repro.aig.aig import AIG

        aig = AIG(2)
        x, y = aig.input_lit(0), aig.input_lit(1)
        acc = x
        for i in range(5000):
            acc = aig.add_and(acc, (x, y)[i % 2] ^ ((i // 3) & 1))
        aig.set_output(acc)
        table = cut_truth(aig, acc >> 1, (x >> 1, y >> 1))
        assert table == aig.truth_tables()[0]
