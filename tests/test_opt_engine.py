"""Unit tests for the NPN-library rewriting engine (repro.aig.opt)."""

import random

import pytest

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.build import sop_over_leaves
from repro.aig.cuts import enumerate_cuts_with_truths
from repro.aig.isop import full_mask, isop
from repro.aig.opt.library import NpnLibrary, get_library
from repro.aig.opt.npn import npn_apply, npn_canon
from repro.aig.opt.traverse import bounded_cut, cut_truth, ffc_cones
from tests.conftest import random_aig
from tests.oracles import (
    BudgetExceeded,
    VirtualBuilder,
    reference_compress,
    reference_refactor,
    reference_rewrite,
)


class TestNpnCanon:
    def test_transform_contract(self):
        # npn_canon's (perm, phase, out_neg) must reproduce the
        # canonical table through the reference transform.
        rnd = random.Random(0)
        for _ in range(200):
            k = rnd.randint(0, 4)
            table = rnd.getrandbits(1 << k)
            ctable, perm, phase, out_neg = npn_canon(table, k)
            assert npn_apply(table, k, perm, phase, out_neg) == ctable

    def test_npn_equivalent_functions_share_a_class(self):
        # Applying any NPN transform to a function must not change its
        # canonical representative.
        rnd = random.Random(1)
        for _ in range(100):
            k = rnd.randint(1, 4)
            table = rnd.getrandbits(1 << k)
            perm = list(range(k))
            rnd.shuffle(perm)
            phase = rnd.getrandbits(k)
            out_neg = bool(rnd.getrandbits(1))
            moved = npn_apply(table, k, tuple(perm), phase, out_neg)
            assert npn_canon(moved, k)[0] == npn_canon(table, k)[0]

    def test_canonical_is_minimal(self):
        # The representative is the numerically smallest table of the
        # class, so canonicalizing it is a fixpoint.
        rnd = random.Random(2)
        for _ in range(50):
            k = rnd.randint(1, 4)
            table = rnd.getrandbits(1 << k)
            ctable = npn_canon(table, k)[0]
            assert ctable <= table
            assert npn_canon(ctable, k)[0] == ctable

    def test_class_count_of_2var_functions(self):
        # The 16 2-input functions form exactly 4 NPN classes.
        classes = {npn_canon(t, 2)[0] for t in range(16)}
        assert len(classes) == 4

    def test_rejects_wide_tables(self):
        with pytest.raises(ValueError):
            npn_canon(0, 5)


class TestLibrary:
    def test_instantiate_matches_table(self):
        lib = NpnLibrary()
        rnd = random.Random(3)
        for _ in range(150):
            k = rnd.randint(1, 4)
            table = rnd.getrandbits(1 << k)
            aig = AIG(k)
            aig.set_output(lib.instantiate(aig, table, aig.input_lits()))
            assert aig.truth_tables()[0] == table & full_mask(k)

    def test_instantiate_over_arbitrary_leaves(self):
        # Leaves that are internal literals, complemented or constant.
        lib = get_library()
        rnd = random.Random(4)
        for _ in range(60):
            aig = random_aig(4, 12, seed=rnd.randint(0, 999))
            pool = [2 * v for v in range(1, aig.num_vars)] + [CONST0, CONST1]
            leaves = [rnd.choice(pool) ^ rnd.getrandbits(1) for _ in range(3)]
            table = rnd.getrandbits(8)
            lit = lib.instantiate(aig, table, leaves)
            aig.outputs = []
            aig.set_output(lit)
            got = aig.truth_tables()[0]
            # Oracle: evaluate the leaves, then look the table up.
            oracle = AIG(aig.n_inputs)
            oracle._fanin0 = list(aig._fanin0)
            oracle._fanin1 = list(aig._fanin1)
            for leaf in leaves:
                oracle.outputs.append(leaf)
            leaf_tables = oracle.truth_tables()
            n_rows = 1 << aig.n_inputs
            expect = 0
            for m in range(n_rows):
                idx = 0
                for pos, lt in enumerate(leaf_tables):
                    if (lt >> m) & 1:
                        idx |= 1 << pos
                if (table >> idx) & 1:
                    expect |= 1 << m
            assert got == expect

    def test_recipes_cached_per_class(self):
        lib = NpnLibrary()
        aig = AIG(4)
        lib.instantiate(aig, 0b1000, [aig.input_lit(i) for i in range(2)])
        n = len(lib)
        # Same class under input permutation/complement: no new recipe.
        lib.instantiate(aig, 0b0100, [aig.input_lit(i) for i in range(2)])
        lib.instantiate(aig, 0b0010, [aig.input_lit(i) for i in range(2)])
        assert len(lib) == n

    def test_constants_short_circuit(self):
        lib = get_library()
        aig = AIG(2)
        assert lib.instantiate(aig, 0, aig.input_lits()) == CONST0
        assert lib.instantiate(aig, 0b1111, aig.input_lits()) == CONST1
        assert aig.num_ands == 0


class TestVirtualBuilder:
    def test_counting_matches_building_in_lockstep(self):
        # Pricing a construction and then really building it must
        # agree on both the node delta and the returned literals.
        rnd = random.Random(5)
        for trial in range(40):
            aig = random_aig(5, 20, seed=trial)
            k = rnd.randint(2, 4)
            table = rnd.getrandbits(1 << k)
            cover, _ = isop(table, table, k)
            leaves = [aig.input_lit(i) for i in range(k)]
            counter = VirtualBuilder(aig)
            virtual_lit = sop_over_leaves(counter, cover, leaves)
            before = aig.num_ands
            real_lit = sop_over_leaves(aig, cover, leaves)
            assert counter.n_new == aig.num_ands - before
            assert virtual_lit == real_lit

    def test_counts_sharing_with_existing_graph(self):
        aig = AIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        existing = aig.add_and(a, b)
        counter = VirtualBuilder(aig)
        assert counter.add_and(a, b) == existing
        assert counter.n_new == 0

    def test_counts_internal_sharing(self):
        aig = AIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        counter = VirtualBuilder(aig)
        x = counter.add_and(a, b)
        y = counter.add_and(a, b)
        assert x == y
        assert counter.n_new == 1

    def test_graph_is_never_touched(self):
        aig = AIG(3)
        aig.set_output(aig.input_lit(0))
        counter = VirtualBuilder(aig)
        counter.add_and_multi([aig.input_lit(i) for i in range(3)])
        assert aig.num_ands == 0
        assert aig.outputs == [aig.input_lit(0)]

    def test_budget_aborts(self):
        aig = AIG(4)
        counter = VirtualBuilder(aig, budget=1)
        counter.add_and(aig.input_lit(0), aig.input_lit(1))
        with pytest.raises(BudgetExceeded):
            counter.add_and(aig.input_lit(2), aig.input_lit(3))


class TestCutTruths:
    def test_enumeration_truths_match_cone_evaluation(self):
        for seed in range(8):
            aig = random_aig(5, 30, seed=seed)
            with_truths = enumerate_cuts_with_truths(aig, k=4)
            for var in range(1 + aig.n_inputs, aig.num_vars):
                for cut, table in with_truths[var]:
                    if cut == (var,):
                        assert table == 0b10
                    else:
                        assert table == cut_truth(aig, var, cut)

    def test_deep_cut_truths_are_cheap_and_correct(self):
        # On a chain over two repeated inputs the 2-leaf cuts span the
        # whole chain; the bottom-up merge must stay exact.
        aig = AIG(2)
        x, y = aig.input_lit(0), aig.input_lit(1)
        acc = aig.add_and(x, y)
        for i in range(500):
            acc = aig.add_and(acc, (x, y)[i % 2] ^ ((i // 5) & 1))
        aig.set_output(acc)
        truths = enumerate_cuts_with_truths(aig, k=4)
        root = acc >> 1
        for cut, table in truths[root]:
            if cut != (root,):
                assert table == cut_truth(aig, root, cut)


class TestTraverse:
    def test_cut_truth_rejects_non_cut(self):
        aig = random_aig(4, 15, seed=9)
        with pytest.raises(ValueError):
            cut_truth(aig, aig.num_vars - 1, ())

    def test_mffc_matches_reference_recursive(self):
        def recursive_mffc(aig, var, fanout):
            counted = set()

            def walk(v, is_root):
                if v in counted or not aig.is_and_var(v):
                    return
                if not is_root and fanout[v] > 1:
                    return
                counted.add(v)
                f0, f1 = aig.fanins(v)
                walk(f0 >> 1, False)
                walk(f1 >> 1, False)

            walk(var, True)
            return len(counted)

        for seed in range(6):
            aig = random_aig(6, 80, seed=seed)
            fanout = aig.fanout_counts()
            _, sizes, _ = ffc_cones(aig, fanout.tolist(), max_leaves=10)
            for j, size in enumerate(sizes):
                var = 1 + aig.n_inputs + j
                assert size == recursive_mffc(aig, var, fanout)

    def test_bounded_cut_is_a_valid_cut(self):
        for seed in range(6):
            aig = random_aig(6, 60, seed=seed)
            rnd = random.Random(seed)
            vars_ = [
                rnd.randrange(1 + aig.n_inputs, aig.num_vars)
                for _ in range(5)
            ]
            for v1, v2 in zip(vars_, vars_[1:], strict=False):
                cut = bounded_cut(aig, (v1, v2), max_leaves=16, max_visit=16)
                if cut is None:
                    continue
                # cut_truth terminating (no ValueError) proves every
                # root-to-input path crosses the leaf set.
                cut_truth(aig, v1, cut)
                cut_truth(aig, v2, cut)

    def test_bounded_cut_respects_leaf_limit(self):
        aig = random_aig(10, 120, seed=7)
        root = aig.num_vars - 1
        cut = bounded_cut(aig, (root,), max_leaves=3, max_visit=4)
        assert cut is None or len(cut) <= 3


class TestReferenceBaseline:
    def test_seed_passes_equivalent_and_never_better(self):
        # The pinned seed baseline must stay correct (it anchors
        # bench_opt_engine), and the engine must never ship a larger
        # circuit than it.
        from repro.aig.opt.passes import compress

        for seed in range(4):
            aig = random_aig(6, 50, seed=seed, n_outputs=2)
            tables = aig.truth_tables()
            for pass_fn in (
                reference_rewrite, reference_refactor, reference_compress
            ):
                assert pass_fn(aig).truth_tables() == tables
            assert (
                compress(aig).num_ands
                <= reference_compress(aig).num_ands
            )


class TestRewritePipeline:
    def test_rewrite_prefers_existing_structure(self):
        # A function whose NPN class is already built in the output
        # graph must be reused rather than duplicated.
        from repro.aig.opt.passes import rewrite

        aig = AIG(4)
        a, b, c = (aig.input_lit(i) for i in range(3))
        and3 = aig.add_and(aig.add_and(a, b), c)
        # Same function again with different association: redundant.
        and3b = aig.add_and(a, aig.add_and(b, c))
        aig.set_output(aig.add_and(and3, aig.input_lit(3)))
        aig.set_output(aig.add_and(and3b, aig.input_lit(3) ^ 1))
        out = rewrite(aig)
        assert out.truth_tables() == aig.truth_tables()
        assert out.num_ands < aig.count_used_ands()

    def test_rewrite_supports_wide_cuts(self):
        # Cuts beyond the NPN library width (k > 4) fall back to
        # mutation-free ISOP pricing — the seed's public k range.
        from repro.aig.opt.passes import rewrite

        for seed in range(4):
            aig = random_aig(6, 40, seed=seed, n_outputs=2)
            out = rewrite(aig, k=5)
            assert out.truth_tables() == aig.truth_tables()
            assert out.num_ands <= aig.count_used_ands()
