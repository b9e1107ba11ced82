"""AIG optimization passes: equivalence and improvement."""

import pytest

from repro.aig import aiger
from repro.aig.aig import AIG
from repro.aig.build import (multiplier, parity_chain, ripple_adder,
                             symmetric_function)
from repro.aig.opt import passes
from repro.aig.opt.passes import (balance, compress, fraig_lite, refactor,
                                  rewrite)
from tests.conftest import random_aig
from tests.oracles import ripple_chain

PASSES = [balance, rewrite, refactor, fraig_lite, compress]


@pytest.mark.parametrize("pass_fn", PASSES)
class TestEquivalence:
    def test_random_graphs(self, pass_fn):
        for seed in range(6):
            aig = random_aig(6, 50, seed=seed, n_outputs=2)
            assert pass_fn(aig).truth_tables() == aig.truth_tables()

    def test_adder(self, pass_fn):
        aig = AIG(8)
        lits = aig.input_lits()
        for bit in ripple_adder(aig, lits[:4], lits[4:]):
            aig.set_output(bit)
        assert pass_fn(aig).truth_tables() == aig.truth_tables()

    def test_constant_output(self, pass_fn):
        aig = AIG(2)
        aig.set_output(1)
        assert pass_fn(aig).truth_tables() == [0b1111]


class TestImprovement:
    def test_compress_never_grows(self):
        for seed in range(8):
            aig = random_aig(6, 60, seed=seed)
            out = compress(aig)
            assert out.num_ands <= aig.count_used_ands()

    def test_balance_reduces_chain_depth(self):
        # A long AND chain balances to logarithmic depth.
        aig = AIG(16)
        acc = aig.input_lit(0)
        for i in range(1, 16):
            acc = aig.add_and(acc, aig.input_lit(i))
        aig.set_output(acc)
        assert aig.depth() == 15
        balanced = balance(aig)
        assert balanced.depth() == 4
        assert balanced.truth_tables() == aig.truth_tables()

    def test_rewrite_removes_redundancy(self):
        # (a & b) | (a & b & c-free duplicate structure) style waste:
        # build the same function twice without sharing via polarity
        # tricks, rewrite should shrink it back.
        aig = AIG(3)
        a, b, c = (aig.input_lit(i) for i in range(3))
        x1 = aig.add_and(a, b)
        x2 = aig.add_and(aig.add_and(a, a), b)  # folded by strash anyway
        y = aig.add_or(aig.add_and(x1, c), aig.add_and(x2, c ^ 1))
        aig.set_output(y)
        out = rewrite(aig)
        assert out.truth_tables() == aig.truth_tables()
        assert out.num_ands <= aig.count_used_ands()

    def test_compress_on_symmetric_function(self):
        aig = AIG(10)
        aig.set_output(
            symmetric_function(aig, aig.input_lits(), "01010101010")
        )
        out = compress(aig)
        assert out.truth_tables() == aig.truth_tables()
        assert out.num_ands <= aig.num_ands

    def test_multiplier_compression_keeps_equivalence(self):
        aig = AIG(8)
        lits = aig.input_lits()
        for bit in multiplier(aig, lits[:4], lits[4:]):
            aig.set_output(bit)
        out = compress(aig)
        assert out.truth_tables() == aig.truth_tables()

    def test_fraig_merges_structurally_distinct_equivalents(self):
        # x XOR y built once as OR-of-ANDs and once as a MUX: strash
        # cannot see the sharing, fraig-lite must prove and merge it.
        aig = AIG(3)
        x, y, z = (aig.input_lit(i) for i in range(3))
        xor1 = aig.add_or(aig.add_and(x, y ^ 1), aig.add_and(x ^ 1, y))
        # (x | y) & ~(x & y): same function, disjoint structure.
        xor2 = aig.add_and(aig.add_or(x, y), aig.add_and(x, y) ^ 1)
        aig.set_output(aig.add_and(xor1, z))
        aig.set_output(aig.add_and(xor2, z ^ 1))
        out = fraig_lite(aig)
        assert out.truth_tables() == aig.truth_tables()
        assert out.num_ands < aig.count_used_ands()


class TestCompressSkipsRepeatedPasses:
    """A pass handed the graph it already ran on and was rejected on
    (nothing was adopted since) is skipped: it is deterministic in its
    input, so the rerun could only be rejected again."""

    @staticmethod
    def rerunning_compress(aig, max_rounds=3):
        """``compress`` without the skip: every pass, every round."""
        best = aig.extract_cone()
        for _ in range(max_rounds):
            size_before = best.num_ands
            for pass_fn in (balance, rewrite, refactor, fraig_lite):
                cand = pass_fn(best)
                if cand.num_ands < best.num_ands or (
                    cand.num_ands == best.num_ands
                    and cand.depth() < best.depth()
                ):
                    best = cand
            if best.num_ands >= size_before:
                break
        return best

    def test_no_pass_reruns_on_its_input_and_output_is_identical(
        self, monkeypatch
    ):
        calls = []
        for name in ("balance", "rewrite", "refactor", "fraig_lite"):
            def logged(graph, fn=getattr(passes, name), name=name):
                calls.append((name, graph))
                return fn(graph)
            monkeypatch.setattr(passes, name, logged)
        # Round 2 adopts nothing before refactor and fraig_lite, which
        # round 1 ran on the same graph: 6 pass calls, not 8.
        aig = random_aig(8, 120, seed=6, n_outputs=3)
        out = passes.compress(aig)
        assert [name for name, _ in calls] == [
            "balance", "rewrite", "refactor", "fraig_lite",
            "balance", "rewrite",
        ]
        assert len({(name, id(graph)) for name, graph in calls}) == len(calls)
        want = self.rerunning_compress(aig)
        assert aiger.dumps_aag(out) == aiger.dumps_aag(want)


class TestChainRegression:
    """Deep chain-shaped graphs (what ``build.py`` emits for learned
    arithmetic) used to blow the Python recursion limit inside the
    rewriting passes' cone walks.  Satellite regression: ``compress``
    completes — iteratively — on ~5000-node parity/ripple chains."""

    def test_compress_parity_chain_no_recursion_error(self):
        aig = parity_chain(n_inputs=4, n_nodes=5000)
        assert aig.num_ands >= 5000
        out = compress(aig)  # seed: RecursionError in the cone walks
        assert out.truth_tables() == aig.truth_tables()
        assert out.num_ands <= aig.count_used_ands()

    def test_compress_ripple_chain_no_recursion_error(self):
        aig = ripple_chain(word_width=4, n_nodes=5000)
        assert aig.num_ands >= 5000
        out = compress(aig)
        assert out.truth_tables() == aig.truth_tables()
        assert out.num_ands <= aig.count_used_ands()

    def test_single_passes_survive_chains(self):
        aig = parity_chain(n_inputs=4, n_nodes=2000)
        tables = aig.truth_tables()
        for pass_fn in PASSES:
            assert pass_fn(aig).truth_tables() == tables
