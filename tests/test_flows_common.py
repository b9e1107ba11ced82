"""Unit tests for the flow plumbing in repro.flows.common."""

import numpy as np
import pytest

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.build import multiplier
from repro.flows.common import (
    aig_accuracy,
    constant_solution,
    finalize_aig,
    flow_rng,
    pick_best,
)
from repro.ml.dataset import Dataset


def _const_aig(n_inputs, value):
    aig = AIG(n_inputs)
    aig.set_output(CONST1 if value else CONST0)
    return aig


def _passthrough_aig(n_inputs, column):
    aig = AIG(n_inputs)
    aig.set_output(aig.input_lit(column))
    return aig


@pytest.fixture
def data(rng):
    X = rng.integers(0, 2, size=(100, 4)).astype(np.uint8)
    return Dataset(X, X[:, 1])


class TestPickBest:
    def test_prefers_accuracy(self, data):
        best = pick_best(
            [("const0", _const_aig(4, 0)), ("exact", _passthrough_aig(4, 1))],
            data,
        )
        assert best[0] == "exact"
        assert best[2] == 1.0

    def test_ties_break_by_size(self, data):
        small = _passthrough_aig(4, 1)
        # Same function built with three *used* (reachable) nodes:
        # (i1 & i0) | (i1 & ~i0) == i1.
        big = AIG(4)
        i0, i1 = big.input_lit(0), big.input_lit(1)
        big.set_output(big.add_or(big.add_and(i1, i0), big.add_and(i1, i0 ^ 1)))
        assert big.count_used_ands() == 3
        best = pick_best([("big", big), ("small", small)], data)
        assert best[0] == "small"

    def test_dead_nodes_do_not_penalize_ranking(self, data):
        # Satellite regression: size comparison is over *used* nodes.
        # A deliberately dirty graph (dead logic never cone-extracted)
        # computes the same function with the same used count, so it
        # must not lose the tie-break to the clean copy.
        clean = _passthrough_aig(4, 1)
        dirty = AIG(4)
        for col in (0, 2, 3):  # dead logic, unreachable from the output
            dirty.add_and(dirty.input_lit(col), dirty.input_lit(1) ^ 1)
        dirty.set_output(dirty.input_lit(1))
        assert dirty.num_ands == 3 and dirty.count_used_ands() == 0
        best = pick_best([("dirty", dirty), ("clean", clean)], data)
        # Full tie on (accuracy, used size): the first candidate wins,
        # instead of the dirty one being demoted by its dead nodes.
        assert best[0] == "dirty"

    def test_dirty_graph_not_rejected_as_over_cap(self, data):
        # Satellite regression: the cap check is on used nodes, so a
        # perfect candidate carrying dead logic beyond max_nodes is
        # still legal and must beat a worse clean candidate.
        dirty = AIG(4)
        for col in (0, 2, 3):
            dirty.add_and(dirty.input_lit(col), dirty.input_lit(1) ^ 1)
        dirty.set_output(dirty.input_lit(1))
        best = pick_best(
            [("const", _const_aig(4, 0)), ("dirty", dirty)],
            data,
            max_nodes=2,  # below the raw count (3), above the used count (0)
        )
        assert best[0] == "dirty"
        assert best[2] == 1.0

    def test_oversize_used_only_as_fallback(self, data):
        oversize = _passthrough_aig(4, 1)
        best = pick_best(
            [("huge", oversize), ("const", _const_aig(4, 0))],
            data,
            max_nodes=-1,  # everything is oversize
        )
        assert best[0] == "huge"  # fallback keeps the best anyway

    def test_oversize_ties_break_by_size(self, data):
        # Regression: the fallback branch must apply the same
        # "ties broken by smaller circuit" rule as the legal branch
        # (on used nodes, so the extra logic must be reachable).
        small = _passthrough_aig(4, 1)
        big = AIG(4)
        i0, i1 = big.input_lit(0), big.input_lit(1)
        big.set_output(big.add_or(big.add_and(i1, i0), big.add_and(i1, i0 ^ 1)))
        for order in (
            [("big", big), ("small", small)],
            [("small", small), ("big", big)],
        ):
            best = pick_best(order, data, max_nodes=-1)
            assert best[0] == "small"

    def test_empty_candidates(self, data):
        assert pick_best([], data) is None


def _redundant_aig():
    """(i1 & i0) | (i1 & ~i0) == i1: 3 AND nodes that ``compress``
    collapses to 0 but ``balance`` (pure reassociation) keeps."""
    aig = AIG(4)
    i0, i1 = aig.input_lit(0), aig.input_lit(1)
    aig.set_output(aig.add_or(aig.add_and(i1, i0), aig.add_and(i1, i0 ^ 1)))
    return aig


class TestFinalizeOptimizeLimit:
    """Satellite: the optimize_limit boundary, the over-cap
    approximation path re-entering compress, and optimize=False."""

    def test_at_limit_runs_compress(self, rng):
        # num_ands == optimize_limit is inside the compress branch.
        out = finalize_aig(_redundant_aig(), rng, optimize_limit=3)
        assert out.num_ands == 0
        assert out.truth_tables() == _redundant_aig().truth_tables()

    def test_above_limit_balance_only(self, rng):
        # One over the limit: balance cannot remove the redundancy.
        out = finalize_aig(_redundant_aig(), rng, optimize_limit=2)
        assert out.num_ands == 3
        assert out.truth_tables() == _redundant_aig().truth_tables()

    def test_optimize_false_skips_both_passes(self, rng):
        out = finalize_aig(_redundant_aig(), rng, optimize=False)
        assert out.num_ands == 3
        assert out.truth_tables() == _redundant_aig().truth_tables()

    def _multiplier_aig(self):
        aig = AIG(12)
        lits = aig.input_lits()
        for bit in multiplier(aig, lits[:6], lits[6:]):
            aig.set_output(bit)
        return aig.extract_cone()

    def test_over_cap_reenters_compress(self):
        """The post-approximation result re-enters compress when it
        fits under optimize_limit; the pipeline is exactly
        compress -> approximate -> compress."""
        from repro.aig.approx import approximate_to_size
        from repro.aig.opt.passes import compress

        max_nodes = 60
        got = finalize_aig(
            self._multiplier_aig(), np.random.default_rng(7),
            max_nodes=max_nodes, optimize_limit=10**9,
        )
        manual = compress(self._multiplier_aig())
        assert manual.num_ands > max_nodes  # the approx path is taken
        manual = approximate_to_size(
            manual, max_ands=max_nodes, rng=np.random.default_rng(7)
        )
        manual = compress(manual)
        assert got.num_ands == manual.num_ands <= max_nodes

    def test_over_cap_without_compress_reentry_still_capped(self):
        # optimize_limit below the approximated size: the re-entry is
        # skipped but the cap still holds.
        got = finalize_aig(
            self._multiplier_aig(), np.random.default_rng(7),
            max_nodes=60, optimize_limit=-1,
        )
        assert got.num_ands <= 60


class TestFinalize:
    def test_respects_cap_via_approximation(self, rng):
        aig = AIG(12)
        lits = aig.input_lits()
        for bit in multiplier(aig, lits[:6], lits[6:]):
            aig.set_output(bit)
        out = finalize_aig(aig.extract_cone(), rng, max_nodes=60,
                          optimize=False)
        assert out.num_ands <= 60

    def test_keeps_small_circuits_functional(self, rng):
        aig = _passthrough_aig(4, 2)
        out = finalize_aig(aig, rng)
        assert out.truth_tables() == aig.truth_tables()


class TestPortfolioFallback:
    def test_empty_flow_list_returns_constant(self, small_problem):
        # Regression: used to raise "cannot unpack non-sequence
        # NoneType" because pick_best returns None for no candidates.
        from repro.contest.problem import MAX_AND_NODES
        from repro.flows import get_flow

        solution = get_flow("portfolio").run(small_problem, flows=[])
        assert solution.is_legal(MAX_AND_NODES)
        assert solution.aig.num_ands == 0
        assert solution.method.endswith("+const")
        assert solution.metadata["selected_flow"] is None
        assert 0.0 <= solution.metadata["valid_accuracy"] <= 1.0


class TestHelpers:
    def test_constant_solution_majority(self, small_problem):
        solution = constant_solution(small_problem, "x")
        # The constant is the train+valid majority label; its test
        # accuracy is exactly that label's test frequency.
        merged = small_problem.merged_train_valid()
        label = 1 if merged.onset_fraction() > 0.5 else 0
        frac = small_problem.test.onset_fraction()
        expected = frac if label == 1 else 1 - frac
        acc = aig_accuracy(solution.aig, small_problem.test)
        assert acc == pytest.approx(expected, abs=1e-9)

    def test_flow_rng_streams_differ(self, small_problem):
        a = flow_rng("team01", small_problem, 0)
        b = flow_rng("team02", small_problem, 0)
        assert a.integers(0, 2**31) != b.integers(0, 2**31)

    def test_flow_rng_reproducible(self, small_problem):
        a = flow_rng("team01", small_problem, 0)
        b = flow_rng("team01", small_problem, 0)
        assert a.integers(0, 2**31) == b.integers(0, 2**31)
