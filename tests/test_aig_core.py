"""Unit tests for the AIG data structure."""

import numpy as np
import pytest

from repro.aig.aig import AIG, CONST0, CONST1, lit_make, lit_not, lit_var
from tests.conftest import random_aig
from tests.oracles import checkpoint, rollback


class TestLiterals:
    def test_lit_roundtrip(self):
        assert lit_var(lit_make(7)) == 7
        assert lit_var(lit_make(7, True)) == 7
        assert lit_make(7, True) == lit_make(7) | 1

    def test_lit_not_involution(self):
        assert lit_not(lit_not(6)) == 6


class TestConstruction:
    def test_constant_folding(self):
        aig = AIG(2)
        a = aig.input_lit(0)
        assert aig.add_and(CONST0, a) == CONST0
        assert aig.add_and(CONST1, a) == a
        assert aig.add_and(a, a) == a
        assert aig.add_and(a, lit_not(a)) == CONST0
        assert aig.num_ands == 0

    def test_structural_hashing(self):
        aig = AIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        x = aig.add_and(a, b)
        y = aig.add_and(b, a)  # commuted
        assert x == y
        assert aig.num_ands == 1

    def test_xor_truth_table(self):
        aig = AIG(2)
        aig.set_output(aig.add_xor(aig.input_lit(0), aig.input_lit(1)))
        assert aig.truth_tables() == [0b0110]

    def test_mux_truth_table(self):
        aig = AIG(3)
        s, t, e = (aig.input_lit(i) for i in range(3))
        aig.set_output(aig.add_mux(s, t, e))
        # s=input0, t=input1, e=input2: out = s ? t : e.
        table = aig.truth_tables()[0]
        for m in range(8):
            s_v, t_v, e_v = m & 1, (m >> 1) & 1, (m >> 2) & 1
            assert (table >> m) & 1 == (t_v if s_v else e_v)

    def test_maj3(self):
        aig = AIG(3)
        aig.set_output(aig.add_maj3(*(aig.input_lit(i) for i in range(3))))
        table = aig.truth_tables()[0]
        for m in range(8):
            votes = bin(m).count("1")
            assert (table >> m) & 1 == (1 if votes >= 2 else 0)

    def test_multi_input_gates_empty(self):
        aig = AIG(1)
        assert aig.add_and_multi([]) == CONST1
        assert aig.add_or_multi([]) == CONST0
        assert aig.add_xor_multi([]) == CONST0

    def test_input_index_bounds(self):
        aig = AIG(2)
        with pytest.raises(IndexError):
            aig.input_lit(2)


class TestRollback:
    """The seed passes' rollback, a test-oracle helper: ``AIG``
    itself only appends nodes."""

    def test_aig_has_no_rollback(self):
        assert not hasattr(AIG, "checkpoint")
        assert not hasattr(AIG, "rollback")

    def test_rollback_removes_nodes_and_strash(self):
        aig = AIG(3)
        a, b, c = (aig.input_lit(i) for i in range(3))
        aig.add_and(a, b)
        state = checkpoint(aig)
        aig.add_and(a, c)
        aig.add_and(b, c)
        aig.set_output(CONST1)
        rollback(aig, state)
        assert aig.num_ands == 1
        assert aig.num_outputs == 0
        # Strash entries for rolled-back nodes must be gone: re-adding
        # must create a fresh (valid) node, not a dangling literal.
        lit = aig.add_and(a, c)
        assert lit_var(lit) < aig.num_vars

    def test_rollback_keeps_prior_strash(self):
        aig = AIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        x = aig.add_and(a, b)
        state = checkpoint(aig)
        aig.add_and(a, lit_not(b))
        rollback(aig, state)
        assert aig.add_and(a, b) == x


class TestStructure:
    def test_levels_and_depth(self):
        aig = AIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        x = aig.add_and(a, b)
        y = aig.add_and(x, a)
        aig.set_output(y)
        assert aig.depth() == 2

    def test_fanout_counts_include_outputs(self):
        aig = AIG(2)
        x = aig.add_and(aig.input_lit(0), aig.input_lit(1))
        aig.set_output(x)
        aig.set_output(lit_not(x))
        counts = aig.fanout_counts()
        assert counts[lit_var(x)] == 2

    def test_extract_cone_drops_dead_nodes(self):
        aig = AIG(3)
        a, b, c = (aig.input_lit(i) for i in range(3))
        keep = aig.add_and(a, b)
        aig.add_and(b, c)  # dead
        aig.set_output(keep)
        compact = aig.extract_cone()
        assert compact.num_ands == 1
        assert compact.truth_tables() == aig.truth_tables()

    def test_extract_cone_preserves_input_count(self):
        aig = AIG(5)
        aig.set_output(aig.input_lit(4))
        compact = aig.extract_cone()
        assert compact.n_inputs == 5

    def test_count_used_ands(self):
        aig = random_aig(4, 30, seed=9)
        used = aig.count_used_ands()
        assert used == aig.extract_cone().num_ands

    def test_copy_is_independent(self):
        aig = random_aig(3, 5, seed=1)
        dup = aig.copy()
        dup.add_and(dup.input_lit(0), dup.input_lit(1))
        assert dup.num_ands >= aig.num_ands


class TestSimulation:
    def test_simulation_matches_truth_table(self):
        aig = random_aig(5, 25, seed=7, n_outputs=2)
        tables = aig.truth_tables()
        grid = np.array(
            [[(m >> i) & 1 for i in range(5)] for m in range(32)],
            dtype=np.uint8,
        )
        sim = aig.simulate(grid)
        for k, table in enumerate(tables):
            for m in range(32):
                assert sim[m, k] == (table >> m) & 1

    def test_constant_output(self):
        aig = AIG(2)
        aig.set_output(CONST1)
        aig.set_output(CONST0)
        out = aig.simulate(np.zeros((3, 2), dtype=np.uint8))
        assert out[:, 0].tolist() == [1, 1, 1]
        assert out[:, 1].tolist() == [0, 0, 0]

    def test_inverted_output(self):
        aig = AIG(1)
        aig.set_output(lit_not(aig.input_lit(0)))
        out = aig.simulate(np.array([[0], [1]], dtype=np.uint8))
        assert out[:, 0].tolist() == [1, 0]

    def test_input_shape_validation(self):
        aig = AIG(3)
        aig.set_output(CONST1)
        with pytest.raises(ValueError):
            aig.simulate_packed_all(np.zeros((2, 1), dtype=np.uint64))

    def test_truth_table_input_limit(self):
        aig = AIG(21)
        aig.set_output(CONST1)
        with pytest.raises(ValueError):
            aig.truth_tables()
