"""The combinational equivalence checker (``repro.aig.cec``)."""

import pytest

from repro.aig.aig import AIG, lit_not
from repro.aig.cec import check_equivalence, simulate_differs
from repro.aig.opt.passes import compress
from tests.conftest import random_aig


class TestCEC:
    def test_equivalent_after_compress(self):
        for seed in range(3):
            aig = random_aig(5, 40, seed=seed)
            opt = compress(aig)
            ok, cex = check_equivalence(aig, opt)
            assert ok and cex is None

    def test_detects_inequivalence(self):
        a = AIG(2)
        a.set_output(a.add_and(a.input_lit(0), a.input_lit(1)))
        b = AIG(2)
        b.set_output(b.add_or(b.input_lit(0), b.input_lit(1)))
        ok, cex = check_equivalence(a, b)
        assert not ok
        assert cex is not None
        # The counterexample really distinguishes them.
        assert a.simulate(cex)[0, 0] != b.simulate(cex)[0, 0]

    def test_interface_mismatch_rejected(self):
        a = AIG(2)
        a.set_output(0)
        b = AIG(3)
        b.set_output(0)
        with pytest.raises(ValueError):
            simulate_differs(a, b)

    def test_simulation_finds_easy_difference(self, rng):
        a = AIG(4)
        a.set_output(a.input_lit(0))
        b = AIG(4)
        b.set_output(lit_not(b.input_lit(0)))
        cex = simulate_differs(a, b, rng=rng)
        assert cex is not None

    def test_bdd_catches_rare_difference(self):
        """A difference on exactly one minterm of 2**30: simulation
        almost surely misses it, the BDD proof never does."""
        n = 30
        a = AIG(n)
        a.set_output(a.add_and_multi(a.input_lits()))  # all-ones minterm
        b = AIG(n)
        b.set_output(0)
        ok, cex = check_equivalence(a, b)
        assert not ok
        assert cex is not None
        assert a.simulate(cex)[0, 0] != b.simulate(cex)[0, 0]
