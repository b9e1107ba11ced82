"""Cartesian genetic programming."""

import numpy as np

from repro.cgp import (
    XAIG_FUNCTIONS,
    CGPEvolver,
    CGPGenome,
    evolve_from_aig,
)
from tests.conftest import random_aig


class TestGenome:
    def test_random_genome_valid_references(self, rng):
        g = CGPGenome.random(5, 30, rng)
        limits = 5 + np.arange(30)
        assert (g.in0 < limits).all()
        assert (g.in1 < limits).all()
        assert 0 <= g.output < 35

    def test_evaluate_matches_aig_roundtrip(self, rng):
        g = CGPGenome.random(6, 25, rng, XAIG_FUNCTIONS)
        X = rng.integers(0, 2, size=(300, 6)).astype(np.uint8)
        assert np.array_equal(
            g.evaluate(X), g.to_aig().simulate(X)[:, 0]
        )

    def test_from_aig_preserves_function(self, rng):
        for seed in range(5):
            aig = random_aig(5, 20, seed=seed)
            g = CGPGenome.from_aig(aig, rng=rng)
            X = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
            assert np.array_equal(g.evaluate(X), aig.simulate(X)[:, 0])

    def test_from_aig_constant_output(self, rng):
        from repro.aig.aig import AIG

        aig = AIG(3)
        aig.set_output(1)
        g = CGPGenome.from_aig(aig, rng=rng)
        X = rng.integers(0, 2, size=(50, 3)).astype(np.uint8)
        assert g.evaluate(X).tolist() == [1] * 50

    def test_mutation_rate_zero_is_identity(self, rng):
        g = CGPGenome.random(4, 15, rng)
        child, redrawn = g.mutate(0.0, rng)
        assert np.array_equal(child.funcs, g.funcs)
        assert child.output == g.output
        assert not redrawn.any()

    def test_mutation_preserves_feedforward(self, rng):
        g = CGPGenome.random(4, 20, rng)
        for _ in range(20):
            g, _ = g.mutate(0.3, rng)
        limits = 4 + np.arange(20)
        assert (g.in0 < limits).all()
        assert (g.in1 < limits).all()

    def test_phenotype_size_bounded(self, rng):
        g = CGPGenome.random(4, 50, rng)
        assert 0 <= len(g.active_nodes()) <= 50


class TestEvolution:
    def test_learns_and2(self, rng):
        X = rng.integers(0, 2, size=(400, 4)).astype(np.uint8)
        y = (X[:, 0] & X[:, 1]).astype(np.uint8)
        evolver = CGPEvolver(n_nodes=20, rng=rng)
        genome, fit = evolver.run(X, y, generations=400)
        assert fit == 1.0

    def test_xaig_learns_xor_faster(self, rng):
        X = rng.integers(0, 2, size=(400, 4)).astype(np.uint8)
        y = (X[:, 0] ^ X[:, 1]).astype(np.uint8)
        evolver = CGPEvolver(
            n_nodes=20, function_set=XAIG_FUNCTIONS,
            rng=np.random.default_rng(1),
        )
        genome, fit = evolver.run(X, y, generations=300)
        assert fit == 1.0

    def test_bootstrap_does_not_regress(self, rng):
        """Evolving from a perfect seed must keep perfect fitness
        (neutral drift accepts only >= fitness)."""
        from repro.aig.aig import AIG

        aig = AIG(4)
        aig.set_output(aig.add_and(aig.input_lit(0), aig.input_lit(1)))
        X = rng.integers(0, 2, size=(300, 4)).astype(np.uint8)
        y = (X[:, 0] & X[:, 1]).astype(np.uint8)
        genome, fit = evolve_from_aig(aig, X, y, generations=100,
                                      rng=rng)
        assert fit == 1.0

    def test_minibatch_mode_runs(self, rng):
        X = rng.integers(0, 2, size=(600, 5)).astype(np.uint8)
        y = X[:, 0]
        evolver = CGPEvolver(
            n_nodes=15, batch_size=128, batch_generations=50, rng=rng
        )
        genome, fit = evolver.run(X, y, generations=200)
        assert fit > 0.9

    def test_log_recorded(self, rng):
        X = rng.integers(0, 2, size=(100, 3)).astype(np.uint8)
        evolver = CGPEvolver(n_nodes=10, rng=rng)
        evolver.run(X, X[:, 0], generations=50)
        assert len(evolver.log.fitness) == 50
        assert len(evolver.log.mutation_rate) == 50

    def test_mutation_rate_adapts(self, rng):
        X = rng.integers(0, 2, size=(100, 3)).astype(np.uint8)
        evolver = CGPEvolver(n_nodes=10, mutation_rate=0.1, rng=rng)
        evolver.run(X, X[:, 0] & X[:, 1], generations=100)
        rates = evolver.log.mutation_rate
        assert min(rates) >= 1e-4
        assert max(rates) <= 0.5
        assert len(set(np.round(rates, 6))) > 1
