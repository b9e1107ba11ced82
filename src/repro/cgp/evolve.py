"""(1+lambda) evolution strategy for CGP (Team 9).

Implements the loop from the paper: four mutated offspring per
generation, neutral drift (offspring with equal fitness replace the
parent), preferential selection of phenotypically *larger* individuals
on ties [Milano & Nolfi], a 1/5th-rule adaptive mutation rate
[Doerr & Doerr], and optional mini-batch fitness evaluation that
reshuffles every ``batch_generations`` generations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.aig.aig import AIG
from repro.cgp.genome import AIG_FUNCTIONS, CGPGenome
from repro.utils.bitops import pack_bits, popcount64


@dataclass
class EvolutionLog:
    """Best-fitness trace, one entry per generation."""

    fitness: list[float] = field(default_factory=list)
    mutation_rate: list[float] = field(default_factory=list)


class CGPEvolver:
    """Evolve a CGP genome to fit training samples."""

    def __init__(
        self,
        n_nodes: int = 500,
        lam: int = 4,
        mutation_rate: float = 0.05,
        function_set: Sequence[str] = AIG_FUNCTIONS,
        batch_size: int | None = None,
        batch_generations: int = 1000,
        rng: np.random.Generator | None = None,
    ):
        self.n_nodes = n_nodes
        self.lam = lam
        self.mutation_rate = mutation_rate
        self.function_set = tuple(function_set)
        self.batch_size = batch_size
        self.batch_generations = batch_generations
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.log = EvolutionLog()

    # ------------------------------------------------------------------
    @staticmethod
    def _fitness(out, y_packed, n_samples) -> float:
        """Accuracy of a packed output row against packed labels."""
        wrong = out ^ y_packed
        # Mask padding bits in the last word.
        pad = n_samples % 64
        if pad:
            wrong[-1] &= np.uint64((1 << pad) - 1)
        errors = int(popcount64(wrong).sum())
        return 1.0 - errors / n_samples

    def run(
        self,
        X: np.ndarray,
        y: np.ndarray,
        generations: int = 2000,
        seed_genome: CGPGenome | None = None,
    ) -> tuple[CGPGenome, float]:
        """Evolve and return ``(best_genome, training_accuracy)``."""
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        n = X.shape[0]
        packed_full = pack_bits(X)
        y_packed_full = pack_bits(y[:, None])[0]
        if seed_genome is not None:
            parent = seed_genome
        else:
            parent = CGPGenome.random(
                X.shape[1], self.n_nodes, self.rng, self.function_set
            )
        rate = self.mutation_rate
        batch = None
        packed, y_packed, n_eval = packed_full, y_packed_full, n
        parent_fit = self._fitness(
            parent.evaluate_packed(packed), y_packed, n_eval)
        parent_active = parent.active_nodes()
        for gen in range(generations):
            if self.batch_size is not None and self.batch_size < n:
                if batch is None or gen % self.batch_generations == 0:
                    idx = self.rng.choice(n, size=self.batch_size,
                                          replace=False)
                    batch = idx
                    packed = pack_bits(X[idx])
                    y_packed = pack_bits(y[idx][:, None])[0]
                    n_eval = self.batch_size
                    parent_fit = self._fitness(
                        parent.evaluate_packed(packed), y_packed, n_eval
                    )
            # The parent's genes that its phenotype reads: those of its
            # active nodes, and the output gene.
            live = np.zeros(parent.n_nodes + 1, dtype=bool)
            live[parent_active] = True
            live[-1] = True
            improved = False
            best_child = None
            best_fit = -1.0
            best_active: list[int] = []
            for _ in range(self.lam):
                child, redrawn = parent.mutate(rate, self.rng)
                if (redrawn & live).any():
                    # One active-set walk serves the fitness and the size.
                    active = child.active_nodes()
                    fit = self._fitness(
                        child._evaluate_active(packed, active),
                        y_packed, n_eval)
                else:
                    # No gene the parent's phenotype reads changed, so
                    # the child has that phenotype, and its fitness and
                    # active set (Goldman & Punch's neutral offspring).
                    active, fit = parent_active, parent_fit
                if fit > best_fit or (
                    fit == best_fit
                    and best_child is not None
                    and len(active) > len(best_active)
                ):
                    best_fit = fit
                    best_child = child
                    best_active = active
            if best_fit > parent_fit:
                improved = True
            # Neutral drift: accept >=, preferring larger phenotypes on
            # exact ties with the parent.
            if best_fit > parent_fit or (
                best_fit == parent_fit
                and len(best_active) >= len(parent_active)
            ):
                parent = best_child
                parent_fit = best_fit
                parent_active = best_active
            # 1/5th success rule; the floor keeps at least ~one gene
            # mutating per offspring so the search never freezes.
            min_rate = 1.0 / (3 * parent.n_nodes + 1)
            if improved:
                rate = min(rate * 1.5, 0.5)
            else:
                rate = max(rate * 1.5 ** (-0.25), min_rate)
            self.log.fitness.append(parent_fit)
            self.log.mutation_rate.append(rate)
        final_fit = self._fitness(parent.evaluate_packed(packed_full),
                                  y_packed_full, n)
        return parent, final_fit


def evolve_from_aig(
    aig: AIG,
    X: np.ndarray,
    y: np.ndarray,
    generations: int = 2000,
    rng: np.random.Generator | None = None,
    **kwargs,
) -> tuple[CGPGenome, float]:
    """Bootstrapped evolution: seed the population from an AIG."""
    if rng is None:
        rng = np.random.default_rng(0)
    seed = CGPGenome.from_aig(aig, rng=rng)
    evolver = CGPEvolver(
        n_nodes=seed.n_nodes, rng=rng, **kwargs
    )
    return evolver.run(X, y, generations=generations, seed_genome=seed)
