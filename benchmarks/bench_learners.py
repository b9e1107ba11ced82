"""Learner stages: each rewritten function against its oracle.

The learner stages are the largest layer of a contest task.  Their
hot functions were rewritten without changing one bit of output: tree
growth counts splits as popcounts over bit-packed columns, forest
votes route every tree on the full sample matrix, permutation
importance predicts all shuffled copies of a column in one call,
neuron tables evaluate each pattern with one dot product and CGP walks
each child's active set once.  This bench runs every one of them and
its straightforward predecessor (kept in :mod:`tests.oracles`) on the
inputs a ``contest-grid`` task feeds them -- its 10 problems at 400
rows, with the small-effort flow parameters -- asserts the outputs are
identical and prints the per-function times.

``REPRO_SCALE=tiny`` (the default) uses the first three problems and
shorter CGP runs; ``small`` and ``full`` use all ten.
"""

import dataclasses
import os
import time
from collections import defaultdict
from functools import partial

import numpy as np

from _report import echo
from repro.cgp import CGPEvolver
from repro.contest import DEFAULT_REGISTRY
from repro.ml.decision_tree import DecisionTree
from repro.ml.feature_select import permutation_importance
from repro.ml.forest import RandomForest
from repro.ml.mlp import MLP
from repro.synth.from_mlp import _neuron_table
from tests import oracles

#: The ``contest-grid`` workload's benchmarks and sample sizes.
GRID = (0, 10, 20, 30, 40, 50, 60, 74, 80, 90)
ROWS = 400
TINY = os.environ.get("REPRO_SCALE", "tiny") == "tiny"


class Clock:
    """Accumulated reference and library seconds per function."""

    def __init__(self):
        self.seconds = defaultdict(lambda: [0.0, 0.0])

    def race(self, name, reference, library, *args, **kwargs):
        """Call both functions on the same arguments, time each and
        return both results."""
        results = []
        for side, fn in enumerate((reference, library)):
            start = time.perf_counter()
            results.append(fn(*args, **kwargs))
            self.seconds[name][side] += time.perf_counter() - start
        return results


def nodes(tree):
    return [dataclasses.astuple(node) for node in tree.nodes]


def trees(clock, X, y):
    """Team 3/7/10's plain trees and Team 8's decomposition fallback."""
    for kwargs in (
        dict(max_depth=8),
        dict(criterion="gini", max_depth=8),
        dict(),
        dict(max_depth=8, decomposition_tau=0.05),
    ):
        # The oracle keeps the row-at-a-time complement scan of the
        # decomposition fallback, so it is timed apart from plain growth.
        name = "DecisionTree.fit" + (", tau" if "decomposition_tau" in kwargs
                                     else "")
        ref, new = clock.race(
            name,
            oracles.ReferenceTree(**kwargs).fit,
            DecisionTree(**kwargs).fit,
            X, y,
        )
        assert nodes(new) == nodes(ref), kwargs


def forest_and_importance(clock, problem, seed):
    """Team 4's level-1 ranking: a 9-tree forest, permutation
    importance over 512 validation rows, 2 repeats."""
    forest = RandomForest(n_trees=9, max_depth=6, feature_fraction=0.5,
                          rng=np.random.default_rng(seed))
    forest.fit(problem.train.X, problem.train.y)
    X, y = problem.valid.X[:512], problem.valid.y[:512]
    ref, new = clock.race(
        "RandomForest.votes",
        oracles.forest_votes, RandomForest.votes, forest, X,
    )
    assert np.array_equal(new, ref)
    ref, new = clock.race(
        "permutation_importance",
        lambda: oracles.permutation_importance(
            forest.predict, X, y, n_repeats=2,
            rng=np.random.default_rng(seed)),
        lambda: permutation_importance(
            forest.predict, X, y, n_repeats=2,
            rng=np.random.default_rng(seed)),
    )
    assert new.tobytes() == ref.tobytes()


def neuron_tables(clock, problem, seed):
    """Team 3's sigmoid MLP pruned to fanin 8, every neuron tabled."""
    X, y = problem.train.X.astype(float), problem.train.y
    mlp = MLP(hidden_sizes=(24,), activation="sigmoid",
              rng=np.random.default_rng(seed)).fit(X, y, epochs=15)
    mlp.prune_to_fanin(8, X, y, rounds=2, retrain_epochs=3)
    for layer in mlp.layers:
        masked = layer.W * layer.mask
        for j in range(masked.shape[1]):
            ref, new = clock.race(
                "_neuron_table", oracles.neuron_table, _neuron_table,
                masked[np.nonzero(layer.mask[:, j])[0], j],
                float(layer.b[j]), layer.activation,
            )
            assert new == ref


def cgp(clock, problem, seed):
    """Team 9's random-init evolution: 200 nodes, mini-batches."""
    def run(fn):
        evolver = CGPEvolver(n_nodes=200, batch_size=512,
                             batch_generations=200,
                             rng=np.random.default_rng(seed))
        genome, fit = fn(evolver, problem.train.X, problem.train.y,
                         generations=150 if TINY else 600)
        return (evolver.log.fitness, fit, genome.funcs.tolist(),
                genome.in0.tolist(), genome.in1.tolist(), genome.output)

    ref, new = clock.race("CGPEvolver.run", partial(run, oracles.cgp_run),
                          partial(run, CGPEvolver.run))
    assert new == ref


def test_learners_match_oracles_and_report_times():
    clock = Clock()
    for seed, index in enumerate(GRID[:3] if TINY else GRID):
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(index),
            n_train=ROWS, n_valid=ROWS, n_test=ROWS,
        )
        trees(clock, problem.train.X, problem.train.y)
        forest_and_importance(clock, problem, seed)
        neuron_tables(clock, problem, seed)
        cgp(clock, problem, seed)

    echo("\n=== Learner stages: oracle vs library (identical outputs) ===")
    ref_total = new_total = 0.0
    for name, (ref_s, new_s) in clock.seconds.items():
        ref_total += ref_s
        new_total += new_s
        echo(f"  {name:24s} oracle {ref_s:7.3f}s | library {new_s:7.3f}s"
             f" | {ref_s / new_s:5.2f}x")
    echo(f"  {'total':24s} oracle {ref_total:7.3f}s | library "
         f"{new_total:7.3f}s | {ref_total / new_total:5.2f}x")
