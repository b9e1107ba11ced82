"""Problem-sampling guarantees the parallel runner depends on.

Workers re-sample problems inside their own processes, so two
properties are load-bearing: the train/valid/test split must be
disjoint (no leakage), and the same (benchmark, sizes, master_seed)
must yield bit-identical datasets in any process — including a
freshly spawned interpreter with no inherited state.
"""

import multiprocessing

import numpy as np
import pytest

from repro.contest import DEFAULT_REGISTRY
from tests.oracles import dataset_fingerprint


def _row_ints(X):
    """Each row as an int, for set algebra over input vectors."""
    weights = 1 << np.arange(X.shape[1], dtype=object)
    return {int(row @ weights) for row in X.astype(object)}


class TestSplitDisjointness:
    @pytest.mark.parametrize("idx", [30, 74, 75])
    def test_deterministic_benchmarks_split_disjoint(self, idx):
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(idx), n_train=200, n_valid=200,
            n_test=200, master_seed=0,
        )
        train = _row_ints(problem.train.X)
        valid = _row_ints(problem.valid.X)
        test = _row_ints(problem.test.X)
        # No duplicate rows within a set...
        assert len(train) == 200 and len(valid) == 200 and len(test) == 200
        # ...and none shared across the split.
        assert not train & valid
        assert not train & test
        assert not valid & test


class TestCrossProcessReproducibility:
    def test_fingerprint_stable_in_process(self):
        a = dataset_fingerprint(74, 64, 64, 64, master_seed=3)
        b = dataset_fingerprint(74, 64, 64, 64, master_seed=3)
        assert a == b
        assert dataset_fingerprint(74, 64, 64, 64, master_seed=4) != a

    def test_fingerprint_covers_split_order(self):
        # Swapping sizes reshuffles which rows land in which set.
        assert dataset_fingerprint(74, 64, 32, 32) != \
            dataset_fingerprint(74, 32, 64, 32)

    @pytest.mark.parametrize("idx", [74, 80])  # deterministic + sampler
    def test_spawned_worker_sees_identical_data(self, idx):
        parent = dataset_fingerprint(idx, 48, 48, 48, master_seed=5)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(dataset_fingerprint, (idx, 48, 48, 48, 5))
        assert child == parent
