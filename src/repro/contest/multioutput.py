"""Multi-output learning problems (the paper's proposed extension).

The conclusion suggests: "Future extensions of this contest could
target circuits with multiple outputs".  This module implements that
extension: word-level benchmarks exposing *all* output bits at once
(e.g. every sum bit of an adder), a dataset/problem type carrying a
label matrix, a baseline flow that trains one model per output into a
single shared structurally hashed AIG, and scoring that counts the
shared logic once — the whole point of multi-output synthesis.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.aig.aig import AIG
from repro.ml.decision_tree import DecisionTree
from repro.ml.metrics import accuracy
from repro.synth.from_tree import tree_output_lit
from repro.utils.bitops import rows_to_ints
from repro.utils.rng import rng_for


@dataclass
class MultiOutputProblem:
    """Train/test sample sets with one label column per output."""

    name: str
    n_inputs: int
    n_outputs: int
    train_X: np.ndarray
    train_Y: np.ndarray
    test_X: np.ndarray
    test_Y: np.ndarray


def adder_all_bits(k: int) -> tuple[int, int, Callable]:
    """All ``k + 1`` sum bits of a k-bit adder."""

    def fn(X: np.ndarray) -> np.ndarray:
        a = rows_to_ints(X[:, :k])
        b = rows_to_ints(X[:, k:])
        out = np.zeros((X.shape[0], k + 1), dtype=np.uint8)
        for r, (av, bv) in enumerate(zip(a, b, strict=True)):
            s = av + bv
            for j in range(k + 1):
                out[r, j] = (s >> j) & 1
        return out

    return 2 * k, k + 1, fn


def make_multioutput_problem(
    name: str,
    spec: tuple[int, int, Callable],
    n_train: int = 2000,
    n_test: int = 1000,
    master_seed: int = 0,
) -> MultiOutputProblem:
    n_inputs, n_outputs, fn = spec
    rng = rng_for("multioutput", name, master_seed)
    X = rng.integers(0, 2, size=(n_train + n_test, n_inputs)).astype(
        np.uint8
    )
    Y = fn(X)
    return MultiOutputProblem(
        name=name,
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        train_X=X[:n_train],
        train_Y=Y[:n_train],
        test_X=X[n_train:],
        test_Y=Y[n_train:],
    )


def shared_tree_flow(
    problem: MultiOutputProblem, max_depth: int = 8
) -> AIG:
    """Baseline multi-output flow: one DT per output, shared AIG.

    Trees use Team 8's functional-decomposition fallback so XOR-shaped
    output bits (every low-order sum bit) are learnable; structural
    hashing shares identical subtrees across outputs for free.  The
    returned AIG has ``n_outputs`` outputs.
    """
    aig = AIG(problem.n_inputs)
    inputs = aig.input_lits()
    for j in range(problem.n_outputs):
        tree = DecisionTree(max_depth=max_depth, decomposition_tau=0.02)
        tree.fit(problem.train_X, problem.train_Y[:, j])
        aig.set_output(tree_output_lit(tree, aig, inputs))
    return aig.extract_cone()


def evaluate_multioutput(
    problem: MultiOutputProblem, aig: AIG
) -> dict:
    """Per-output and average accuracy plus shared-size accounting."""
    if aig.num_outputs != problem.n_outputs:
        raise ValueError("output count mismatch")
    pred = aig.simulate(problem.test_X)
    per_output = [
        accuracy(problem.test_Y[:, j], pred[:, j])
        for j in range(problem.n_outputs)
    ]
    separate_size = sum(
        aig.count_used_ands([aig.outputs[j]])
        for j in range(problem.n_outputs)
    )
    return {
        "per_output": per_output,
        "mean_accuracy": float(np.mean(per_output)),
        "shared_ands": aig.num_ands,
        "sum_of_cones": separate_size,
        "sharing_factor": separate_size / max(1, aig.num_ands),
    }
