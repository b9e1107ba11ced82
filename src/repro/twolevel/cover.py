"""Covers (sums of cubes) and sample-set helpers.

The two-level representation under the ESPRESSO-style minimizer and
the tree/rule synthesis paths: a :class:`Cover` is an ordered list of
:class:`~repro.twolevel.cube.Cube` literal masks over a fixed input
width, with vectorized sample evaluation.  Cube order is preserved
everywhere, so minimization results are deterministic and downstream
AIG construction is byte-stable.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.twolevel.cube import Cube
from repro.utils.bitops import rows_to_ints


class Cover:
    """A sum of cubes over ``n_inputs`` binary inputs."""

    def __init__(self, n_inputs: int, cubes: Iterable[Cube] = ()):
        self.n_inputs = n_inputs
        self.cubes: list[Cube] = list(cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def evaluate(self, samples: np.ndarray) -> np.ndarray:
        """Evaluate on a ``(n_samples, n_inputs)`` 0/1 matrix.

        Vectorized per cube: a sample matches a cube when it agrees
        with the cube's value on every bound column.
        """
        samples = np.asarray(samples, dtype=np.uint8)
        if samples.ndim == 1:
            samples = samples[None, :]
        out = np.zeros(samples.shape[0], dtype=bool)
        for cube in self.cubes:
            cols = [var for var, _ in cube.literals()]
            if not cols:
                out[:] = True
                break
            vals = np.array(
                [val for _, val in cube.literals()], dtype=np.uint8
            )
            undecided = ~out
            if not undecided.any():
                break
            match = (samples[np.ix_(undecided, cols)] == vals).all(axis=1)
            out[undecided] = match
        return out.astype(np.uint8)

    def __repr__(self) -> str:
        return f"Cover(n_inputs={self.n_inputs}, cubes={len(self.cubes)})"


def cover_from_samples(
    samples: np.ndarray, labels: np.ndarray
) -> tuple[list[int], list[int], int]:
    """Split samples into deduplicated ON-set and OFF-set minterm lists.

    Contradictory duplicates (same input pattern, both labels observed)
    are resolved by majority, ties going to the OFF-set.  Returns
    ``(onset, offset, n_inputs)`` with minterms as Python ints.
    """
    samples = np.asarray(samples, dtype=np.uint8)
    labels = np.asarray(labels).ravel()
    n_inputs = samples.shape[1]
    votes = {}
    for minterm, y in zip(rows_to_ints(samples), labels, strict=True):
        pos, neg = votes.get(minterm, (0, 0))
        if y:
            votes[minterm] = (pos + 1, neg)
        else:
            votes[minterm] = (pos, neg + 1)
    onset = [m for m, (pos, neg) in votes.items() if pos > neg]
    offset = [m for m, (pos, neg) in votes.items() if pos <= neg]
    return onset, offset, n_inputs
