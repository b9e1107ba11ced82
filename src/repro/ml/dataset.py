"""Binary-classification sample sets.

A :class:`Dataset` wraps the ``(X, y)`` matrices parsed from the
contest PLA files and provides the split/merge plumbing the team flows
use: stratified splits that preserve the label distribution (Team 5's
80/20 protocol), merges of train+validation (Teams 2 and 10) and
subsampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.twolevel.pla import PLA


@dataclass
class Dataset:
    """Feature matrix ``X`` (n_samples, n_inputs) and labels ``y``."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.uint8)
        self.y = np.asarray(self.y, dtype=np.uint8).ravel()
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"inconsistent shapes X={self.X.shape} y={self.y.shape}"
            )

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.X.shape[1]

    def onset_fraction(self) -> float:
        """Fraction of samples labelled 1."""
        if self.n_samples == 0:
            return 0.0
        return float(self.y.mean())

    def merge(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets (train + validation merging)."""
        if other.n_inputs != self.n_inputs:
            raise ValueError("input counts differ")
        return Dataset(
            np.vstack([self.X, other.X]), np.concatenate([self.y, other.y])
        )

    def subset(self, indices) -> "Dataset":
        return Dataset(self.X[indices], self.y[indices])

    def split_stratified(
        self, train_fraction: float, rng: np.random.Generator
    ) -> tuple["Dataset", "Dataset"]:
        """Split preserving the label distribution.

        Returns ``(first, second)`` where ``first`` holds roughly
        ``train_fraction`` of the samples of each class.
        """
        first_idx = []
        second_idx = []
        for label in (0, 1):
            idx = np.nonzero(self.y == label)[0]
            idx = idx[rng.permutation(len(idx))]
            cut = int(round(train_fraction * len(idx)))
            first_idx.append(idx[:cut])
            second_idx.append(idx[cut:])
        first = np.concatenate(first_idx)
        second = np.concatenate(second_idx)
        rng.shuffle(first)
        rng.shuffle(second)
        return self.subset(first), self.subset(second)

    def sample_fraction(
        self, fraction: float, rng: np.random.Generator
    ) -> "Dataset":
        """Random stratified subsample (Team 5's 40% training runs)."""
        kept, _ = self.split_stratified(fraction, rng)
        return kept

    def to_pla(self) -> PLA:
        return PLA.from_samples(self.X, self.y)

    @staticmethod
    def from_pla(pla: PLA) -> "Dataset":
        X, y = pla.to_samples()
        return Dataset(X, y)
