"""Synthetic MNIST/CIFAR-like binary classification (ex80-ex99).

The contest derived its last twenty benchmarks from binarized MNIST
and CIFAR-10 images, comparing two groups of class labels (Table II).
We cannot ship those datasets, so we substitute a generative model
that preserves what matters for the learning problem: ten classes,
each a *prototype* binary image; a sample is its class prototype with
pixel noise.  The MNIST-like model uses a 14x14 grid with low noise
(easy, like binarized digits); the CIFAR-like model uses a 16x16 grid
with heavy noise and partially shared prototypes (hard, matching the
~50-75% accuracies the paper reports on ex90-99).

Prototypes are low-frequency blobs (thresholded Gaussian-smoothed
noise) so nearby pixels correlate, as in real images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.contest.functions import brand_label_fn
from repro.utils.rng import rng_for

# Table II of the paper: (group A -> label 0, group B -> label 1).
GROUP_COMPARISONS: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
    ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)),
    ((1, 3, 5, 7, 9), (0, 2, 4, 6, 8)),   # odd vs even
    ((0, 1, 2), (3, 4, 5)),
    ((0, 1), (2, 3)),
    ((4, 5), (6, 7)),
    ((6, 7), (8, 9)),
    ((1, 7), (3, 8)),
    ((0, 9), (3, 8)),
    ((1, 3), (7, 8)),
    ((0, 3), (8, 9)),
]


@dataclass
class ImageModel:
    """Prototype-plus-noise generative model for one dataset kind."""

    side: int
    noise: float
    prototypes: np.ndarray  # (10, side*side) uint8

    @property
    def n_pixels(self) -> int:
        return self.side * self.side


def _make_prototypes(
    side: int, smoothing: float, overlap: float, seed_key: str
) -> np.ndarray:
    """Ten low-frequency blob prototypes; ``overlap`` mixes in a shared
    background component so classes are partially confusable."""
    rng = rng_for("imagelike", seed_key)
    shared = ndimage.gaussian_filter(
        rng.normal(size=(side, side)), smoothing
    )
    prototypes = []
    for _ in range(10):
        own = ndimage.gaussian_filter(rng.normal(size=(side, side)), smoothing)
        field = (1 - overlap) * own + overlap * shared
        prototypes.append((field > np.median(field)).astype(np.uint8).ravel())
    return np.array(prototypes, dtype=np.uint8)


def mnist_like_model() -> ImageModel:
    """Easy model: 14x14 pixels, 8% pixel noise, distinct prototypes."""
    return ImageModel(
        side=14,
        noise=0.08,
        prototypes=_make_prototypes(14, smoothing=2.0, overlap=0.15,
                                    seed_key="mnist"),
    )


def cifar_like_model() -> ImageModel:
    """Hard model: 16x16 pixels, 30% noise, heavily shared prototypes."""
    return ImageModel(
        side=16,
        noise=0.30,
        prototypes=_make_prototypes(16, smoothing=1.2, overlap=0.55,
                                    seed_key="cifar"),
    )


def group_comparison_sampler(model: ImageModel, comparison_index: int):
    """Sampler for one Table II group comparison.

    Returns a callable ``sample(n, rng) -> (X, y)`` drawing classes
    uniformly from group A (label 0) and group B (label 1).
    """
    group_a, group_b = GROUP_COMPARISONS[comparison_index]

    ga = np.array(group_a, dtype=np.int64)
    gb = np.array(group_b, dtype=np.int64)

    def sample(n: int, rng: np.random.Generator):
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        picks_a = ga[rng.integers(0, len(ga), size=n)]
        picks_b = gb[rng.integers(0, len(gb), size=n)]
        classes = np.where(y == 1, picks_b, picks_a)
        flips = rng.random((n, model.n_pixels)) < model.noise
        X = (model.prototypes[classes] ^ flips).astype(np.uint8)
        return X, y

    return brand_label_fn(
        sample, model.n_pixels, f"group_comparison_{comparison_index}"
    )
