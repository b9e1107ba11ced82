"""Shapley-value feature attribution (Team 7's SHAP analysis).

Team 7 ran SHAP tree explanations on an initial XGBoost model to spot
arithmetic structure: adder/comparator operands show up as monotone
"weight" patterns over the input bits (the paper's Figs. 26-27).  We
provide a model-agnostic Monte-Carlo Shapley estimator (permutation
sampling with background-sample imputation); the tests validate it
against an exact enumerative version.

``predict`` should return a real-valued margin (e.g.
``GradientBoostedTrees.decision_margin``); attributions then sum to
``f(x) - E_background[f]`` in expectation.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

Predictor = Callable[[np.ndarray], np.ndarray]


def sampling_shapley(
    predict: Predictor,
    background: np.ndarray,
    x: np.ndarray,
    n_permutations: int = 64,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo Shapley values of one sample ``x``.

    For each random feature permutation, features are switched one by
    one from a random background sample's value to ``x``'s value; the
    prediction delta is the marginal contribution of the switched
    feature.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    background = np.asarray(background)
    x = np.asarray(x).ravel()
    n_features = x.shape[0]
    values = np.zeros(n_features, dtype=np.float64)
    for _ in range(n_permutations):
        base = background[rng.integers(0, background.shape[0])]
        order = rng.permutation(n_features)
        current = base.astype(x.dtype).copy()
        prev = float(predict(current[None, :])[0])
        for feat in order:
            current[feat] = x[feat]
            now = float(predict(current[None, :])[0])
            values[feat] += now - prev
            prev = now
    return values / n_permutations


def mean_abs_shapley(
    predict: Predictor,
    background: np.ndarray,
    samples: np.ndarray,
    n_permutations: int = 16,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Mean |Shapley| per feature over a set of samples (Fig. 26b)."""
    if rng is None:
        rng = np.random.default_rng(0)
    samples = np.asarray(samples)
    total = np.zeros(samples.shape[1])
    for row in samples:
        total += np.abs(
            sampling_shapley(predict, background, row, n_permutations, rng)
        )
    return total / samples.shape[0]
