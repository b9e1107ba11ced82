"""Feature scoring and selection for binary features.

Implements the scikit-learn selectors the teams relied on — chi2,
ANOVA F (``f_classif``), mutual information, ``SelectKBest`` and
``SelectPercentile`` (Team 5) — plus permutation importance over an
arbitrary fitted model (Team 4's level-1 ranking).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.ml.metrics import accuracy

_EPS = 1e-12


def chi2_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Chi-squared statistic of each binary feature against the label.

    Matches sklearn's ``chi2`` on 0/1 features: observed counts are
    the per-class sums of the feature, expected counts come from the
    class priors.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).ravel()
    n = X.shape[0]
    observed = np.vstack([X[y == 0].sum(axis=0), X[y == 1].sum(axis=0)])
    feature_total = X.sum(axis=0)
    class_prob = np.array([(y == 0).mean(), (y == 1).mean()])[:, None]
    expected = class_prob * feature_total[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (observed - expected) ** 2 / np.maximum(expected, _EPS)
    scores = terms.sum(axis=0)
    scores[feature_total == 0] = 0.0
    del n
    return scores


def f_classif_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-way ANOVA F statistic per feature."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).ravel()
    groups = [X[y == label] for label in (0, 1)]
    n = X.shape[0]
    grand_mean = X.mean(axis=0)
    ss_between = sum(
        g.shape[0] * (g.mean(axis=0) - grand_mean) ** 2
        for g in groups
        if g.shape[0] > 0
    )
    ss_within = sum(
        ((g - g.mean(axis=0)) ** 2).sum(axis=0)
        for g in groups
        if g.shape[0] > 0
    )
    df_between = 1
    df_within = max(n - 2, 1)
    return (ss_between / df_between) / np.maximum(
        ss_within / df_within, _EPS
    )


def mutual_info_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Plug-in mutual information (bits) per binary feature."""
    X = np.asarray(X, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8).ravel()
    n = X.shape[0]
    scores = np.zeros(X.shape[1])
    p_y1 = y.mean()
    for value in (0, 1):
        mask = y == value
        p_y = p_y1 if value else 1 - p_y1
        if p_y == 0:
            continue
        p_x1_given = X[mask].mean(axis=0) if mask.any() else np.zeros(X.shape[1])
        for xv in (0, 1):
            p_joint = p_y * (p_x1_given if xv else 1 - p_x1_given)
            p_x = X.mean(axis=0) if xv else 1 - X.mean(axis=0)
            ratio = p_joint / np.maximum(p_x * p_y, _EPS)
            scores += np.where(
                p_joint > 0, p_joint * np.log2(np.maximum(ratio, _EPS)), 0.0
            )
    del n
    return scores


_SCORERS = {
    "chi2": chi2_scores,
    "f_classif": f_classif_scores,
    "mutual_info_classif": mutual_info_scores,
}


def select_k_best(
    X: np.ndarray, y: np.ndarray, k: int, score_func: str = "chi2"
) -> np.ndarray:
    """Indices of the k highest-scoring features (sorted ascending)."""
    scores = _SCORERS[score_func](X, y)
    k = min(k, X.shape[1])
    top = np.argsort(-scores, kind="stable")[:k]
    return np.sort(top)


def select_percentile(
    X: np.ndarray, y: np.ndarray, percentile: float, score_func: str = "chi2"
) -> np.ndarray:
    """Indices of the top ``percentile`` percent of features."""
    k = max(1, int(round(X.shape[1] * percentile / 100.0)))
    return select_k_best(X, y, k, score_func)


def permutation_importance(
    predict: Callable[[np.ndarray], np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    n_repeats: int = 5,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Mean accuracy drop when each feature column is shuffled.

    ``predict`` must label each row on its own: the ``n_repeats``
    shuffled copies of one column are stacked and predicted in one
    call.  Permutations are drawn column by column, repeat by repeat.
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be at least 1, got {n_repeats}")
    if rng is None:
        rng = np.random.default_rng(0)
    X = np.asarray(X)
    y = np.asarray(y).ravel()
    n = X.shape[0]
    baseline = accuracy(y, predict(X))
    importances = np.zeros(X.shape[1])
    stacked = np.tile(X, (n_repeats, 1))
    for col in range(X.shape[1]):
        stacked[:, col] = np.concatenate(
            [X[rng.permutation(n), col] for _ in range(n_repeats)]
        )
        pred = predict(stacked)
        drops = [
            baseline - accuracy(y, pred[r * n:(r + 1) * n])
            for r in range(n_repeats)
        ]
        importances[col] = float(np.mean(drops))
        stacked[:, col] = np.tile(X[:, col], n_repeats)
    return importances
