"""Accuracy and cross-validation utilities.

The scoring vocabulary shared by every learner and the contest
analysis layer: plain accuracy over 0/1 labels and k-fold
cross-validation whose fold assignment is drawn from a caller-passed
seeded generator — CV scores are deterministic for a given RNG
stream, never dependent on global random state.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of matching labels."""
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch")
    if y_true.size == 0:
        return 0.0
    return float((y_true == y_pred).mean())


def stratified_kfold(
    y: np.ndarray, n_folds: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_idx, test_idx)`` pairs with per-class balance."""
    y = np.asarray(y).ravel()
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for label in np.unique(y):
        idx = np.nonzero(y == label)[0]
        idx = idx[rng.permutation(len(idx))]
        for pos, sample in enumerate(idx):
            folds[pos % n_folds].append(int(sample))
    for f in range(n_folds):
        test_idx = np.array(sorted(folds[f]), dtype=np.int64)
        train_idx = np.array(
            sorted(i for g in range(n_folds) if g != f for i in folds[g]),
            dtype=np.int64,
        )
        yield train_idx, test_idx


def cross_val_accuracy(
    fit_predict: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    n_folds: int,
    rng: np.random.Generator,
) -> float:
    """Mean k-fold accuracy of a ``fit_predict(X_tr, y_tr, X_te)`` callable.

    This mirrors how Teams 2 and 7 pick classifier configurations by
    cross-validating on the training data only.  Folds left empty
    (fewer samples of a class than folds) are skipped, not scored 0.
    """
    scores = []
    for train_idx, test_idx in stratified_kfold(y, n_folds, rng):
        if not len(test_idx):
            continue
        pred = fit_predict(X[train_idx], y[train_idx], X[test_idx])
        scores.append(accuracy(y[test_idx], pred))
    if not scores:
        raise ValueError("no samples to cross-validate")
    return float(np.mean(scores))
