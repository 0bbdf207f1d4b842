"""Evaluation metrics used across the library and the benchmarks."""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_array_1d, check_array_2d

__all__ = ["accuracy_score", "sse"]


def _align(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = check_array_1d("y_true", y_true)
    y_pred = check_array_1d("y_pred", y_pred)
    if y_true.shape[0] != y_pred.shape[0]:
        raise ValueError(
            f"y_true has {y_true.shape[0]} entries, y_pred has {y_pred.shape[0]}"
        )
    if y_true.shape[0] == 0:
        raise ValueError("metrics are undefined on empty inputs")
    return y_true, y_pred


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly matching labels."""
    y_true, y_pred = _align(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def sse(X: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances from each row of ``X`` to its assigned
    cluster center (K-means inertia; the y-axis of the paper's Fig 14)."""
    X = check_array_2d("X", X, dtype=float)
    centers = check_array_2d("centers", centers, dtype=float)
    labels = check_array_1d("labels", labels).astype(int)
    if labels.shape[0] != X.shape[0]:
        raise ValueError("labels must have one entry per row of X")
    if labels.size and (labels.min() < 0 or labels.max() >= centers.shape[0]):
        raise ValueError("labels reference nonexistent centers")
    diff = X - centers[labels]
    return float(np.einsum("ij,ij->", diff, diff))
