"""Dataset splitting: the paper's random train/test split.

The paper trains on a random 75 % of the generated samples and tests on
the remaining 25 % (§V-D2); :func:`train_test_split` with
``test_size=0.25`` reproduces that protocol.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.rng import Seed, as_rng
from repro.util.validation import check_fraction

__all__ = ["train_test_split"]


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    *,
    test_size: float = 0.25,
    seed: Seed = None,
    stratify: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Randomly partition ``(X, y)`` into train and test subsets.

    Parameters
    ----------
    test_size:
        Fraction of samples assigned to the test set, in ``(0, 1)``.
    seed:
        Seed or generator for the shuffle.
    stratify:
        When true, split each class of ``y`` proportionally so rare stage
        types are represented in both subsets.

    Returns
    -------
    X_train, X_test, y_train, y_test
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    check_fraction("test_size", test_size, inclusive=False)
    rng = as_rng(seed)

    if stratify:
        test_idx_parts = []
        for label in np.unique(y):
            idx = np.flatnonzero(y == label)
            rng.shuffle(idx)
            n_test = int(round(len(idx) * test_size))
            # Keep at least one sample on each side when the class allows it.
            if len(idx) >= 2:
                n_test = min(max(n_test, 1), len(idx) - 1)
            else:
                n_test = 0
            test_idx_parts.append(idx[:n_test])
        test_idx = np.concatenate(test_idx_parts) if test_idx_parts else np.array([], int)
        mask = np.zeros(n, dtype=bool)
        mask[test_idx] = True
    else:
        perm = rng.permutation(n)
        n_test = min(max(int(round(n * test_size)), 1), n - 1)
        mask = np.zeros(n, dtype=bool)
        mask[perm[:n_test]] = True

    return X[~mask], X[mask], y[~mask], y[mask]
