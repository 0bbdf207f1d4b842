"""CART regression tree — the GBDT base learner.

Also exposed publicly: the allocation planner can regress continuous
resource quantities (e.g. expected stage peak) when a numeric target is
more convenient than a categorical stage type.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mlkit._cart import (
    best_split_regression,
    count_leaves,
    feature_importances,
    grow_tree,
    predict_leaf_values,
    tree_depth,
)
from repro.mlkit.base import Estimator
from repro.util.rng import Seed, as_rng

__all__ = ["DecisionTreeRegressor"]


class DecisionTreeRegressor(Estimator):
    """CART regressor minimising squared error.

    Parameters mirror :class:`~repro.mlkit.tree.DecisionTreeClassifier`.
    """

    def __init__(
        self,
        *,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        seed: Seed = None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if max_features is not None and max_features < 1:
            raise ValueError(f"max_features must be >= 1 or None, got {max_features}")
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on ``(X, y)`` with a continuous target ``y``."""
        X = self._coerce_X(X)
        y = self._coerce_y(y, X.shape[0]).astype(float)
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains NaN or infinite values")
        rng = as_rng(self.seed)

        def splitter(Xn, yn, feats):
            return best_split_regression(Xn, yn, feats, self.min_samples_leaf)

        # ``mean``/``var`` spelled out: the same sums and divisions as
        # ``ndarray.mean``/``ndarray.var`` (so the same bits), without
        # their per-call overhead on every node.
        def leaf_value(yn):
            return np.asarray(yn.sum() / yn.size)

        def impurity(yn):
            d = yn - yn.sum() / yn.size
            return float((d * d).sum() / yn.size * yn.size)

        mf = self.max_features
        if mf is not None:
            mf = min(mf, X.shape[1])
        self.root_ = grow_tree(
            X,
            y,
            splitter=splitter,
            leaf_value=leaf_value,
            impurity=impurity,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=mf,
            rng=rng,
        )
        self.n_features_in_ = X.shape[1]
        self._mark_fitted()
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted means, shape ``(n,)``."""
        self._check_fitted()
        X = self._coerce_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with {self.n_features_in_}"
            )
        return predict_leaf_values(self.root_, X).reshape(X.shape[0])

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R²."""
        y = np.asarray(y, dtype=float)
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0:
            return 1.0 if ss_res == 0 else 0.0
        return 1.0 - ss_res / ss_tot

    @property
    def depth(self) -> int:
        """Fitted tree depth."""
        self._check_fitted()
        return tree_depth(self.root_)

    @property
    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        self._check_fitted()
        return count_leaves(self.root_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalised to sum to 1."""
        self._check_fitted()
        return feature_importances(self.root_, self.n_features_in_)
