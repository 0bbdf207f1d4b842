"""Shared CART machinery for the classification and regression trees.

A tree is grown depth-first.  The split search is fully vectorized: a
node with ``n`` samples and ``d`` candidate features sorts its ``(n, d)``
block in one column-wise argsort and scores every candidate split of
every feature with column-wise cumulative sums, ``O(d · n log n)`` work
in a fixed number of array operations — no Python loop over samples or
features, per the HPC guide.  Each column's running sums add in that
column's sorted order, so every feature scores exactly as it would
searched alone, and the first feature in candidate order with the
greatest gain wins.  The per-task parts — how impurity is scored
and what a leaf stores — are supplied by the caller as callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "Node",
    "grow_tree",
    "predict_leaf_values",
    "tree_depth",
    "count_leaves",
    "feature_importances",
    "best_split_classification",
    "best_split_regression",
]


@dataclass
class Node:
    """One tree node.

    Internal nodes carry ``feature``/``threshold`` and children; leaves
    carry ``value`` (class-probability vector or scalar mean) and have
    ``feature == -1``.
    """

    feature: int = -1
    threshold: float = 0.0
    left: Optional["Node"] = None
    right: Optional["Node"] = None
    value: Optional[np.ndarray] = None
    n_samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        """Whether this node stores a value instead of a split."""
        return self.feature < 0

    def to_dict(self) -> dict:
        """JSON-serializable form (recursive)."""
        out = {
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "n_samples": int(self.n_samples),
            "impurity": float(self.impurity),
            "value": np.asarray(self.value, dtype=float).tolist(),
        }
        if not self.is_leaf:
            assert self.left is not None and self.right is not None
            out["left"] = self.left.to_dict()
            out["right"] = self.right.to_dict()
        return out

    @staticmethod
    def from_dict(data: dict) -> "Node":
        """Rebuild a node tree from :meth:`to_dict` output."""
        node = Node(
            feature=int(data["feature"]),
            threshold=float(data["threshold"]),
            n_samples=int(data["n_samples"]),
            impurity=float(data["impurity"]),
            value=np.asarray(data["value"], dtype=float),
        )
        if not node.is_leaf:
            node.left = Node.from_dict(data["left"])
            node.right = Node.from_dict(data["right"])
        return node


# A splitter receives (X_node, y_node, feature_indices) and returns
# (feature, threshold, gain) for the best admissible split, or None.
Splitter = Callable[[np.ndarray, np.ndarray, np.ndarray], Optional[Tuple[int, float, float]]]
# A leaf factory receives y_node and returns the stored leaf value.
LeafValue = Callable[[np.ndarray], np.ndarray]
# An impurity function receives y_node and returns its impurity.
Impurity = Callable[[np.ndarray], float]


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    splitter: Splitter,
    leaf_value: LeafValue,
    impurity: Impurity,
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: Optional[int],
    rng: np.random.Generator,
) -> Node:
    """Grow a CART tree over ``(X, y)`` and return its root.

    ``max_features`` selects a fresh random feature subset at every node
    (random-forest style); ``None`` uses all features.
    """
    n_features = X.shape[1]

    def build(idx: np.ndarray, depth: int) -> Node:
        y_node = y[idx]
        node = Node(
            n_samples=idx.size,
            impurity=impurity(y_node),
            value=leaf_value(y_node),
        )
        if (
            idx.size < min_samples_split
            or idx.size < 2 * min_samples_leaf
            or (max_depth is not None and depth >= max_depth)
            or node.impurity <= 1e-12
        ):
            return node

        if max_features is not None and max_features < n_features:
            feats = rng.choice(n_features, size=max_features, replace=False)
        else:
            feats = np.arange(n_features)

        found = splitter(X[idx], y_node, feats)
        if found is None:
            return node
        feature, threshold, _gain = found
        mask = X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if left_idx.size < min_samples_leaf or right_idx.size < min_samples_leaf:
            return node
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = build(left_idx, depth + 1)
        node.right = build(right_idx, depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0)


def predict_leaf_values(root: Node, X: np.ndarray) -> np.ndarray:
    """Route every row of ``X`` to its leaf and stack the leaf values.

    Traversal is level-by-level over index partitions rather than
    row-by-row, so the cost is ``O(depth)`` vector operations instead of
    ``O(n · depth)`` Python steps.
    """
    first = root.value
    assert first is not None
    out = np.empty((X.shape[0],) + np.shape(first), dtype=float)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        assert node.left is not None and node.right is not None
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def feature_importances(root: Node, n_features: int) -> np.ndarray:
    """Impurity-decrease feature importances, normalised to sum to 1.

    Each split contributes ``n·imp − n_left·imp_left − n_right·imp_right``
    to its feature (the classic CART importance).  All-zero (a lone leaf)
    stays all-zero rather than dividing by zero.
    """
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    out = np.zeros(n_features)

    def visit(node: Node) -> None:
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        gain = (
            node.n_samples * node.impurity
            - node.left.n_samples * node.left.impurity
            - node.right.n_samples * node.right.impurity
        )
        out[node.feature] += max(gain, 0.0)
        visit(node.left)
        visit(node.right)

    visit(root)
    total = out.sum()
    if total > 0:
        out /= total
    return out


def tree_depth(root: Node) -> int:
    """Depth of the tree (a lone leaf has depth 0)."""
    if root.is_leaf:
        return 0
    assert root.left is not None and root.right is not None
    return 1 + max(tree_depth(root.left), tree_depth(root.right))


def count_leaves(root: Node) -> int:
    """Number of leaves."""
    if root.is_leaf:
        return 1
    assert root.left is not None and root.right is not None
    return count_leaves(root.left) + count_leaves(root.right)


# ----------------------------------------------------------------------
# Vectorized split searches
# ----------------------------------------------------------------------

def best_split_classification(
    Xn: np.ndarray, yn: np.ndarray, feats: np.ndarray, n_classes: int,
    criterion: str, min_samples_leaf: int,
) -> Optional[Tuple[int, float, float]]:
    """Best (feature, threshold, gain) under Gini or entropy impurity.

    ``yn`` must hold integer class codes in ``[0, n_classes)``.
    """
    n = yn.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), yn] = 1.0

    if criterion == "gini":
        def node_impurity(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
            with np.errstate(invalid="ignore", divide="ignore"):
                p = counts / totals[..., None]
            imp = 1.0 - np.einsum("...k,...k->...", p, p)
            return np.where(totals > 0, imp, 0.0)
    elif criterion == "entropy":
        def node_impurity(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
            with np.errstate(invalid="ignore", divide="ignore"):
                p = counts / totals[..., None]
                safe = np.where(p > 0, p, 1.0)
                logp = np.where(p > 0, np.log2(safe), 0.0)
            imp = -np.einsum("...k,...k->...", p, logp)
            return np.where(totals > 0, imp, 0.0)
    else:
        raise ValueError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")

    total_counts = onehot.sum(axis=0)
    parent_imp = float(node_impurity(total_counts[None, :], np.array([float(n)]))[0])

    # Sort all k candidate columns at once: row i of column j is the
    # split after the i-th smallest value of feature feats[j].
    block = Xn[:, feats]
    cols = np.arange(feats.size)
    order = np.argsort(block, axis=0, kind="stable")
    xs = block[order, cols]
    nl = np.arange(1, n, dtype=float)[:, None]
    nr = n - nl
    valid = (xs[1:] != xs[:-1]) & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    if not valid.any():
        return None
    # Class counts left of each split, shape (n-1, k, classes): the
    # cumulative sum runs down each column alone, in its own order.
    left = np.cumsum(onehot[order], axis=0)[:-1]
    right = total_counts - left
    child = (nl * node_impurity(left, nl) + nr * node_impurity(right, nr)) / n
    gain = parent_imp - child
    # Each column's best row, then the first column with the largest gain.
    gain[~valid] = -np.inf
    rows = np.argmax(gain, axis=0)
    best = gain[rows, cols]
    eligible = valid.any(axis=0) & (best > 1e-12)
    if not eligible.any():
        return None
    j = int(np.argmax(np.where(eligible, best, -np.inf)))
    i = rows[j]
    return int(feats[j]), float(0.5 * (xs[i, j] + xs[i + 1, j])), float(best[j])


def best_split_regression(
    Xn: np.ndarray, yn: np.ndarray, feats: np.ndarray, min_samples_leaf: int,
) -> Optional[Tuple[int, float, float]]:
    """Best (feature, threshold, gain) under squared-error impurity."""
    n = yn.size
    total_sum = float(yn.sum())
    total_sq = float(np.dot(yn, yn))
    parent_sse = total_sq - total_sum**2 / n

    # The same block search as best_split_classification, scored by
    # running sums of y and y² down each sorted column.
    block = Xn[:, feats]
    cols = np.arange(feats.size)
    order = np.argsort(block, axis=0, kind="stable")
    xs = block[order, cols]
    nl = np.arange(1, n, dtype=float)[:, None]
    nr = n - nl
    valid = (xs[1:] != xs[:-1]) & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    if not valid.any():
        return None
    ys = yn[order]
    csum = np.cumsum(ys, axis=0)[:-1]
    csq = np.cumsum(ys * ys, axis=0)[:-1]
    sse_left = csq - csum**2 / nl
    rs = total_sum - csum
    rq = total_sq - csq
    sse_right = rq - rs**2 / nr
    gain = parent_sse - (sse_left + sse_right)
    gain[~valid] = -np.inf
    rows = np.argmax(gain, axis=0)
    best = gain[rows, cols]
    eligible = valid.any(axis=0) & (best > 1e-12)
    if not eligible.any():
        return None
    j = int(np.argmax(np.where(eligible, best, -np.inf)))
    i = rows[j]
    return int(feats[j]), float(0.5 * (xs[i, j] + xs[i + 1, j])), float(best[j])
