"""K-means clustering with k-means++ initialisation and elbow selection.

This is the clustering engine behind the frame-grained game profiler
(paper §IV-A2): game frames — 5-second resource usage vectors — are
clustered, and the per-game cluster count is chosen at the elbow of the
SSE-vs-K curve (paper Fig 14).

Implementation notes (per the HPC guide): distance computation uses the
expanded ``|x - c|² = |x|² - 2 x·c + |c|²`` form so the inner loop is a
single GEMM; no Python-level loops over samples.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.mlkit.base import Estimator
from repro.util.rng import Seed, as_rng
from repro.util.validation import check_positive

__all__ = ["KMeans", "sse_curve", "elbow_k"]


def _pairwise_sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(n_samples, n_centers)``."""
    x2 = np.einsum("ij,ij->i", X, X)[:, None]
    c2 = np.einsum("ij,ij->i", C, C)[None, :]
    d = x2 - 2.0 * (X @ C.T) + c2
    np.maximum(d, 0.0, out=d)  # clamp tiny negatives from cancellation
    return d


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by D² sampling."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = _pairwise_sq_dists(X, centers[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All points coincide with chosen centers; fill with copies.
            centers[i:] = X[rng.integers(n, size=k - i)]
            break
        probs = closest / total
        idx = rng.choice(n, p=probs)
        centers[i] = X[idx]
        np.minimum(closest, _pairwise_sq_dists(X, centers[i : i + 1]).ravel(), out=closest)
    return centers


class KMeans(Estimator):
    """Lloyd's K-means.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``K >= 1``.
    n_init:
        Number of independent k-means++ restarts; the run with the lowest
        SSE wins.
    max_iter:
        Maximum Lloyd iterations per restart.
    tol:
        Relative center-shift tolerance for convergence.
    seed:
        Seed or generator.

    Attributes
    ----------
    cluster_centers_:
        ``(K, D)`` final centers.
    labels_:
        Training-set assignments.
    inertia_:
        Training-set SSE (the paper's Fig-14 y-axis).
    n_iter_:
        Iterations used by the winning restart.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_init: int = 8,
        max_iter: int = 300,
        tol: float = 1e-6,
        seed: Seed = None,
    ):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        check_positive("tol", tol)
        self.n_clusters = int(n_clusters)
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "KMeans":
        """Cluster the rows of ``X``."""
        X = self._coerce_X(X)
        n, d = X.shape
        if self.n_clusters > n:
            raise ValueError(
                f"n_clusters={self.n_clusters} exceeds n_samples={n}"
            )
        rng = as_rng(self.seed)

        best: Optional[Tuple[float, np.ndarray, np.ndarray, int]] = None
        for _ in range(self.n_init):
            centers, labels, inertia, n_iter = self._lloyd(X, rng)
            if best is None or inertia < best[0]:
                best = (inertia, centers, labels, n_iter)
        assert best is not None
        self.inertia_, self.cluster_centers_, self.labels_, self.n_iter_ = best
        self._mark_fitted()
        return self

    def _lloyd(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, float, int]:
        centers = _kmeanspp_init(X, self.n_clusters, rng)
        labels = np.zeros(X.shape[0], dtype=np.int64)
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            dists = _pairwise_sq_dists(X, centers)
            labels = dists.argmin(axis=1)
            new_centers = np.empty_like(centers)
            counts = np.bincount(labels, minlength=self.n_clusters).astype(float)
            sums = np.zeros_like(centers)
            np.add.at(sums, labels, X)
            empty = counts == 0
            nonempty = ~empty
            new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            if empty.any():
                # Re-seed empty clusters at the points farthest from their
                # current center — the standard fix that keeps K clusters
                # alive on degenerate data.
                far = dists[np.arange(X.shape[0]), labels].argsort()[::-1]
                for j, ci in enumerate(np.flatnonzero(empty)):
                    new_centers[ci] = X[far[j % X.shape[0]]]
            shift = float(np.linalg.norm(new_centers - centers))
            scale = float(np.linalg.norm(centers)) or 1.0
            centers = new_centers
            if shift / scale <= self.tol:
                break
        dists = _pairwise_sq_dists(X, centers)
        labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(X.shape[0]), labels].sum())
        return centers, labels, inertia, n_iter

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign each row of ``X`` to its nearest fitted center."""
        self._check_fitted()
        X = self._coerce_X(X)
        if X.shape[1] != self.cluster_centers_.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} features; model was fitted with "
                f"{self.cluster_centers_.shape[1]}"
            )
        return _pairwise_sq_dists(X, self.cluster_centers_).argmin(axis=1)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Euclidean distances to every center, shape ``(n, K)``."""
        self._check_fitted()
        X = self._coerce_X(X)
        return np.sqrt(_pairwise_sq_dists(X, self.cluster_centers_))

    def score(self, X: np.ndarray) -> float:
        """Negative SSE of ``X`` under the fitted centers (higher is better)."""
        self._check_fitted()
        X = self._coerce_X(X)
        d = _pairwise_sq_dists(X, self.cluster_centers_)
        return -float(d.min(axis=1).sum())


def sse_curve(
    X: np.ndarray, k_values: Sequence[int], *, seed: Seed = None, n_init: int = 8
) -> np.ndarray:
    """SSE (inertia) for each K in ``k_values`` — the paper's Fig-14 curve.

    Returns an array aligned with ``k_values``.
    """
    k_values = list(k_values)
    if not k_values:
        raise ValueError("k_values must be non-empty")
    rng = as_rng(seed)
    out = np.empty(len(k_values))
    for i, k in enumerate(k_values):
        out[i] = KMeans(k, n_init=n_init, seed=rng).fit(X).inertia_
    return out


def elbow_k(
    k_values: Sequence[int],
    sses: Sequence[float],
    *,
    tol: float = 0.03,
    method: str = "drop",
) -> int:
    """Pick the elbow of an SSE-vs-K curve (the paper's Fig-14 criterion).

    The paper chooses K where "the SSEs remain few changes" beyond it —
    the inflection where adding a cluster stops buying a real SSE drop.

    ``method="drop"`` (default) finds the *last structural* drop: the
    largest K whose incremental drop ``drop(K) = sse(K-1) - sse(K)`` is
    both (a) at least twice the following drop and (b) at least
    ``tol``-fraction of the curve's total span.  Splitting a real cluster
    pair yields a drop well above the subsequent noise-splitting drops,
    so the criterion is robust to residual within-cluster noise.  On the
    paper's games it recovers the counts they chose by inspection
    (Contra 2, CSGO 4, Genshin 4, DOTA2 5, Devil May Cry 6).

    ``method="flatten"`` returns the smallest K whose *remaining excess*
    SSE — ``(sse(K) - sse(K_max)) / (sse(K_min) - sse(K_max))`` — drops
    below ``tol``.

    ``method="chord"`` uses the kneedle-style maximum-distance-to-chord
    criterion (classic, but biased toward small K on steeply convex
    curves).
    """
    k = np.asarray(list(k_values), dtype=float)
    s = np.asarray(list(sses), dtype=float)
    if k.shape != s.shape or k.size < 3:
        raise ValueError("need >= 3 (k, sse) points with matching lengths")
    if np.any(np.diff(k) <= 0):
        raise ValueError("k_values must be strictly increasing")
    span = s[0] - s[-1]
    if span <= 0:
        return int(k[0])
    if method == "drop":
        drops = s[:-1] - s[1:]  # drops[i] = drop *into* k[i+1]
        np.maximum(drops, 0.0, out=drops)
        floor = max(tol, 1e-6) * span
        best = 0  # default: the first drop is always into k[1]
        for i in range(len(drops) - 1):
            if drops[i] >= 2.0 * drops[i + 1] and drops[i] >= floor:
                best = i
        return int(k[best + 1])
    if method == "flatten":
        excess = (s - s[-1]) / span
        below = np.flatnonzero(excess <= tol)
        if below.size:
            return int(k[below[0]])
        return int(k[-1])
    if method == "chord":
        kn = (k - k[0]) / (k[-1] - k[0])
        sn = (s - s[-1]) / span
        gap = (1.0 - kn) - sn
        return int(k[np.argmax(gap)])
    raise ValueError(f"method must be 'drop', 'flatten' or 'chord', got {method!r}")
