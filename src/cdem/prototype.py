"""Class means, distances, nearest-class-mean classification and target
k-means.

Class probabilities come from a softmax over negative (unsquared) Euclidean
distances to the class centers, computed with the usual max-shift so the
exponentials never overflow.  Every distance comes from one BLAS product in
``squared_distances``.  Every per-class count and row sum (prototypes,
k-means, the objective and the trainer's diagnostics) comes from
``class_moments``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError


# Lloyd iteration cap and relative SSE decrease below which k-means stops.
KMEANS_MAX_ITERS = 100
KMEANS_TOL = 1e-6


def class_moments(
    rows: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class counts (C,) and row sums (C, m); an empty class has count 0
    and a zero sum."""
    counts = np.bincount(labels, minlength=n_classes)
    onehot = (labels == np.arange(n_classes)[:, None]).astype(np.float64)
    return counts, onehot @ rows


def fit_prototypes(features: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(C, k) per-class means; every class must be present."""
    z = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or y.shape != (z.shape[0],):
        raise DataError("features must be (n, k) with one label per row")
    if n_classes < 2:
        raise DataError("need at least two classes")
    if y.min() < 0 or y.max() >= n_classes:
        raise DataError(f"labels outside [0, {n_classes})")
    counts, sums = class_moments(z, y, n_classes)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise DataError(f"class {int(missing[0])} has no samples")
    return sums / counts[:, None]


def squared_distances(features: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, C) squared Euclidean distances as |z|^2 + |c|^2 - 2 z c'.

    Both sides are first shifted by the mean of the centers, so the norms
    stay near the scale of the distances and the cancellation loses little;
    rounding can still leave tiny negatives, which are clipped to 0.
    """
    c = np.asarray(centers, dtype=np.float64)
    shift = c.mean(axis=0)
    z = np.asarray(features, dtype=np.float64) - shift
    c = c - shift
    dist = z @ (-2.0 * c.T)
    dist += np.einsum("ij,ij->i", z, z)[:, None]
    dist += np.einsum("ij,ij->i", c, c)[None, :]
    return np.maximum(dist, 0.0, out=dist)


def class_probabilities(distances: np.ndarray) -> np.ndarray:
    """Row-stochastic softmax over negative Euclidean distances, from the
    (n, C) ``squared_distances`` of n rows to C centers."""
    logits = -np.sqrt(distances)
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return p


def nearest_center_labels(centers: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Hard assignment to the closest center (ties go to the lower index)."""
    return np.argmin(squared_distances(features, centers), axis=1).astype(np.int64)


def target_kmeans(
    features: np.ndarray, init_centers: np.ndarray, init_distances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[float], np.ndarray]:
    """Lloyd iterations from the given centers, whose ``squared_distances``
    from the features the caller passes as init_distances.

    The initialization from projected source class centers is what ties
    cluster index c to class c, so no matching step is needed afterwards.
    Empty clusters keep their previous center.  Returns the final (C, k)
    centers, the assignment vector, the per-iteration sum of squared errors
    (non-increasing) and the (n, C) squared distances to the final centers.
    """
    z = np.asarray(features, dtype=np.float64)
    centers = np.asarray(init_centers, dtype=np.float64).copy()
    if centers.ndim != 2 or centers.shape[1] != z.shape[1]:
        raise ConfigError("init_centers must be (C, k) matching the features")
    n_clusters = centers.shape[0]
    if n_clusters < 1 or n_clusters > z.shape[0]:
        raise DataError(f"cannot place {n_clusters} clusters on {z.shape[0]} samples")
    dist = np.asarray(init_distances, dtype=np.float64)
    if dist.shape != (z.shape[0], n_clusters):
        raise ConfigError(f"init_distances are {dist.shape}, expected {(z.shape[0], n_clusters)}")
    history: list[float] = []
    prev_assign: np.ndarray | None = None
    for _ in range(KMEANS_MAX_ITERS):
        assign = np.argmin(dist, axis=1).astype(np.int64)
        sse = float(dist[np.arange(z.shape[0]), assign].sum())
        history.append(sse)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if len(history) > 1 and history[-2] - sse <= KMEANS_TOL * max(history[-2], 1e-300):
            break
        counts, sums = class_moments(z, assign, n_clusters)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        prev_assign = assign
        dist = squared_distances(z, centers)
    return centers, assign, history, dist

