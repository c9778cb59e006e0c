"""Class means, distances, nearest-class-mean classification and target
k-means.

Class probabilities come from a softmax over negative (unsquared) Euclidean
distances to the class centers, computed with the usual max-shift so the
exponentials never overflow.  Every distance comes from one BLAS product in
``squared_distances``.  Every per-class count and row sum (prototypes,
k-means, the objective and the trainer's diagnostics) comes from
``class_moments``.

These functions take the trainer's own arrays unchecked: the source rows
and labels of a ``trainer.PreparedTask``, which construction checked, and
the distance tables the step forms.  ``target_kmeans`` checks only that
the target has a row for each class, which the task cannot promise.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


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
    """(C, k) per-class means of a checked task's source rows, whose int64
    labels cover every class (``trainer.PreparedTask``)."""
    counts, sums = class_moments(features, labels, n_classes)
    return sums / counts[:, None]


def squared_distances(features: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, C) squared Euclidean distances as |z|^2 + |c|^2 - 2 z c'.

    Both sides are first shifted by the mean of the centers, so the norms
    stay near the scale of the distances and the cancellation loses little;
    rounding can still leave tiny negatives, which are clipped to 0.
    """
    shift = centers.mean(axis=0)
    z = features - shift
    c = centers - shift
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


def target_kmeans(
    features: np.ndarray, init_centers: np.ndarray, init_distances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[float], np.ndarray, bool]:
    """Lloyd iterations from the given centers, whose ``squared_distances``
    from the features the caller passes as init_distances.

    The initialization from projected source class centers is what ties
    cluster index c to class c, so no matching step is needed afterwards.
    Empty clusters keep their previous center.  Returns the final (C, k)
    centers, the assignment vector, the per-iteration sum of squared errors
    (non-increasing), the (n, C) squared distances to the final centers and
    whether Lloyd stopped by its own rule (assignments unchanged, or a
    relative SSE decrease of at most KMEANS_TOL) rather than by running
    KMEANS_MAX_ITERS passes.
    """
    n_samples, n_clusters = init_distances.shape
    if n_clusters > n_samples:
        raise DataError(f"cannot place {n_clusters} clusters on {n_samples} samples")
    centers = init_centers.copy()
    dist = init_distances
    history: list[float] = []
    prev_assign: np.ndarray | None = None
    converged = False
    for _ in range(KMEANS_MAX_ITERS):
        assign = np.argmin(dist, axis=1).astype(np.int64)
        sse = float(dist[np.arange(n_samples), assign].sum())
        history.append(sse)
        converged = (prev_assign is not None and np.array_equal(assign, prev_assign)) or (
            len(history) > 1 and history[-2] - sse <= KMEANS_TOL * max(history[-2], 1e-300)
        )
        if converged:
            break
        counts, sums = class_moments(features, assign, n_clusters)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        prev_assign = assign
        dist = squared_distances(features, centers)
    return centers, assign, history, dist, converged

