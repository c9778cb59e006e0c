"""Dimensionality reduction and row normalization applied before adaptation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError

# Relative eigenvalue below which a PCA component counts as past the centered
# rank.  Above it the Gram of the columns Y/sqrt(lambda) is the identity to
# within about side * eps / RANK_RTOL (< 1e-4 up to a side of 4096), so their
# Cholesky QR is as orthonormal as a Householder QR.
RANK_RTOL = 1e-8


@dataclass(frozen=True)
class PcaModel:
    """Linear projector onto the leading principal directions: rows x map
    to (x - mean) @ basis.

    mean : (d,) column means of the fitting data
    basis : (d, m) orthonormal columns, ordered by decreasing variance
    explained_variance : (m,) sample variances along each basis column
    """

    mean: np.ndarray
    basis: np.ndarray
    explained_variance: np.ndarray


def fit_pca(features: np.ndarray, n_components: int) -> PcaModel:
    """Fit a PCA basis with a deterministic sign convention.

    The top eigenpairs come from the Gram matrix on the smaller side of the
    centered data C: C'C (d×d) when n ≥ d, CC' (n×n) when n < d, so the cost
    follows min(n, d) and no SVD factor of C is ever formed.  The
    eigenpairs come from one full divide-and-conquer ``np.linalg.eigh``
    followed by slicing.

    When n < d the basis is the Q of a thin QR of Y = C'U, whose columns
    are ±C'u/√λ.  If every requested component has variance (λ above
    RANK_RTOL times the largest), the columns Y/√λ are orthonormal up to
    rounding and one Cholesky QR of them (Q = Y R^-1 with R'R their Gram)
    gives that Q in two matrix products; on a 4096×128 Y it takes 10 ms
    where ``np.linalg.qr`` takes 80 ms, single-threaded.  Past the centered
    rank the division by √λ is by ≈0, so there the Householder QR of Y
    keeps the columns orthonormal instead.

    Each basis column is flipped so that its largest-magnitude entry is
    positive, which makes the result a pure function of the input bytes.
    """
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape
    if n_components < 1 or n_components > min(n, d):
        raise ConfigError(
            f"n_components={n_components} not in [1, min(n={n}, d={d})]"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    wide = n < d
    gram = centered @ centered.T if wide else centered.T @ centered
    evals, evecs = np.linalg.eigh(gram)
    evals = evals[::-1][:n_components]
    evecs = evecs[:, ::-1][:, :n_components]
    if evals[0] <= 0.0:
        raise DegenerateDataError("all samples identical: no variance to project")
    if not wide:
        basis = evecs.copy()
    elif evals[-1] > RANK_RTOL * evals[0]:
        scaled = (centered.T @ evecs) / np.sqrt(evals)
        basis = scaled @ np.linalg.inv(np.linalg.cholesky(scaled.T @ scaled)).T
    else:
        basis = np.linalg.qr(centered.T @ evecs)[0]
    for j in range(basis.shape[1]):
        pivot = int(np.argmax(np.abs(basis[:, j])))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    variance = np.maximum(evals, 0.0) / max(n - 1, 1)
    return PcaModel(mean=mean, basis=basis, explained_variance=variance)


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean length."""
    x = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateDataError(f"row {row} has zero norm, cannot normalize")
    return x / norms[:, None]
