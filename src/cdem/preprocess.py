"""Dimensionality reduction and row normalization applied before adaptation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, DegenerateDataError


@dataclass(frozen=True)
class PcaModel:
    """Linear projector onto the leading principal directions.

    mean : (d,) column means of the fitting data
    basis : (d, m) orthonormal columns, ordered by decreasing variance
    explained_variance : (m,) sample variances along each basis column
    """

    mean: np.ndarray
    basis: np.ndarray
    explained_variance: np.ndarray

    @property
    def n_components(self) -> int:
        return self.basis.shape[1]


def fit_pca(features: np.ndarray, n_components: int) -> PcaModel:
    """Fit a PCA basis with a deterministic sign convention.

    The top eigenpairs come from the Gram matrix on the smaller side of the
    centered data C: C'C (d×d) when n ≥ d, CC' (n×n) when n < d, so the cost
    follows min(n, d) and no SVD factor of C is ever formed.  When n < d the
    basis is the Q of a thin QR of C'U: its columns equal ±C'u/√λ for the
    components with variance, and QR keeps them orthonormal even for the
    components past the centered rank, where that division is by ≈0.

    When the top n_components make up at least half of the Gram side, one
    full divide-and-conquer ``eigh`` (driver "evd") followed by slicing is
    faster than the subset solver; below half, the subset solver wins and
    keeps the memory of the full eigenvector matrix out of the run.

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
    size = gram.shape[0]
    if 2 * n_components >= size:
        evals, evecs = scipy.linalg.eigh(gram, driver="evd")
    else:
        evals, evecs = scipy.linalg.eigh(gram, subset_by_index=[size - n_components, size - 1])
    evals = evals[::-1][:n_components]
    evecs = evecs[:, ::-1][:, :n_components]
    if evals[0] <= 0.0:
        raise DegenerateDataError("all samples identical: no variance to project")
    basis = np.linalg.qr(centered.T @ evecs)[0] if wide else evecs.copy()
    for j in range(basis.shape[1]):
        pivot = int(np.argmax(np.abs(basis[:, j])))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    variance = np.maximum(evals, 0.0) / max(n - 1, 1)
    return PcaModel(mean=mean, basis=basis, explained_variance=variance)


def transform(model: PcaModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.mean.shape[0]:
        raise ConfigError(
            f"expected shape (n, {model.mean.shape[0]}), got {x.shape}"
        )
    return (x - model.mean) @ model.basis


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean length."""
    x = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateDataError(f"row {row} has zero norm, cannot normalize")
    return x / norms[:, None]
