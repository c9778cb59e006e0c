"""Generalized symmetric eigensolver used to extract the projection.

Solves A p = theta B p for the k smallest eigenvalues via an explicit
Cholesky reduction: with B = L L', the problem becomes the ordinary
symmetric one (L^-1 A L^-T) u = theta u and p = L^-T u.  The returned
columns are orthonormal under B, which is exactly the constraint the
adaptation objective imposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericError

# Relative ridge added to B before factorization; keeps the reduction stable
# when the centered gram matrix is numerically rank deficient.
DEFAULT_RIDGE_SCALE = 1e-9


@dataclass(frozen=True)
class TransformSolution:
    """k smallest generalized eigenpairs.

    projection : (m, k), columns B-orthonormal, sign-fixed so the
        largest-magnitude entry of each column is positive
    eigenvalues : (k,), ascending
    residual : max over columns of ||A p - theta B p|| relative to
        ||A||_F + |theta| ||B||_F, with B including the applied shift
    """

    projection: np.ndarray
    eigenvalues: np.ndarray
    residual: float


def _check_symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{name} must be square, got {mat.shape}")
    scale = 1.0 + np.abs(mat).max()
    if np.abs(mat - mat.T).max() > 1e-8 * scale:
        raise ConfigError(f"{name} is not symmetric")
    return 0.5 * (mat + mat.T)


def solve_generalized(
    a: np.ndarray, b: np.ndarray, n_components: int, b_shift: float = 0.0
) -> TransformSolution:
    """Smallest n_components eigenpairs of A p = theta (B + b_shift I) p."""
    a = _check_symmetric(a, "A")
    b = _check_symmetric(b, "B")
    m = a.shape[0]
    if b.shape[0] != m:
        raise ConfigError(f"A is {a.shape}, B is {b.shape}")
    if n_components < 1 or n_components > m:
        raise ConfigError(f"n_components={n_components} not in [1, {m}]")
    if b_shift < 0:
        raise ConfigError("b_shift must be non-negative")
    b_shifted = b if b_shift == 0.0 else b + b_shift * np.eye(m)
    try:
        chol = scipy.linalg.cholesky(b_shifted, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            "B is not positive definite even after the ridge shift; "
            "increase b_shift or check the feature matrix for rank collapse"
        ) from exc
    # reduced = L^-1 A L^-T, symmetric by construction up to roundoff
    half = scipy.linalg.solve_triangular(chol, a, lower=True)
    reduced = scipy.linalg.solve_triangular(chol, half.T, lower=True).T
    reduced = 0.5 * (reduced + reduced.T)
    eigenvalues, vectors = np.linalg.eigh(reduced)
    theta = eigenvalues[:n_components].copy()
    projection = scipy.linalg.solve_triangular(
        chol.T, vectors[:, :n_components], lower=False
    )
    for j in range(n_components):
        pivot = int(np.argmax(np.abs(projection[:, j])))
        if projection[pivot, j] < 0:
            projection[:, j] = -projection[:, j]
    resid = a @ projection - (b_shifted @ projection) * theta[None, :]
    denom = np.linalg.norm(a) + np.abs(theta) * np.linalg.norm(b_shifted)
    rel = np.linalg.norm(resid, axis=0) / denom
    if not np.isfinite(rel).all():
        raise NumericError("eigensolver produced non-finite residuals")
    return TransformSolution(
        projection=projection, eigenvalues=theta, residual=float(rel.max())
    )


def relative_ridge(b: np.ndarray) -> float:
    """The b_shift used with B: DEFAULT_RIDGE_SCALE times B's mean diagonal."""
    return DEFAULT_RIDGE_SCALE * float(np.trace(b)) / b.shape[0]


def assemble_operands(
    features: np.ndarray, objective: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Build A = X'QX + delta I from the m×m objective X'QX, and B = X'HX
    from stacked row features (samples in rows).

    B is formed as the centered gram matrix C'C so it is symmetric positive
    semidefinite by construction.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ConfigError("features must be 2-d (samples in rows)")
    if delta < 0:
        raise ConfigError("delta must be non-negative")
    m = f.shape[1]
    if objective.shape != (m, m):
        raise ConfigError(f"objective is {objective.shape}, expected ({m}, {m})")
    a = 0.5 * (objective + objective.T)
    a[np.diag_indices(m)] += delta
    centered = f - f.mean(axis=0)
    b = centered.T @ centered
    b = 0.5 * (b + b.T)
    return a, b
