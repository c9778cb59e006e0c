"""Generalized symmetric eigensolver used to extract the projection.

Solves A p = theta (B + sI) p for the k smallest eigenvalues, where
B = X'HX is the centered Gram matrix of the features and s a small relative
ridge.  B depends only on the features, so a run builds, checks and
Cholesky-factors it once (``assemble_operands``): with B + sI = L L' the
constraint keeps W = L^-T.  Each step is then the ordinary symmetric problem
(W'AW) u = theta u with p = W u, one matrix product and one ``eigh``.  The
returned columns are orthonormal under B + sI, which is exactly the
constraint the adaptation objective imposes.

Every routine is numpy's own LAPACK: ``np.linalg.cholesky`` for L,
``np.linalg.inv`` for L^-1 and ``np.linalg.eigh`` per step.  The solver
therefore never imports scipy, whose linalg module alone costs about 0.37 s
of start-up, more than a small task's whole solve.  The full ``eigh`` stays
although a step keeps only the smallest pairs: at the default side 128 with
32 pairs kept it took 1.7-2.4 ms single-threaded, against 2.6-3.1 ms for
LAPACK's dsyevr or dsyevx over that index range, 1.9-2.1 ms for
dsytrd+dstemr+dormtr and 2.9-3.2 ms for scipy's ``eigh(subset_by_index=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

# Relative ridge added to B before factorization; keeps the reduction stable
# when the centered gram matrix is numerically rank deficient.
DEFAULT_RIDGE_SCALE = 1e-9
# Largest relative residual a solve may return; anything above it is a bad
# solve, not a projection.
RESIDUAL_BOUND = 1e-6


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


@dataclass(frozen=True)
class FactoredConstraint:
    """The constraint matrix B + sI and W = L^-T for its Cholesky factor L,
    so that W'(B + sI)W = I."""

    shifted: np.ndarray
    whiten: np.ndarray


def _check_symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{name} must be square, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise NumericError(f"{name} has NaN or infinite entries")
    scale = 1.0 + np.abs(mat).max()
    if np.abs(mat - mat.T).max() > 1e-8 * scale:
        raise ConfigError(f"{name} is not symmetric")
    return 0.5 * (mat + mat.T)


def factor_constraint(b: np.ndarray, b_shift: float = 0.0) -> FactoredConstraint:
    """Check B, add b_shift I and factor the result once for many solves."""
    b = _check_symmetric(b, "B")
    if b_shift < 0:
        raise ConfigError("b_shift must be non-negative")
    m = b.shape[0]
    shifted = b + b_shift * np.eye(m)
    try:
        chol = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "B is not positive definite even after the ridge shift; "
            "increase b_shift or check the feature matrix for rank collapse"
        ) from exc
    # inv() runs a pivoted LU, which can leave rounding-size entries above
    # the diagonal of L^-T; triu keeps W upper triangular by construction.
    whiten = np.triu(np.linalg.inv(chol).T)
    return FactoredConstraint(shifted=shifted, whiten=whiten)


def solve_generalized(
    a: np.ndarray, constraint: FactoredConstraint, n_components: int
) -> TransformSolution:
    """Smallest n_components eigenpairs of A p = theta (B + sI) p, with
    B + sI given by its factored constraint."""
    a = _check_symmetric(a, "A")
    m = a.shape[0]
    if constraint.shifted.shape[0] != m:
        raise ConfigError(f"A is {a.shape}, B is {constraint.shifted.shape}")
    if n_components < 1 or n_components > m:
        raise ConfigError(f"n_components={n_components} not in [1, {m}]")
    w = constraint.whiten
    reduced = w.T @ a @ w
    reduced = 0.5 * (reduced + reduced.T)
    eigenvalues, vectors = np.linalg.eigh(reduced)
    theta = eigenvalues[:n_components].copy()
    projection = w @ vectors[:, :n_components]
    pivots = np.abs(projection).argmax(axis=0)
    projection *= np.where(projection[pivots, np.arange(n_components)] < 0, -1.0, 1.0)
    b = constraint.shifted
    resid = a @ projection - (b @ projection) * theta[None, :]
    denom = np.linalg.norm(a) + np.abs(theta) * np.linalg.norm(b)
    rel = np.linalg.norm(resid, axis=0) / denom
    if not np.isfinite(rel).all():
        raise NumericError("eigensolver produced non-finite residuals")
    if rel.max() > RESIDUAL_BOUND:
        raise NumericError(
            f"eigensolver residual {rel.max():.3e} exceeds {RESIDUAL_BOUND:g}"
        )
    return TransformSolution(
        projection=projection, eigenvalues=theta, residual=float(rel.max())
    )


def relative_ridge(b: np.ndarray) -> float:
    """The b_shift used with B: DEFAULT_RIDGE_SCALE times B's mean diagonal."""
    return DEFAULT_RIDGE_SCALE * float(np.trace(b)) / b.shape[0]


def assemble_operands(features: np.ndarray) -> FactoredConstraint:
    """Build B = X'HX from stacked row features (samples in rows), add the
    relative ridge and factor it.

    B is formed as the centered gram matrix C'C so it is symmetric positive
    semidefinite by construction.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ConfigError("features must be 2-d (samples in rows)")
    centered = f - f.mean(axis=0)
    b = centered.T @ centered
    return factor_constraint(b, relative_ridge(b))
