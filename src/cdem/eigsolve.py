"""Generalized symmetric eigensolver used to extract the projection.

Solves A p = theta (B + sI) p for the k smallest eigenvalues, where
B = X'HX is the centered Gram matrix of the features and s a small relative
ridge.  B depends only on the features, so a run builds, checks and
Cholesky-factors it once (``assemble_operands``): with B + sI = L L' the
constraint keeps W = L^-T, and the pencil reduces to the standard symmetric
problem M u = theta u with M = W'AW and p = W u (Golub & Van Loan, *Matrix
Computations*, section 8.7).  ``solve_generalized`` takes M itself: the
trainer builds it directly in whitened coordinates Y = XW, from moments of
Y, so a step forms no W'AW sandwich.  A caller holding A in the coordinates
of B gets M from ``FactoredConstraint.reduce``, which checks A first.  The
returned columns are orthonormal under B + sI, which is exactly the
constraint the adaptation objective imposes, and the residual is measured
in the whitened coordinates the solve works in.

Every routine is numpy's own LAPACK: ``np.linalg.cholesky`` for L,
``np.linalg.inv`` for L^-1 and ``np.linalg.eigh`` per step.  The solver
therefore never imports scipy, whose linalg module alone costs about 0.37 s
of start-up, more than a small task's whole solve.  The full ``eigh`` stays
although a step keeps only the smallest pairs: at the default side 128 with
32 pairs kept it took 1.7-2.4 ms single-threaded, against 1.4-3.2 ms for the
subset routes (dsyevr, dsyevx, dsytrd+dstemr or dstedc+dormtr, scipy's
``eigh(subset_by_index=...)``).  Once the step solved in whitened
coordinates, replacing its ``eigh`` by dsytrd+dstedc+dormtr, the fastest
of those routes, bought only about 3% more of the benchmark's ``suite-12``
run time.

PCA needs the other end of a spectrum: the k largest eigenpairs of a Gram
whose side can reach the feature width.  ``top_eigenpairs`` calls LAPACK's
subset driver dsyevr (RANGE='I': bisection and inverse iteration on the
tridiagonal form) from the same bundled OpenBLAS that ``np.linalg`` calls,
through ctypes, when the side n is at least SUBSET_MIN_SIDE and k is at most
SUBSET_MAX_SHARE of it.  Below that, or when numpy's library does not export
``scipy_LAPACKE_dsyevr64_``, it runs the full ``np.linalg.eigh`` and keeps k
pairs.  Subset time over full ``eigh`` time on random Grams, one BLAS
thread, median of 3-5 runs (about half of a subset solve is the tridiagonal
reduction: on the 800-side Gram of ``wide-d``, 52 of 98-107 ms at k=128):

    n      k=1    k=32   k=128   k=256   k=410   k=512
    256    0.30   0.79   2.20
    512    0.28   0.46   1.02    1.76
    576    0.31   0.51   1.07    1.85
    640    0.33   0.47   0.94    1.51
    800    0.38   0.46   0.81    1.24
    1024   0.37   0.43   0.63    0.89
    1536                 0.53    0.57    0.84    0.89
    2048                 0.49    0.56    0.63    0.72

Every pair the rule admits is below 1.  At two BLAS threads the full
``eigh`` gains more from the second thread, and k=128 at n = 640 and 800
took 1.07-1.08 times the full solve (0.69 at n = 1024, 0.47 at 2048).
Below SUBSET_MIN_SIDE the subset solve still wins at k = n/10, but at the
rule's k = n/5 it loses at n = 128 and breaks about even up to 400 (range
over two passes of interleaved medians):

    n      k=n/10      k=n/5
    128    0.71-0.72   1.11-1.16
    200    0.66-0.68   1.00-1.03
    256    0.67-0.73   1.01-1.14
    320    0.63-0.71   0.96-1.11
    400    0.62        0.93-0.94
    512    0.55-0.57   0.81-0.84
    576    0.57-0.58   0.84-0.88
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

# Relative ridge added to B before factorization; keeps the reduction stable
# when the centered gram matrix is numerically rank deficient.
DEFAULT_RIDGE_SCALE = 1e-9
# Largest relative residual a solve may return; anything above it is a bad
# solve, not a projection.
RESIDUAL_BOUND = 1e-6
# top_eigenpairs uses LAPACK's subset solve from this Gram side up, for k up
# to this share of the side (the table in the module docstring).
SUBSET_MIN_SIDE = 640
SUBSET_MAX_SHARE = 0.2
# LAPACKE's matrix_layout code for column-major storage.
_LAPACK_COL_MAJOR = 102


@dataclass(frozen=True)
class TransformSolution:
    """k smallest generalized eigenpairs of A p = theta (B + sI) p, solved
    as M u = theta u with M = W'AW.

    projection : (m, k) P = WU, columns B-orthonormal, sign-fixed so the
        largest-magnitude entry of each column is positive
    basis : (m, k) U, the same columns in whitened coordinates, orthonormal
        and with the same signs
    eigenvalues : (k,), ascending
    eigengap : theta_{k+1} - theta_k, or None when k = m
    objective : tr(U'MU) = tr(P'AP), summed from the residual's product
    residual : max over columns of ||M u - theta u|| relative to
        ||M||_F + |theta| sqrt(m), measured in whitened coordinates; the
        numerator is ||W'(A p - theta (B + sI) p)||
    """

    projection: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    eigengap: float | None
    objective: float
    residual: float


@dataclass(frozen=True)
class FactoredConstraint:
    """The constraint matrix B + sI and W = L^-T for its Cholesky factor L,
    so that W'(B + sI)W = I."""

    shifted: np.ndarray
    whiten: np.ndarray

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """W'AW, the operand ``solve_generalized`` takes, for a symmetric A
        given in the coordinates of B."""
        a = _check_symmetric(a, "A")
        if a.shape != self.shifted.shape:
            raise ConfigError(f"A is {a.shape}, B is {self.shifted.shape}")
        return self.whiten.T @ a @ self.whiten


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
    reduced: np.ndarray, constraint: FactoredConstraint, n_components: int
) -> TransformSolution:
    """Smallest n_components eigenpairs of A p = theta (B + sI) p, from
    reduced = W'AW for the W of B + sI's factored constraint."""
    m = constraint.whiten.shape[0]
    if reduced.shape != (m, m):
        raise ConfigError(f"W'AW is {reduced.shape}, B is {constraint.shifted.shape}")
    if n_components < 1 or n_components > m:
        raise ConfigError(f"n_components={n_components} not in [1, {m}]")
    reduced = 0.5 * (reduced + reduced.T)
    eigenvalues, vectors = np.linalg.eigh(reduced)
    theta = eigenvalues[:n_components].copy()
    projection = constraint.whiten @ vectors[:, :n_components]
    pivots = np.abs(projection).argmax(axis=0)
    signs = np.where(projection[pivots, np.arange(n_components)] < 0, -1.0, 1.0)
    projection *= signs
    basis = vectors[:, :n_components] * signs
    product = reduced @ basis
    resid = product - basis * theta[None, :]
    denom = np.linalg.norm(reduced) + np.abs(theta) * np.sqrt(m)
    rel = np.linalg.norm(resid, axis=0) / denom
    if not np.isfinite(rel).all():
        raise NumericError("eigensolver produced non-finite residuals")
    if rel.max() > RESIDUAL_BOUND:
        raise NumericError(
            f"eigensolver residual {rel.max():.3e} exceeds {RESIDUAL_BOUND:g}"
        )
    return TransformSolution(
        projection=projection,
        basis=basis,
        eigenvalues=theta,
        eigengap=float(eigenvalues[n_components] - theta[-1]) if n_components < m else None,
        objective=float(np.sum(basis * product)),
        residual=float(rel.max()),
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


@functools.cache
def _openblas():
    """A handle on the OpenBLAS that numpy's linalg module is linked against,
    or None where it cannot be opened.  Opened on first use, so importing
    cdem pays nothing; every ctypes binding in cdem looks its symbol up here."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None


@functools.cache
def _dsyevr():
    """LAPACKE_dsyevr (ILP64) from ``_openblas``, or None where that library
    does not export it under this name."""
    fn = getattr(_openblas(), "scipy_LAPACKE_dsyevr64_", None)
    if fn is None:
        return None
    from numpy.ctypeslib import ndpointer

    int64 = ctypes.c_int64
    matrix = ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
    vector = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    indices = ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    # matrix_layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
    # m, w, z, ldz, isuppz
    fn.argtypes = [
        ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, int64,
        matrix, int64, ctypes.c_double, ctypes.c_double, int64, int64, ctypes.c_double,
        indices, vector, matrix, int64, indices,
    ]
    fn.restype = int64
    return fn


def top_eigenpairs(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric n×n gram, descending, and
    their eigenvectors as columns, from LAPACK's subset solve or the full
    ``np.linalg.eigh`` by the rule in the module docstring.  gram is the
    caller's C-contiguous float64 temporary: the subset solve overwrites it.
    Both solves read only its lower triangle, so a caller need fill only
    that one.
    """
    n = gram.shape[0]
    dsyevr = _dsyevr() if n >= SUBSET_MIN_SIDE and k <= SUBSET_MAX_SHARE * n else None
    if dsyevr is None:
        evals, evecs = np.linalg.eigh(gram)
        return evals[::-1][:k], evecs[:, ::-1][:, :k]
    count = np.zeros(1, dtype=np.int64)
    evals = np.empty(n)
    evecs = np.empty((n, k), order="F")
    support = np.empty(2 * k, dtype=np.int64)
    # gram.T is gram's own buffer read column-major; its upper triangle is
    # the lower one of gram, the triangle np.linalg.eigh (UPLO='L') reads.
    info = dsyevr(
        _LAPACK_COL_MAJOR, b"V", b"I", b"U", n, gram.T, n, 0.0, 0.0, n - k + 1, n, 0.0,
        count, evals, evecs, n, support,
    )
    if info != 0:
        # LAPACKE checks the Gram for NaN first and reports it as info=-6.
        raise NumericError(f"LAPACK dsyevr failed with info={info}")
    if count[0] != k:
        raise NumericError(f"LAPACK dsyevr returned {count[0]} of {k} eigenpairs")
    return evals[k - 1::-1], evecs[:, ::-1]
