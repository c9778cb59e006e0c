"""Generalized symmetric eigensolver used to extract the projection.

Solves A p = theta (B + sI) p for the k smallest eigenvalues, where
B = X'HX is the centered Gram matrix of the features and s a small relative
ridge.  B depends only on the features, so a run builds, checks and
Cholesky-factors it once (``assemble_operands``), keeping only W = L^-T for
B + sI = L L'.  The pencil is then the standard symmetric problem M u =
theta u with M = W'AW and p = W u (Golub & Van Loan, *Matrix Computations*,
section 8.7), and ``solve_generalized`` takes M itself: the trainer builds
it directly in whitened coordinates Y = XW, from moments of Y, so a step
forms no W'AW sandwich and no P = WU.  A solve returns the whitened basis U,
whose columns p = W u are orthonormal under B + sI, which is exactly the
constraint the adaptation objective imposes.  The residual and the
orthonormality max|U'U - I| are measured in the whitened coordinates the
solve works in, and a solve fails when either is above 1e-6.  M is the
loop's own square operand and k at most its side, so neither is checked;
a non-finite M, as weights that overflow float64 make, is rejected by name
before LAPACK sees it.  The signs of U's columns are whatever LAPACK
returns; ``column_signs`` gives the sign convention a caller applies once
to the P it forms.

Every routine is numpy's own LAPACK, from the OpenBLAS its wheel bundles:
``np.linalg.cholesky`` for L, ``np.linalg.inv`` for L^-1, and per step
dsytrd, dstedc and dormtr, called through ctypes (``_kept_eigenpairs``).
The solver therefore never imports scipy, whose linalg module alone costs
about 0.37 s of start-up, more than a small task's whole solve.  The three
routines are the steps of ``np.linalg.eigh``'s dsyevd: dsytrd reduces M to
tridiagonal form, dstedc solves the tridiagonal problem by divide and
conquer (Gu & Eisenstat, SIAM J. Matrix Anal. Appl., 1995) and dormtr
carries the eigenvectors back.  Called one by one, they reduce a temporary
in place and carry back only the k kept columns, so a solve makes no copy
of M, no m×m output and none of dsyevd's back-transforms of the m - k
discarded vectors.  At the default side 128 with 32 pairs kept a solve took
1.5-2.0 ms single-threaded against 1.8-2.4 ms for ``eigh``; at side 2048
with 4 kept (``cdem synth``'s config on an 8800×2048 pair) a whole run fell
from 50 to 38 s.  ``_openblas`` binds every OpenBLAS routine cdem calls at
once; where it is None, every solve runs ``np.linalg.eigh`` instead.

PCA needs the other end of a spectrum: the k largest eigenpairs of a Gram
whose side can reach the feature width.  ``top_eigenpairs`` calls LAPACK's
subset driver dsyevr (RANGE='I': bisection and inverse iteration on the
tridiagonal form) from the same library when the side n is at least
SUBSET_MIN_SIDE and k is at most SUBSET_MAX_SHARE of it, and
``_kept_eigenpairs`` otherwise.  The rule is about memory as much as time:
beside the Gram, dsyevr holds n×k numbers and O(n) workspace, where the
kernel holds 2n² while dstedc runs (its n×n eigenvectors and as much
workspace), 64 MB at n = 2048.  Subset time over kernel time on random
Grams, one BLAS thread, range over two passes of medians of 3-5
interleaved runs (about half of a subset solve is the tridiagonal
reduction: on the 800-side Gram of ``wide-d``, 52 of 98-107 ms at k=128):

    n      k=1         k=32        k=128       k=256       k=410       k=512
    256    0.43-0.44   1.16-1.17   2.76-2.85
    512    0.46-0.49   0.72        1.39-1.43   2.49-2.65
    576    0.47-0.49   0.70-0.71   1.31-1.38   2.24-2.49
    640    0.51-0.52   0.66-0.68   1.10-1.21   1.96-2.25
    800    0.56-0.57   0.65-0.66   0.92-0.93   1.51-1.83
    1024   0.62-0.67   0.68-0.71   0.92-0.93   1.23-1.28
    1536                           0.75-0.77   0.97-1.04   1.17-1.25   1.30-1.35
    2048                           0.72-0.75   0.89-0.93   1.00-1.08   1.07-1.13

Of the pairs the rule admits, only k = n/5 at n = 640 is slower than the
kernel, by 10-21%, and there the kernel's 2n² is 6.6 MB.  Below
SUBSET_MIN_SIDE the subset solve wins 10-20% at k = n/10 but loses by a
quarter or more at the rule's k = n/5, against a saving of at most 6.5 MB,
so the side rule stays where it was measured against ``eigh``:

    n      k=n/10      k=n/5
    128    0.75-0.85   1.34-1.42
    200    0.86-0.94   1.22-1.37
    256    0.85-0.91   1.38
    320    0.84-0.88   1.20-1.29
    400    0.86-0.91   1.30-1.35
    512    0.88-0.93   1.24-1.31
    576    0.82-0.87   1.12-1.24
    640    0.79-0.82   1.05-1.07

Both tables are of random Grams.  On the PCA Grams the benchmark's
workloads build (seed 1, pca_dim=128) and on an Office-Home-sized pair,
timed side by side the same way (medians of 5-9 runs):

    pair, rows × features      n      dsyevr         kernel         rule picks
    wide-d, 800 × 4096         800    78.5-80.9 ms   76.8-80.0 ms   dsyevr
    pair-large-n, 2000 × 512   512    37.2-37.9 ms   25.8-26.3 ms   kernel
    Office-Home, 8800 × 2048   2048   746-761 ms     1010-1062 ms   dsyevr

None of these tables has been measured at two BLAS threads, where dsyevr took
1.07-1.08 times ``eigh`` at n = 640 and 800 with k=128.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, NumericError

# Relative ridge added to B before factorization; keeps the reduction stable
# when the centered gram matrix is numerically rank deficient.
DEFAULT_RIDGE_SCALE = 1e-9
# Largest relative residual, and largest max|U'U - I| of the whitened basis,
# a solve may return; anything above either is a bad solve, not a projection.
RESIDUAL_BOUND = 1e-6
ORTHONORMALITY_BOUND = 1e-6
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

    basis : (m, k) U, orthonormal, with LAPACK's column signs; P = WU
    eigenvalues : (k,), ascending
    eigengap : theta_{k+1} - theta_k, or None when k = m
    objective : tr(U'MU) = tr(P'AP), summed from the residual's product
    residual : max over columns of ||M u - theta u|| relative to
        ||M||_F + |theta| sqrt(m), measured in whitened coordinates; the
        numerator is ||W'(A p - theta (B + sI) p)||
    orthonormality : max|U'U - I|, which equals max|P'(B + sI)P - I|
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    eigengap: float | None
    objective: float
    residual: float
    orthonormality: float


def factor_constraint(shifted: np.ndarray) -> np.ndarray:
    """W = L^-T for the Cholesky factor L of B + sI, so that W'(B + sI)W = I.
    shifted is a square float64 matrix that equals its transpose bit for bit,
    as ``shifted_gram`` builds it; only its finiteness is checked here."""
    if not np.isfinite(shifted).all():
        raise NumericError("B has NaN or infinite entries")
    try:
        chol = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "B is not positive definite even after the ridge shift; "
            "check the feature matrix for rank collapse"
        ) from exc
    # inv() runs a pivoted LU, which can leave rounding-size entries above
    # the diagonal of L^-T; triu keeps W upper triangular by construction.
    return np.triu(np.linalg.inv(chol).T)


def solve_generalized(reduced: np.ndarray, n_components: int) -> TransformSolution:
    """Smallest n_components eigenpairs of A p = theta (B + sI) p, from
    reduced = W'AW for the W that whitens B + sI.  reduced is the loop's own
    square operand and 1 <= n_components <= m, which ``ExperimentConfig``
    and ``as_prepared`` ensure; only its finiteness is checked here."""
    if not np.isfinite(reduced).all():
        raise NumericError("W'AW is not finite: the objective weights overflow float64")
    m = reduced.shape[0]
    # Halving first keeps entries above half the float64 maximum finite; it
    # equals 0.5 * (M + M') bit for bit wherever that sum does not overflow
    # and no half is subnormal.
    half = 0.5 * reduced
    reduced = half + half.T
    eigenvalues, basis = _kept_eigenpairs(reduced.copy(), n_components, largest=False)
    theta = eigenvalues[:n_components].copy()
    product = reduced @ basis
    resid = product - basis * theta[None, :]
    # The norms square their entries, so M, the residual and theta are first
    # scaled by the power of two 2^-e that brings M's largest |eigenvalue|,
    # its 2-norm and at least max|M|, into [0.5, 1): exact in binary, so the
    # ratio is unchanged, and no square overflows however large the weights.
    e = np.frexp(np.abs(eigenvalues).max())[1]
    denom = np.linalg.norm(np.ldexp(reduced, -e)) + np.ldexp(np.abs(theta), -e) * np.sqrt(m)
    rel = np.linalg.norm(np.ldexp(resid, -e), axis=0) / denom
    if not np.isfinite(rel).all():
        raise NumericError("eigensolver produced non-finite residuals")
    if rel.max() > RESIDUAL_BOUND:
        raise NumericError(
            f"eigensolver residual {rel.max():.3e} exceeds {RESIDUAL_BOUND:g}"
        )
    orthonormality = float(np.abs(basis.T @ basis - np.eye(n_components)).max())
    if orthonormality > ORTHONORMALITY_BOUND:
        raise NumericError(
            f"eigensolver basis orthonormality {orthonormality:.3e} exceeds "
            f"{ORTHONORMALITY_BOUND:g}"
        )
    return TransformSolution(
        basis=basis,
        eigenvalues=theta,
        eigengap=float(eigenvalues[n_components] - theta[-1]) if n_components < m else None,
        objective=float(np.sum(basis * product)),
        residual=float(rel.max()),
        orthonormality=orthonormality,
    )


def column_signs(columns: np.ndarray) -> np.ndarray:
    """+1 or -1 per column, the sign that makes the column's largest-magnitude
    entry positive: the one sign convention for the PCA's eigenvectors and a
    run's projection P = WU."""
    pivots = columns[np.abs(columns).argmax(axis=0), np.arange(columns.shape[1])]
    return np.where(pivots < 0, -1.0, 1.0)


def relative_ridge(b: np.ndarray) -> float:
    """The s of B + sI: DEFAULT_RIDGE_SCALE times B's mean diagonal."""
    return DEFAULT_RIDGE_SCALE * float(np.trace(b)) / b.shape[0]


def shifted_gram(features: np.ndarray) -> np.ndarray:
    """B + sI for stacked row features (samples in rows): B = X'HX formed as
    the centered Gram C'C, so it is symmetric positive semidefinite by
    construction, and s its relative ridge."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ConfigError("features must be 2-d (samples in rows)")
    centered = f - f.mean(axis=0)
    b = centered.T @ centered
    return b + relative_ridge(b) * np.eye(b.shape[0])


def assemble_operands(features: np.ndarray) -> np.ndarray:
    """W = L^-T for the Cholesky factor L of the features' ``shifted_gram``."""
    return factor_constraint(shifted_gram(features))


@functools.cache
def _openblas() -> SimpleNamespace | None:
    """Every OpenBLAS routine cdem calls, bound once from the library numpy's
    linalg module links against (numpy's wheels export each ILP64 routine
    as ``scipy_<name>64_``), as one namespace named by the table below; or
    None where that library cannot be opened or lacks any of them, and then
    every caller takes numpy's own path.  Opened on first use, so importing
    cdem pays nothing."""
    from numpy.ctypeslib import ndpointer

    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    int_, char, int64, double = ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_double
    # writeable arrays: float64 column- and row-major matrices, vectors; int64 vectors
    matrix = ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
    rows = ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    vector = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    indices = ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    # symbol: (restype, *argtypes), bound as the name after its first "_"
    table = {
        # matrix_layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
        # m, w, z, ldz, isuppz
        "LAPACKE_dsyevr": (
            int64, int_, char, char, char, int64, matrix, int64, double, double, int64,
            int64, double, indices, vector, matrix, int64, indices,
        ),
        # matrix_layout, uplo, n, a, lda, d, e, tau
        "LAPACKE_dsytrd": (int64, int_, char, int64, matrix, int64, vector, vector, vector),
        # matrix_layout, compz, n, d, e, z, ldz
        "LAPACKE_dstedc": (int64, int_, char, int64, vector, vector, matrix, int64),
        # matrix_layout, side, uplo, trans, m, n, a, lda, tau, c, ldc
        "LAPACKE_dormtr": (
            int64, int_, char, char, char, int64, int64, matrix, int64, vector, matrix, int64,
        ),
        # order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc
        "cblas_dsyrk": (
            None, int_, int_, int_, int64, int64, double, rows, int64, double, rows, int64,
        ),
        "openblas_get_num_threads": (int_,),
        # num_threads
        "openblas_set_num_threads": (None, int_),
    }
    routines = {}
    for name, (restype, *argtypes) in table.items():
        fn = getattr(library, f"scipy_{name}64_", None)
        if fn is None:
            return None
        fn.restype, fn.argtypes = restype, argtypes
        routines[name.split("_", 1)[1]] = fn
    return SimpleNamespace(**routines)


def _check_info(routine: str, info: int) -> None:
    # LAPACKE checks its input arrays for NaN first and reports the first
    # such argument as a negative info.
    if info != 0:
        raise NumericError(f"LAPACK {routine} failed with info={info}")


def _kept_eigenpairs(mat: np.ndarray, k: int, largest: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of the symmetric n×n mat, ascending, and the
    eigenvectors of its k smallest (largest=False) or k largest, as columns
    in the same ascending order.

    mat is the caller's C-contiguous float64 temporary, overwritten here;
    only its lower triangle is read.  dsytrd reduces it to tridiagonal form
    in place, dstedc (divide and conquer, Gu & Eisenstat, 1995) solves the
    tridiagonal problem, and dormtr carries back only the k kept columns:
    the steps of np.linalg.eigh's dsyevd without its copy of mat, its n×n
    output or the back-transform of the n - k discarded vectors.  Where
    ``_openblas`` is None, np.linalg.eigh runs instead.
    """
    n = mat.shape[0]
    lapack = _openblas()
    if lapack is None:
        values, vectors = np.linalg.eigh(mat)
        return values, vectors[:, n - k :] if largest else vectors[:, :k]
    diagonal, off_diagonal, tau = np.empty(n), np.empty(n), np.empty(n)
    # mat.T is mat's own buffer read column-major; its upper triangle is the
    # lower one of mat, the triangle np.linalg.eigh (UPLO='L') reads.
    packed = mat.T
    info = lapack.dsytrd(_LAPACK_COL_MAJOR, b"U", n, packed, n, diagonal, off_diagonal, tau)
    _check_info("dsytrd", info)
    vectors = np.empty((n, n), order="F")
    info = lapack.dstedc(_LAPACK_COL_MAJOR, b"I", n, diagonal, off_diagonal, vectors, n)
    _check_info("dstedc", info)
    kept = vectors[:, n - k :] if largest else vectors[:, :k]
    info = lapack.dormtr(_LAPACK_COL_MAJOR, b"L", b"U", b"N", n, k, packed, n, tau, kept, n)
    _check_info("dormtr", info)
    return diagonal, kept.copy(order="F")


def top_eigenpairs(gram: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric n×n gram, descending, and
    their eigenvectors as columns, from LAPACK's subset solve dsyevr or
    ``_kept_eigenpairs`` by the rule in the module docstring.  gram is the
    caller's C-contiguous float64 temporary: either solve overwrites it.
    Both read only its lower triangle, so a caller need fill only that one.
    """
    n = gram.shape[0]
    lapack = _openblas()
    if lapack is None or n < SUBSET_MIN_SIDE or k > SUBSET_MAX_SHARE * n:
        evals, evecs = _kept_eigenpairs(gram, k, largest=True)
        return evals[::-1][:k], evecs[:, ::-1]
    count = np.zeros(1, dtype=np.int64)
    evals = np.empty(n)
    evecs = np.empty((n, k), order="F")
    support = np.empty(2 * k, dtype=np.int64)
    # the same lower triangle as _kept_eigenpairs reads
    info = lapack.dsyevr(
        _LAPACK_COL_MAJOR, b"V", b"I", b"U", n, gram.T, n, 0.0, 0.0, n - k + 1, n, 0.0,
        count, evals, evecs, n, support,
    )
    _check_info("dsyevr", info)
    if count[0] != k:
        raise NumericError(f"LAPACK dsyevr returned {count[0]} of {k} eigenpairs")
    return evals[k - 1::-1], evecs[:, ::-1]
