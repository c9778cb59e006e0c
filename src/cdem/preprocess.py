"""PCA scores and row normalization applied before adaptation.

The PCA is transductive: it scores exactly the rows it is fit on, so it
returns those scores and keeps no mean or basis to apply elsewhere.  It
takes those rows as separate blocks, a pair's two domains as they were read,
and centers them piece by piece, so no stacked or centered copy of the pair
is ever formed.  Each piece is added into the Gram in place by BLAS dsyrk
(from ``eigsolve._openblas``, like the eigensolve's LAPACK), so no product
of Gram size is formed either, and pieces have at most 256 rows or
columns, so the Gram is the PCA's only array of its size."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import eigsolve, matio
from .eigsolve import column_signs, top_eigenpairs
from .errors import ConfigError, DataError, DegenerateDataError

# CBLAS enum codes: row-major storage, lower triangle, C = AA' or C = A'A.
_CBLAS_ROW_MAJOR, _CBLAS_LOWER = 101, 122
_CBLAS_NO_TRANS, _CBLAS_TRANS = 111, 112
# Rows (n >= d) or columns (n < d) per centered piece of the Gram's sum.
# fit_pca took as long with 256 as with pieces of the Gram's own side on
# 1000+1000 rows × 512 and on 400+400 rows × 4096 (one BLAS thread), and
# 1-4% longer with 128.
_PIECE = 256


def _centered_pieces(blocks: list[np.ndarray], mean: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of the stacked blocks minus mean, piece by piece, each
    written over one reused buffer: with fewer rows n than columns d, all n
    rows of at most _PIECE columns at a time; else at most _PIECE rows of
    one block at a time, in stacked order.  Each piece is valid until the
    next one is made."""
    n, d = sum(block.shape[0] for block in blocks), mean.size
    if n < d:
        buffer = np.empty(n * min(d, _PIECE))
        for start in range(0, d, _PIECE):
            columns = slice(start, min(start + _PIECE, d))
            piece = buffer[: n * (columns.stop - start)].reshape(n, -1)
            row = 0
            for block in blocks:
                np.subtract(block[:, columns], mean[columns], out=piece[row : row + block.shape[0]])
                row += block.shape[0]
            yield piece
        return
    buffer = np.empty(min(max(block.shape[0] for block in blocks), _PIECE) * d)
    for block in blocks:
        for start in range(0, block.shape[0], _PIECE):
            rows = block[start : start + _PIECE]
            piece = buffer[: rows.size].reshape(rows.shape)
            np.subtract(rows, mean, out=piece)
            yield piece


def fit_pca(*blocks: np.ndarray, n_components: int) -> np.ndarray:
    """PCA scores of the rows of the blocks, stacked in order (at least one
    block, each passing ``matio.as_matrix``, all sharing their width d, else
    DataError; n rows in all): n × n_components, column j along
    the j-th largest principal direction of the rows centered on their
    pooled mean.

    The top eigenpairs come from one eigensolve of the Gram on the smaller
    side of the centered rows C, so the cost follows min(n, d).  When n ≥ d
    the Gram is C'C (d×d) and the scores are C V_k.  When n < d it is CC'
    (n×n), and the scores are U_k √λ_k, the dual-PCA identity of kernel PCA
    (Schölkopf, Smola & Müller, 1998): C = U S V' gives C V_k = U_k S_k, so
    no d×k basis is formed.  On that side a component past the centered rank
    has a rounding-noise eigenvalue, clamped at zero, and a score column
    that is zero or of order √(eps λ₁).

    C is never formed.  The pooled Gram is a sum of per-piece products
    (Chan, Golub & LeVeque, 1979): pieces of at most 256 rows of one block
    for C'C, of all rows and at most 256 columns for CC', each centered into
    one reused buffer (``_centered_pieces``) of at most 256 × min(n, d)
    numbers, so the Gram is the only array of its size.  BLAS dsyrk
    (Dongarra, Du Croz, Hammarling & Duff, 1990) adds each piece's product
    into the Gram's lower triangle in place, the only triangle
    ``top_eigenpairs`` reads; where ``eigsolve._openblas`` is None, the
    product goes through one reused array and an add.  The two paths' Grams
    were bitwise equal at 1 and 2 BLAS threads on both of
    ``tests/test_preprocess.py``'s ``CROSSOVER_SHAPES`` (640×900 and
    900×640, pieces of 256).
    The tall scores C V_k are formed piece by piece the same way.

    The eigensolve is ``eigsolve.top_eigenpairs``, which overwrites the
    Gram and back-transforms only the kept eigenvectors; its module
    docstring gives the rule for LAPACK's subset driver dsyevr and the
    timings behind it.

    A Gram that overflows float64 raises DegenerateDataError, and so do one
    that underflows to no variance and rows that are all identical, each
    with its own message (on 200 rows of 64 features, a global scale of
    1e153 and up overflows and one of 1e-163 and down underflows).  Each
    kept Gram eigenvector is flipped so that its largest-magnitude entry is
    positive (``eigsolve.column_signs``), which makes the result a pure
    function of the input bytes.  The blocks are never modified.
    """
    if not blocks:
        raise DataError("PCA needs at least one block")
    blocks = [matio.as_matrix(block, f"PCA block {i}") for i, block in enumerate(blocks)]
    n, d = sum(block.shape[0] for block in blocks), blocks[0].shape[1]
    if any(block.shape[1] != d for block in blocks):
        raise DataError(f"PCA blocks differ in width: {[block.shape[1] for block in blocks]}")
    if n_components < 1 or n_components > min(n, d):
        raise ConfigError(
            f"n_components={n_components} not in [1, min(n={n}, d={d})]"
        )
    mean = sum(block.sum(axis=0) for block in blocks) / n
    wide = n < d
    side = min(n, d)
    gram = np.zeros((side, side))
    blas = eigsolve._openblas()
    product = np.empty_like(gram) if blas is None else None
    with np.errstate(over="ignore", invalid="ignore"):
        for piece in _centered_pieces(blocks, mean):
            if blas is None:
                gram += np.matmul(*((piece, piece.T) if wide else (piece.T, piece)), out=product)
            else:
                rows, cols = piece.shape
                blas.dsyrk(
                    _CBLAS_ROW_MAJOR, _CBLAS_LOWER, _CBLAS_NO_TRANS if wide else _CBLAS_TRANS,
                    side, cols if wide else rows, 1.0, piece, cols, 1.0, gram, side,
                )
    # Neither the product nor the last piece's buffer is held through the
    # eigensolve's workspace.
    del product, piece
    if not np.isfinite(gram).all():
        raise DegenerateDataError("feature magnitudes overflow float64 in the PCA Gram")
    evals, evecs = top_eigenpairs(gram, n_components)
    del gram  # nor through the tall scores' pass
    if evals[0] <= 0.0:
        first = blocks[0][0]
        if any((block != first).any() for block in blocks):
            raise DegenerateDataError("feature magnitudes underflow float64 in the PCA Gram")
        raise DegenerateDataError("all samples identical: no variance to project")
    evecs = evecs * column_signs(evecs)
    if wide:
        return evecs * np.sqrt(np.maximum(evals, 0.0))
    scores = np.empty((n, n_components))
    row = 0
    for piece in _centered_pieces(blocks, mean):
        np.matmul(piece, evecs, out=scores[row : row + piece.shape[0]])
        row += piece.shape[0]
    return scores


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Scale every row of a float64 matrix, such as ``fit_pca``'s scores,
    to unit Euclidean length."""
    norms = np.linalg.norm(features, axis=1)
    if (norms == 0.0).any():
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateDataError(f"row {row} has zero norm, cannot normalize")
    return features / norms[:, None]
