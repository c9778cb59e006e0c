"""PCA scores and row normalization applied before adaptation.

The PCA is transductive: it scores exactly the rows it is fit on, so it
returns those scores and keeps no mean or basis to apply elsewhere.  It
takes those rows as separate blocks, a pair's two domains as they were read,
and centers them piece by piece, so no stacked or centered copy of the pair
is ever formed."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .eigsolve import top_eigenpairs
from .errors import ConfigError, DegenerateDataError


def _centered_pieces(blocks: list[np.ndarray], mean: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of the stacked blocks minus mean, piece by piece, each
    written over one reused buffer no larger than the Gram: with fewer rows
    n than columns d, all n rows of at most n columns at a time; else at
    most d rows of one block at a time, in stacked order.  Each piece is
    valid until the next one is made."""
    n, d = sum(block.shape[0] for block in blocks), mean.size
    buffer = np.empty(min(n, d) ** 2)
    if n < d:
        for start in range(0, d, n):
            width = min(n, d - start)
            columns = slice(start, start + width)
            piece = buffer[: n * width].reshape(n, width)
            row = 0
            for block in blocks:
                np.subtract(block[:, columns], mean[columns], out=piece[row : row + block.shape[0]])
                row += block.shape[0]
            yield piece
        return
    for block in blocks:
        for start in range(0, block.shape[0], d):
            rows = block[start : start + d]
            piece = buffer[: rows.size].reshape(rows.shape)
            np.subtract(rows, mean, out=piece)
            yield piece


def fit_pca(*blocks: np.ndarray, n_components: int) -> np.ndarray:
    """PCA scores of the rows of the blocks, stacked in order (the blocks
    share their width d; n rows in all): n × n_components, column j along
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
    (Chan, Golub & LeVeque, 1979): pieces of at most d rows of one block
    for C'C, of all rows and at most n columns for CC', each centered into
    one reused buffer (``_centered_pieces``), so no temporary is larger than
    the Gram.  The tall scores C V_k are formed piece by piece the same way.

    The eigensolve is ``eigsolve.top_eigenpairs``, whose docstring gives
    its rule for LAPACK's subset driver dsyevr and the timings behind it.

    A Gram that overflows float64 (features near 1e160 and up) raises
    DegenerateDataError.  Each kept Gram eigenvector is flipped so that its
    largest-magnitude entry is positive, which makes the result a pure
    function of the input bytes.  The blocks are never modified.
    """
    blocks = [np.asarray(block, dtype=np.float64) for block in blocks]
    n, d = sum(block.shape[0] for block in blocks), blocks[0].shape[1]
    if n_components < 1 or n_components > min(n, d):
        raise ConfigError(
            f"n_components={n_components} not in [1, min(n={n}, d={d})]"
        )
    mean = sum(block.sum(axis=0) for block in blocks) / n
    wide = n < d
    gram = np.zeros((min(n, d), min(n, d)))
    product = np.empty_like(gram)
    with np.errstate(over="ignore", invalid="ignore"):
        for piece in _centered_pieces(blocks, mean):
            gram += np.matmul(*((piece, piece.T) if wide else (piece.T, piece)), out=product)
    del product  # not held through the eigensolve's workspace
    if not np.isfinite(gram).all():
        raise DegenerateDataError("feature magnitudes overflow float64 in the PCA Gram")
    evals, evecs = top_eigenpairs(gram, n_components)
    del gram  # nor through the tall scores' pass
    if evals[0] <= 0.0:
        raise DegenerateDataError("all samples identical: no variance to project")
    pivots = evecs[np.abs(evecs).argmax(axis=0), np.arange(n_components)]
    evecs = evecs * np.where(pivots < 0, -1.0, 1.0)
    if wide:
        return evecs * np.sqrt(np.maximum(evals, 0.0))
    scores = np.empty((n, n_components))
    row = 0
    for piece in _centered_pieces(blocks, mean):
        np.matmul(piece, evecs, out=scores[row : row + piece.shape[0]])
        row += piece.shape[0]
    return scores


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean length."""
    x = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateDataError(f"row {row} has zero norm, cannot normalize")
    return x / norms[:, None]
