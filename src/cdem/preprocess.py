"""PCA scores and row normalization applied before adaptation.

The PCA is transductive: it scores exactly the rows it is fit on, so it
returns those scores and keeps no mean or basis to apply elsewhere.  It
takes rows already centered (``trainer.preprocess_rows`` centers in place)."""

from __future__ import annotations

import numpy as np

from .eigsolve import top_eigenpairs
from .errors import ConfigError, DegenerateDataError


def fit_pca(features: np.ndarray, n_components: int) -> np.ndarray:
    """PCA scores of the rows of features, which are already centered (every
    column mean zero): n × n_components, column j along the j-th largest
    principal direction.

    The top eigenpairs come from one eigensolve of the Gram on the smaller
    side of the centered data C, so the cost follows min(n, d).  When n ≥ d
    the Gram is C'C (d×d) and the scores are C V_k.  When n < d it is CC'
    (n×n), and the scores are U_k √λ_k, the dual-PCA identity of kernel PCA
    (Schölkopf, Smola & Müller, 1998): C = U S V' gives C V_k = U_k S_k, so
    no d×k basis is formed.  On that side a component past the centered rank
    has a rounding-noise eigenvalue, clamped at zero, and a score column
    that is zero or of order √(eps λ₁).

    The eigensolve is ``eigsolve.top_eigenpairs``, whose docstring gives
    its rule for LAPACK's subset driver dsyevr and the timings behind it.

    A Gram that overflows float64 (features near 1e160 and up) raises
    DegenerateDataError.  Each kept Gram eigenvector is flipped so that its
    largest-magnitude entry is positive, which makes the result a pure
    function of the input bytes.  The input is never modified.
    """
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape
    if n_components < 1 or n_components > min(n, d):
        raise ConfigError(
            f"n_components={n_components} not in [1, min(n={n}, d={d})]"
        )
    wide = n < d
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T if wide else x.T @ x
    if not np.isfinite(gram).all():
        raise DegenerateDataError("feature magnitudes overflow float64 in the PCA Gram")
    evals, evecs = top_eigenpairs(gram, n_components)
    if evals[0] <= 0.0:
        raise DegenerateDataError("all samples identical: no variance to project")
    pivots = evecs[np.abs(evecs).argmax(axis=0), np.arange(n_components)]
    evecs = evecs * np.where(pivots < 0, -1.0, 1.0)
    if wide:
        return evecs * np.sqrt(np.maximum(evals, 0.0))
    return x @ evecs


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean length."""
    x = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateDataError(f"row {row} has zero norm, cannot normalize")
    return x / norms[:, None]
