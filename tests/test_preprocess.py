"""PCA and row normalization properties."""

from __future__ import annotations

import numpy as np
import pytest

from cdem import eigsolve, preprocess
from cdem.errors import ConfigError, DegenerateDataError
from cdem.preprocess import fit_pca, normalize_rows


def _blocks(x):
    """x's rows as two blocks, split a third of the way down."""
    return x[: x.shape[0] // 3], x[x.shape[0] // 3 :]


def _pca(x, m):
    """fit_pca's scores of x's rows, passed as the two ``_blocks``."""
    return fit_pca(*_blocks(x), n_components=m)


def _gram_eigenvectors(x, z):
    """The kept eigenvectors of the Gram on x's smaller centered side,
    recovered from the scores z up to positive column scales: C = U S V'
    and z = U_k S_k give z itself for CC' and C'z = V_k S_k² for C'C."""
    centered = x - x.mean(axis=0)
    return z if x.shape[0] < x.shape[1] else centered.T @ z


def _svd_scores(x, m):
    """U_k S_k of the centered x's thin SVD, each U column flipped so that
    its largest-magnitude entry is positive."""
    u, singular, _ = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    u = u[:, :m] * np.where(u[np.abs(u[:, :m]).argmax(axis=0), np.arange(m)] < 0, -1.0, 1.0)
    return u * singular[:m]


def test_line_data_gives_diagonal_direction():
    # tall: the scores are signed distances along (1, 1)/sqrt(2)
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    expected = (np.arange(4.0) - 1.5)[:, None] * np.sqrt(2.0)
    assert np.allclose(_pca(x, 1), expected, atol=1e-12)
    # wide: three points on a line in five dimensions
    direction = np.array([1.0, -2.0, 0.0, 2.0, 4.0])
    t = np.array([0.0, 1.0, 3.0])
    expected = (t - t.mean())[:, None] * np.linalg.norm(direction)
    assert np.allclose(_pca(t[:, None] * direction, 1), expected, atol=1e-12)


def test_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    for shape in ((40, 6), (6, 40)):
        x = rng.standard_normal(shape)
        m = min(shape) - 1
        z, z_negated = _pca(x, m), _pca(-x, m)
        for source, scores in ((x, z), (-x, z_negated)):
            vecs = _gram_eigenvectors(source, scores)
            assert (vecs[np.abs(vecs).argmax(axis=0), np.arange(m)] > 0).all()
        # negating the input leaves the Gram's bytes and so the convention
        # alone: the tall scores negate exactly, the wide ones do not move
        assert np.array_equal(z_negated, z if shape[0] < shape[1] else -z)


def test_basis_orthonormal_and_variance_sorted():
    # scores along orthonormal directions have a diagonal Gram, Lambda_k
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(2, 16))
        m = int(rng.integers(1, min(n, d) + 1))
        x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        z = _pca(x, m)
        gram = z.T @ z
        variance = np.diag(gram) / (n - 1)
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-8 * gram[0, 0]
        assert (np.diff(variance) <= 1e-12 * variance[0]).all()


def test_projection_preserves_subspace_inner_products():
    # Gram matrix of projected data must match projection onto the leading
    # eigenspace of the covariance, computed independently
    rng = np.random.default_rng(19)
    for _ in range(5):
        n, d, m = 30, 8, 4
        x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        z = _pca(x, m)
        centered = x - x.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered / (n - 1))
        top = evecs[:, ::-1][:, :m]
        ref = centered @ top
        assert np.abs(z @ z.T - ref @ ref.T).max() <= 1e-8 * max(1.0, np.abs(ref).max() ** 2)


def test_explained_variance_matches_covariance_eigenvalues():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((50, 7)) * np.array([5, 3, 2, 1, 1, 0.5, 0.1])
    z = _pca(x, 7)
    centered = x - x.mean(axis=0)
    evals = np.linalg.eigvalsh(centered.T @ centered / 49)[::-1]
    assert np.allclose(z.var(axis=0, ddof=1), evals, atol=1e-10)


@pytest.mark.parametrize("shape", [(90, 7), (9, 70)], ids=["tall", "wide"])
def test_scores_independent_of_how_the_rows_are_split(shape):
    # Read-only blocks raise on any write; a split moves only the order in
    # which the pooled mean and the Gram pieces are summed.
    x = np.random.default_rng(5).standard_normal(shape) + 3.0
    x.flags.writeable = False
    m = min(shape) - 2
    whole = fit_pca(x, n_components=m)
    n = shape[0]
    for cuts in ((1,), (n // 2,), (n - 1,), (2, n // 2)):
        blocks = np.split(x, cuts)
        split = fit_pca(*blocks, n_components=m)
        assert np.abs(split - whole).max() <= 1e-12 * np.abs(whole).max()


def test_component_bounds():
    x = np.random.default_rng(1).standard_normal((5, 3))
    with pytest.raises(ConfigError):
        fit_pca(x, n_components=4)
    with pytest.raises(ConfigError):
        fit_pca(x, n_components=0)


def _svd_reference_cases():
    rng = np.random.default_rng(31)
    tall = rng.standard_normal((40, 12)) @ rng.standard_normal((12, 12))
    wide = rng.standard_normal((15, 60))
    # 12 rows centered around their mean span only 11 directions
    wide_short = rng.standard_normal((12, 40))
    tall_short = rng.standard_normal((30, 8))
    tall_short[:, 7] = tall_short[:, 2]
    tall_few = rng.standard_normal((50, 20)) @ rng.standard_normal((20, 20))
    wide_few = rng.standard_normal((16, 70))
    # (features, n_components, centered rank falls short of n_components)
    return {
        "tall": (tall, 9, False),
        "wide": (wide, 10, False),
        "wide-rank-deficient": (wide_short, 12, True),
        "tall-rank-deficient": (tall_short, 8, True),
        "tall-few": (tall_few, 6, False),
        "wide-few": (wide_few, 5, False),
    }


@pytest.mark.parametrize("case", sorted(_svd_reference_cases()))
def test_matches_svd_reference_on_both_gram_sides(case):
    x, m, short = _svd_reference_cases()[case]
    n = x.shape[0]
    z = _pca(x, m)
    assert z.shape == (n, m)
    ref = _svd_scores(x, m)
    ref_gram = ref @ ref.T
    assert np.abs(z @ z.T - ref_gram).max() <= 1e-8 * np.abs(ref_gram).max()
    ref_variance = ref.var(axis=0, ddof=1)
    # column j carries the j-th largest variance, not just the right subspace
    assert np.abs(z.var(axis=0, ddof=1) - ref_variance).max() <= 1e-10 * ref_variance[0]
    gram = z.T @ z
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-10 * gram[0, 0]
    kept = m - 1 if short else m
    if short:
        assert z[:, -1].var(ddof=1) <= 1e-10 * ref_variance[0]
    vecs = _gram_eigenvectors(x, z)[:, :kept]
    assert (vecs[np.abs(vecs).argmax(axis=0), np.arange(kept)] > 0).all()
    # same sign rule on the same side: the columns agree, not only their span
    if n < x.shape[1]:
        assert np.abs(z[:, :kept] - ref[:, :kept]).max() <= 1e-10 * np.abs(ref).max()


def test_wide_scores_match_svd_near_rank_tolerance():
    # Singular values fall over four decades, so the smallest kept eigenvalue
    # of CC' is about 1e-8 of the largest: there the square root of a
    # rounded eigenvalue is furthest, relatively, from the singular value.
    rng = np.random.default_rng(37)
    n, d = 60, 200
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((d, n)))[0]
    x = (u * np.geomspace(1.0, 1e-4, n)) @ v.T
    centered = x - x.mean(axis=0)
    evals = np.linalg.eigvalsh(centered @ centered.T)[::-1]
    m = int(np.count_nonzero(evals > 1.5e-8 * evals[0]))
    assert evals[m - 1] < 1e-7 * evals[0]
    z = _pca(x, m)
    assert np.abs(z - _svd_scores(x, m)).max() <= 1e-12
    assert np.abs(z.T @ z - np.diag(evals[:m])).max() <= 1e-12


def _full_eigh_scores(x, m):
    """fit_pca's scores of x's ``_blocks`` from one full np.linalg.eigh of
    the Gram on the smaller side of their centered rows C, with its sign rule
    and its summation order: the pooled mean is the blocks' column sums over
    n, and the Gram and the tall scores C V_k are summed and formed piece by
    piece, each piece at most ``_PIECE`` rows of one block for C'C and all
    rows of at most ``_PIECE`` columns for CC'."""
    blocks = _blocks(x)
    (n, d), wide = x.shape, x.shape[0] < x.shape[1]
    mean = sum(block.sum(axis=0) for block in blocks) / n
    size = preprocess._PIECE
    if wide:
        centered = np.vstack(blocks) - mean
        pieces = [np.ascontiguousarray(centered[:, j : j + size]) for j in range(0, d, size)]
    else:
        pieces = [
            block[i : i + size] - mean for block in blocks for i in range(0, len(block), size)
        ]
    gram = sum(p @ p.T if wide else p.T @ p for p in pieces)
    values, vectors = np.linalg.eigh(gram)
    values, vectors = values[::-1][:m], vectors[:, ::-1][:, :m]
    pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(m)]
    vectors = vectors * np.where(pivots < 0, -1.0, 1.0)
    if wide:
        return vectors * np.sqrt(np.maximum(values, 0.0))
    return np.vstack([p @ vectors for p in pieces])


def _above_crossover(shape):
    """Features whose Gram side is SUBSET_MIN_SIDE, with singular values
    spaced evenly from 2 to 1 so the kept eigenvectors are well separated."""
    n, d = shape
    rng = np.random.default_rng(n + d)
    rank = min(n, d)
    u = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((d, rank)))[0]
    return (u * np.linspace(2.0, 1.0, rank)) @ v.T


CROSSOVER_SHAPES = {
    "wide": (eigsolve.SUBSET_MIN_SIDE, 900),
    "tall": (900, eigsolve.SUBSET_MIN_SIDE),
}


needs_openblas = pytest.mark.skipif(
    eigsolve._openblas() is None,
    reason="numpy's linalg library lacks a routine cdem binds",
)


def _counted(monkeypatch, routine):
    """A list that gains one entry per call of the bound routine."""
    calls = []
    routines = eigsolve._openblas()
    bound = getattr(routines, routine)
    monkeypatch.setattr(routines, routine, lambda *args: calls.append(1) or bound(*args))
    return calls


@needs_openblas
@pytest.mark.parametrize("shape", sorted(CROSSOVER_SHAPES))
def test_subset_solve_scores_match_full_eigh(shape, monkeypatch):
    calls = _counted(monkeypatch, "dsyevr")
    x = _above_crossover(CROSSOVER_SHAPES[shape])
    z, ref = _pca(x, 128), _full_eigh_scores(x, 128)
    assert calls == [1]
    assert np.abs(z - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("shape", sorted(CROSSOVER_SHAPES))
def test_without_subset_solver_scores_are_full_eigh_bytes(shape, monkeypatch):
    # numpy alone: dsyrk's blocked sums differ from matmul plus add in the
    # last bits, and the kernel's back-transform from eigh's, so the byte
    # pin holds on the fallback Gram and eigensolve only.
    monkeypatch.setattr(eigsolve, "_openblas", lambda: None)
    x = _above_crossover(CROSSOVER_SHAPES[shape])
    assert np.array_equal(_pca(x, 128), _full_eigh_scores(x, 128))


@needs_openblas
@pytest.mark.parametrize("shape", sorted(CROSSOVER_SHAPES))
def test_dsyrk_gram_scores_match_the_matmul_fallback(shape, monkeypatch):
    calls = _counted(monkeypatch, "dsyrk")
    x = _above_crossover(CROSSOVER_SHAPES[shape])
    z = _pca(x, 128)
    assert calls
    monkeypatch.setattr(eigsolve, "_openblas", lambda: None)
    ref = _pca(x, 128)
    assert np.abs(z - ref).max() <= 1e-12 * np.abs(ref).max()


def test_zero_variance_rejected():
    with pytest.raises(DegenerateDataError):
        _pca(np.ones((6, 3)), 1)
    with pytest.raises(DegenerateDataError):
        _pca(np.ones((3, 6)), 1)


def test_normalize_rows_fixed_example():
    out = normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_normalize_rows_unit_norm_and_zero_row():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 5))
    out = normalize_rows(x)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12
    x[3] = 0.0
    with pytest.raises(DegenerateDataError):
        normalize_rows(x)
