"""PCA and row normalization properties."""

from __future__ import annotations

import numpy as np
import pytest

from cdem.errors import ConfigError, DegenerateDataError
from cdem.preprocess import RANK_RTOL, fit_pca, normalize_rows


def test_line_data_gives_diagonal_direction():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    model = fit_pca(x, 1)
    expected = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert np.allclose(model.basis, expected, atol=1e-12)


def test_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 6))
    model = fit_pca(x, 6)
    for j in range(6):
        col = model.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    # flipping the input data must flip nothing about the convention
    model2 = fit_pca(-x, 6)
    for j in range(6):
        col = model2.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_basis_orthonormal_and_variance_sorted():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(2, 16))
        m = int(rng.integers(1, min(n, d) + 1))
        x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        model = fit_pca(x, m)
        gram = model.basis.T @ model.basis
        assert np.abs(gram - np.eye(m)).max() <= 1e-8
        assert (np.diff(model.explained_variance) <= 1e-12).all()
        assert (model.explained_variance >= -1e-12).all()


def test_projection_preserves_subspace_inner_products():
    # Gram matrix of projected data must match projection onto the leading
    # eigenspace of the covariance, computed independently
    rng = np.random.default_rng(19)
    for _ in range(5):
        n, d, m = 30, 8, 4
        x = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        model = fit_pca(x, m)
        z = (x - model.mean) @ model.basis
        centered = x - x.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered / (n - 1))
        top = evecs[:, ::-1][:, :m]
        ref = centered @ top
        assert np.abs(z @ z.T - ref @ ref.T).max() <= 1e-8 * max(1.0, np.abs(ref).max() ** 2)


def test_explained_variance_matches_covariance_eigenvalues():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((50, 7)) * np.array([5, 3, 2, 1, 1, 0.5, 0.1])
    model = fit_pca(x, 7)
    centered = x - x.mean(axis=0)
    evals = np.linalg.eigvalsh(centered.T @ centered / 49)[::-1]
    assert np.allclose(model.explained_variance, evals, atol=1e-10)


def test_component_bounds():
    x = np.random.default_rng(1).standard_normal((5, 3))
    with pytest.raises(ConfigError):
        fit_pca(x, 4)
    with pytest.raises(ConfigError):
        fit_pca(x, 0)


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
    # (features, n_components, centered rank falls short of n_components);
    # the wide cases with full rank take the Cholesky QR, the rank-deficient
    # one the Householder QR
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
    model = fit_pca(x, m)
    centered = x - x.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    assert np.abs(model.basis.T @ model.basis - np.eye(m)).max() <= 1e-10
    z = (x - model.mean) @ model.basis
    ref = centered @ vt[:m].T
    ref_gram = ref @ ref.T
    assert np.abs(z @ z.T - ref_gram).max() <= 1e-8 * np.abs(ref_gram).max()
    ref_variance = singular[:m] ** 2 / (n - 1)
    assert np.abs(model.explained_variance - ref_variance).max() <= 1e-10 * ref_variance[0]
    # column j carries the j-th largest variance, not just the right subspace
    assert np.abs(z.var(axis=0, ddof=1) - ref_variance).max() <= 1e-10 * ref_variance[0]
    if short:
        assert model.explained_variance[-1] <= 1e-10 * ref_variance[0]
    for j in range(m):
        col = model.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_wide_cholesky_qr_matches_householder_qr_near_rank_tolerance():
    rng = np.random.default_rng(37)
    n, d = 60, 200
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((d, n)))[0]
    x = (u * np.geomspace(1.0, 1e-4, n)) @ v.T
    centered = x - x.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered @ centered.T)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    # the smallest requested eigenvalue sits just above the rank tolerance
    m = int(np.count_nonzero(evals > 1.5 * RANK_RTOL * evals[0]))
    assert evals[m - 1] < 1e-7 * evals[0]
    model = fit_pca(x, m)
    ref = np.linalg.qr(centered.T @ evecs[:, :m])[0]
    ref *= np.where(ref[np.abs(ref).argmax(axis=0), np.arange(m)] < 0, -1.0, 1.0)
    assert np.abs(model.basis - ref).max() <= 1e-12
    assert np.abs(model.basis.T @ model.basis - np.eye(m)).max() <= 1e-12


def test_zero_variance_rejected():
    with pytest.raises(DegenerateDataError):
        fit_pca(np.ones((6, 3)), 1)
    with pytest.raises(DegenerateDataError):
        fit_pca(np.ones((3, 6)), 1)


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
