"""Generalized eigensolver: frozen cases, invariants, reference agreement."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from cdem import eigsolve, selftest
from cdem.eigsolve import (
    SUBSET_MIN_SIDE,
    assemble_operands,
    column_signs,
    factor_constraint,
    relative_ridge,
    shifted_gram,
    solve_generalized,
    top_eigenpairs,
)
from cdem.errors import DataError, NumericError


def _solve(a, whiten, k):
    """solve_generalized on an A given in the coordinates of B."""
    return solve_generalized(whiten.T @ a @ whiten, k)


def _projection(whiten, sol):
    """P = WU with the sign convention a run applies once, at its end."""
    projection = whiten @ sol.basis
    return projection * column_signs(projection)


def test_diagonal_case():
    a = np.diag([3.0, 1.0, 2.0])
    whiten = factor_constraint(np.eye(3))
    sol = _solve(a, whiten, 2)
    assert np.allclose(sol.eigenvalues, [1.0, 2.0], atol=1e-12)
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    projection = _projection(whiten, sol)
    assert np.allclose(np.abs(projection), expected, atol=1e-12)
    # sign convention: the dominant entry of each column is positive
    assert projection[1, 0] > 0 and projection[2, 1] > 0


def test_column_signs_make_each_largest_magnitude_entry_positive():
    columns = np.array([[1.0, -3.0, 0.5], [-2.0, 1.0, 0.25], [0.5, 2.0, -0.5]])
    assert np.array_equal(column_signs(columns), [-1.0, -1.0, 1.0])
    fixed = columns * column_signs(columns)
    assert (fixed[np.abs(fixed).argmax(axis=0), np.arange(3)] > 0).all()
    # a column flipped beforehand gets the opposite sign and the same result
    assert np.array_equal(-columns * column_signs(-columns), fixed)


def test_identical_operands_give_unit_eigenvalues():
    rng = np.random.default_rng(8)
    root = rng.standard_normal((6, 6))
    b = root @ root.T + np.eye(6)
    sol = _solve(b, factor_constraint(b), 4)
    assert np.allclose(sol.eigenvalues, np.ones(4), atol=1e-10)


def test_eigenvalues_ascending_and_b_orthonormal():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = int(rng.integers(2, 20))
        k = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, m))
        a = 0.5 * (a + a.T)
        root = rng.standard_normal((m, m))
        b = root @ root.T + 0.25 * np.eye(m)
        whiten = factor_constraint(b)
        sol = _solve(a, whiten, k)
        assert (np.diff(sol.eigenvalues) >= -1e-12).all()
        projection = whiten @ sol.basis
        gram = projection.T @ b @ projection
        assert np.abs(gram - np.eye(k)).max() <= 1e-6
        assert sol.residual <= 1e-6


def test_matches_dense_reference():
    results = selftest.check_eigensolver(seed=55, cases=10)
    for res in results:
        assert res.passed, res.line()


def test_reference_agreement_with_shift():
    rng = np.random.default_rng(10)
    m = 12
    a = rng.standard_normal((m, m))
    a = 0.5 * (a + a.T)
    root = rng.standard_normal((m, m))
    b = root @ root.T + 0.5 * np.eye(m)
    shift = relative_ridge(b)
    assert shift == 1e-9 * np.trace(b) / m
    sol = _solve(a, factor_constraint(b + shift * np.eye(m)), 5)
    reference = scipy.linalg.eigh(a, b + shift * np.eye(m), eigvals_only=True)
    assert np.abs(sol.eigenvalues - reference[:5]).max() <= 1e-8


def test_solution_reports_whitened_residual_gap_and_objective(monkeypatch):
    # Each field against its definition on A p = theta (B + sI) p.  The
    # eigenvectors are perturbed by 1e-9, so the residual sits well above
    # rounding and below RESIDUAL_BOUND, and its two forms can be compared.
    exact = eigsolve._kept_eigenpairs

    def perturbed(mat, k, largest):
        values, vectors = exact(mat, k, largest)
        return values, vectors + 1e-9

    monkeypatch.setattr(eigsolve, "_kept_eigenpairs", perturbed)
    rng = np.random.default_rng(17)
    m = 9
    a = rng.standard_normal((m, m))
    a = 0.5 * (a + a.T)
    root = rng.standard_normal((m, m))
    b = root @ root.T + 0.5 * np.eye(m)
    shifted = b + relative_ridge(b) * np.eye(m)
    w = factor_constraint(shifted)
    reduced = w.T @ a @ w
    everything = scipy.linalg.eigh(a, shifted, eigvals_only=True)
    for k in (1, 4, m):
        sol = solve_generalized(reduced, k)
        p, theta = w @ sol.basis, sol.eigenvalues
        deviation = np.abs(sol.basis.T @ sol.basis - np.eye(k)).max()
        assert 1e-11 < deviation <= 1e-8
        assert sol.orthonormality == deviation
        resid = w.T @ (a @ p - shifted @ p * theta)
        denom = np.linalg.norm(0.5 * (reduced + reduced.T)) + np.abs(theta) * np.sqrt(m)
        expected = float((np.linalg.norm(resid, axis=0) / denom).max())
        assert 1e-11 < expected <= eigsolve.RESIDUAL_BOUND
        assert abs(sol.residual - expected) <= 1e-5 * expected
        objective = np.trace(sol.basis.T @ reduced @ sol.basis)
        assert abs(sol.objective - objective) <= 1e-12 * np.abs(everything).sum()
        assert abs(objective - np.trace(p.T @ a @ p)) <= 1e-12 * np.abs(everything).sum()
        if k == m:
            assert sol.eigengap is None
        else:
            gap = everything[k] - everything[k - 1]
            assert abs(sol.eigengap - gap) <= 1e-10 * np.abs(everything).max()


def test_indefinite_b_raises_numeric_error():
    with pytest.raises(NumericError, match="not positive definite"):
        factor_constraint(-np.eye(3))


def test_non_finite_operands_raise_numeric_error():
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(NumericError, match="^B has NaN or infinite entries$"):
        factor_constraint(bad)
    bad[0, 0] = np.inf
    with pytest.raises(NumericError, match="^B has NaN or infinite entries$"):
        factor_constraint(bad)


@pytest.mark.parametrize("shape", [(50, 8), (500, 128), (37, 400), (1, 6)],
                         ids=["tall", "tall-128", "wide", "one-row"])
def test_shifted_gram_equals_its_transpose_bit_for_bit(shape):
    # factor_constraint checks no symmetry: C'C comes from BLAS syrk, which
    # writes one triangle and mirrors it.
    gram = shifted_gram(np.random.default_rng(21).standard_normal(shape))
    assert gram.shape == (shape[1], shape[1])
    assert np.array_equal(gram, gram.T)


def test_assemble_operands_structure():
    rng = np.random.default_rng(12)
    f = rng.standard_normal((15, 6))
    h = np.eye(15) - np.full((15, 15), 1 / 15)
    b = f.T @ h @ f
    shifted = b + relative_ridge(b) * np.eye(6)
    assert np.allclose(shifted_gram(f), shifted, atol=1e-10)
    assert np.abs(shifted_gram(f) - shifted_gram(f).T).max() == 0.0
    w = assemble_operands(f)
    assert np.abs(w.T @ shifted @ w - np.eye(6)).max() <= 1e-10
    assert np.abs(np.tril(w, -1)).max() == 0.0  # W = L^-T is upper triangular
    with pytest.raises(DataError):
        assemble_operands(np.ones(15))
    with pytest.raises(DataError):
        shifted_gram(np.ones(15))


def test_whiten_upper_triangular_for_rank_deficient_b():
    # two columns depend on others, so B is singular and only the ridge lifts
    # it; L then has subdiagonal entries larger than their column's diagonal,
    # which makes a pivoted LU inverse leave rounding above the diagonal
    rng = np.random.default_rng(14)
    f = rng.standard_normal((15, 6))
    f[:, 5] = 2.0 * f[:, 0]
    f[:, 4] = f[:, 2] - 3.0 * f[:, 1]
    w = assemble_operands(f)
    assert np.abs(np.tril(w, -1)).max() == 0.0
    assert np.abs(w.T @ shifted_gram(f) @ w - np.eye(6)).max() <= 1e-6


def test_assemble_and_solve_centering_constraint():
    rng = np.random.default_rng(13)
    f = rng.standard_normal((25, 8))
    q = rng.standard_normal((25, 25))
    q = 0.5 * (q + q.T)
    a = f.T @ q @ f + 0.1 * np.eye(8)
    w = assemble_operands(f)
    projection = w @ _solve(a, w, 3).basis
    centered = f - f.mean(axis=0)
    gram = projection.T @ (centered.T @ centered) @ projection
    assert np.abs(gram - np.eye(3)).max() <= 1e-6


def test_rank_deficient_b_survives_via_ridge():
    # duplicated feature columns make B singular; the relative ridge fixes it
    rng = np.random.default_rng(14)
    base = rng.standard_normal((20, 3))
    f = np.hstack([base, base])
    sol = _solve(f.T @ f, assemble_operands(f), 2)
    assert np.isfinite(sol.eigenvalues).all()


def _per_a_cholesky_reference(a, shifted, k):
    """A fresh Cholesky reduction of one (A, B + sI) pair, with the solver's
    sign convention."""
    chol = scipy.linalg.cholesky(shifted, lower=True)
    half = scipy.linalg.solve_triangular(chol, a, lower=True)
    reduced = scipy.linalg.solve_triangular(chol, half.T, lower=True).T
    theta, u = np.linalg.eigh(0.5 * (reduced + reduced.T))
    p = scipy.linalg.solve_triangular(chol.T, u[:, :k], lower=False)
    p *= np.where(p[np.abs(p).argmax(axis=0), np.arange(k)] < 0, -1.0, 1.0)
    return theta[:k], p


def test_factored_constraint_reused_across_objectives():
    rng = np.random.default_rng(15)
    m, k = 8, 4
    f = rng.standard_normal((40, m))
    w = assemble_operands(f)
    for _ in range(5):
        q = rng.standard_normal((m, m))
        a = q @ q.T + rng.uniform(0.0, 1.0) * np.eye(m)
        sol = _solve(a, w, k)
        theta, p = _per_a_cholesky_reference(a, shifted_gram(f), k)
        assert np.abs(sol.eigenvalues - theta).max() <= 1e-10 * np.abs(theta).max()
        assert np.abs(_projection(w, sol) - p).max() <= 1e-10 * np.abs(p).max()


def test_factored_rank_deficient_constraint_reused_across_objectives():
    # Duplicated columns give B rank 5 of 8; only the relative ridge s lifts
    # it.  Objectives of the trainer's form X'QX + delta I act as delta on
    # B's null directions, so any Cholesky reduction of this pencil carries
    # rounding of order 1e-16 * delta / s there, and the columns' entries
    # along those directions are scaled up by 1/sqrt(s).  Projections are
    # therefore compared in the constraint's own norm, and delta is kept
    # small (at delta = 1 two reductions agree to about 5e-10).
    rng = np.random.default_rng(16)
    m, k, delta = 8, 4, 1e-3
    f = rng.standard_normal((40, m))
    f[:, 5:] = f[:, :3]
    w, shifted = assemble_operands(f), shifted_gram(f)
    root = np.linalg.cholesky(shifted).T
    centering = np.eye(40) - 1 / 40
    for _ in range(5):
        q = rng.standard_normal((40, 40))
        q = centering @ q @ q.T @ centering
        a = f.T @ q @ f + delta * np.eye(m)
        sol = _solve(a, w, k)
        theta, p = _per_a_cholesky_reference(a, shifted, k)
        assert np.abs(sol.eigenvalues - theta).max() <= 1e-10 * np.abs(theta).max()
        assert np.abs(root @ (_projection(w, sol) - p)).max() <= 1e-10


def test_residual_gate(monkeypatch):
    exact = eigsolve._kept_eigenpairs

    def perturbed(mat, k, largest):
        values, vectors = exact(mat, k, largest)
        return values, vectors + 1e-3

    monkeypatch.setattr(eigsolve, "_kept_eigenpairs", perturbed)
    rng = np.random.default_rng(16)
    a = rng.standard_normal((6, 6))
    with pytest.raises(NumericError, match=r"^eigensolver residual .* exceeds 1e-06$"):
        _solve(a + a.T, factor_constraint(np.eye(6)), 3)

    def not_a_number(mat, k, largest):
        values, vectors = exact(mat, k, largest)
        vectors[0, 0] = np.nan
        return values, vectors

    monkeypatch.setattr(eigsolve, "_kept_eigenpairs", not_a_number)
    with pytest.raises(NumericError, match=r"^eigensolver produced non-finite residuals$"):
        _solve(a + a.T, factor_constraint(np.eye(6)), 3)


@pytest.mark.parametrize("power", [-1000, -530, 530, 1000])
def test_residual_is_measured_at_any_operand_scale(power):
    # An operand scaled by 2^±530 (about 1e±160) has squares outside
    # float64's range, and by 2^±1000 its entries' squares are 0 or inf: the
    # norms must be taken on a rescaled copy, or the residual reads 0 (any
    # solve passes) or is not finite (every solve fails).
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12))
    base = solve_generalized(a + a.T, 4)
    scaled = solve_generalized(np.ldexp(a + a.T, power), 4)
    assert 0.0 < scaled.residual <= 1e-14
    theta = np.ldexp(scaled.eigenvalues, -power)
    assert np.abs(theta - base.eigenvalues).max() <= 1e-12 * np.abs(base.eigenvalues).max()


needs_openblas = pytest.mark.skipif(
    eigsolve._openblas() is None,
    reason="numpy's linalg library lacks a routine cdem binds",
)

# Every OpenBLAS symbol cdem binds, without numpy's "scipy_" prefix and "64_"
# suffix.
BOUND_SYMBOLS = (
    "LAPACKE_dsyevr", "LAPACKE_dsytrd", "LAPACKE_dstedc", "LAPACKE_dormtr", "cblas_dsyrk",
    "openblas_get_num_threads", "openblas_set_num_threads",
)


def _numpy_blas_name():
    config = np.show_config(mode="dicts")
    return config.get("Build Dependencies", {}).get("blas", {}).get("name")


@pytest.mark.skipif(
    _numpy_blas_name() != "scipy-openblas",
    reason="numpy is built against a BLAS other than its bundled OpenBLAS",
)
def test_bundled_openblas_exports_every_symbol_cdem_binds():
    # A numpy upgrade that renames any of these symbols fails here, instead
    # of sending the solves quietly down their slower numpy-only paths.
    routines = eigsolve._openblas()
    assert routines is not None
    assert sorted(vars(routines)) == sorted(name.split("_", 1)[1] for name in BOUND_SYMBOLS)


def _random_gram(side, seed):
    x = np.random.default_rng(seed).standard_normal((side, side + 100))
    return x @ x.T


@pytest.fixture
def dsyevr_calls(monkeypatch):
    """Counts top_eigenpairs' calls of the subset solver."""
    calls = []
    routines = eigsolve._openblas()
    if routines is not None:
        dsyevr = routines.dsyevr
        monkeypatch.setattr(routines, "dsyevr", lambda *args: calls.append(1) or dsyevr(*args))
    return calls


@needs_openblas
@pytest.mark.parametrize("k", [1, 128])
@pytest.mark.parametrize("side", [640, 800, 1024])
def test_top_eigenpairs_subset_solve_matches_eigh(side, k, dsyevr_calls):
    gram = _random_gram(side, seed=side + k)
    full_values, full_vectors = np.linalg.eigh(gram)
    values, vectors = top_eigenpairs(gram.copy(), k)
    assert dsyevr_calls == [1]
    assert values.shape == (k,) and vectors.shape == (side, k)
    assert np.abs(values - full_values[::-1][:k]).max() <= 1e-12 * full_values[-1]
    cosines = np.abs(np.einsum("ij,ij->j", vectors, full_vectors[:, ::-1][:, :k]))
    assert cosines.min() >= 1 - 1e-10


def test_top_eigenpairs_full_solve_below_the_crossover(dsyevr_calls):
    # Below the side, or above a fifth of it kept, the subset driver is not
    # asked for; the kernel's pairs are eigh's, up to rounding and sign.
    for side, k in ((SUBSET_MIN_SIDE - 1, 1), (SUBSET_MIN_SIDE, 129)):
        gram = _random_gram(side, seed=side)
        full_values, full_vectors = np.linalg.eigh(gram)
        values, vectors = top_eigenpairs(gram, k)
        assert values.shape == (k,) and vectors.shape == (side, k)
        assert np.abs(values - full_values[::-1][:k]).max() <= 1e-13 * full_values[-1]
        cosines = np.abs(np.einsum("ij,ij->j", vectors, full_vectors[:, ::-1][:, :k]))
        assert cosines.min() >= 1 - 1e-12
    assert dsyevr_calls == []


KERNEL_ROUTINES = ("dsytrd", "dstedc", "dormtr")


@needs_openblas
@pytest.mark.parametrize("largest", [False, True], ids=["smallest", "largest"])
@pytest.mark.parametrize("side", [1, 2, 3, 128, 511, 639])
def test_kernel_matches_eigh(side, largest):
    gram = _random_gram(side, seed=side)
    full_values, full_vectors = np.linalg.eigh(gram)
    for k in sorted({1, max(1, side // 4), side}):
        values, vectors = eigsolve._kept_eigenpairs(gram.copy(), k, largest)
        assert np.abs(values - full_values).max() <= 1e-13 * np.abs(full_values).max()
        expected = full_vectors[:, side - k :] if largest else full_vectors[:, :k]
        assert vectors.shape == (side, k)
        cosines = np.abs(np.einsum("ij,ij->j", vectors, expected))
        assert cosines.min() >= 1 - 1e-12


@needs_openblas
def test_kernel_reads_only_the_lower_triangle():
    gram = _random_gram(40, seed=3)
    full_values, _ = np.linalg.eigh(gram)
    upper = np.triu_indices(40, 1)
    lower_only = gram.copy()
    lower_only[upper] = np.nan
    values, _ = eigsolve._kept_eigenpairs(lower_only, 4, largest=True)
    assert np.abs(values - full_values).max() <= 1e-13 * full_values[-1]


@needs_openblas
def test_kernel_nan_trips_lapacke_check():
    gram = _random_gram(SUBSET_MIN_SIDE - 1, seed=1)
    gram[5, 3] = np.nan
    with pytest.raises(NumericError, match=r"^LAPACK dsytrd failed with info=-4$"):
        top_eigenpairs(gram, 1)
    # A NaN W'AW stops before the kernel, named as the weights' overflow.
    with pytest.raises(NumericError, match=r"^W'AW is not finite: the objective weights overflow"):
        solve_generalized(np.full((3, 3), np.nan), 1)


@needs_openblas
@pytest.mark.parametrize("routine", KERNEL_ROUTINES)
def test_kernel_checks_every_routine_info(monkeypatch, routine):
    routines = eigsolve._openblas()
    resolve = getattr(routines, routine)
    failing = lambda *args: resolve(*args) or 2  # runs, then reports info=2
    monkeypatch.setattr(routines, routine, failing)
    message = rf"^LAPACK {routine} failed with info=2$"
    with pytest.raises(NumericError, match=message):
        top_eigenpairs(_random_gram(8, seed=4), 2)
    with pytest.raises(NumericError, match=message):
        _solve(np.diag([3.0, 1.0, 2.0]), factor_constraint(np.eye(3)), 2)


class _Lacking:
    """A library that lacks one symbol and otherwise forwards to ctypes.CDLL."""

    def __init__(self, library, missing):
        self.library, self.missing = library, missing

    def __getattr__(self, name):
        if name == self.missing:
            raise AttributeError(name)
        return getattr(self.library, name)


@pytest.mark.parametrize("missing", BOUND_SYMBOLS)
def test_a_library_lacking_any_bound_symbol_binds_none(monkeypatch, missing):
    # So every solve takes numpy's path, and none mixes ctypes LAPACK with eigh.
    cdll = eigsolve.ctypes.CDLL
    symbol = f"scipy_{missing}64_"
    monkeypatch.setattr(eigsolve.ctypes, "CDLL", lambda path: _Lacking(cdll(path), symbol))
    assert eigsolve._openblas.__wrapped__() is None


def test_without_openblas_solves_are_eigh_bytes(monkeypatch):
    monkeypatch.setattr(eigsolve, "_openblas", lambda: None)
    for side, k in ((SUBSET_MIN_SIDE - 1, 1), (SUBSET_MIN_SIDE, 129)):
        gram = _random_gram(side, seed=side)
        full_values, full_vectors = np.linalg.eigh(gram)
        values, vectors = top_eigenpairs(gram, k)
        assert np.array_equal(values, full_values[::-1][:k])
        assert np.array_equal(vectors, full_vectors[:, ::-1][:, :k])
    rng = np.random.default_rng(18)
    m, k = 12, 5
    a = rng.standard_normal((m, m))
    w = assemble_operands(rng.standard_normal((40, m)))
    reduced = w.T @ (a + a.T) @ w
    sol = solve_generalized(reduced, k)
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    assert np.array_equal(sol.eigenvalues, values[:k])
    assert np.array_equal(sol.basis, vectors[:, :k])
    assert sol.eigengap == values[k] - values[k - 1]


@needs_openblas
def test_top_eigenpairs_nan_gram_trips_lapacke_check():
    gram = _random_gram(SUBSET_MIN_SIDE, seed=1)
    gram[3, 5] = gram[5, 3] = np.nan
    with pytest.raises(NumericError, match=r"^LAPACK dsyevr failed with info=-6$"):
        top_eigenpairs(gram, 1)


@pytest.mark.parametrize(
    "stub, message",
    [
        (lambda *args: 3, r"^LAPACK dsyevr failed with info=3$"),
        (lambda *args: args[12].fill(1) or 0, r"^LAPACK dsyevr returned 1 of 2 eigenpairs$"),
    ],
    ids=["info", "count"],
)
@needs_openblas
def test_top_eigenpairs_checks_info_and_count(monkeypatch, stub, message):
    monkeypatch.setattr(eigsolve._openblas(), "dsyevr", stub)
    with pytest.raises(NumericError, match=message):
        top_eigenpairs(_random_gram(SUBSET_MIN_SIDE, seed=2), 2)
