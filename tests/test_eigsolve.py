"""Generalized eigensolver: frozen cases, invariants, reference agreement."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from cdem import selftest
from cdem.eigsolve import (
    assemble_operands,
    factor_constraint,
    relative_ridge,
    solve_generalized,
)
from cdem.errors import ConfigError, NumericError


def test_diagonal_case():
    a = np.diag([3.0, 1.0, 2.0])
    sol = solve_generalized(a, factor_constraint(np.eye(3)), 2)
    assert np.allclose(sol.eigenvalues, [1.0, 2.0], atol=1e-12)
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(np.abs(sol.projection), expected, atol=1e-12)
    # sign convention: the dominant entry of each column is positive
    assert sol.projection[1, 0] > 0 and sol.projection[2, 1] > 0


def test_identical_operands_give_unit_eigenvalues():
    rng = np.random.default_rng(8)
    root = rng.standard_normal((6, 6))
    b = root @ root.T + np.eye(6)
    sol = solve_generalized(b, factor_constraint(b), 4)
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
        sol = solve_generalized(a, factor_constraint(b), k)
        assert (np.diff(sol.eigenvalues) >= -1e-12).all()
        gram = sol.projection.T @ b @ sol.projection
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
    sol = solve_generalized(a, factor_constraint(b, shift), 5)
    reference = scipy.linalg.eigh(a, b + shift * np.eye(m), eigvals_only=True)
    assert np.abs(sol.eigenvalues - reference[:5]).max() <= 1e-8


def test_invalid_inputs():
    a = np.eye(3)
    with pytest.raises(ConfigError):
        solve_generalized(a, factor_constraint(np.eye(3)), 4)
    with pytest.raises(ConfigError):
        solve_generalized(a, factor_constraint(np.eye(4)), 1)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ConfigError):
        solve_generalized(skew, factor_constraint(np.eye(2)), 1)
    with pytest.raises(ConfigError):
        factor_constraint(skew)
    with pytest.raises(ConfigError):
        factor_constraint(np.eye(3), b_shift=-1.0)


def test_indefinite_b_raises_numeric_error():
    with pytest.raises(NumericError, match="not positive definite"):
        factor_constraint(-np.eye(3))


def test_non_finite_operands_raise_numeric_error():
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(NumericError, match="^B has NaN or infinite entries$"):
        factor_constraint(bad)
    bad[0, 0] = np.inf
    with pytest.raises(NumericError, match="^A has NaN or infinite entries$"):
        solve_generalized(bad, factor_constraint(np.eye(3)), 1)


def test_assemble_operands_structure():
    rng = np.random.default_rng(12)
    f = rng.standard_normal((15, 6))
    constraint = assemble_operands(f)
    h = np.eye(15) - np.full((15, 15), 1 / 15)
    b = f.T @ h @ f
    shifted = b + relative_ridge(b) * np.eye(6)
    assert np.allclose(constraint.shifted, shifted, atol=1e-10)
    assert np.abs(constraint.shifted - constraint.shifted.T).max() == 0.0
    w = constraint.whiten
    assert np.abs(w.T @ shifted @ w - np.eye(6)).max() <= 1e-10
    assert np.abs(np.tril(w, -1)).max() == 0.0  # W = L^-T is upper triangular
    with pytest.raises(ConfigError):
        assemble_operands(np.ones(15))


def test_whiten_upper_triangular_for_rank_deficient_b():
    # two columns depend on others, so B is singular and only the ridge lifts
    # it; L then has subdiagonal entries larger than their column's diagonal,
    # which makes a pivoted LU inverse leave rounding above the diagonal
    rng = np.random.default_rng(14)
    f = rng.standard_normal((15, 6))
    f[:, 5] = 2.0 * f[:, 0]
    f[:, 4] = f[:, 2] - 3.0 * f[:, 1]
    constraint = assemble_operands(f)
    w = constraint.whiten
    assert np.abs(np.tril(w, -1)).max() == 0.0
    assert np.abs(w.T @ constraint.shifted @ w - np.eye(6)).max() <= 1e-6


def test_assemble_and_solve_centering_constraint():
    rng = np.random.default_rng(13)
    f = rng.standard_normal((25, 8))
    q = rng.standard_normal((25, 25))
    q = 0.5 * (q + q.T)
    a = f.T @ q @ f + 0.1 * np.eye(8)
    sol = solve_generalized(a, assemble_operands(f), 3)
    centered = f - f.mean(axis=0)
    gram = sol.projection.T @ (centered.T @ centered) @ sol.projection
    assert np.abs(gram - np.eye(3)).max() <= 1e-6


def test_rank_deficient_b_survives_via_ridge():
    # duplicated feature columns make B singular; the relative ridge fixes it
    rng = np.random.default_rng(14)
    base = rng.standard_normal((20, 3))
    f = np.hstack([base, base])
    sol = solve_generalized(f.T @ f, assemble_operands(f), 2)
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
    constraint = assemble_operands(rng.standard_normal((40, m)))
    for _ in range(5):
        q = rng.standard_normal((m, m))
        a = q @ q.T + rng.uniform(0.0, 1.0) * np.eye(m)
        sol = solve_generalized(a, constraint, k)
        theta, p = _per_a_cholesky_reference(a, constraint.shifted, k)
        assert np.abs(sol.eigenvalues - theta).max() <= 1e-10 * np.abs(theta).max()
        assert np.abs(sol.projection - p).max() <= 1e-10 * np.abs(p).max()


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
    constraint = assemble_operands(f)
    root = np.linalg.cholesky(constraint.shifted).T
    centering = np.eye(40) - 1 / 40
    for _ in range(5):
        q = rng.standard_normal((40, 40))
        q = centering @ q @ q.T @ centering
        a = f.T @ q @ f + delta * np.eye(m)
        sol = solve_generalized(a, constraint, k)
        theta, p = _per_a_cholesky_reference(a, constraint.shifted, k)
        assert np.abs(sol.eigenvalues - theta).max() <= 1e-10 * np.abs(theta).max()
        assert np.abs(root @ (sol.projection - p)).max() <= 1e-10


def test_residual_gate(monkeypatch):
    import cdem.eigsolve as eigsolve_mod

    exact = np.linalg.eigh

    def perturbed(mat):
        values, vectors = exact(mat)
        return values, vectors + 1e-3

    monkeypatch.setattr(eigsolve_mod.np.linalg, "eigh", perturbed)
    rng = np.random.default_rng(16)
    a = rng.standard_normal((6, 6))
    with pytest.raises(NumericError, match=r"^eigensolver residual .* exceeds 1e-06$"):
        solve_generalized(a + a.T, factor_constraint(np.eye(6)), 3)
