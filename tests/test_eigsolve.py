"""Generalized eigensolver: frozen cases, invariants, reference agreement."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from cdem import selftest
from cdem.eigsolve import assemble_operands, relative_ridge, solve_generalized
from cdem.errors import ConfigError, NumericError


def test_diagonal_case():
    a = np.diag([3.0, 1.0, 2.0])
    sol = solve_generalized(a, np.eye(3), 2)
    assert np.allclose(sol.eigenvalues, [1.0, 2.0], atol=1e-12)
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(np.abs(sol.projection), expected, atol=1e-12)
    # sign convention: the dominant entry of each column is positive
    assert sol.projection[1, 0] > 0 and sol.projection[2, 1] > 0


def test_identical_operands_give_unit_eigenvalues():
    rng = np.random.default_rng(8)
    root = rng.standard_normal((6, 6))
    b = root @ root.T + np.eye(6)
    sol = solve_generalized(b, b, 4)
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
        sol = solve_generalized(a, b, k)
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
    sol = solve_generalized(a, b, 5, b_shift=shift)
    reference = scipy.linalg.eigh(a, b + shift * np.eye(m), eigvals_only=True)
    assert np.abs(sol.eigenvalues - reference[:5]).max() <= 1e-8


def test_invalid_inputs():
    a = np.eye(3)
    with pytest.raises(ConfigError):
        solve_generalized(a, np.eye(3), 4)
    with pytest.raises(ConfigError):
        solve_generalized(a, np.eye(4), 1)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ConfigError):
        solve_generalized(skew, np.eye(2), 1)
    with pytest.raises(ConfigError):
        solve_generalized(a, np.eye(3), 1, b_shift=-1.0)


def test_indefinite_b_raises_numeric_error():
    a = np.eye(3)
    with pytest.raises(NumericError):
        solve_generalized(a, -np.eye(3), 1)


def test_assemble_operands_structure():
    rng = np.random.default_rng(12)
    f = rng.standard_normal((15, 6))
    q = rng.standard_normal((6, 6))
    a, b = assemble_operands(f, q, delta=0.7)
    assert np.allclose(a, 0.5 * (q + q.T) + 0.7 * np.eye(6), atol=1e-12)
    assert np.abs(a - a.T).max() == 0.0
    h = np.eye(15) - np.full((15, 15), 1 / 15)
    assert np.allclose(b, f.T @ h @ f, atol=1e-10)
    with pytest.raises(ConfigError):
        assemble_operands(f, np.eye(15), delta=0.7)


def test_assemble_and_solve_centering_constraint():
    rng = np.random.default_rng(13)
    f = rng.standard_normal((25, 8))
    q = rng.standard_normal((25, 25))
    q = 0.5 * (q + q.T)
    a, b = assemble_operands(f, f.T @ q @ f, delta=0.1)
    sol = solve_generalized(a, b, 3, b_shift=relative_ridge(b))
    centered = f - f.mean(axis=0)
    gram = sol.projection.T @ (centered.T @ centered) @ sol.projection
    assert np.abs(gram - np.eye(3)).max() <= 1e-6


def test_rank_deficient_b_survives_via_ridge():
    # duplicated feature columns make B singular; the relative ridge fixes it
    rng = np.random.default_rng(14)
    base = rng.standard_normal((20, 3))
    f = np.hstack([base, base])
    a, b = assemble_operands(f, f.T @ f, delta=0.0)
    sol = solve_generalized(a, b, 2, b_shift=relative_ridge(b))
    assert np.isfinite(sol.eigenvalues).all()
