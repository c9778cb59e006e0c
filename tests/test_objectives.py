"""Objective terms: frozen small examples, invariants, metamorphic relations
and oracle agreement."""

from __future__ import annotations

import numpy as np
import pytest

from cdem import selftest
from cdem.errors import ConfigError, DataError
from cdem.objectives import (
    Hyperparams,
    JointLabeling,
    build_objective_matrices,
    compose_objective,
    source_moments,
)

TERMS = ("within_class", "center_push", "mmd", "cross_st", "cross_ts", "laplacian", "combined")


def _labeling(source, target, selected=None, n_classes=2):
    target = np.asarray(target)
    if selected is None:
        selected = np.ones(target.shape[0], dtype=bool)
    return JointLabeling(np.asarray(source), target, selected, n_classes)


def _build(lab, features, params):
    moments = source_moments(features, lab.source, lab.n_classes)
    return build_objective_matrices(lab, features, moments, params)


def _terms(source, target, selected=None, n_classes=2):
    # identity features make every m×m term X'QX the coefficient matrix Q
    lab = _labeling(source, target, selected, n_classes)
    return _build(lab, np.eye(lab.n_total), Hyperparams())


def test_within_class_two_samples_same_class():
    mat = _terms([0, 0, 1], [1]).within_class
    assert np.allclose(mat[:2, :2], [[0.5, -0.5], [-0.5, 0.5]])
    # a single-sample class centers onto itself
    assert np.allclose(mat[2:, :], 0.0) and np.allclose(mat[:, 2:], 0.0)


def test_within_class_singletons_vanish():
    mat = _terms([0, 1], [0, 1]).within_class
    assert np.abs(mat).max() == 0.0


def test_within_class_unselected_rows_zero():
    mat = _terms([0, 1], [0, 0, 1], selected=[True, False, True]).within_class
    assert np.abs(mat[3]).max() == 0.0 and np.abs(mat[:, 3]).max() == 0.0


def test_center_push_two_singleton_classes():
    parts = _terms([0, 1], [0, 1])
    assert not parts.skipped
    # each of the two classes contributes [[1, -1], [-1, 1]] per domain
    expected = np.array([[2.0, -2.0], [-2.0, 2.0]])
    assert np.allclose(parts.center_push[:2, :2], expected)
    assert np.allclose(parts.center_push[2:, 2:], expected)
    assert np.abs(parts.center_push[:2, 2:]).max() == 0.0


def test_center_push_single_class_source_rejected():
    with pytest.raises(ConfigError, match=r"^source contains only class 0: empty complement$"):
        _terms([0, 0], [0, 1])


def test_center_push_target_gaps_skipped():
    # no selected target of class 1: its target block is skipped, not fatal
    parts = _terms([0, 1], [0, 0])
    assert "center-push target block: class 1 has no selected samples" in parts.skipped
    assert "center-push target block: class 0 has empty complement" in parts.skipped
    assert np.abs(parts.center_push[2:, 2:]).max() == 0.0


def test_marginal_mmd_one_sample_each():
    # no class on both sides, so the mmd term is the marginal one alone
    mat = _terms([0, 1], [2], n_classes=3).mmd
    v = np.array([0.5, 0.5, -1.0])
    assert np.allclose(mat, np.outer(v, v))


def test_marginal_mmd_includes_unselected_targets():
    # the unselected target (row 4) enters the marginal term, and only it
    mmd = _terms([0, 1], [0, 1, 1], selected=[True, True, False]).mmd
    third = 1.0 / 3.0
    marginal = np.array([0.5, 0.5, -third, -third, -third])
    class0 = np.array([1.0, 0.0, -1.0, 0.0, 0.0])
    class1 = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
    expected = sum(np.outer(v, v) for v in (marginal, class0, class1))
    assert np.allclose(mmd, expected)


def test_conditional_mmd_missing_class_is_none():
    parts = _terms([0, 1], [0, 0])
    assert "conditional distribution term: class 1 missing on one side" in parts.skipped
    assert not any(s.startswith("conditional distribution term: class 0") for s in parts.skipped)
    marginal = np.array([0.5, 0.5, -0.5, -0.5])
    class0 = np.array([1.0, 0.0, -0.5, -0.5])
    assert np.allclose(parts.mmd, np.outer(marginal, marginal) + np.outer(class0, class0))


def test_cross_push_missing_class_skipped():
    parts = _terms([0, 1], [0, 0])
    assert "cross-domain push: class 1 missing on one side" in parts.skipped
    assert "cross-domain push: class 0 has empty target complement" in parts.skipped
    assert np.abs(parts.cross_st).max() == 0.0
    # class 0's target mean against the other source class
    w = np.array([0.0, -1.0, 0.5, 0.5])
    assert np.allclose(parts.cross_ts, np.outer(w, w))


def test_laplacian_two_samples():
    lap = _terms([0, 1], [0]).laplacian
    assert np.allclose(lap[np.ix_([0, 2], [0, 2])], [[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(lap[1]).max() == 0.0 and np.abs(lap[:, 1]).max() == 0.0
    lap = _terms([0, 1], [2], n_classes=3).laplacian
    assert np.abs(lap).max() == 0.0


def test_laplacian_ignores_unselected():
    lap = _terms([0, 1], [0, 0], selected=[True, False]).laplacian
    assert np.abs(lap[3]).max() == 0.0 and np.abs(lap[:, 3]).max() == 0.0


def test_compose_zero_weights_gives_within_class():
    rng = np.random.default_rng(4)
    lab = _labeling(rng.integers(0, 2, 8), rng.integers(0, 2, 6), n_classes=2)
    params = Hyperparams(beta=0.0, lam=0.0, gamma=0.0, eta=0.0, delta=0.0)
    parts = _build(lab, np.eye(lab.n_total), params)
    assert np.array_equal(parts.combined, parts.within_class)


def test_compose_distribution_only():
    rng = np.random.default_rng(5)
    lab = _labeling(rng.integers(0, 2, 8), rng.integers(0, 2, 6), n_classes=2)
    params = Hyperparams(beta=0.0, lam=1.0, gamma=0.0, eta=0.0, delta=0.0)
    parts = _build(lab, np.eye(lab.n_total), params)
    assert np.allclose(parts.combined, parts.within_class + parts.mmd)


def test_compose_component_switches():
    rng = np.random.default_rng(6)
    lab = _labeling(rng.integers(0, 3, 10), rng.integers(0, 3, 9), n_classes=3)
    params = Hyperparams(beta=0.3, lam=0.7, gamma=0.2, eta=0.4, delta=1.0)
    parts = _build(lab, np.eye(lab.n_total), params)
    erm_only = compose_objective(parts, params, components=("erm",))
    assert np.array_equal(erm_only, parts.within_class - 0.3 * parts.center_push)
    da = compose_objective(parts, params, components=("erm", "da"))
    assert np.allclose(da, erm_only + 0.7 * parts.mmd)


def test_hyperparams_reject_negative():
    with pytest.raises(ConfigError):
        Hyperparams(beta=-0.1)


def test_build_requires_selected_targets():
    with pytest.raises(DataError, match=r"^no selected target samples: cannot build objective$"):
        _terms([0, 1], [0, 1], selected=[False, False])


def test_skipped_terms_reported():
    parts = _terms([0, 1, 1], [0, 0])
    assert parts.skipped == [
        "center-push target block: class 0 has empty complement",
        "center-push target block: class 1 has no selected samples",
        "conditional distribution term: class 1 missing on one side",
        "cross-domain push: class 0 has empty target complement",
        "cross-domain push: class 1 missing on one side",
    ]


def test_oracle_agreement_randomized():
    # every term matrix must reproduce its definitional distance sum
    results = selftest.check_objective_terms(seed=101, cases=10)
    for res in results:
        assert res.passed, res.line()


def _random_terms(seed, cases=10):
    """(instance, parts) pairs on generic random instances, partly selected."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        inst = selftest.random_instance(rng)
        yield inst, _build(inst.labeling, inst.features, Hyperparams())


def _assert_terms_close(parts, expected, tol, transform=lambda t: t):
    for name in TERMS:
        want = transform(getattr(expected, name))
        got = getattr(parts, name)
        assert np.abs(got - want).max() <= tol * np.abs(want).max(), name


def test_matrix_invariants_randomized():
    for _, parts in _random_terms(77):
        for name in TERMS:
            mat = getattr(parts, name)
            assert np.abs(mat - mat.T).max() <= 1e-10
        assert np.linalg.eigvalsh(parts.within_class).min() >= -1e-8
        assert np.linalg.eigvalsh(parts.laplacian).min() >= -1e-8


def test_terms_invariant_under_row_permutation():
    rng = np.random.default_rng(78)
    for inst, parts in _random_terms(78):
        ps = rng.permutation(inst.ys.shape[0])
        pt = rng.permutation(inst.yt.shape[0])
        lab = JointLabeling(inst.ys[ps], inst.yt[pt], inst.selected[pt], inst.labeling.n_classes)
        features = np.vstack([inst.xs[ps], inst.xt[pt]])
        permuted = _build(lab, features, Hyperparams())
        _assert_terms_close(permuted, parts, 1e-12)


def test_terms_invariant_under_class_relabeling():
    rng = np.random.default_rng(79)
    for inst, parts in _random_terms(79):
        n_classes = inst.labeling.n_classes
        perm = rng.permutation(n_classes)
        lab = JointLabeling(perm[inst.ys], perm[inst.yt], inst.selected, n_classes)
        relabeled = _build(lab, inst.features, Hyperparams())
        _assert_terms_close(relabeled, parts, 1e-10)


def test_terms_invariant_under_translation():
    rng = np.random.default_rng(80)
    for inst, parts in _random_terms(80):
        shift = rng.standard_normal(inst.features.shape[1])
        moved = _build(inst.labeling, inst.features + shift, Hyperparams())
        _assert_terms_close(moved, parts, 1e-10)


def test_terms_rotate_with_features():
    rng = np.random.default_rng(81)
    for inst, parts in _random_terms(81):
        m = inst.features.shape[1]
        rot, _ = np.linalg.qr(rng.standard_normal((m, m)))
        rotated = _build(inst.labeling, inst.features @ rot, Hyperparams())
        _assert_terms_close(rotated, parts, 1e-10, transform=lambda t: rot.T @ t @ rot)


def _per_class_gram_terms(xs, ys, xt_sel, yt_sel, n_classes):
    """Within-class scatter and Laplacian from one Gram matrix per class:
    sum_g (G_g - s_g s_g' / n_g) per domain side, and sum_c (n_c G_c - s_c s_c')
    over the source and selected target rows of class c together."""
    m = xs.shape[1]
    within = np.zeros((m, m))
    laplacian = np.zeros((m, m))
    for cls in range(n_classes):
        src = xs[ys == cls]
        tgt = xt_sel[yt_sel == cls]
        for rows in (src, tgt):
            if rows.shape[0]:
                s = rows.sum(axis=0)
                within += rows.T @ rows - np.outer(s, s) / rows.shape[0]
        rows = np.vstack([src, tgt])
        if rows.shape[0]:
            s = rows.sum(axis=0)
            laplacian += rows.shape[0] * (rows.T @ rows) - np.outer(s, s)
    return within, laplacian


def test_two_gram_terms_match_per_class_grams():
    # Office-Home's 65 classes, with classes missing from the source, from the
    # selected targets, and from both
    rng = np.random.default_rng(82)
    n_classes, m = 65, 12
    ys = rng.choice(np.arange(5, 64), size=300)
    yt = rng.choice(np.r_[0:5, 10:60], size=260)
    selected = rng.random(260) < 0.6
    xs = rng.standard_normal((300, m)) + 2.0
    xt = rng.standard_normal((260, m)) - 1.0
    lab = JointLabeling(ys, yt, selected, n_classes)
    parts = _build(lab, np.vstack([xs, xt]), Hyperparams())
    n_src = np.bincount(ys, minlength=n_classes)
    n_tgt = np.bincount(yt[selected], minlength=n_classes)
    assert (n_src[:5] == 0).all() and (n_tgt[5:10] == 0).all() and n_src[64] == n_tgt[64] == 0
    within, laplacian = _per_class_gram_terms(xs, ys, xt[selected], yt[selected], n_classes)
    assert np.abs(parts.within_class - within).max() <= 1e-12 * np.abs(within).max()
    assert np.abs(parts.laplacian - laplacian).max() <= 1e-12 * np.abs(laplacian).max()
