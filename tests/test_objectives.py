"""Objective terms: frozen small examples, invariants, metamorphic relations
and oracle agreement."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cdem import selftest
from cdem.bench import ABLATION_STAGES
from cdem.errors import ConfigError, DataError
from cdem.matio import ExperimentConfig
from cdem.objectives import (
    build_objective_matrices,
    objective_terms,
    source_moments,
    term_weights,
)
from cdem.objectives import TERMS as UNIT_TERMS

TERMS = UNIT_TERMS + ("combined",)


def _labeling(source, target, selected=None):
    """(source labels, target pseudo labels, selection mask) as arrays; every
    target row is selected by default."""
    target = np.asarray(target)
    if selected is None:
        selected = np.ones(target.shape[0], dtype=bool)
    return np.asarray(source), target, np.asarray(selected, dtype=bool)


def _build(lab, features, n_classes, config):
    """Each term alone (unit weight), the operand for config's weights and
    components as ``combined``, and the skipped terms, for features whose
    first rows are the source rows of lab and the rest its target rows."""
    ys, yt, selected = lab
    xs, xt = features[: ys.shape[0]], features[ys.shape[0] :]
    moments = source_moments(xs, xt, ys, n_classes)
    xt_sel, y_sel = xt[selected], yt[selected]
    built = build_objective_matrices(moments, xt_sel, y_sel, term_weights(config))
    terms = objective_terms(moments, xt_sel, y_sel)
    return SimpleNamespace(**terms, combined=built.combined, skipped=built.skipped)


def _build_instance(inst, features):
    return _build((inst.ys, inst.yt, inst.selected), features, inst.n_classes, ExperimentConfig())


def _terms(source, target, selected=None, n_classes=2):
    # identity features make every m×m term X'QX the coefficient matrix Q
    lab = _labeling(source, target, selected)
    return _build(lab, np.eye(len(source) + len(target)), n_classes, ExperimentConfig())


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


def test_center_push_target_gaps_skipped():
    # no selected target of class 1: its target block is skipped, not fatal
    parts = _terms([0, 1], [0, 0])
    assert "center-push target block: class 1 has no selected samples" in parts.skipped
    assert "center-push target block: class 0 has empty complement" in parts.skipped
    assert np.abs(parts.center_push[2:, 2:]).max() == 0.0


def test_marginal_mmd_one_sample_each():
    # one source row per class and one target row, of class 0: the marginal
    # term plus class 0's conditional one
    mat = _terms([0, 1], [0]).mmd
    marginal = np.array([0.5, 0.5, -1.0])
    class0 = np.array([1.0, 0.0, -1.0])
    assert np.allclose(mat, np.outer(marginal, marginal) + np.outer(class0, class0))


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
    lab = _labeling(rng.integers(0, 2, 8), rng.integers(0, 2, 6))
    params = ExperimentConfig(beta=0.0, lam=0.0, gamma=0.0, eta=0.0, delta=0.0)
    parts = _build(lab, np.eye(14), 2, params)
    assert np.array_equal(parts.combined, parts.within_class)


def test_compose_distribution_only():
    rng = np.random.default_rng(5)
    lab = _labeling(rng.integers(0, 2, 8), rng.integers(0, 2, 6))
    params = ExperimentConfig(beta=0.0, lam=1.0, gamma=0.0, eta=0.0, delta=0.0)
    parts = _build(lab, np.eye(14), 2, params)
    assert np.allclose(parts.combined, parts.within_class + parts.mmd)


def _stage_config(params, stage):
    """params with the weights an ablation stage sets to 0 zeroed."""
    return replace(params, **dict.fromkeys(dict(ABLATION_STAGES)[stage], 0.0))


def test_compose_component_switches():
    rng = np.random.default_rng(6)
    lab = _labeling(rng.integers(0, 3, 10), rng.integers(0, 3, 9))
    params = ExperimentConfig(beta=0.3, lam=0.7, gamma=0.2, eta=0.4, delta=1.0)
    features = np.eye(19)
    parts = _build(lab, features, 3, params)
    stage = lambda name: _stage_config(params, name)
    erm_only = _build(lab, features, 3, stage("erm")).combined
    expected = parts.within_class - 0.3 * parts.center_push
    assert np.abs(erm_only - expected).max() <= 1e-12 * np.abs(expected).max()
    da = _build(lab, features, 3, stage("erm+da")).combined
    assert np.allclose(da, erm_only + 0.7 * parts.mmd)


def _deselect_one_class(inst, rng):
    """The instance with one class's target rows left out of the selection,
    so the target-side blocks of that class are skipped."""
    selected = inst.selected & (inst.yt != rng.integers(0, inst.n_classes))
    if not selected.any():
        return inst
    return selftest.Instance(inst.xs, inst.ys, inst.xt, inst.yt, selected, inst.projection)


@pytest.mark.parametrize("stage", [name for name, _ in ABLATION_STAGES])
def test_operand_is_weighted_sum_of_unit_terms(stage):
    # A is linear in the weights: the one-pass operand equals the sum of the
    # unit-weight terms times their weights, every weight zero or not.
    rng = np.random.default_rng(84)
    skipped = 0
    for case in range(12):
        inst = selftest.random_instance(rng)
        if case % 2:
            inst = _deselect_one_class(inst, rng)
        raw = rng.uniform(0.0, 2.0, 4) * (rng.random(4) < 0.7)
        params = _stage_config(
            ExperimentConfig(beta=raw[0], lam=raw[1], gamma=raw[2], eta=raw[3]), stage
        )
        moments = source_moments(inst.xs, inst.xt, inst.ys, inst.n_classes)
        xt_sel, y_sel = inst.xt[inst.selected], inst.yt[inst.selected]
        weights = term_weights(params)
        built = build_objective_matrices(moments, xt_sel, y_sel, weights)
        terms = objective_terms(moments, xt_sel, y_sel)
        weighted = [weights[name] * terms[name] for name in UNIT_TERMS]
        scale = max(float(np.abs(t).max()) for t in weighted)
        assert np.abs(built.combined - sum(weighted)).max() <= 1e-12 * scale
        skipped += bool(built.skipped)
    assert skipped


def test_term_weights_follow_components():
    params = ExperimentConfig(beta=0.2, lam=0.3, gamma=0.4, eta=0.5)
    assert term_weights(params) == {
        "within_class": 1.0,
        "center_push": -0.2,
        "mmd": 0.3,
        "cross_st": -0.4,
        "cross_ts": -0.4,
        "laplacian": 0.5,
    }


@pytest.mark.parametrize("stage", [name for name, _ in ABLATION_STAGES])
def test_stage_weights_match_block_gating_bit_for_bit(stage):
    # A stage's zeroed weights give each term the same float, sign of zero
    # included, as multiplying the full weights by a 0/1 switch per block
    # (erm, da, cde, dfl), so a stage's operand keeps its bytes.
    on = {"erm": 1, "erm+da": 2, "erm+da+cde": 3, "full": 4}[stage]
    erm, da, cde, dfl = (float(i < on) for i in range(4))
    rng = np.random.default_rng(91)
    for _ in range(50):
        raw = rng.uniform(0.0, 3.0, 4) * (rng.random(4) < 0.8)
        params = ExperimentConfig(beta=raw[0], lam=raw[1], gamma=raw[2], eta=raw[3])
        cross = -params.gamma * cde
        gated = (erm, -params.beta * erm, params.lam * da, cross, cross, params.eta * dfl)
        weights = term_weights(_stage_config(params, stage))
        assert np.array([weights[t] for t in UNIT_TERMS]).tobytes() == np.array(gated).tobytes()


@pytest.mark.parametrize("name", ["beta", "lam", "gamma", "eta", "delta"])
def test_config_rejects_a_negative_weight(name):
    with pytest.raises(ConfigError, match=rf"^{name} must be non-negative$"):
        ExperimentConfig(**{name: -0.1})


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
        yield inst, _build_instance(inst, inst.features)


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
        lab = (inst.ys[ps], inst.yt[pt], inst.selected[pt])
        features = np.vstack([inst.xs[ps], inst.xt[pt]])
        permuted = _build(lab, features, inst.n_classes, ExperimentConfig())
        _assert_terms_close(permuted, parts, 1e-12)


def test_terms_invariant_under_class_relabeling():
    rng = np.random.default_rng(79)
    for inst, parts in _random_terms(79):
        n_classes = inst.n_classes
        perm = rng.permutation(n_classes)
        lab = (perm[inst.ys], perm[inst.yt], inst.selected)
        relabeled = _build(lab, inst.features, n_classes, ExperimentConfig())
        _assert_terms_close(relabeled, parts, 1e-10)


def test_terms_invariant_under_translation():
    rng = np.random.default_rng(80)
    for inst, parts in _random_terms(80):
        shift = rng.standard_normal(inst.features.shape[1])
        moved = _build_instance(inst, inst.features + shift)
        _assert_terms_close(moved, parts, 1e-10)


def test_terms_rotate_with_features():
    rng = np.random.default_rng(81)
    for inst, parts in _random_terms(81):
        m = inst.features.shape[1]
        rot, _ = np.linalg.qr(rng.standard_normal((m, m)))
        rotated = _build_instance(inst, inst.features @ rot)
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
    parts = _build((ys, yt, selected), np.vstack([xs, xt]), n_classes, ExperimentConfig())
    n_src = np.bincount(ys, minlength=n_classes)
    n_tgt = np.bincount(yt[selected], minlength=n_classes)
    assert (n_src[:5] == 0).all() and (n_tgt[5:10] == 0).all() and n_src[64] == n_tgt[64] == 0
    within, laplacian = _per_class_gram_terms(xs, ys, xt[selected], yt[selected], n_classes)
    assert np.abs(parts.within_class - within).max() <= 1e-12 * np.abs(within).max()
    assert np.abs(parts.laplacian - laplacian).max() <= 1e-12 * np.abs(laplacian).max()


def test_source_moments_hold_no_per_class_grams():
    # One m×m Gram per class would be 200 · 64² floats, 6.6 MB; the moments
    # keep the given rows and labels themselves and only C·m class sums.
    rng = np.random.default_rng(83)
    n_classes, m = 200, 64
    xs = rng.standard_normal((400, m))
    ys = rng.permutation(np.arange(400) % n_classes)
    xt = rng.standard_normal((300, m))
    tracemalloc.start()
    try:
        moments = source_moments(xs, xt, ys, n_classes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert moments.rows is xs and moments.labels is ys
