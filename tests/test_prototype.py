"""Prototype classifier, softmax probabilities, k-means, label blending."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from cdem import prototype
from cdem.curriculum import combined_pseudo_labels
from cdem.errors import DataError
from cdem.prototype import (
    class_moments,
    class_probabilities,
    fit_prototypes,
    squared_distances,
    target_kmeans,
)


def test_fit_prototypes_fixed_example():
    z = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    y = np.array([0, 0, 1])
    centers = fit_prototypes(z, y, 2)
    assert centers.shape == (2, 2)
    assert np.allclose(centers[0], [1.0, 0.0])
    assert np.allclose(centers[1], [0.0, 2.0])


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_squared_distances_match_pairwise_loop(offset):
    # A large shared offset would cost the plain |z|^2 + |c|^2 - 2zc'
    # expansion about eight digits; shifting by the center mean keeps them.
    rng = np.random.default_rng(20)
    centers = rng.standard_normal((5, 3)) + offset
    z = np.vstack([rng.standard_normal((40, 3)) + offset, centers[2]])
    dist = squared_distances(z, centers)
    ref = np.array([[float(np.sum((row - c) ** 2)) for c in centers] for row in z])
    assert np.abs(dist - ref).max() <= 1e-12 * ref.max()
    assert (dist >= 0.0).all()
    assert dist[-1, 2] <= 1e-12 * ref.max()


def test_probabilities_row_stochastic_and_ordered():
    rng = np.random.default_rng(21)
    centers = rng.standard_normal((4, 3))
    z = rng.standard_normal((50, 3))
    p = class_probabilities(squared_distances(z, centers))
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9
    assert (p > 0).all()
    # softmax over negative distance is monotone: argmax == nearest center
    assert np.array_equal(np.argmax(p, axis=1), squared_distances(z, centers).argmin(axis=1))


def test_probabilities_equidistant_uniform():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    p = class_probabilities(squared_distances(np.array([[0.0, 5.0]]), centers))
    assert np.allclose(p, [[0.5, 0.5]], atol=1e-12)


def test_probabilities_match_high_precision_reference():
    # distances fed through exp at 50 digits, no max-shift trick
    rng = np.random.default_rng(22)
    centers = rng.standard_normal((3, 4))
    z = rng.standard_normal((6, 4))
    p = class_probabilities(squared_distances(z, centers))
    mpmath.mp.dps = 50
    for i in range(z.shape[0]):
        dists = [mpmath.mpf(float(np.linalg.norm(z[i] - c))) for c in centers]
        weights = [mpmath.exp(-d) for d in dists]
        total = sum(weights)
        for j in range(3):
            ref = float(weights[j] / total)
            assert abs(p[i, j] - ref) <= 1e-12


def test_probabilities_overflow_safe():
    centers = np.array([[1e6, 0.0], [-1e6, 0.0]])
    p = class_probabilities(squared_distances(np.array([[1e6, 1.0]]), centers))
    assert np.isfinite(p).all()
    assert p[0, 0] > 0.999999


def _kmeans(z, init):
    return target_kmeans(z, init, squared_distances(z, init))


def test_kmeans_converges_immediately_on_true_centers():
    rng = np.random.default_rng(23)
    centers = np.array([[5.0, 0.0], [-5.0, 0.0]])
    z = np.vstack(
        [centers[0] + 0.1 * rng.standard_normal((20, 2)),
         centers[1] + 0.1 * rng.standard_normal((20, 2))]
    )
    found, assign, history, _, converged = _kmeans(z, centers)
    assert assign[:20].tolist() == [0] * 20 and assign[20:].tolist() == [1] * 20
    assert len(history) <= 3 and converged
    assert np.allclose(found[0], z[:20].mean(axis=0))


def test_kmeans_sse_non_increasing():
    rng = np.random.default_rng(24)
    z = rng.standard_normal((80, 3))
    init = rng.standard_normal((4, 3))
    _, _, history, _, _ = _kmeans(z, init)
    assert (np.diff(history) <= 1e-9).all()


def test_kmeans_empty_cluster_keeps_previous_center():
    z = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    far = np.array([100.0, 100.0])
    centers, assign, _, _, _ = _kmeans(z, np.vstack([[0.0, 0.0], far]))
    assert assign.tolist() == [0, 0, 0]
    assert np.allclose(centers[1], far)
    assert np.bincount(assign, minlength=2).tolist() == [3, 0]


def test_kmeans_single_cluster_is_global_mean():
    rng = np.random.default_rng(25)
    z = rng.standard_normal((12, 2))
    centers, assign, _, _, _ = _kmeans(z, z[:1])
    assert np.allclose(centers[0], z.mean(axis=0))
    assert (assign == 0).all()


def test_kmeans_validation():
    z = np.zeros((3, 2))
    with pytest.raises(DataError, match="^cannot place 4 clusters on 3 samples$"):
        target_kmeans(z, np.zeros((4, 2)), np.zeros((3, 4)))


@pytest.mark.parametrize("cap", [1, 2, None])
def test_kmeans_returns_final_centers_distances(monkeypatch, cap):
    # The returned table is the one of the returned centers, whether the
    # iterations converged or stopped at the cap after moving the centers.
    if cap is not None:
        monkeypatch.setattr(prototype, "KMEANS_MAX_ITERS", cap)
    rng = np.random.default_rng(26)
    z = np.vstack([c + rng.standard_normal((25, 3)) for c in 3.0 * rng.standard_normal((4, 3))])
    init = rng.standard_normal((4, 3))
    centers, _, history, dist, converged = _kmeans(z, init)
    if cap is None:
        assert len(history) < prototype.KMEANS_MAX_ITERS and converged
    else:
        assert len(history) == cap and not converged
    assert np.array_equal(dist, squared_distances(z, centers))


def test_combined_fixed_example():
    p = combined_pseudo_labels(
        np.array([[0.9, 0.1]]), np.array([[0.2, 0.8]]), 3, 11
    )
    assert np.abs(p.p - np.array([[0.70909090909090905, 0.29090909090909089]])).max() <= 1e-12
    assert p.label.tolist() == [0]
    assert p.consistent.tolist() == [False]


def test_combined_final_step_is_target_only():
    rng = np.random.default_rng(26)
    ps = rng.dirichlet(np.ones(3), size=10)
    pt = rng.dirichlet(np.ones(3), size=10)
    table = combined_pseudo_labels(ps, pt, 11, 11)
    assert np.array_equal(table.p, pt)
    assert np.array_equal(table.label, np.argmax(pt, axis=1))


def test_combined_rows_sum_to_one():
    rng = np.random.default_rng(27)
    ps = rng.dirichlet(np.ones(4), size=30)
    pt = rng.dirichlet(np.ones(4), size=30)
    for step in (1, 5, 11):
        table = combined_pseudo_labels(ps, pt, step, 11)
        assert np.abs(table.p.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.array_equal(table.consistent, np.argmax(ps, axis=1) == np.argmax(pt, axis=1))
        assert np.allclose(table.confidence, table.p.max(axis=1))


def test_class_moments_fixed_example():
    z = np.array([[0.0, 1.0], [1.0, 2.0], [4.0, -3.0]])
    counts, sums = class_moments(z, np.array([2, 2, 0]), 4)
    assert counts.tolist() == [1, 0, 2, 0]
    assert sums.tolist() == [[4.0, -3.0], [0.0, 0.0], [1.0, 3.0], [0.0, 0.0]]


def _loop_kmeans(z, centers, max_iters=100, tol=1e-6):
    """Lloyd iterations that update one cluster at a time."""
    centers = centers.copy()
    history = []
    prev = None
    for _ in range(max_iters):
        dist = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(dist, axis=1)
        sse = float(dist[np.arange(z.shape[0]), assign].sum())
        history.append(sse)
        if prev is not None and np.array_equal(assign, prev):
            break
        if len(history) > 1 and history[-2] - sse <= tol * max(history[-2], 1e-300):
            break
        for cls in range(centers.shape[0]):
            if (assign == cls).any():
                centers[cls] = z[assign == cls].mean(axis=0)
        prev = assign
    return centers, assign, history


@pytest.mark.parametrize("seed", range(4))
def test_kmeans_matches_per_cluster_loop(seed):
    rng = np.random.default_rng(60 + seed)
    truth = 4.0 * rng.standard_normal((6, 5))
    z = np.vstack([c + rng.standard_normal((30, 5)) for c in truth])
    # a far center never wins a sample, so its cluster stays empty throughout
    init = np.vstack([truth + rng.standard_normal(truth.shape), np.full(5, 1e3)])
    centers, assign, history, _, _ = _kmeans(z, init)
    ref_centers, ref_assign, ref_history = _loop_kmeans(z, init)
    assert np.array_equal(assign, ref_assign)
    assert len(history) == len(ref_history)
    assert np.bincount(assign, minlength=init.shape[0])[-1] == 0
    assert np.array_equal(centers[-1], init[-1])
    assert np.abs(centers - ref_centers).max() <= 1e-12 * np.abs(z).max()


@pytest.mark.parametrize("seed", range(4))
def test_column_sign_flips_leave_every_table_bitwise_unchanged(seed):
    # A step's whitened basis keeps LAPACK's column signs; negating any
    # columns of the embedding and of the centers must change no bit of
    # what the step computes from them, since (-a)(-b) = ab and the
    # centers' mean shift negates exactly.
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((60, 5)) * rng.uniform(0.1, 10.0, 5)
    centers = z[rng.choice(60, 4, replace=False)] + 0.1 * rng.standard_normal((4, 5))
    flips = np.where(rng.random(5) < 0.5, -1.0, 1.0)
    flips[seed % 5] = -1.0
    plain = squared_distances(z, centers)
    flipped = squared_distances(z * flips, centers * flips)
    assert np.array_equal(plain, flipped)
    assert np.array_equal(class_probabilities(plain), class_probabilities(flipped))
    ours = target_kmeans(z, centers, plain)
    theirs = target_kmeans(z * flips, centers * flips, flipped)
    assert np.array_equal(ours[0] * flips, theirs[0])
    assert np.array_equal(ours[1], theirs[1])
    assert ours[2] == theirs[2]
    assert np.array_equal(ours[3], theirs[3])
    assert ours[4] == theirs[4]
