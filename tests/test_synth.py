"""Synthetic task generator: geometry, determinism, file emission."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from cdem.errors import ConfigError, FormatError
from cdem.matio import load_config, load_domain_pair, load_eval_labels, read_matrix
from cdem.preprocess import fit_pca
from cdem.synth import (
    ShiftSpec,
    class_counts,
    generate,
    parse_shift_spec,
    standard_shift_spec,
    write_dataset,
)


def test_class_counts_partition():
    assert class_counts(7, 3).tolist() == [3, 2, 2]
    assert class_counts(9, 3).tolist() == [3, 3, 3]
    assert class_counts(10, 4).tolist() == [3, 3, 2, 2]
    assert class_counts(5, 5).tolist() == [1, 1, 1, 1, 1]


def test_class_means_pairwise_separation_exact():
    from cdem.synth import _class_means

    means = _class_means(ShiftSpec(classes=4, n_per_domain=8, dims=6, separation=3.5))
    for i in range(4):
        for j in range(i + 1, 4):
            dist = np.linalg.norm(means[i] - means[j])
            assert abs(dist - 3.5) <= 1e-12
    assert np.abs(means.mean(axis=0)).max() <= 1e-15


def test_generate_shapes_and_labels():
    spec = ShiftSpec(classes=3, n_per_domain=10, dims=5, translation=(1.0,))
    pair, target_y = generate(spec)
    assert pair.source_x.shape == (10, 5)
    assert pair.target_x.shape == (10, 5)
    assert pair.source_y.shape == (10,)
    assert target_y.shape == (10,)
    assert np.bincount(pair.source_y, minlength=3).tolist() == [4, 3, 3]
    assert np.bincount(target_y, minlength=3).tolist() == [4, 3, 3]


def test_generate_deterministic_per_seed():
    spec = standard_shift_spec(seed=2)
    pair_a, ya = generate(spec)
    pair_b, yb = generate(spec)
    assert np.array_equal(pair_a.source_x, pair_b.source_x)
    assert np.array_equal(pair_a.target_x, pair_b.target_x)
    assert np.array_equal(ya, yb)
    pair_c, _ = generate(standard_shift_spec(seed=3))
    assert not np.array_equal(pair_a.source_x, pair_c.source_x)


def test_rotation_and_translation_applied():
    # with zero rotation and a pure translation the target blob means shift
    # by exactly the translation vector in expectation; check the applied
    # transform algebraically by regenerating the unshifted draw
    base = ShiftSpec(classes=2, n_per_domain=50, dims=4, rotation_deg=0.0, seed=7)
    moved = ShiftSpec(
        classes=2, n_per_domain=50, dims=4, rotation_deg=0.0,
        translation=(2.0, -1.0), seed=7,
    )
    pair0, _ = generate(base)
    pair1, _ = generate(moved)
    np.testing.assert_allclose(
        pair1.target_x - pair0.target_x,
        np.tile([2.0, -1.0, 0.0, 0.0], (50, 1)),
        atol=1e-12,
    )
    assert np.array_equal(pair0.source_x, pair1.source_x)


def test_rotation_preserves_norm_of_centered_target():
    no_rot = ShiftSpec(classes=2, n_per_domain=30, dims=3, rotation_deg=0.0, seed=4)
    rot = ShiftSpec(classes=2, n_per_domain=30, dims=3, rotation_deg=35.0, seed=4)
    pair0, _ = generate(no_rot)
    pair1, _ = generate(rot)
    np.testing.assert_allclose(
        np.linalg.norm(pair1.target_x, axis=1),
        np.linalg.norm(pair0.target_x, axis=1),
        atol=1e-10,
    )
    assert not np.allclose(pair0.target_x, pair1.target_x)


def test_rotation_touches_only_the_first_two_columns():
    spec = lambda deg: ShiftSpec(classes=3, n_per_domain=40, dims=6, rotation_deg=deg, seed=8)
    unrotated, _ = generate(spec(0.0))
    pair, _ = generate(spec(35.0))
    x = unrotated.target_x
    assert np.array_equal(pair.target_x[:, 2:], x[:, 2:])
    angle = np.deg2rad(35.0)
    full_rotation = np.eye(6)
    full_rotation[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    expected = (x @ full_rotation.T)[:, :2]
    assert np.abs(pair.target_x[:, :2] - expected).max() <= 1e-15 * np.abs(expected).max()


def _noisy_wide_spec():
    return ShiftSpec(
        classes=10, n_per_domain=400, dims=4096, separation=12.0, rotation_deg=45.0,
        translation=(3.0, -1.0), noise_scale=0.5, seed=1,
    )


def test_generate_peak_memory_stays_near_the_pair():
    # Rotating two of 4096 columns must not cost a d×d matrix (134 MB here),
    # and neither the class blocks nor the target noise may cost a domain-
    # sized copy: generate draws each block into its rows of the pair and
    # the noise in row chunks, so it holds little beside the two domains.
    spec = _noisy_wide_spec()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        pair, _ = generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 1.2 * (pair.source_x.nbytes + pair.target_x.nbytes)


def test_generate_equals_one_shot_draws():
    # The draws generate makes in place, written out one matrix per draw
    spec = _noisy_wide_spec()
    rng = np.random.default_rng(spec.seed)
    means = 12.0 / np.sqrt(2.0) * (np.eye(10, 4096) - np.eye(10, 4096).mean(axis=0))
    labels = np.repeat(np.arange(10), 40)
    source_x = means[labels] + rng.standard_normal((400, 4096))
    target_x = means[labels] + rng.standard_normal((400, 4096))
    angle = np.deg2rad(45.0)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    target_x[:, :2] = target_x[:, :2] @ rotation.T
    target_x[:, :2] += (3.0, -1.0)
    target_x = target_x + 0.5 * rng.standard_normal(target_x.shape)
    pair, target_y = generate(spec)
    assert np.array_equal(pair.source_x, source_x)
    assert np.array_equal(pair.target_x, target_x)
    assert np.array_equal(pair.source_y, labels) and np.array_equal(target_y, labels)


def test_noise_scale_adds_spread():
    quiet = ShiftSpec(classes=2, n_per_domain=40, dims=4, seed=5)
    noisy = ShiftSpec(classes=2, n_per_domain=40, dims=4, noise_scale=2.0, seed=5)
    pair_q, _ = generate(quiet)
    pair_n, _ = generate(noisy)
    assert pair_n.target_x.var() > pair_q.target_x.var()
    assert np.array_equal(pair_q.source_x, pair_n.source_x)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ShiftSpec(classes=1)
    with pytest.raises(ConfigError):
        ShiftSpec(dims=1)
    with pytest.raises(ConfigError):
        ShiftSpec(classes=5, dims=4)
    with pytest.raises(ConfigError):
        ShiftSpec(n_per_domain=1, classes=2)
    with pytest.raises(ConfigError):
        ShiftSpec(separation=0.0)
    with pytest.raises(ConfigError):
        ShiftSpec(noise_scale=-1.0)
    with pytest.raises(ConfigError):
        ShiftSpec(dims=2, translation=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="^seed must be non-negative$"):
        ShiftSpec(seed=-1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["separation", "rotation_deg", "noise_scale", "translation"])
def test_spec_rejects_non_finite_numbers(field, value):
    # Unchecked, nan noise_scale adds no noise, nan separation gives NaN
    # features and an infinite rotation NaN targets.
    given = (1.0, value) if field == "translation" else value
    with pytest.raises(ConfigError, match=f"^{field}( entries)? must be finite"):
        ShiftSpec(**{field: given})


def test_parse_shift_spec_roundtrip(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        "# comment\n"
        "classes=3\n"
        "n_per_domain=30\n"
        "dims=5\n"
        "separation=4.5\n"
        "rotation_deg=20\n"
        "translation=1.5, -0.5\n"
        "noise_scale=0.25\n"
        "seed=9\n"
    )
    spec = parse_shift_spec(path)
    assert spec == ShiftSpec(
        classes=3, n_per_domain=30, dims=5, separation=4.5,
        rotation_deg=20.0, translation=(1.5, -0.5), noise_scale=0.25, seed=9,
    )


def test_parse_shift_spec_errors(tmp_path):
    bad_key = tmp_path / "a.txt"
    bad_key.write_text("classez=2\n")
    with pytest.raises(ConfigError):
        parse_shift_spec(bad_key)
    bad_value = tmp_path / "b.txt"
    bad_value.write_text("classes=two\n")
    message = f"{bad_value}: line 1: bad value for classes, got 'two'"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_shift_spec(bad_value)
    no_eq = tmp_path / "c.txt"
    no_eq.write_text("classes 2\n")
    with pytest.raises(FormatError):
        parse_shift_spec(no_eq)
    duplicate = tmp_path / "e.txt"
    duplicate.write_text("classes=2\nseed=1\nclasses=3\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'classes'"):
        parse_shift_spec(duplicate)
    # ShiftSpec's own value checks are named with the file, not the line
    one_class = tmp_path / "f.txt"
    one_class.write_text("classes=1\n")
    message = f"{one_class}: need at least two classes"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_shift_spec(one_class)
    negative_seed = tmp_path / "g.txt"
    negative_seed.write_text("seed=-2\n")
    message = f"{negative_seed}: seed must be non-negative"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_shift_spec(negative_seed)
    not_utf8 = tmp_path / "d.txt"
    not_utf8.write_bytes(b"classes=\xff3\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        parse_shift_spec(not_utf8)


def test_write_dataset_roundtrip(tmp_path):
    spec = ShiftSpec(classes=2, n_per_domain=20, dims=4, seed=11)
    paths = write_dataset(spec, tmp_path)
    pair, target_y = generate(spec)
    np.testing.assert_array_equal(read_matrix(paths["source_features"]), pair.source_x)
    np.testing.assert_array_equal(read_matrix(paths["target_features"]), pair.target_x)
    config = load_config(paths["config"])
    loaded = load_domain_pair(config)
    assert np.array_equal(loaded.source_x, pair.source_x)
    assert np.array_equal(loaded.source_y, pair.source_y)
    assert np.array_equal(loaded.target_x, pair.target_x)
    assert np.array_equal(load_eval_labels(config, loaded), target_y)
    assert config.subspace_dim == min(4, spec.dims)


def test_write_dataset_pca_dim_within_centered_rank(tmp_path):
    # 400 stacked rows have centered rank 399: a 400th component has no variance
    spec = ShiftSpec(n_per_domain=200, dims=1024)
    config = load_config(write_dataset(spec, tmp_path)["config"])
    assert config.pca_dim == 399
    pair = load_domain_pair(config)
    scores = fit_pca(pair.source_x, pair.target_x, n_components=config.pca_dim + 1)
    variance = np.square(scores).sum(axis=0)
    assert variance[-2] > 1e-8 * variance[0]
    assert variance[-1] <= 1e-10 * variance[0]


def test_standard_spec_is_frozen():
    spec = standard_shift_spec()
    assert spec.classes == 2
    assert spec.n_per_domain == 200
    assert spec.dims == 10
    assert spec.separation == 6.0
    assert spec.rotation_deg == 15.0
    assert spec.translation == (2.3, -2.6)
    assert spec.noise_scale == 0.0
    assert spec.seed == 0
