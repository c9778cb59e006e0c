"""File format round-trips, validation errors, and config parsing."""

from __future__ import annotations

import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdem.errors import CdemError, ConfigError, DataError, FormatError
from cdem.matio import (
    _INT_KEYS,
    _PATH_KEYS,
    MAGIC,
    WEIGHT_KEYS,
    DatasetEntry,
    DomainPair,
    ExperimentConfig,
    check_source_labels,
    load_config,
    load_domain_pair,
    load_eval_labels,
    read_labels,
    read_matrix,
    split_task,
    validate_eval_labels,
    write_labels,
    write_matrix,
)
from cdem.synth import parse_shift_spec
from cdem.trainer import prepare_task, run_adaptation


def test_binary_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (3, 5), (17, 2)]:
        mat = rng.standard_normal(shape)
        path = tmp_path / "mat.cdm"
        write_matrix(mat, path)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert back.tobytes() == mat.astype("<f8").tobytes()


def test_binary_header_layout(tmp_path):
    mat = np.array([[1.5, -2.0], [0.25, 8.0]])
    path = tmp_path / "mat.cdm"
    write_matrix(mat, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    assert len(raw) == 12 + 4 * 8


def test_csv_parse_fixed_example(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    mat = read_matrix(path)
    assert mat.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((4, 3)) * 1e-7
    path = tmp_path / "m.csv"
    write_matrix(mat, path)
    back = read_matrix(path)
    # repr round-trip keeps every float bit-exact
    assert np.array_equal(back, mat)


def test_empty_matrix_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n")
    with pytest.raises(FormatError):
        read_matrix(path)
    with pytest.raises(DataError):
        write_matrix(np.zeros((0, 3)), tmp_path / "z.cdm")
    path = tmp_path / "rows0.cdm"
    path.write_bytes(MAGIC + (0).to_bytes(4, "little") + (3).to_bytes(4, "little"))
    with pytest.raises(FormatError, match=re.escape(f"{path}: empty matrix of shape (0, 3)")):
        read_matrix(path)


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError):
        read_matrix(path)


def test_non_numeric_csv_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,abc\n")
    with pytest.raises(FormatError):
        read_matrix(path)


def test_truncated_binary_rejected(tmp_path):
    mat = np.ones((3, 3))
    path = tmp_path / "m.cdm"
    write_matrix(mat, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        read_matrix(path)
    path.write_bytes(raw[:7])
    with pytest.raises(FormatError):
        read_matrix(path)


def test_payload_size_mismatch_rejected(tmp_path):
    path = tmp_path / "m.cdm"
    header = MAGIC + (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
    path.write_bytes(header + b"\x00" * 24)
    with pytest.raises(FormatError):
        read_matrix(path)


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "m.cdm"
    write_matrix(np.array([[1.0, 2.0]]), path)
    raw = bytearray(path.read_bytes())
    raw[12:20] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_matrix(path)
    with pytest.raises(DataError):
        write_matrix(np.array([[np.inf]]), tmp_path / "x.cdm")


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 3, 1, 1, 2])
    path = tmp_path / "y.txt"
    write_labels(labels, path)
    assert path.read_text() == "0\n3\n1\n1\n2\n"
    assert np.array_equal(read_labels(path), labels)


def test_labels_validation(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("1\nx\n")
    with pytest.raises(FormatError):
        read_labels(path)
    path.write_text("1\n-2\n")
    with pytest.raises(DataError):
        read_labels(path)
    path.write_text("")
    with pytest.raises(FormatError):
        read_labels(path)
    path.write_text("1\n99999999999999999999\n")
    with pytest.raises(FormatError, match="int64 range"):
        read_labels(path)
    with pytest.raises(DataError, match=re.escape(f"{path}: labels must be 1-d")):
        write_labels([[0, 1]], path)


def _label_checks(tmp_path, n_target, n_classes):
    """The three functions that take labels of any dtype, by the name each
    gives the labels in its errors."""
    path = tmp_path / "y.txt"
    task = SimpleNamespace(n_target=n_target, n_classes=n_classes)
    return {
        "source labels": lambda y: check_source_labels(y, n_classes),
        "evaluation labels": lambda y: validate_eval_labels(y, task, "evaluation labels"),
        str(path): lambda y: write_labels(y, path) or read_labels(path),
    }


@pytest.mark.parametrize(
    "values",
    [[0.5, 1.7, 0.2, 1.0], [0.9, 1.9, 0.1, 1.2], [0.0, np.nan, 1.0, 1.0], [0.0, 1.0, -np.inf, 1.0]],
    ids=["fractional", "fractional-rounding-up", "nan", "infinite"],
)
def test_labels_that_are_not_integers_are_rejected_not_truncated(tmp_path, values):
    for name, check in _label_checks(tmp_path, 4, 2).items():
        message = f"^{re.escape(name)}: label .* is not an int64 integer$"
        with pytest.raises(DataError, match=message):
            check(np.array(values))
        assert check(np.array([0.0, 1.0, 1.0, 0.0])).tolist() == [0, 1, 1, 0]


# Floats that no int64 label equals: fractional, NaN, infinite or past 2**63.
_NOT_INT64 = st.floats().filter(
    lambda v: not (math.isfinite(v) and v == math.floor(v) and abs(v) < 2**63)
)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    extra=st.lists(st.integers(0, 4), max_size=12),
    bad=st.one_of(st.none(), _NOT_INT64),
    at=st.integers(0, 16),
)
def test_label_contract_converts_integers_and_rejects_the_rest(tmp_path, extra, bad, at):
    # Integer labels, held as ints or floats, convert exactly; one entry no
    # int64 equals raises DataError naming the labels, and no RuntimeWarning
    # from a cast escapes first.
    ints = np.array([*range(5), *extra])
    values = ints.astype(np.float64)
    if bad is not None:
        values[at % ints.size] = bad
    for name, check in _label_checks(tmp_path, ints.size, 5).items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if bad is None:
                for dtype in (np.int32, np.int64, np.float32, np.float64):
                    converted = check(ints.astype(dtype))
                    assert converted.dtype == np.int64 and np.array_equal(converted, ints)
            else:
                with pytest.raises(DataError, match=f"^{re.escape(name)}: label "):
                    check(values)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("line", ["1_0", "+1", "\u0661", "\uff11", "1.0", "0x1", "- 1"])
def test_labels_accept_only_ascii_decimal_digits(tmp_path, line):
    path = tmp_path / "y.txt"
    path.write_text(f"0\n{line}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"y\.txt: line 2: not an integer label$"):
        read_labels(path)


def test_labels_keep_surrounding_whitespace_and_negative_label(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text(" 3 \n\n007\n")
    assert read_labels(path).tolist() == [3, 7]
    path.write_text("1\n-0\n-4\n")
    with pytest.raises(DataError, match=r"y\.txt: negative label$"):
        read_labels(path)


def test_non_utf8_text_rejected(tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_bytes(b"1\n\xff\xfe2\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        read_labels(labels)
    config = tmp_path / "config.txt"
    config.write_bytes(b"pca_dim=\xff\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        load_config(config)


# kind -> (reader, text, a function of what it read that compares by ==)
_BOM_INPUTS = {
    "labels": (read_labels, "0\n2\n1\n", lambda labels: labels.tolist()),
    "config": (load_config, "pca_dim=5\nsubspace_dim=2\n", lambda config: config),
    "shift-spec": (parse_shift_spec, "classes=3\nseed=7\n", lambda spec: spec),
    "matrix-csv": (read_matrix, "1.5,2\n-3,4e-2\n", lambda matrix: matrix.tolist()),
}


@pytest.mark.parametrize("kind", sorted(_BOM_INPUTS))
def test_leading_byte_order_mark_is_ignored(tmp_path, kind):
    reader, text, value = _BOM_INPUTS[kind]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes("\ufeff".encode() + text.encode())
    assert value(reader(marked)) == value(reader(plain))


_FUZZ_SEEDS = {
    "labels": (read_labels, "".join(f"{i % 7}\n" for i in range(40)).encode()),
    "config": (
        load_config,
        b"source_features=s.cdm\nsource_labels=s.txt\ntarget_features=t.cdm\n"
        b"pca_dim=10\nsubspace_dim=4\niterations=5\nbeta=0.1\nlambda=0.2\n"
        b"delta=1.5\ngamma=0.0\neta=0.3\ndataset.A.features=a.cdm\n",
    ),
    "matrix-cdm1": (
        read_matrix,
        MAGIC + (4).to_bytes(4, "little") + (3).to_bytes(4, "little")
        + np.linspace(-2.0, 2.0, 12).astype("<f8").tobytes(),
    ),
    "matrix-csv": (
        read_matrix,
        "".join(f"{i}.5,{-i},{0.25 * i}\n" for i in range(8)).encode(),
    ),
}


@pytest.mark.parametrize("kind", sorted(_FUZZ_SEEDS))
def test_byte_flips_raise_only_cdem_errors(tmp_path, kind):
    reader, seed_bytes = _FUZZ_SEEDS[kind]
    rng = np.random.default_rng(61)
    path = tmp_path / f"{kind}.txt"
    failures = 0
    for _ in range(1000):
        mutant = bytearray(seed_bytes)
        for pos in rng.integers(0, len(mutant), size=int(rng.integers(1, 4))):
            mutant[pos] = int(rng.integers(0, 256))
        path.write_bytes(bytes(mutant))
        try:
            reader(path)
        except CdemError:
            failures += 1
    # most mutants are rejected, some still parse; nothing else escapes
    assert 0 < failures < 1000


def test_read_matrix_peak_memory_near_one_matrix(tmp_path):
    # The CDM1 payload goes straight into the returned array: what the read
    # allocates beyond it is the n×d/8 finiteness mask, not a second copy.
    x = np.random.default_rng(5).standard_normal((2000, 1024))
    path = tmp_path / "x.cdm"
    write_matrix(x, path)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        loaded = read_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded, x)
    assert peak - baseline <= 1.25 * x.nbytes


def test_write_matrix_peak_memory_below_a_quarter_matrix(tmp_path):
    # The payload streams from the array to the file: what the write
    # allocates is the n×d/8 finiteness mask, not a bytes copy.
    x = np.random.default_rng(6).standard_normal((800, 4096))
    path = tmp_path / "x.cdm"
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        write_matrix(x, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 0.25 * x.nbytes
    header = MAGIC + (800).to_bytes(4, "little") + (4096).to_bytes(4, "little")
    assert path.read_bytes() == header + x.astype("<f8").tobytes()


def test_domain_pair_validation():
    xs = np.zeros((4, 3))
    xt = np.zeros((2, 3))
    pair = DomainPair(xs, [0, 1, 0, 1], xt, 2)
    assert pair.n_source == 4 and pair.n_target == 2
    assert pair.source_x.shape == (4, 3) and pair.target_x.shape == (2, 3)
    assert pair.source_y.dtype == np.int64
    with pytest.raises(DataError):
        DomainPair(xs, [0, 0, 0, 0], xt, 2)  # class 1 missing
    with pytest.raises(DataError):
        DomainPair(xs, [0, 1, 0, 2], xt, 2)  # label out of range
    with pytest.raises(DataError):
        DomainPair(xs, [0, 1, 0], xt, 2)  # label count mismatch
    with pytest.raises(DataError):
        DomainPair(xs, [0, 1, 0, 1], np.zeros((2, 4)), 2)  # width mismatch
    with pytest.raises(DataError):
        DomainPair(xs, [0, 0, 0, 0], xt, 1)  # single class
    with pytest.raises(DataError, match="^source labels must be 1-d$"):
        DomainPair(xs, [[0, 1], [0, 1]], xt, 2)
    with pytest.raises(DataError, match=r"^target features: expected a non-empty 2-d matrix"):
        DomainPair(xs, [0, 1, 0, 1], np.zeros(3), 2)
    with pytest.raises(DataError, match=r"^source features: .* got shape \(0, 3\)$"):
        DomainPair(np.zeros((0, 3)), [], xt, 2)


def test_source_label_above_row_count_rejected_before_counting(tmp_path, capsys):
    # n_classes is the largest source label plus one: 10**13 + 1 classes over
    # 20 rows would size np.bincount at 80 TB, but 20 labels leave one of
    # the first 21 classes empty, and the first empty one is class 2.
    labels = np.arange(20) % 2
    labels[-1] = 10**13
    rng = np.random.default_rng(0)
    write_matrix(rng.standard_normal((20, 3)), tmp_path / "xs.cdm")
    write_matrix(rng.standard_normal((8, 3)), tmp_path / "xt.cdm")
    write_labels(labels, tmp_path / "ys.txt")
    (tmp_path / "config.txt").write_text(
        "source_features=xs.cdm\nsource_labels=ys.txt\ntarget_features=xt.cdm\n"
    )
    config = load_config(tmp_path / "config.txt")
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        with pytest.raises(DataError, match="^class 2 has no source samples$"):
            load_domain_pair(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 1 << 20
    from cdem.cli import main

    assert main(["run", "--config", str(tmp_path / "config.txt"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: class 2 has no source samples\n"


def _write_task(tmp_path, n_classes=2):
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((6, 4))
    ys = np.array([0, 1] * 3)
    xt = rng.standard_normal((5, 4))
    yt = np.array([0, 1, 0, 1, 0])
    write_matrix(xs, tmp_path / "xs.cdm")
    write_labels(ys, tmp_path / "ys.txt")
    write_matrix(xt, tmp_path / "xt.cdm")
    write_labels(yt, tmp_path / "yt.txt")


def test_config_parse_and_load(tmp_path):
    _write_task(tmp_path)
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(
        "# comment\n"
        "source_features=xs.cdm\n"
        "source_labels=ys.txt\n"
        "target_features=xt.cdm\n"
        "target_labels=yt.txt\n"
        "pca_dim=4\n"
        "subspace_dim=2\n"
        "iterations=3\n"
        "lambda=0.5\n"
    )
    config = load_config(cfg_path)
    assert config.pca_dim == 4 and config.subspace_dim == 2
    assert config.lam == 0.5
    assert config.beta == 0.1  # default untouched
    pair = load_domain_pair(config)
    assert pair.n_source == 6 and pair.n_target == 5 and pair.n_classes == 2
    labels = load_eval_labels(config, pair)
    assert labels is not None and labels.tolist() == [0, 1, 0, 1, 0]


def test_command_loader_scans_each_matrix_for_finiteness_once(tmp_path, monkeypatch):
    from cdem import bench

    _write_task(tmp_path)
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(
        "source_features=xs.cdm\nsource_labels=ys.txt\ntarget_features=xt.cdm\n"
        "pca_dim=4\nsubspace_dim=2\n"
    )
    config = load_config(cfg_path)
    scanned = []
    isfinite = np.isfinite

    def recording_isfinite(arr, *args, **kwargs):
        scanned.append(np.shape(arr))
        return isfinite(arr, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recording_isfinite)
    bench.load_tasks(config, [None])
    assert [s for s in scanned if s in ((6, 4), (5, 4))] == [(6, 4), (5, 4)]
    # the one scan still rejects a NaN, as the API loader's does
    raw = bytearray((tmp_path / "xt.cdm").read_bytes())
    raw[-8:] = np.array([np.nan]).tobytes()
    (tmp_path / "xt.cdm").write_bytes(bytes(raw))
    for load in (load_domain_pair, lambda config: bench.load_tasks(config, [None])):
        with pytest.raises(DataError, match="xt.cdm: matrix contains NaN"):
            load(config)


def test_config_rejects_unknown_and_duplicate_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("bogus_key=1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("pca_dim=4\npca_dim=8\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: line 2: duplicate key 'pca_dim'")):
        load_config(path)
    path.write_text("# comment\n\npca_dim 4\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: line 3: expected key=value")):
        load_config(path)
    path.write_text("subspace_dim=8\npca_dim=4\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("iterations=0\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("pca_dim=0\n")
    message = f"{path}: pca_dim and subspace_dim must be positive"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(path)
    path.write_text("dataset.X.labels=x.txt\n")
    missing = f"{path}: dataset.X: missing features path"
    with pytest.raises(ConfigError, match=f"^{re.escape(missing)}$"):
        load_config(path)
    # an empty name would register tasks "-X" and "X-"
    for key in ("dataset.X.weights", "dataset.X", "dataset..features"):
        path.write_text(f"dataset.X.features=x.cdm\n{key}=x.txt\n")
        message = f"{path}: line 2: bad dataset key {key!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
    path.write_text("beta=-0.5\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: beta must be non-negative')}$"):
        load_config(path)
    for removed in ("joint_pca", "kmeans_warm_start", "legacy_beta_prefactor",
                    "include_unselected_in_m0", "seed", "components"):
        path.write_text(f"{removed}=true\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("pca_dim=four", "line 1: pca_dim must be an integer, got 'four'"),
        ("beta=much", "line 1: beta must be a number, got 'much'"),
        ("foo=1", "line 1: unknown key 'foo'"),
        # rows are always scaled to unit length after PCA; the switch is gone
        ("normalize=true", "line 1: unknown key 'normalize'"),
        ("dataset..features=x.cdm", "line 1: bad dataset key 'dataset..features'"),
        ("dataset.A.labels=a.txt", "dataset.A: missing features path"),
    ],
    ids=["integer", "number", "unknown-key", "normalize", "dataset-key", "no-features"],
)
def test_config_errors_name_the_file_and_line(tmp_path, line, message):
    path = tmp_path / "config.txt"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_config(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(WEIGHT_KEYS))
def test_config_rejects_non_finite_weights(tmp_path, key, value):
    message = f"{WEIGHT_KEYS[key]} must be finite, got {value}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**{WEIGHT_KEYS[key]: float(value)})
    path = tmp_path / "config.txt"
    path.write_text(f"{key}={value}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_config(path)


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Remaining keys and defaults:", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `([a-z_]+)` \|", table, flags=re.MULTILINE))
    accepted = _INT_KEYS | set(WEIGHT_KEYS)
    assert listed == accepted


def test_readme_config_examples_load_bare_paths(tmp_path):
    # a comment after a value would become part of the file name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2
    for index, block in enumerate(blocks):
        path = tmp_path / f"config{index}.txt"
        path.write_text(block)
        config = load_config(path)
        paths = [getattr(config, key) for key in sorted(_PATH_KEYS)]
        paths += [p for e in config.datasets.values() for p in (e.features, e.labels)]
        paths = [p for p in paths if p is not None]
        assert paths
        for p in paths:
            assert re.fullmatch(r"\w+\.(cdm|txt)", p.name), p.name


def test_config_registry_tasks(tmp_path):
    _write_task(tmp_path)
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(
        "dataset.S.features=xs.cdm\n"
        "dataset.S.labels=ys.txt\n"
        "dataset.T.features=xt.cdm\n"
        "dataset.T.labels=yt.txt\n"
        "pca_dim=4\nsubspace_dim=2\n"
    )
    config = load_config(cfg_path)
    pair = load_domain_pair(config, ("S", "T"))
    assert pair.n_source == 6 and pair.n_target == 5
    labels = load_eval_labels(config, pair, ("S", "T"))
    assert labels is not None
    with pytest.raises(ConfigError, match=r"^task 'S-X': dataset 'X' not in registry$"):
        load_domain_pair(config, ("S", "X"))
    with pytest.raises(ConfigError):
        load_domain_pair(config)  # no explicit paths in this file
    direct = replace(config, source_features=tmp_path / "xs.cdm", source_labels=Path("ys.txt"))
    with pytest.raises(ConfigError, match="^config does not define target_features$"):
        load_domain_pair(direct)
    unlabeled = replace(config, datasets={**config.datasets, "U": DatasetEntry(Path("xt.cdm"))})
    with pytest.raises(ConfigError, match="^dataset 'U' has no label file, cannot be a source$"):
        load_domain_pair(unlabeled, ("U", "S"))


def _registry_config(*names):
    return ExperimentConfig(datasets={n: DatasetEntry(features=Path(f"{n}.cdm")) for n in names})


def test_split_task_at_the_one_dash_between_registry_names():
    config = _registry_config("art", "art-1", "clip-2")
    assert split_task(config, "art-1-clip-2") == ("art-1", "clip-2")
    assert split_task(config, "art-art-1") == ("art", "art-1")
    assert split_task(config, "clip-2-art") == ("clip-2", "art")
    with pytest.raises(ConfigError, match=r"^task 'art': expected SOURCE-TARGET$"):
        split_task(config, "art")
    # no split into two registry names: reported at the first "-"
    missing = r"^task 'art-1-clip': dataset '1-clip' not in registry$"
    with pytest.raises(ConfigError, match=missing):
        split_task(config, "art-1-clip")
    with pytest.raises(ConfigError, match=r"^task 'x-art': dataset 'x' not in registry$"):
        split_task(config, "x-art")
    ambiguous = _registry_config("a", "a-b", "b-c", "c")
    with pytest.raises(ConfigError, match=r"^task 'a-b-c': ambiguous, could be 'a' to 'b-c', "):
        split_task(ambiguous, "a-b-c")


def _task_with_eval_labels(tmp_path, labels):
    _write_task(tmp_path)
    (tmp_path / "yt.txt").write_text("".join(f"{v}\n" for v in labels))
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(
        "source_features=xs.cdm\nsource_labels=ys.txt\n"
        "target_features=xt.cdm\ntarget_labels=yt.txt\n"
        "pca_dim=4\nsubspace_dim=2\n"
    )
    config = load_config(cfg_path)
    return config, load_domain_pair(config)


def test_eval_labels_validated(tmp_path):
    config, pair = _task_with_eval_labels(tmp_path, [0, 1, 0, 1, 7])
    with pytest.raises(DataError):
        load_eval_labels(config, pair)


@pytest.mark.parametrize(
    "labels",
    [[0, 1, 0, 1], [0, 1, -1, 1, 0], [0, 1, 0, 1, 2]],
    ids=["wrong-length", "negative", "class-out-of-range"],
)
def test_eval_labels_contract_checked_on_both_paths(tmp_path, labels):
    config, pair = _task_with_eval_labels(tmp_path, labels)
    with pytest.raises(DataError, match=re.escape(str(tmp_path / "yt.txt"))):
        load_eval_labels(config, pair)
    with pytest.raises(DataError, match="^evaluation labels: "):
        run_adaptation(prepare_task(pair, config), config, np.array(labels))
