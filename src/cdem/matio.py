"""File formats and dataset assembly.

Feature matrices travel either as a small binary container or as plain CSV.
The binary container is magic ``CDM1``, two little-endian uint32 fields
(rows, cols), then rows*cols float64 values in row-major order.  Label files
hold one decimal integer per line.  Experiment configuration is a flat
``key=value`` text file; relative paths inside it resolve against the
directory containing the file.  Every feature matrix cdem is handed, read
from a file or in memory, passes one gate, ``as_matrix``; labels pass
``_int64_labels``.

A ``Task`` is the config's direct pair (None) or a (source, target) pair of
registry names; ``load_domain_pair`` reads one into a ``DomainPair`` and
``load_eval_labels`` reads its held-out target labels.
"""

from __future__ import annotations

import os
import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ConfigError, DataError, FormatError

MAGIC = b"CDM1"
_HEADER = struct.Struct("<4sII")


def _real_array(values, context: str) -> np.ndarray:
    """values as an array of a real dtype (bool, int, uint or float); a
    ragged nesting or any other dtype (complex, str, bytes, object) raises
    DataError naming context."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise DataError(f"{context}: expected an array, got a ragged nesting") from exc
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{context}: expected real numbers, got dtype {arr.dtype}")
    return arr


def as_matrix(values, context: str) -> np.ndarray:
    """values as a float64 matrix with at least one row and one column: the
    one rule for every matrix cdem is handed, in memory or read from a file.
    Real dtypes convert; a float64 array comes back as itself, so a
    read-only one stays read-only.  Any other dtype, a ragged nesting,
    ndim != 2 or an empty side raises DataError naming context.  Finiteness
    is ``check_finite``'s."""
    arr = _real_array(values, context)
    if arr.ndim != 2 or 0 in arr.shape:
        raise DataError(f"{context}: expected a non-empty 2-d matrix, got shape {arr.shape}")
    return arr.astype(np.float64, copy=False)


def check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    """arr itself, once one scan has found no NaN or infinite entry in it."""
    if not np.isfinite(arr).all():
        raise DataError(f"{context}: matrix contains NaN or infinite entries")
    return arr


def _read_binary_matrix(f: BinaryIO, header: bytes, context: str) -> np.ndarray:
    """The payload after a CDM1 header, read straight into the matrix once
    the file size matches the header's."""
    if len(header) < _HEADER.size:
        raise FormatError(f"{context}: truncated header ({len(header)} bytes)")
    _, rows, cols = _HEADER.unpack(header)
    expected = rows * cols * 8
    payload = os.fstat(f.fileno()).st_size - _HEADER.size
    if payload != expected:
        raise FormatError(
            f"{context}: header says {rows}x{cols} ({expected} payload bytes), found {payload}"
        )
    if rows < 1 or cols < 1:
        raise FormatError(f"{context}: empty matrix of shape ({rows}, {cols})")
    data = np.fromfile(f, dtype="<f8", count=rows * cols)
    return check_finite(as_matrix(data.reshape(rows, cols), context), context)


def read_text(path: str | Path) -> str:
    """A text file's contents, without a leading UTF-8 byte-order mark;
    bytes that are not UTF-8 raise FormatError."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc


def _read_csv_matrix(raw: bytes, context: str) -> np.ndarray:
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{context}: not a CDM1 container and not UTF-8 text") from exc
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise FormatError(f"{context}: line {lineno}: non-numeric entry") from exc
    if not rows:
        raise FormatError(f"{context}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError(f"{context}: ragged rows (first row has {width} columns)")
    return check_finite(as_matrix(rows, context), context)


def read_matrix(path: str | Path) -> np.ndarray:
    """Load a matrix, sniffing the binary container by its magic bytes."""
    path = Path(path)
    with path.open("rb") as f:
        header = f.read(_HEADER.size)
        if header[: len(MAGIC)] == MAGIC:
            return _read_binary_matrix(f, header, str(path))
        f.seek(0)
        return _read_csv_matrix(f.read(), str(path))


def write_matrix(matrix, path: str | Path) -> None:
    """Write a matrix; ``.csv`` paths get text, everything else the binary
    container, whose payload streams from the array after the header: a
    C-ordered float64 array is written without a copy."""
    path = Path(path)
    arr = check_finite(as_matrix(matrix, str(path)), str(path))
    if path.suffix.lower() == ".csv":
        lines = [",".join(repr(v) for v in row) for row in arr.tolist()]
        path.write_text("\n".join(lines) + "\n")
        return
    rows, cols = arr.shape
    with path.open("wb") as f:
        f.write(_HEADER.pack(MAGIC, rows, cols))
        np.ascontiguousarray(arr, dtype="<f8").tofile(f)


def read_labels(path: str | Path) -> np.ndarray:
    """Load a label vector: one non-negative decimal integer per line, ASCII
    digits only (a leading ``-`` parses, then fails as a negative label)."""
    path = Path(path)
    values: list[int] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        if not re.fullmatch(r"-?[0-9]+", token):
            raise FormatError(f"{path}: line {lineno}: not an integer label")
        values.append(int(token))
    if not values:
        raise FormatError(f"{path}: no labels")
    try:
        labels = np.asarray(values, dtype=np.int64)
    except OverflowError as exc:
        raise FormatError(f"{path}: label outside the int64 range") from exc
    if (labels < 0).any():
        raise DataError(f"{path}: negative label")
    return labels


def _int64_labels(labels, context: str) -> np.ndarray:
    """labels as int64.  Floats convert only when every entry is a whole
    number in the int64 range; a fractional, NaN or infinite one raises
    DataError naming the labels (context) rather than being truncated, and
    so do a ragged nesting and any dtype ``as_matrix`` rejects, numeral
    strings included."""
    labels = _real_array(labels, context)
    if labels.dtype.kind == "f":
        whole = np.isfinite(labels) & (labels == np.floor(labels)) & (np.abs(labels) < 2.0**63)
        if not whole.all():
            raise DataError(f"{context}: label {float(labels[~whole][0])} is not an int64 integer")
    return labels.astype(np.int64, copy=False)


def write_labels(labels, path: str | Path) -> None:
    labels = _int64_labels(labels, str(path))
    if labels.ndim != 1:
        raise DataError(f"{path}: labels must be 1-d")
    Path(path).write_text("\n".join(str(int(v)) for v in labels) + "\n")


def check_source_labels(labels, n_classes: int) -> np.ndarray:
    """labels as int64, once they are 1-d, n_classes is at least 2, each
    label is in [0, n_classes) and every class has one; the source-label
    rule of ``DomainPair`` and ``trainer.PreparedTask``."""
    labels = _int64_labels(labels, "source labels")
    if labels.ndim != 1:
        raise DataError("source labels must be 1-d")
    if n_classes < 2:
        raise DataError("need at least two classes")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError("source labels outside [0, n_classes)")
    # n labels leave one of the classes 0..n empty when n_classes > n, so
    # counting the first min(n_classes, n + 1) classes finds the first
    # empty one without sizing anything by n_classes.
    counted = min(n_classes, labels.shape[0] + 1)
    counts = np.bincount(labels[labels < counted], minlength=counted)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DataError(f"class {missing} has no source samples")
    return labels


class DomainPair:
    """One task as training sees it: two feature matrices of equal width,
    each passed through ``as_matrix``, one int64 label per source row, and
    n_classes ≥ 2 classes, each present in the source.  Finiteness is
    checked where the matrices are read (``read_matrix``) or prepared
    (``trainer.prepare_task``).
    Target labels are deliberately not part of this type: training code only
    ever sees the pair, evaluation labels travel separately.
    """

    def __init__(self, source_x, source_y, target_x, n_classes: int) -> None:
        source_x = as_matrix(source_x, "source features")
        target_x = as_matrix(target_x, "target features")
        source_y = check_source_labels(source_y, n_classes)
        if source_x.shape[0] != source_y.shape[0]:
            raise DataError(f"source has {source_x.shape[0]} rows but {source_y.shape[0]} labels")
        if source_x.shape[1] != target_x.shape[1]:
            raise DataError(
                f"feature width mismatch: source {source_x.shape[1]}, target {target_x.shape[1]}"
            )
        self.source_x, self.source_y, self.target_x = source_x, source_y, target_x
        self.n_classes = n_classes

    @property
    def n_source(self) -> int:
        return self.source_x.shape[0]

    @property
    def n_target(self) -> int:
        return self.target_x.shape[0]


def validate_eval_labels(labels, pair, context: str) -> np.ndarray:
    """Held-out target labels as int64: one per target row of pair, each in
    [0, pair.n_classes).  pair is anything with ``n_target`` and
    ``n_classes``, such as a ``DomainPair`` or a ``PreparedTask``."""
    labels = _int64_labels(labels, context)
    if labels.shape != (pair.n_target,):
        raise DataError(
            f"{context}: shape {labels.shape}, expected one label per target row "
            f"({pair.n_target},)"
        )
    if labels.min() < 0 or labels.max() >= pair.n_classes:
        raise DataError(f"{context}: label outside [0, {pair.n_classes})")
    return labels


@dataclass
class DatasetEntry:
    features: Path
    labels: Path | None = None


# Config-file name -> ExperimentConfig field of each objective weight.
WEIGHT_KEYS = {"beta": "beta", "lambda": "lam", "gamma": "gamma", "eta": "eta", "delta": "delta"}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings (defaults match the benchmark setup).
    The term weights beta, lam, gamma, eta and the ridge delta are finite and
    non-negative.  pca_dim is the one preparation setting: the PCA scores
    are always scaled to unit-length rows (``trainer.preprocess_rows``)."""

    source_features: Path | None = None
    source_labels: Path | None = None
    target_features: Path | None = None
    target_labels: Path | None = None
    pca_dim: int = 128
    subspace_dim: int = 32
    iterations: int = 11
    beta: float = 0.1
    lam: float = 0.1
    gamma: float = 0.1
    eta: float = 0.1
    delta: float = 1.0
    datasets: dict[str, DatasetEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.pca_dim < 1 or self.subspace_dim < 1:
            raise ConfigError("pca_dim and subspace_dim must be positive")
        if self.subspace_dim > self.pca_dim:
            raise ConfigError(
                f"subspace_dim={self.subspace_dim} exceeds pca_dim={self.pca_dim}"
            )
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        for name in WEIGHT_KEYS.values():
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ConfigError(f"{name} must be non-negative")


_INT_KEYS = {"pca_dim", "subspace_dim", "iterations"}
_PATH_KEYS = {"source_features", "source_labels", "target_features", "target_labels"}


def read_key_values(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each ``key=value`` line of a text file,
    both sides stripped; blank lines and lines starting with ``#`` are
    skipped.  A line without ``=`` raises FormatError, a repeated key
    ConfigError."""
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(f"{path}: line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        seen.add(key)
        yield lineno, key, value.strip()


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat key=value experiment file; relative paths resolve against
    the directory containing it.  A key or value this rejects is named with
    the file and line; the values' own checks are ``ExperimentConfig``'s,
    whose errors are named with the file."""
    base_dir = Path(path).parent.resolve()
    kwargs: dict = {}
    datasets: dict[str, DatasetEntry] = {}
    for lineno, key, value in read_key_values(path):
        where = f"{path}: line {lineno}"
        if key.startswith("dataset."):
            parts = key.split(".")
            if len(parts) != 3 or not parts[1] or parts[2] not in ("features", "labels"):
                raise ConfigError(f"{where}: bad dataset key {key!r}")
            name = parts[1]
            entry = datasets.setdefault(name, DatasetEntry(features=Path()))
            if parts[2] == "features":
                entry.features = base_dir / value
            else:
                entry.labels = base_dir / value
            continue
        if key in _PATH_KEYS:
            kwargs[key] = base_dir / value
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"{where}: {key} must be an integer, got {value!r}") from exc
        elif key in WEIGHT_KEYS:
            try:
                kwargs[WEIGHT_KEYS[key]] = float(value)
            except ValueError as exc:
                raise ConfigError(f"{where}: {key} must be a number, got {value!r}") from exc
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for name, entry in datasets.items():
        if entry.features == Path():
            raise ConfigError(f"{path}: dataset.{name}: missing features path")
    kwargs["datasets"] = datasets
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


Task = tuple[str, str] | None


def split_task(config: ExperimentConfig, task: str) -> tuple[str, str]:
    """The (source, target) dataset names of a typed task name: the two
    sides of the one ``-`` that has a registry name on each side, so names
    may themselves contain ``-``.  A name with no such ``-`` is reported by
    its split at the first ``-``; a name with two is ambiguous."""
    splits = [(task[:i], task[i + 1 :]) for i, char in enumerate(task) if char == "-"]
    if not splits:
        raise ConfigError(f"task {task!r}: expected SOURCE-TARGET")
    found = [names for names in splits if all(n in config.datasets for n in names)]
    if len(found) > 1:
        options = ", ".join(f"{src!r} to {tgt!r}" for src, tgt in found)
        raise ConfigError(f"task {task!r}: ambiguous, could be {options}")
    if not found:
        missing = next(n for n in splits[0] if n not in config.datasets)
        raise ConfigError(f"task {task!r}: dataset {missing!r} not in registry")
    return found[0]


def task_name(task: Task) -> str:
    """The name a task reports under: ``S-T`` for the registry pair (S, T),
    ``task`` for the config's direct pair (None)."""
    return "task" if task is None else "-".join(task)


def resolve_task_paths(
    config: ExperimentConfig, task: Task
) -> tuple[Path, Path, Path, Path | None]:
    """task's source features, source labels, target features and target
    labels paths, the last None without a label file; a registry name not in
    config or a source without labels raises ConfigError.  Nothing is read."""
    if task is None:
        if config.source_features is None or config.source_labels is None:
            raise ConfigError("config does not define source_features/source_labels")
        if config.target_features is None:
            raise ConfigError("config does not define target_features")
        return (
            config.source_features,
            config.source_labels,
            config.target_features,
            config.target_labels,
        )
    missing = [name for name in task if name not in config.datasets]
    if missing:
        raise ConfigError(f"task {task_name(task)!r}: dataset {missing[0]!r} not in registry")
    src, tgt = (config.datasets[name] for name in task)
    if src.labels is None:
        raise ConfigError(f"dataset {task[0]!r} has no label file, cannot be a source")
    return src.features, src.labels, tgt.features, tgt.labels


def load_domain_pair(
    config: ExperimentConfig,
    task: Task = None,
    matrix_reader=read_matrix,
    label_reader=read_labels,
) -> DomainPair:
    """The training-visible part of task (never target labels), with
    n_classes the largest source label plus one.  The readers behave as
    ``read_matrix`` and ``read_labels``; a caller that loads many tasks
    passes memoized ones, so a file named by several tasks is read once."""
    src_x_path, src_y_path, tgt_x_path, _ = resolve_task_paths(config, task)
    source_x = matrix_reader(src_x_path)
    source_y = label_reader(src_y_path)
    target_x = matrix_reader(tgt_x_path)
    return DomainPair(source_x, source_y, target_x, int(source_y.max()) + 1)


def load_eval_labels(
    config: ExperimentConfig, pair: DomainPair, task: Task = None, label_reader=read_labels
) -> np.ndarray | None:
    """The task's held-out target labels for scoring, checked against pair
    (see ``validate_eval_labels``), or None when it has no label file."""
    path = resolve_task_paths(config, task)[3]
    if path is None:
        return None
    return validate_eval_labels(label_reader(path), pair, str(path))
