"""Synthetic two-domain classification tasks with a controlled shift.

Both domains draw unit-variance Gaussian blobs around class means placed so
every pair of means sits exactly ``separation`` apart.  The target domain is
then rotated in the first two feature dimensions, translated, and optionally
perturbed with extra noise, which produces a covariate shift a source-only
classifier degrades under while the class structure stays recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .matio import DomainPair, read_key_values, write_labels, write_matrix

_SPEC_INT_KEYS = {"classes", "n_per_domain", "dims", "seed"}
_SPEC_FLOAT_KEYS = {"separation", "rotation_deg", "noise_scale"}
# The target's extra noise is drawn in row chunks of at most this many bytes.
_NOISE_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ShiftSpec:
    """Parameters of one synthetic task."""

    classes: int = 2
    n_per_domain: int = 200
    dims: int = 10
    separation: float = 6.0
    rotation_deg: float = 15.0
    translation: tuple[float, ...] = ()
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ConfigError("need at least two classes")
        if self.dims < 2:
            raise ConfigError("need at least two feature dimensions to rotate")
        if self.classes > self.dims:
            raise ConfigError("class means need classes <= dims")
        if self.n_per_domain < self.classes:
            raise ConfigError("need at least one sample per class and domain")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in sorted(_SPEC_FLOAT_KEYS):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not np.isfinite(self.translation).all():
            raise ConfigError(f"translation entries must be finite, got {self.translation}")
        if self.separation <= 0:
            raise ConfigError("separation must be positive")
        if self.noise_scale < 0:
            raise ConfigError("noise_scale must be non-negative")
        if len(self.translation) > self.dims:
            raise ConfigError("translation has more entries than dims")


def class_counts(total: int, n_classes: int) -> np.ndarray:
    """Fixed partition: total // C each, remainder spread over low classes."""
    counts = np.full(n_classes, total // n_classes, dtype=np.int64)
    counts[: total % n_classes] += 1
    return counts


def _class_means(spec: ShiftSpec) -> np.ndarray:
    # One axis direction per class, centered; scaling by sep/sqrt(2) makes
    # every pairwise distance exactly the requested separation.
    basis = np.zeros((spec.classes, spec.dims))
    basis[np.arange(spec.classes), np.arange(spec.classes)] = 1.0
    centered = basis - basis.mean(axis=0)
    return centered * (spec.separation / np.sqrt(2.0))


def _sample_blobs(
    rng: np.random.Generator, means: np.ndarray, counts: np.ndarray, dims: int
) -> tuple[np.ndarray, np.ndarray]:
    # Each class's draw goes straight into its rows of the one output array.
    x = np.empty((int(counts.sum()), dims))
    stops = np.cumsum(counts)
    for cls, (start, stop) in enumerate(zip(stops - counts, stops)):
        rows = x[start:stop]
        rng.standard_normal(out=rows)
        rows += means[cls]
    return x, np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def _add_noise(rng: np.random.Generator, x: np.ndarray, scale: float) -> None:
    """x += scale * rng.standard_normal(x.shape), drawn in row chunks: the
    chunks, drawn in order, are that one draw row by row."""
    chunk = np.empty((max(1, _NOISE_CHUNK_BYTES // (8 * x.shape[1])), x.shape[1]))
    for start in range(0, x.shape[0], chunk.shape[0]):
        rows = x[start : start + chunk.shape[0]]
        noise = chunk[: rows.shape[0]]
        rng.standard_normal(out=noise)
        noise *= scale
        rows += noise


def generate(spec: ShiftSpec) -> tuple[DomainPair, np.ndarray]:
    """Draw one task; target labels are returned separately, for scoring only."""
    rng = np.random.default_rng(spec.seed)
    means = _class_means(spec)
    counts = class_counts(spec.n_per_domain, spec.classes)
    source_x, source_y = _sample_blobs(rng, means, counts, spec.dims)
    target_x, target_y = _sample_blobs(rng, means, counts, spec.dims)
    shift = np.zeros(spec.dims)
    shift[: len(spec.translation)] = spec.translation
    # Only the first two dimensions rotate: a 2×2 product, never a d×d one.
    angle = np.deg2rad(spec.rotation_deg)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    target_x[:, :2] = target_x[:, :2] @ rotation.T
    target_x += shift
    if spec.noise_scale > 0:
        _add_noise(rng, target_x, spec.noise_scale)
    pair = DomainPair(source_x, source_y, target_x, spec.classes)
    return pair, target_y


def standard_shift_spec(seed: int = 0) -> ShiftSpec:
    """The reference two-class task used by the self-checks: well-separated
    blobs, a 15 degree rotation, and a translation large enough to hurt a
    source-only classifier without destroying the cluster structure."""
    return ShiftSpec(
        classes=2,
        n_per_domain=200,
        dims=10,
        separation=6.0,
        rotation_deg=15.0,
        translation=(2.3, -2.6),
        noise_scale=0.0,
        seed=seed,
    )


def parse_shift_spec(path: str | Path) -> ShiftSpec:
    """Read a ShiftSpec from a flat key=value file; an error of ShiftSpec's
    own value checks is named with the file."""
    kwargs: dict = {}
    for lineno, key, value in read_key_values(path):
        try:
            if key in _SPEC_INT_KEYS:
                kwargs[key] = int(value)
            elif key in _SPEC_FLOAT_KEYS:
                kwargs[key] = float(value)
            elif key == "translation":
                kwargs[key] = tuple(
                    float(tok) for tok in value.split(",") if tok.strip()
                )
            else:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: bad value for {key}, got {value!r}") from exc
    try:
        return ShiftSpec(**kwargs)
    except ConfigError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_dataset(spec: ShiftSpec, out_dir: str | Path) -> dict[str, Path]:
    """Generate a task and write features, labels, and a ready-to-run config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pair, target_y = generate(spec)
    paths = {
        "source_features": out / "source_features.cdm",
        "source_labels": out / "source_labels.txt",
        "target_features": out / "target_features.cdm",
        "target_labels": out / "target_labels.txt",
        "config": out / "config.txt",
    }
    write_matrix(pair.source_x, paths["source_features"])
    write_labels(pair.source_y, paths["source_labels"])
    write_matrix(pair.target_x, paths["target_features"])
    write_labels(target_y, paths["target_labels"])
    lines = [
        "source_features=source_features.cdm",
        "source_labels=source_labels.txt",
        "target_features=target_features.cdm",
        "target_labels=target_labels.txt",
        # the stacked, centered rows have rank at most 2n - 1
        f"pca_dim={min(spec.dims, 2 * spec.n_per_domain - 1)}",
        f"subspace_dim={min(4, spec.dims)}",
        "iterations=11",
        "beta=0.1",
        "lambda=0.1",
        "gamma=0.1",
        "eta=0.1",
        "delta=0.1",
    ]
    paths["config"].write_text("\n".join(lines) + "\n")
    return paths
