"""Seeded synthetic inputs for the benchmark workloads.

Every workload is built on ``cdem.synth.generate`` and written to disk as
CDM1 features, label files and a ``key=value`` config, so the timed run reads
its inputs exactly as a user's run does.  Only the data is written: the
config names paths and nothing else, so every run uses cdem's defaults
(``pca_dim=128``, ``subspace_dim=32``, 11 iterations).

Shift settings were chosen so that cdem beats the source-only prototype
classifier by a wide margin on every seed tried; the benchmark checks that.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cdem.matio import write_labels, write_matrix
from cdem.synth import ShiftSpec, generate

CLASSES = 10
# One translation direction for every target/domain shift, spread over the
# class-mean dimensions so that every class moves.
_TRANSLATION = tuple(3.0 * np.cos(np.arange(CLASSES)))


@dataclass(frozen=True)
class Workload:
    """What a workload's generated directory holds.

    tasks : the ``--task`` arguments of the run (empty: the config's direct pair)
    truth : target label file per task, keyed by the task name cdem reports
    """

    tasks: tuple[str, ...]
    truth: dict[str, str]
    n_classes: int


def _pair_spec(n: int, d: int, separation: float, seed: int) -> ShiftSpec:
    return ShiftSpec(
        classes=CLASSES,
        n_per_domain=n,
        dims=d,
        separation=separation,
        rotation_deg=45.0,
        translation=_TRANSLATION,
        noise_scale=0.5,
        seed=seed,
    )


# name -> (rows per domain, feature width, class separation).  The wide
# workload needs a larger separation because 4096 unit-variance noise
# dimensions swamp the 10 class-mean dimensions otherwise.
PAIRS = {
    "pair-large-n": (1000, 512, 7.0),
    "wide-d": (400, 4096, 12.0),
}

# suite-12: four domains sharing one class-mean layout, each with its own
# rotation, translation scale and noise, so all 12 ordered pairs differ.
SUITE_DOMAINS = {
    "A": (0.0, 0.0, 0.0),
    "B": (30.0, 0.6, 0.3),
    "C": (-40.0, 0.9, 0.5),
    "D": (60.0, -0.7, 0.4),
}
SUITE_ROWS = 250
SUITE_DIMS = 256
SUITE_SEPARATION = 8.0

NAMES = (*PAIRS, "suite-12")


def _write_pair(out: Path, name: str, seed: int) -> Workload:
    n, d, separation = PAIRS[name]
    pair, target_y = generate(_pair_spec(n, d, separation, seed))
    write_matrix(pair.source_x, out / "source_x.cdm")
    write_labels(pair.source_y, out / "source_y.txt")
    write_matrix(pair.target_x, out / "target_x.cdm")
    write_labels(target_y, out / "target_y.txt")
    (out / "config.txt").write_text(
        "source_features=source_x.cdm\n"
        "source_labels=source_y.txt\n"
        "target_features=target_x.cdm\n"
        "target_labels=target_y.txt\n"
    )
    return Workload((), {"task": "target_y.txt"}, CLASSES)


def _write_suite(out: Path, seed: int) -> Workload:
    lines = []
    for index, (domain, (rotation, scale, noise)) in enumerate(SUITE_DOMAINS.items()):
        spec = ShiftSpec(
            classes=CLASSES,
            n_per_domain=SUITE_ROWS,
            dims=SUITE_DIMS,
            separation=SUITE_SEPARATION,
            rotation_deg=rotation,
            translation=tuple(scale * t for t in _TRANSLATION),
            noise_scale=noise,
            seed=4 * seed + index,
        )
        # The shifted ("target") side of each draw is the domain; the
        # unshifted side is discarded.
        pair, labels = generate(spec)
        write_matrix(pair.target_x, out / f"{domain}_x.cdm")
        write_labels(labels, out / f"{domain}_y.txt")
        lines.append(f"dataset.{domain}.features={domain}_x.cdm")
        lines.append(f"dataset.{domain}.labels={domain}_y.txt")
    (out / "config.txt").write_text("\n".join(lines) + "\n")
    truth = {f"{s}-{t}": f"{t}_y.txt" for s in SUITE_DOMAINS for t in SUITE_DOMAINS if s != t}
    return Workload(("all",), truth, CLASSES)


def write_workload(name: str, seed: int, out_dir: str | Path) -> Workload:
    """Generate workload ``name`` for ``seed`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if name in PAIRS:
        return _write_pair(out, name, seed)
    if name == "suite-12":
        return _write_suite(out, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
