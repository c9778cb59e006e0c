"""Regenerate the golden outputs that ``tests/test_golden.py`` compares.

usage: OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/golden/regenerate.py

Run from the repository root.  Each case writes its inputs with
``cdem.synth`` from fixed specs, runs one ``cdem`` command on them in
process, and keeps its ``report.csv``, ``report.json``, ``grid.csv`` and
every predictions file in ``tests/golden/<case>/``, replacing what was
there.  Regenerate only for a change that moves outputs on purpose, and
list every moved file in CHANGES.md.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from cdem.cli import main
from cdem.matio import write_labels, write_matrix
from cdem.synth import ShiftSpec, generate, write_dataset

HERE = Path(__file__).resolve().parent
# The outputs a change keeps: embeddings are left out, their floats move
# with the BLAS thread count.
KEPT = ("report.csv", "report.json", "grid.csv", "*_predictions.txt")


def _pair(spec: ShiftSpec):
    def write(out: Path) -> Path:
        return write_dataset(spec, out)["config"]

    return write


def _registry(out: Path) -> Path:
    """Three domains, each the shifted side of its own draw, registered for
    ``--task all``."""
    out.mkdir(parents=True)
    lines = ["pca_dim=9", "subspace_dim=3", "iterations=5"]
    for index, (domain, rotation) in enumerate((("A", 0.0), ("B", 25.0), ("C", -35.0))):
        spec = ShiftSpec(classes=4, n_per_domain=48, dims=12, separation=4.0,
                         rotation_deg=rotation, translation=(0.8 * index, -0.5),
                         noise_scale=0.3 * index, seed=30 + index)
        pair, labels = generate(spec)
        write_matrix(pair.target_x, out / f"{domain}_x.cdm")
        write_labels(labels, out / f"{domain}_y.txt")
        lines += [f"dataset.{domain}.features={domain}_x.cdm",
                  f"dataset.{domain}.labels={domain}_y.txt"]
    config = out / "config.txt"
    config.write_text("\n".join(lines) + "\n")
    return config


# case -> (writes the inputs into a directory and returns the config, the
# command and its options)
CASES = {
    # n >= d: 160 rows per domain, 12 features
    "tall": (
        _pair(ShiftSpec(classes=3, n_per_domain=160, dims=12, separation=3.5,
                        rotation_deg=30.0, translation=(1.5, -1.0), noise_scale=0.4, seed=11)),
        ["run", "--with-baseline"],
    ),
    # n < d: 40 rows per domain, 150 features
    "wide": (
        _pair(ShiftSpec(classes=4, n_per_domain=40, dims=150, separation=10.0,
                        rotation_deg=45.0, translation=(3.0, -3.0), noise_scale=0.5, seed=12)),
        ["run", "--with-baseline"],
    ),
    "registry": (_registry, ["run", "--task", "all", "--ablation", "--with-baseline"]),
    "registry-grid": (_registry, ["grid", "--task", "all", "--params", "beta"]),
}


def produce(case: str, work: Path) -> list[Path]:
    """Run case in the empty directory work; returns its kept outputs."""
    write, (command, *options) = CASES[case]
    config = write(work / "data")
    out = work / "out"
    code = main([command, "--config", str(config), *options, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{case}: cdem {command} exited with {code}")
    return sorted(path for pattern in KEPT for path in out.glob(pattern))


def write_golden() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = produce(case, Path(tmp))
            dest = HERE / case
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir()
            for path in outputs:
                shutil.copyfile(path, dest / path.name)


if __name__ == "__main__":
    write_golden()
