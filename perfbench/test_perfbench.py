import importlib
from pathlib import Path

import numpy as np
import pytest

import tracer as tracing
from cdem import cli
from cdem.matio import write_labels, write_matrix
from cdem.synth import ShiftSpec, generate
from run import CheckFailed, check_outputs
from workloads import NAMES, write_workload


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_files(tmp_path, name):
    first = write_workload(name, 3, tmp_path / "a")
    second = write_workload(name, 3, tmp_path / "b")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    write_workload(name, 4, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _small_registry(root: Path) -> list[str]:
    """Three small domains, so `--task all` runs six tasks on the pool."""
    lines = ["pca_dim=8", "subspace_dim=4"]
    for index, (name, rotation) in enumerate((("A", 0.0), ("B", 25.0), ("C", -30.0))):
        spec = ShiftSpec(classes=3, n_per_domain=60, dims=10, separation=6.0,
                         rotation_deg=rotation, translation=(0.5 * index,), seed=index)
        pair, labels = generate(spec)
        write_matrix(pair.target_x, root / f"{name}_x.cdm")
        write_labels(labels, root / f"{name}_y.txt")
        lines += [f"dataset.{name}.features={name}_x.cdm", f"dataset.{name}.labels={name}_y.txt"]
    (root / "config.txt").write_text("\n".join(lines) + "\n")
    return ["run", "--config", str(root / "config.txt"), "--task", "all"]


def _originals() -> dict[tuple[str, str], object]:
    names = [(mod, attr) for mod, attr, _, _ in tracing.WRAPPED]
    names.append(("cdem.bench", "ThreadPoolExecutor"))
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in names}


def test_traced_run_restores_functions_and_keeps_predictions(tmp_path):
    args = _small_registry(tmp_path)
    before = _originals()
    assert cli.main(args + ["--out", str(tmp_path / "plain")]) == 0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracing.is_clean()
        with tracer.span("cli.main"):
            assert cli.main(args + ["--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()

    assert tracing.is_clean()
    assert _originals() == before
    assert _files(tmp_path / "plain") == _files(tmp_path / "traced")

    metrics = tracing.summarize(tracer.dump())
    assert metrics["matio.read_calls"] == 12  # 6 tasks x (source, target)
    assert metrics["preprocess.pca_calls"] == 6
    assert metrics["objectives.build_calls"] == metrics["eigsolve.solve_calls"] == 66
    assert 0.0 < metrics["curriculum.admit_ratio"] <= 1.0
    tasks = {s["task"] for s in tracer.spans if s["name"] == "trainer.run"}
    assert tasks == {"A-B", "A-C", "B-A", "B-C", "C-A", "C-B"}


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "task": "t"}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "a", 3.0, 6.0, parent=1),  # overlaps its sibling on another thread
        _span(4, "b", 2.0, 3.0, parent=2),
    ]
    own = tracing.self_times(spans)
    assert own["root"] == pytest.approx(5.0)
    assert own["a"] == pytest.approx(2.0 + 3.0)
    assert own["b"] == pytest.approx(1.0)


def test_output_check_rejects_a_bad_prediction_file(tmp_path):
    wl = write_workload("suite-12", 1, tmp_path / "data")
    args = ["run", "--config", str(tmp_path / "data" / "config.txt"), "--task", "all",
            "--out", str(tmp_path / "out")]
    # a quick run: shrink the solver so the check, not cdem, is under test
    with (tmp_path / "data" / "config.txt").open("a") as fh:
        fh.write("pca_dim=8\nsubspace_dim=4\niterations=2\n")
    assert cli.main(args) == 0
    truth = {t: [int(v) for v in (tmp_path / "data" / f).read_text().split()]
             for t, f in wl.truth.items()}
    accuracy, _ = check_outputs(tmp_path / "out", wl, truth)
    assert 0.0 < accuracy <= 100.0
    pred = tmp_path / "out" / "A-B_cdem_predictions.txt"
    lines = pred.read_text().splitlines()
    pred.write_text("\n".join([str(wl.n_classes)] + lines[1:]) + "\n")
    with pytest.raises(CheckFailed):
        check_outputs(tmp_path / "out", wl, truth)
