"""Command line flows exercised in process through main()."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdem
from cdem.cli import build_parser, main
from cdem.matio import write_labels, write_matrix
from cdem.synth import ShiftSpec, generate, write_dataset


def _make_dataset(tmp_path, name="data", **spec_over):
    spec_file = tmp_path / f"{name}_spec.txt"
    fields = dict(classes=2, n_per_domain=30, dims=4, separation=8.0,
                  rotation_deg=5.0, seed=0)
    fields.update(spec_over)
    spec_file.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
    out = tmp_path / name
    code = main(["synth", "--spec", str(spec_file), "--out", str(out)])
    assert code == 0
    return out / "config.txt"


def test_synth_writes_dataset(tmp_path, capsys):
    config = _make_dataset(tmp_path)
    assert config.exists()
    assert (config.parent / "source_features.cdm").exists()
    assert (config.parent / "target_labels.txt").exists()
    assert "config:" in capsys.readouterr().out


def test_synth_standard_spec_default(tmp_path):
    out = tmp_path / "std"
    assert main(["synth", "--out", str(out), "--seed", "1"]) == 0
    text = (out / "config.txt").read_text()
    assert "pca_dim=10" in text


def test_run_flow(tmp_path, capsys):
    config = _make_dataset(tmp_path)
    out = tmp_path / "report"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    console = capsys.readouterr().out
    assert "cdem" in console and "acc=" in console
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "task,method,accuracy"
    assert csv_lines[1].startswith("task,cdem,")
    payload = json.loads((out / "report.json").read_text())
    assert payload["results"][0]["method"] == "cdem"
    assert len(payload["results"][0]["trace"]["steps"]) == 11


def test_run_with_baseline_and_ablation(tmp_path):
    config = _make_dataset(tmp_path)
    out = tmp_path / "report"
    code = main(
        ["run", "--config", str(config), "--out", str(out), "--ablation", "--with-baseline"]
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    methods = [r["method"] for r in payload["results"]]
    assert methods == ["source-only", "erm", "erm+da", "erm+da+cde", "full"]


def test_run_dump(tmp_path):
    config = _make_dataset(tmp_path)
    dump = tmp_path / "dump"
    out = tmp_path / "report"
    code = main(["run", "--config", str(config), "--out", str(out), "--dump", str(dump)])
    assert code == 0
    assert (dump / "step01_combined.cdm").exists()
    assert (dump / "step11_projection.cdm").exists()


def test_run_dump_rejects_ablation(tmp_path, capsys):
    config = _make_dataset(tmp_path)
    code = main(
        ["run", "--config", str(config), "--out", str(tmp_path / "r"),
         "--dump", str(tmp_path / "d"), "--ablation"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _child_env(**overrides) -> dict[str, str]:
    """Environment for a child interpreter that imports this checkout's cdem."""
    src = str(Path(cdem.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **overrides)


def test_predictions_identical_across_blas_threads(tmp_path):
    # A wide task (n < d) at one and two OpenBLAS threads.  report.json floats
    # may differ in the last digits between the two; predictions and
    # report.csv may not.
    config = write_dataset(ShiftSpec(n_per_domain=200, dims=1024), tmp_path / "data")["config"]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "cdem.cli", "run", "--config", str(config), "--out", str(out)],
            check=True, env=_child_env(OPENBLAS_NUM_THREADS=threads), stdout=subprocess.DEVNULL,
        )
        outputs.append(
            ((out / "report.csv").read_bytes(), (out / "task_cdem_predictions.txt").read_bytes())
        )
    assert outputs[0] == outputs[1]


def _three_domain_registry(root):
    """Three small labeled domains, so `--task all` runs six tasks."""
    lines = ["pca_dim=8", "subspace_dim=4"]
    for index, (name, rotation) in enumerate((("A", 0.0), ("B", 25.0), ("C", -30.0))):
        spec = ShiftSpec(classes=3, n_per_domain=60, dims=10, separation=6.0,
                         rotation_deg=rotation, translation=(0.5 * index,), seed=index)
        pair, labels = generate(spec)
        write_matrix(pair.target_x, root / f"{name}_x.cdm")
        write_labels(labels, root / f"{name}_y.txt")
        lines += [f"dataset.{name}.features={name}_x.cdm", f"dataset.{name}.labels={name}_y.txt"]
    (root / "config.txt").write_text("\n".join(lines) + "\n")
    return root / "config.txt"


def test_reports_identical_across_task_workers(tmp_path):
    config = _three_domain_registry(tmp_path)
    for command in ("run", "baseline"):
        reports = []
        for workers in ("1", "3"):
            out = tmp_path / f"{command}{workers}"
            env = _child_env(OPENBLAS_NUM_THREADS="1", CDEM_THREADS=workers)
            subprocess.run(
                [sys.executable, "-m", "cdem.cli", command, "--config", str(config),
                 "--task", "all", "--out", str(out)],
                check=True, env=env, stdout=subprocess.DEVNULL, timeout=120,
            )
            reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(reports[0]) > 2
        assert reports[0] == reports[1]


_SCIPY_PROBE = """
import sys
from cdem.cli import main

out = sys.argv[1]
config = out + "/data/config.txt"
for argv in (
    ["synth", "--out", out + "/data", "--seed", "1"],
    ["run", "--config", config, "--out", out + "/run"],
    ["baseline", "--config", config, "--out", out + "/baseline"],
    ["grid", "--config", config, "--out", out + "/grid", "--params", "lambda"],
):
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runs_load_no_scipy(tmp_path):
    # Importing scipy costs several times what numpy does; below the large-Gram
    # PCA branch, the user-facing commands load numpy only.
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        check=True, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_baseline_flow(tmp_path):
    config = _make_dataset(tmp_path)
    out = tmp_path / "base"
    assert main(["baseline", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[1].startswith("task,source-only,")


def test_reports_byte_identical_across_runs(tmp_path):
    config = _make_dataset(tmp_path)
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        blobs.append(
            ((out / "report.csv").read_bytes(), (out / "report.json").read_bytes())
        )
    assert blobs[0] == blobs[1]


def test_grid_flow(tmp_path, capsys):
    config = _make_dataset(tmp_path)
    out = tmp_path / "grid"
    code = main(["grid", "--config", str(config), "--out", str(out), "--params", "lambda"])
    assert code == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "lambda,mean_accuracy"
    assert len(lines) == 7
    assert "best:" in capsys.readouterr().out


def test_grid_rejects_unknown_param(tmp_path, capsys):
    config = _make_dataset(tmp_path)
    code = main(["grid", "--config", str(config), "--out", str(tmp_path / "g"),
                 "--params", "iterations"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest", "--cases", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_missing_config_is_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.txt"), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_task_errors(tmp_path, capsys):
    config = _make_dataset(tmp_path)
    code = main(["run", "--config", str(config), "--task", "A-B",
                 "--out", str(tmp_path / "r")])
    assert code == 2


def test_no_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_run_rejects_seed_flag(tmp_path):
    # training consumes no randomness, so run/baseline/grid take no seed
    config = _make_dataset(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), "--out", str(tmp_path / "r"), "--seed", "1"])
    assert exc.value.code == 2


def test_readme_synopsis_lists_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    documented: dict[str, set[str]] = {}
    for entry in re.split(r"^cdem ", block, flags=re.MULTILINE)[1:]:
        command, _, rest = entry.partition(" ")
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", rest))
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    accepted = {
        command: {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
        - {"--help"}
        for command, sub in subparsers.choices.items()
    }
    assert documented == accepted


def test_seed_override_changes_dataset(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["synth", "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["synth", "--out", str(out_b), "--seed", "2"]) == 0
    a = (out_a / "source_features.cdm").read_bytes()
    b = (out_b / "source_features.cdm").read_bytes()
    assert a != b
