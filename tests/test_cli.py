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
from cdem import selftest
from cdem.bench import BLAS_THREAD_VARS
from cdem.cli import build_parser, main
from cdem.errors import ConfigError
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


@pytest.mark.parametrize(
    "n_per_domain, dims", [(200, 1024), (600, 512)], ids=["wide", "tall"]
)
def test_predictions_identical_across_blas_threads(tmp_path, n_per_domain, dims):
    # A wide task (n < d) and a tall one, whose PCA Gram sums its pieces with
    # dsyrk's transposed branch, at one and two OpenBLAS threads.
    # report.json floats may differ in the last digits between the two;
    # predictions and report.csv may not.
    spec = ShiftSpec(n_per_domain=n_per_domain, dims=dims)
    config = write_dataset(spec, tmp_path / "data")["config"]
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


def _three_domain_registry(root, rows=60, dims=10, settings=("pca_dim=8", "subspace_dim=4")):
    """Three labeled domains, so `--task all` runs six tasks."""
    lines = list(settings)
    for index, (name, rotation) in enumerate((("A", 0.0), ("B", 25.0), ("C", -30.0))):
        spec = ShiftSpec(classes=3, n_per_domain=rows, dims=dims, separation=6.0,
                         rotation_deg=rotation, translation=(0.5 * index,), seed=index)
        pair, labels = generate(spec)
        write_matrix(pair.target_x, root / f"{name}_x.cdm")
        write_labels(labels, root / f"{name}_y.txt")
        lines += [f"dataset.{name}.features={name}_x.cdm", f"dataset.{name}.labels={name}_y.txt"]
    (root / "config.txt").write_text("\n".join(lines) + "\n")
    return root / "config.txt"


# argv after the command name -> files written for the six tasks of
# `--task all`: report.csv and report.json, each task's predictions and,
# for an adaptation method, its embedding; grid writes grid.csv alone
_WORKER_COMMANDS = {
    ("run",): 2 + 6 * 2,
    ("baseline",): 2 + 6,
    ("run", "--ablation", "--with-baseline"): 2 + 6 * (1 + 4 * 2),
    ("grid", "--params", "beta"): 1,
}


def test_reports_identical_across_task_workers(tmp_path):
    # "wide": each pair stacks 640 rows of 700 features, so every pair's PCA
    # takes LAPACK's subset solve (default pca_dim=128), and at 3 workers
    # the pair pool makes concurrent calls into it.  That pair pass is the
    # same for every command, so the wide registry runs the first two only.
    wide = {"rows": 320, "dims": 700, "settings": ()}
    for registry, shape, commands in (("small", {}, 4), ("wide", wide, 2)):
        (tmp_path / registry).mkdir()
        config = _three_domain_registry(tmp_path / registry, **shape)
        chosen = list(_WORKER_COMMANDS.items())[:commands]
        for index, ((command, *flags), files) in enumerate(chosen):
            reports = []
            for workers in ("1", "3"):
                out = tmp_path / registry / f"{index}-{workers}"
                env = _child_env(OPENBLAS_NUM_THREADS="1", CDEM_THREADS=workers)
                subprocess.run(
                    [sys.executable, "-m", "cdem.cli", command, *flags, "--config", str(config),
                     "--task", "all", "--out", str(out)],
                    check=True, env=env, stdout=subprocess.DEVNULL, timeout=120,
                )
                reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert len(reports[0]) == files
            assert reports[0] == reports[1]


def test_suite_predictions_identical_across_workers_at_default_blas_threads(tmp_path):
    # With no thread variable set, a pool of 3 workers runs OpenBLAS at one
    # thread and a lone worker at its default count, so report.json and the
    # embedding floats may differ in the last digits; predictions and
    # report.csv may not.
    config = _three_domain_registry(tmp_path, rows=320, dims=700, settings=())
    thread_vars = (*BLAS_THREAD_VARS, "CDEM_THREADS")
    env = {name: value for name, value in _child_env().items() if name not in thread_vars}
    outputs = []
    for workers in ("1", "3"):
        out = tmp_path / f"run{workers}"
        subprocess.run(
            [sys.executable, "-m", "cdem.cli", "run", "--config", str(config), "--task", "all",
             "--out", str(out)],
            check=True, env=dict(env, CDEM_THREADS=workers), stdout=subprocess.DEVNULL,
            timeout=120,
        )
        outputs.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name == "report.csv" or p.name.endswith("_predictions.txt")
        })
    assert len(outputs[0]) == 7
    assert outputs[0] == outputs[1]


_SCIPY_PROBE = """
import sys
from cdem import eigsolve
from cdem.cli import main
from cdem.synth import ShiftSpec, write_dataset

out = sys.argv[1]
config = out + "/data/config.txt"
subset_calls = []
routines = eigsolve._openblas()
if routines is not None:
    dsyevr = routines.dsyevr
    routines.dsyevr = lambda *args: subset_calls.append(1) or dsyevr(*args)
# A wide pair whose 640-row Gram takes the subset PCA solve at pca_dim=128.
wide = write_dataset(ShiftSpec(n_per_domain=320, dims=700), out + "/wide")["config"]
wide.write_text("".join(
    "pca_dim=128\\n" if line.startswith("pca_dim=") else line + "\\n"
    for line in wide.read_text().splitlines()
))
for argv in (
    ["synth", "--out", out + "/data", "--seed", "1"],
    ["run", "--config", config, "--out", out + "/run"],
    ["baseline", "--config", config, "--out", out + "/baseline"],
    ["grid", "--config", config, "--out", out + "/grid", "--params", "lambda"],
    ["run", "--config", str(wide), "--out", out + "/wide-run"],
):
    assert main(argv) == 0, argv
assert len(subset_calls) == (routines is not None)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runs_load_no_scipy(tmp_path):
    # Importing scipy costs several times what numpy does, so the user-facing
    # commands load numpy only.
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        check=True, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_run_never_loads_selftest(tmp_path):
    # The oracle suite is for `cdem selftest` alone; `run` starts without it.
    probe = (
        "import sys\n"
        "from cdem.cli import main\n"
        "from cdem.synth import ShiftSpec, write_dataset\n"
        "config = write_dataset(ShiftSpec(n_per_domain=40, dims=12), sys.argv[1])['config']\n"
        "assert main(['run', '--config', str(config), '--out', sys.argv[1] + '/run']) == 0\n"
        "print('cdem.selftest' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        check=True, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "False"


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
    code = main(["grid", "--config", str(config), "--out", str(tmp_path / "g"), "--params", ","])
    assert code == 2
    assert capsys.readouterr().err == "error: --params needs at least one name\n"


def test_grid_without_params_raises_a_config_error(tmp_path):
    config = _make_dataset(tmp_path)
    args = build_parser().parse_args(
        ["grid", "--config", str(config), "--out", str(tmp_path / "g"), "--params", ","]
    )
    with pytest.raises(ConfigError, match="^--params needs at least one name$"):
        args.func(args)


def test_selftest_passes(capsys):
    assert main(["selftest", "--cases", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--seed", "-5"], "seed must be non-negative"),
        (["synth", "--spec", "{spec}"], "{spec}: seed must be non-negative"),
        (["selftest", "--seed", "-1"], "seed must be non-negative"),
        (["selftest", "--cases", "0"], "cases must be at least 1, got 0"),
        (["selftest", "--cases", "-3"], "cases must be at least 1, got -3"),
    ],
    ids=["synth-seed", "spec-seed", "selftest-seed", "zero-cases", "negative-cases"],
)
def test_negative_seed_or_no_cases_is_a_named_error(tmp_path, capsys, argv, message):
    spec = tmp_path / "spec.txt"
    spec.write_text("seed=-2\n")
    out = tmp_path / "data"
    argv = [arg.format(spec=spec) for arg in argv]
    if argv[0] == "synth":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(spec=spec)}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "seed, cases, message",
    [
        (-1, 3, "seed must be non-negative"),
        (0, 0, "cases must be at least 1, got 0"),
        (0, -3, "cases must be at least 1, got -3"),
    ],
)
def test_run_suite_rejects_a_negative_seed_or_no_cases(seed, cases, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        selftest.run_suite(seed=seed, cases=cases)


def test_missing_config_is_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.txt"), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_task_errors(tmp_path, capsys):
    config = _make_dataset(tmp_path)
    code = main(["run", "--config", str(config), "--task", "A-B",
                 "--out", str(tmp_path / "r")])
    assert code == 2


@pytest.mark.parametrize(
    "value, message",
    [("abc", "must be an integer, got 'abc'"), ("0", "must be positive")],
    ids=["not-an-integer", "zero"],
)
@pytest.mark.parametrize("tasks", [[], ["A-B"], ["all"]], ids=["direct", "one-task", "all"])
def test_every_run_rejects_a_bad_worker_count(tmp_path, monkeypatch, capsys, tasks, value,
                                               message):
    # one task prepares one pair and runs once, so no pool is needed
    config = _three_domain_registry(tmp_path) if tasks else _make_dataset(tmp_path)
    capsys.readouterr()
    monkeypatch.setenv("CDEM_THREADS", value)
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "r")]
    for task in tasks:
        argv += ["--task", task]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: CDEM_THREADS {message}\n"
    assert not (tmp_path / "r").exists()


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


def test_readme_python_api_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Python API\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "demo"]) == 0
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    result, pair = namespace["result"], namespace["pair"]
    assert result.predictions.shape == (pair.n_target,)
    n_rows = pair.n_source + pair.n_target
    assert namespace["task"].features.shape == (n_rows, namespace["config"].pca_dim)


def test_seed_override_changes_dataset(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["synth", "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["synth", "--out", str(out_b), "--seed", "2"]) == 0
    a = (out_a / "source_features.cdm").read_bytes()
    b = (out_b / "source_features.cdm").read_bytes()
    assert a != b
