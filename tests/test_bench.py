"""Task suite running, ablation, grid search, and report files."""

from __future__ import annotations

import csv
import json
import re
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cdem import bench, eigsolve
from cdem.cli import main
from cdem.errors import ConfigError, DataError
from cdem.matio import (
    DatasetEntry,
    DomainPair,
    ExperimentConfig,
    load_config,
    read_labels,
    read_matrix,
    write_labels,
    write_matrix,
)
from cdem.synth import ShiftSpec, generate, write_dataset
from cdem.trainer import AdaptationResult, as_prepared, preprocess_rows, run_adaptation


def _separable_pair(seed=0, n=40, dims=4):
    pair, labels = generate(
        ShiftSpec(classes=2, n_per_domain=n, dims=dims, separation=8.0,
                  rotation_deg=5.0, translation=(0.5,), seed=seed)
    )
    return pair, labels


def _fast_config(**over):
    base = dict(pca_dim=4, subspace_dim=2, iterations=3, delta=0.1)
    base.update(over)
    return ExperimentConfig(**base)


def _adapted(pair, config, labels):
    """The TaskResult of a "cdem" run on pair under config, named "demo" and
    built by the one function every command's runs go through."""
    return bench._task_result("demo", "cdem", config, *as_prepared(pair, config, labels))


def test_source_only_result():
    pair, labels = _separable_pair()
    result = replace(bench.run_source_only(pair, _fast_config(), labels), task="demo")
    assert result.method == "source-only"
    assert result.task == "demo"
    assert result.accuracy is not None and result.accuracy > 80.0
    assert result.predictions.shape == (pair.n_target,)
    assert result.trace is None
    unlabeled = bench.run_source_only(pair, _fast_config())
    assert unlabeled.accuracy is None


@pytest.mark.parametrize(
    "labels, message",
    [
        (
            np.array([0]),
            r"^evaluation labels: shape \(1,\), expected one label per target row \(60,\)$",
        ),
        (np.full(60, 7), r"^evaluation labels: label outside \[0, 3\)$"),
    ],
    ids=["one-label", "label-out-of-range"],
)
def test_source_only_checks_eval_labels_as_adaptation_does(labels, message):
    pair, _ = generate(ShiftSpec(classes=3, n_per_domain=60, dims=6, separation=6.0, seed=3))
    config = _fast_config()
    for run in (bench.run_source_only, run_adaptation):
        with pytest.raises(DataError, match=message):
            run(pair, config, labels)


def test_max_workers_env(monkeypatch):
    monkeypatch.delenv(bench.ENV_THREADS, raising=False)
    assert bench.max_workers() >= 1
    monkeypatch.setenv(bench.ENV_THREADS, "2")
    assert bench.max_workers() == 2
    monkeypatch.setenv(bench.ENV_THREADS, "0")
    with pytest.raises(ConfigError):
        bench.max_workers()
    monkeypatch.setenv(bench.ENV_THREADS, "many")
    with pytest.raises(ConfigError):
        bench.max_workers()


def _stub_openblas(monkeypatch):
    """Thread calls an OpenBLAS stub receives, "get" or the count set, with
    no thread variable set."""
    calls = []
    stub = SimpleNamespace(
        get_num_threads=lambda: calls.append("get") or 2, set_num_threads=calls.append
    )
    monkeypatch.setattr(eigsolve, "_openblas", lambda: stub)
    for name in bench.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    return calls


def test_pool_runs_one_blas_thread_and_restores_the_count(monkeypatch):
    calls = _stub_openblas(monkeypatch)
    monkeypatch.setenv(bench.ENV_THREADS, "2")
    during = []
    doubled = bench._parallel_map(lambda x: during.append(list(calls)) or 2 * x, [1, 2, 3])
    assert doubled == [2, 4, 6]
    assert during == [["get", 1]] * 3
    assert calls == ["get", 1, 2]

    def fail(x):
        raise ValueError(x)

    calls.clear()
    with pytest.raises(ValueError):
        bench._parallel_map(fail, [1, 2, 3])
    assert calls == ["get", 1, 2]
    monkeypatch.setattr(eigsolve, "_openblas", lambda: None)
    assert bench._parallel_map(lambda x: 2 * x, [1, 2, 3]) == [2, 4, 6]


@pytest.mark.parametrize(
    "items, env",
    [([1], {}), ([1, 2, 3], {bench.ENV_THREADS: "1"})]
    + [([1, 2, 3], {name: "2"}) for name in bench.BLAS_THREAD_VARS],
    ids=["one-item", "one-worker", *bench.BLAS_THREAD_VARS],
)
def test_blas_thread_count_left_alone(monkeypatch, items, env):
    calls = _stub_openblas(monkeypatch)
    monkeypatch.setenv(bench.ENV_THREADS, "2")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert bench._parallel_map(lambda x: 2 * x, items) == [2 * x for x in items]
    assert calls == []


def test_expand_tasks():
    config = _fast_config(
        datasets={
            "A": DatasetEntry(features="a.cdm", labels="a.txt"),
            "B": DatasetEntry(features="b.cdm", labels="b.txt"),
            "C": DatasetEntry(features="c.cdm", labels=None),
        }
    )
    assert bench.expand_tasks(config, None) == [None]
    assert bench.expand_tasks(config, ["A-B", "C-A"]) == [("A", "B"), ("C", "A")]
    expanded = bench.expand_tasks(config, ["all"])
    # C has no labels so it never appears as a source, only as a target
    assert expanded == [("A", "B"), ("A", "C"), ("B", "A"), ("B", "C")]
    with pytest.raises(ConfigError, match=r"^task 'A-X': dataset 'X' not in registry$"):
        bench.expand_tasks(config, ["A-X"])
    empty = _fast_config(datasets={"C": DatasetEntry(features="c.cdm", labels=None)})
    with pytest.raises(ConfigError):
        bench.expand_tasks(empty, ["all"])


def test_ablation_stage_order(tmp_path):
    spec = ShiftSpec(classes=3, n_per_domain=40, dims=6, separation=6.0, seed=1)
    paths = write_dataset(spec, tmp_path)
    config = replace(load_config(paths["config"]), pca_dim=4, subspace_dim=2, iterations=3)
    names = [name for name, _ in bench.ABLATION_STAGES]
    assert names == ["erm", "erm+da", "erm+da+cde", "full"]
    zeroed = [off for _, off in bench.ABLATION_STAGES]
    assert zeroed == [("lam", "gamma", "eta"), ("gamma", "eta"), ("eta",), ()]
    results = bench.run_task_suite(config, [None], ["cdem", *names])
    assert [r.method for r in results] == ["cdem", *names]
    pair = bench.load_domain_pair(config)
    labels = read_labels(paths["target_labels"])
    for result, off in zip(results[1:], zeroed):
        assert result.trace is not None and len(result.trace.records) == 3
        # each stage is the config with its weights set to 0, run as usual
        alone = run_adaptation(pair, replace(config, **dict.fromkeys(off, 0.0)), labels)
        assert np.array_equal(result.predictions, alone.predictions)
        assert np.array_equal(result.trace.projection, alone.projection)
    # the full stage is the config as given
    assert np.array_equal(results[-1].trace.projection, results[0].trace.projection)


def test_adaptation_task_beats_chance():
    pair, labels = _separable_pair(seed=2)
    result = _adapted(pair, _fast_config(), labels)
    assert result.task == "demo" and result.method == "cdem"
    assert result.accuracy is not None and result.accuracy > 80.0
    assert result.trace is not None


def test_run_task_suite_from_files(tmp_path):
    spec = ShiftSpec(classes=2, n_per_domain=20, dims=4, separation=8.0, seed=3)
    paths = write_dataset(spec, tmp_path)
    config = replace(load_config(paths["config"]), iterations=2, subspace_dim=2)
    results = bench.run_task_suite(config, [None], ["source-only", "cdem"])
    assert [r.method for r in results] == ["source-only", "cdem"]
    assert all(r.accuracy is not None for r in results)
    # raised before any file is read: this source file does not exist
    missing = replace(config, source_features=tmp_path / "missing.cdm")
    with pytest.raises(ConfigError, match="unknown method 'bogus'"):
        bench.run_task_suite(missing, [None], ["cdem", "bogus"])


@pytest.mark.parametrize(
    "tasks, methods",
    [
        ([("A", "B"), ("B", "C")], ["cdem"]),
        ([("A", "B")], ["source-only", *(name for name, _ in bench.ABLATION_STAGES)]),
        ([("A", "B"), ("A", "B")], ["cdem"]),
    ],
    ids=["two-tasks", "ablation", "task-twice"],
)
def test_dump_with_more_than_one_adaptation_run_rejected(tmp_path, monkeypatch, tasks, methods):
    # The dump's file names carry neither task nor method, so two runs would
    # write the same files from two pool threads.
    config = load_config(_registry(tmp_path))
    read = lambda *args: pytest.fail("a file was read before the dump was rejected")
    monkeypatch.setattr(bench.matio, "read_matrix", read)
    monkeypatch.setattr(bench.matio, "read_labels", read)
    with pytest.raises(ConfigError, match="^a dump needs a single task and a single adaptation"):
        bench.run_task_suite(config, tasks, methods, dump_dir=tmp_path / "dump")
    assert not (tmp_path / "dump").exists()


def test_dump_beside_the_source_only_baseline(tmp_path):
    config = load_config(_registry(tmp_path))
    results = bench.run_task_suite(config, [("A", "B")], ["source-only", "cdem"], tmp_path / "d")
    assert [r.method for r in results] == ["source-only", "cdem"]
    steps = results[1].trace.records[-1].step
    assert (tmp_path / "d" / f"step{steps:02d}_projection.cdm").exists()


def test_run_task_suite_parallel_registry(tmp_path, monkeypatch):
    monkeypatch.setenv(bench.ENV_THREADS, "2")
    write_dataset(ShiftSpec(classes=2, n_per_domain=20, dims=4, seed=4), tmp_path / "a")
    write_dataset(ShiftSpec(classes=2, n_per_domain=20, dims=4, seed=5), tmp_path / "b")
    cfg = tmp_path / "config.txt"
    cfg.write_text(
        "dataset.A.features=a/source_features.cdm\n"
        "dataset.A.labels=a/source_labels.txt\n"
        "dataset.B.features=b/source_features.cdm\n"
        "dataset.B.labels=b/source_labels.txt\n"
        "pca_dim=4\nsubspace_dim=2\niterations=2\ndelta=0.1\n"
    )
    config = load_config(cfg)
    results = bench.run_task_suite(config, [("A", "B"), ("B", "A")])
    assert [(r.task, r.method) for r in results] == [("A-B", "cdem"), ("B-A", "cdem")]
    assert all(r.accuracy is not None for r in results)


def test_grid_search_orders_points(tmp_path, monkeypatch):
    spec = ShiftSpec(classes=2, n_per_domain=20, dims=4, separation=8.0, seed=6)
    paths = write_dataset(spec, tmp_path)
    config = replace(load_config(paths["config"]), iterations=2, subspace_dim=2)
    monkeypatch.setattr(bench, "GRID_VALUES", (0.01, 1.0))
    points = bench.run_grid(config, ["lambda"], [None])
    assert [p[0] for p in points] == [{"lambda": 0.01}, {"lambda": 1.0}]
    assert all(0.0 <= p[1] <= 100.0 for p in points)
    monkeypatch.setattr(bench, "GRID_VALUES", (0.1, 1.0))
    pairs = bench.run_grid(config, ["beta", "eta"], [None])
    assert [p[0] for p in pairs] == [
        {"beta": 0.1, "eta": 0.1},
        {"beta": 0.1, "eta": 1.0},
        {"beta": 1.0, "eta": 0.1},
        {"beta": 1.0, "eta": 1.0},
    ]


def test_grid_rejects_bad_params(tmp_path):
    spec = ShiftSpec(classes=2, n_per_domain=20, dims=4, seed=7)
    paths = write_dataset(spec, tmp_path)
    config = load_config(paths["config"])
    with pytest.raises(ConfigError):
        bench.run_grid(config, ["iterations"], [None])
    # a repeated name would sweep 6x the points with two always-equal columns
    with pytest.raises(ConfigError, match=r"^cannot sweep \['beta'\] more than once$"):
        bench.run_grid(config, ["beta", "lambda", "beta"], [None])


def test_grid_requires_labels(tmp_path, monkeypatch):
    spec = ShiftSpec(classes=2, n_per_domain=20, dims=4, seed=8)
    paths = write_dataset(spec, tmp_path)
    config = load_config(paths["config"])
    config.target_labels = None
    monkeypatch.setattr(bench, "GRID_VALUES", (0.1,))
    with pytest.raises(ConfigError):
        bench.run_grid(config, ["beta"], [None])


def test_emit_report_contents(tmp_path):
    pair, labels = _separable_pair(seed=9)
    config = _fast_config()
    results = [
        replace(bench.run_source_only(pair, config, labels), task="demo"),
        _adapted(pair, config, labels),
    ]
    paths = bench.emit_report(results, tmp_path / "report")
    csv_lines = paths["csv"].read_text().splitlines()
    assert csv_lines[0] == "task,method,accuracy"
    assert csv_lines[1].startswith("demo,source-only,")
    assert csv_lines[2].startswith("demo,cdem,")
    assert csv_lines[3] == f"average,source-only,{results[0].accuracy:.1f}"
    assert csv_lines[4] == f"average,cdem,{results[1].accuracy:.1f}"

    payload = json.loads(paths["json"].read_text())
    assert abs(payload["average"]["cdem"] - results[1].accuracy) <= 1e-12
    trace = payload["results"][1]["trace"]
    assert len(trace["steps"]) == config.iterations
    assert trace["steps"][0]["step"] == 1
    assert "wall_time" not in json.dumps(payload)

    stored = read_labels(paths["predictions:demo:cdem"])
    assert np.array_equal(stored, results[1].predictions)

    emb_lines = paths["embedding:demo:cdem"].read_text().splitlines()
    assert emb_lines[0] == "dim0,dim1,domain,label"
    assert len(emb_lines) == 1 + pair.n_source + pair.n_target
    first = emb_lines[1].split(",")
    assert first[2] == "source"
    assert float(first[0]) == results[1].trace.source_embedding[0, 0]


def _per_value_embedding(trace):
    """The embedding file as formatted value by value: each row padded with
    0.0 to two columns, each value by the repr of its Python float."""
    lines = ["dim0,dim1,domain,label"]
    pad = lambda row: [float(v) for v in (list(row) + [0.0, 0.0])[:2]]
    sides = (
        ("source", trace.source_embedding, trace.source_labels),
        ("target", trace.target_embedding, trace.predictions),
    )
    for domain, emb, labels in sides:
        for row, label in zip(emb, labels):
            d0, d1 = pad(row)
            lines.append(f"{d0!r},{d1!r},{domain},{int(label)}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("cols", [1, 2])
def test_embedding_bytes_match_per_value_repr(tmp_path, cols):
    rng = np.random.default_rng(12)
    emb = rng.standard_normal((7, cols)) * np.logspace(-300, 300, 7)[:, None]
    emb[0, 0] = -0.0
    emb[1, 0] = 0.1
    trace = AdaptationResult(
        projection=np.eye(cols),
        eigenvalues=np.zeros(cols),
        records=[],
        predictions=np.array([2, 0, 1], dtype=np.int64),
        selected=np.ones(3, dtype=bool),
        source_embedding=emb[:4],
        target_embedding=emb[4:],
        source_labels=np.array([0, 1, 2, 10], dtype=np.int64),
    )
    path = tmp_path / "embedding.csv"
    bench._write_embedding(trace, path)
    assert path.read_bytes() == _per_value_embedding(trace)


def test_emit_report_handles_missing_accuracy(tmp_path):
    result = bench.TaskResult(
        task="demo", method="cdem", accuracy=None, predictions=np.zeros(4, dtype=np.int64)
    )
    paths = bench.emit_report([result], tmp_path)
    lines = paths["csv"].read_text().splitlines()
    assert lines[1] == "demo,cdem,"
    assert lines[2] == "average,cdem,"
    payload = json.loads(paths["json"].read_text())
    assert payload["average"]["cdem"] is None


def test_report_csv_quotes_a_name_with_a_comma(tmp_path):
    # "a,b" is a legal registry name, so "a,b-c" is a legal task name
    result = bench.TaskResult(
        task="a,b-c", method="cdem", accuracy=50.0, predictions=np.zeros(4, dtype=np.int64)
    )
    with bench.emit_report([result], tmp_path)["csv"].open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["task", "method", "accuracy"], ["a,b-c", "cdem", "50.0"], ["average", "cdem", "50.0"]
    ]


def test_reports_are_deterministic(tmp_path):
    pair, labels = _separable_pair(seed=10)
    config = _fast_config()
    outputs = []
    for name in ("one", "two"):
        results = [
            replace(bench.run_source_only(pair, config, labels), task="demo"),
            _adapted(pair, config, labels),
        ]
        paths = bench.emit_report(results, tmp_path / name)
        outputs.append((paths["csv"].read_bytes(), paths["json"].read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def _plain(value) -> bool:
    """Whether value is built of Python's own JSON types alone."""
    if type(value) is dict:
        return all(type(key) is str and _plain(item) for key, item in value.items())
    if type(value) is list:
        return all(_plain(item) for item in value)
    return type(value) in (str, int, float, bool, type(None))


def test_report_payload_is_plain_data(tmp_path, monkeypatch):
    # C has no label file, so its tasks report no accuracy
    config = load_config(_registry(tmp_path, labeled=("A", "B")))
    methods = ["source-only", "cdem", *(name for name, _ in bench.ABLATION_STAGES)]
    results = bench.run_task_suite(config, bench.expand_tasks(config, ["all"]), methods)
    assert {res.accuracy is None for res in results} == {True, False}
    for res in results:
        if res.trace is not None:
            assert res.accuracy == res.trace.records[-1].accuracy
    calls = []
    dumps = json.dumps

    def recording_dumps(payload, **kwargs):
        calls.append((payload, kwargs))
        return dumps(payload, **kwargs)

    monkeypatch.setattr(json, "dumps", recording_dumps)
    bench.emit_report(results, tmp_path / "report")
    [(payload, kwargs)] = calls
    assert "default" not in kwargs
    assert _plain(payload)


def test_run_prints_as_its_task_name():
    # perfbench's tracer labels a pool item's spans by str()
    assert str(bench._Run(("A", "B"), "cdem", None)) == "A-B"
    assert str(bench._Run(None, "source-only", None)) == "task"


def test_safe_name_sanitizes():
    assert bench._safe_name("A-B") == "A-B"
    assert bench._safe_name("erm+da") == "erm+da"
    assert bench._safe_name("a/b c") == "a-b-c"


def _registry(root, labeled=("A", "B", "C"), classes=3, dims=8, pca_dim=6, names=("A", "B", "C")):
    """Small domains of 40, 45, 50 and 55 rows, one per name; a domain not in
    labeled has no label file."""
    lines = [f"pca_dim={pca_dim}", "subspace_dim=3", "iterations=3"]
    for index, (name, rotation) in enumerate(zip(names, (0.0, 25.0, -30.0, 40.0))):
        spec = ShiftSpec(classes=classes, n_per_domain=40 + 5 * index, dims=dims,
                         separation=6.0, rotation_deg=rotation, translation=(0.5 * index,),
                         seed=index)
        pair, labels = generate(spec)
        write_matrix(pair.target_x, root / f"{name}_x.cdm")
        lines.append(f"dataset.{name}.features={name}_x.cdm")
        if name in labeled:
            write_labels(labels, root / f"{name}_y.txt")
            lines.append(f"dataset.{name}.labels={name}_y.txt")
    (root / "config.txt").write_text("\n".join(lines) + "\n")
    return root / "config.txt"


@pytest.mark.parametrize(
    "argv, prepared",
    [
        (["run", "--task", "all"], 3),  # six tasks, three unordered pairs
        (["run", "--task", "A-B", "--ablation", "--with-baseline"], 1),  # five methods
        (["grid", "--task", "A-B", "--task", "C-A", "--params", "beta"], 2),  # six points
    ],
    ids=["suite", "ablation", "grid"],
)
def test_pca_and_constraint_factored_once_per_domain_pair(tmp_path, monkeypatch, argv, prepared):
    import cdem.trainer as trainer_mod

    calls = []
    fit_pca, cholesky = trainer_mod.fit_pca, np.linalg.cholesky

    def counting_fit_pca(*args, **kwargs):
        calls.append("fit_pca")
        return fit_pca(*args, **kwargs)

    def counting_cholesky(*args, **kwargs):
        calls.append("cholesky")
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "fit_pca", counting_fit_pca)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    config = _registry(tmp_path)
    command, *rest = argv
    assert main([command, "--config", str(config), *rest, "--out", str(tmp_path / "out")]) == 0
    assert calls.count("fit_pca") == calls.count("cholesky") == prepared


def test_reverse_task_takes_the_pair_rows_swapped(tmp_path):
    # A sorts first and has no label file, so A-B is no task; B-A still
    # stacks A's rows first and views them swapped.
    config = load_config(_registry(tmp_path, labeled=("B", "C")))
    alone, _ = bench.load_tasks(config, [("B", "A")])[("B", "A")]
    a, b = (read_matrix(tmp_path / f"{name}_x.cdm") for name in "AB")
    features, whiten = preprocess_rows(a, b, config)
    n_a = a.shape[0]
    assert alone.n_source == b.shape[0] and alone.n_target == n_a
    assert np.array_equal(alone.features, features)
    assert np.array_equal(alone.source, features[n_a:])
    assert np.array_equal(alone.target, features[:n_a])
    assert np.array_equal(alone.whiten, whiten)
    assert not alone.features.flags.writeable
    in_suite = bench.load_tasks(config, bench.expand_tasks(config, ["all"]))
    assert np.array_equal(in_suite[("B", "A")][0].features, alone.features)
    # B-C and C-B are two views of one prepared pair, not copies.
    (bc, _), (cb, _) = in_suite[("B", "C")], in_suite[("C", "B")]
    assert bc.features is cb.features and bc.whiten is cb.whiten
    assert bc.n_source == read_matrix(tmp_path / "B_x.cdm").shape[0]
    assert np.array_equal(bc.source, cb.target) and np.shares_memory(bc.source, cb.target)
    assert np.array_equal(bc.target, cb.source) and np.shares_memory(bc.target, cb.source)
    assert not np.shares_memory(bc.source, bc.target)
    assert not bc.features.flags.writeable


def test_reverse_task_bytes_independent_of_suite_and_workers(tmp_path, monkeypatch):
    config = _registry(tmp_path, labeled=("B", "C"))
    seen = {}
    for workers in ("1", "2"):
        monkeypatch.setenv(bench.ENV_THREADS, workers)
        for name, tasks in (("alone", ["--task", "B-A"]), ("all", ["--task", "all"])):
            out = tmp_path / f"{name}{workers}"
            assert main(["run", "--config", str(config), *tasks, "--out", str(out)]) == 0
            results = json.loads((out / "report.json").read_text())["results"]
            entry = next(r for r in results if r["task"] == "B-A")
            seen[name, workers] = (
                json.dumps(entry, sort_keys=True),
                (out / "B-A_cdem_predictions.txt").read_bytes(),
                (out / "B-A_cdem_embedding.csv").read_bytes(),
            )
    assert len(set(seen.values())) == 1


def test_task_all_over_hyphenated_names(tmp_path):
    # "art" is a prefix of "art-1": each task name has exactly one "-" with a
    # registry name on both sides.
    names = ("art", "art-1", "clip-2")
    config = _registry(tmp_path, labeled=names, names=names)
    out = tmp_path / "all"
    assert main(["run", "--config", str(config), "--task", "all", "--out", str(out)]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert [r["task"] for r in results] == [
        "art-art-1", "art-clip-2", "art-1-art", "art-1-clip-2", "clip-2-art", "clip-2-art-1"
    ]
    alone = tmp_path / "alone"
    argv = ["run", "--config", str(config), "--task", "clip-2-art-1", "--out", str(alone)]
    assert main(argv) == 0
    name = "clip-2-art-1_cdem_predictions.txt"
    assert (out / name).read_bytes() == (alone / name).read_bytes()


def test_pairs_whose_joined_names_coincide_stay_apart(tmp_path):
    # The two tasks' pool keys, ("a", "b-c") and ("a-b", "c"), both join to
    # "a-b-c"; each task must still get its own domains.
    names = ("a", "b-c", "a-b", "c")
    config = load_config(_registry(tmp_path, labeled=names, names=names))
    tasks = [("b-c", "a"), ("c", "a-b")]
    together = bench.load_tasks(config, tasks)
    for task in tasks:
        source, target = task
        assert bench.task_name(task) == f"{source}-{target}"
        prepared, _ = together[task]
        alone, _ = bench.load_tasks(config, [task])[task]
        assert prepared.n_source == read_matrix(tmp_path / f"{source}_x.cdm").shape[0]
        assert prepared.n_target == read_matrix(tmp_path / f"{target}_x.cdm").shape[0]
        assert np.array_equal(prepared.features, alone.features)


def test_task_all_rejects_pairs_that_would_share_a_report_name(tmp_path, capsys):
    # ("a", "b-c") and ("a-b", "c") would both write a-b-c_* report files.
    # A space in a file name becomes "-", so ("x y", "x-y") and ("x-y", "x y")
    # would both write x-y-x-y_* files, and ("x y", "z") and ("x-y", "z")
    # x-y-z_* ones.  No feature file exists: the clash is found before
    # anything is read.
    registries = {
        ("a", "a-b", "b-c", "c"): (("a", "b-c"), ("a-b", "c"), "a-b-c"),
        ("x y", "x-y", "z"): (("x y", "x-y"), ("x-y", "x y"), "x-y-x-y"),
    }
    for index, (names, (first, second, stem)) in enumerate(registries.items()):
        root = tmp_path / str(index)
        root.mkdir()
        lines = [f"dataset.{n}.features={n}_x.cdm\ndataset.{n}.labels={n}_y.txt" for n in names]
        (root / "config.txt").write_text("\n".join(lines) + "\n")
        config = load_config(root / "config.txt")
        message = f"tasks {first} and {second} would both write files named {stem!r}"
        clash = "^" + re.escape(message) + "$"
        with pytest.raises(ConfigError, match=clash):
            bench.expand_tasks(config, ["all"])
        argv = ["run", "--config", str(root / "config.txt"), "--task", "all"]
        assert main([*argv, "--out", str(root / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (root / "out").exists()
    # Typed tasks clash alike ("a-b-c" alone is ambiguous), but a task typed
    # twice is no clash: grid counts it twice.
    clash = r"^tasks \('x y', 'z'\) and \('x-y', 'z'\) would both write files named 'x-y-z'$"
    with pytest.raises(ConfigError, match=clash):
        bench.expand_tasks(config, ["x y-z", "x-y-z"])
    assert bench.expand_tasks(config, ["x y-z", "x y-z"]) == [("x y", "z")] * 2


def _source_only_accuracies(config, names):
    """The source-only accuracies of the benchmark's reference run, which
    composes the public loaders exactly so."""
    accs = []
    for task in bench.expand_tasks(config, names):
        pair = bench.load_domain_pair(config, task)
        labels = bench.load_eval_labels(config, pair, task)
        accs.append(bench.run_source_only(pair, config, labels).accuracy)
    return accs


@pytest.mark.parametrize("names", [["all"], None], ids=["registry", "direct"])
def test_reference_source_only_path_matches_the_suite(tmp_path, names):
    if names is None:
        spec = ShiftSpec(classes=3, n_per_domain=40, dims=8, separation=6.0, seed=14)
        config = load_config(write_dataset(spec, tmp_path)["config"])
    else:
        config = load_config(_registry(tmp_path))
    tasks = bench.expand_tasks(config, names)
    suite = bench.run_task_suite(config, tasks, ["source-only"])
    assert all(r.accuracy is not None for r in suite)
    assert _source_only_accuracies(config, names) == [r.accuracy for r in suite]


def test_load_tasks_holds_a_direct_pair_at_most_twice(tmp_path):
    # n >= d: the pool pass hands the two read matrices to the PCA as they
    # are, so beside them it holds only pieces no larger than the 400² Gram
    # and the pair's scores; no stacked copy is made.
    rng = np.random.default_rng(15)
    source_x, target_x = rng.standard_normal((2, 1500, 400))
    write_matrix(source_x, tmp_path / "xs.cdm")
    write_matrix(target_x, tmp_path / "xt.cdm")
    write_labels(np.arange(1500) % 3, tmp_path / "ys.txt")
    (tmp_path / "config.txt").write_text(
        "source_features=xs.cdm\nsource_labels=ys.txt\ntarget_features=xt.cdm\n"
        "pca_dim=8\nsubspace_dim=2\n"
    )
    config = load_config(tmp_path / "config.txt")
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        bench.load_tasks(config, [None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 1.75 * (source_x.nbytes + target_x.nbytes)


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "suite"])
def test_each_feature_file_read_once_per_command(tmp_path, monkeypatch, direct):
    # The direct pair reads its two feature files; --task all over three
    # registry domains reads each domain's file once for its six tasks.
    import cdem.matio as matio_mod

    reads = []
    real_read = matio_mod.read_matrix
    monkeypatch.setattr(
        matio_mod, "read_matrix", lambda path: reads.append(path) or real_read(path)
    )
    if direct:
        spec = ShiftSpec(classes=3, n_per_domain=30, dims=8, seed=4)
        argv = ["--config", str(write_dataset(spec, tmp_path)["config"])]
    else:
        argv = ["--config", str(_registry(tmp_path)), "--task", "all"]
    assert main(["run", *argv, "--with-baseline", "--out", str(tmp_path / "out")]) == 0
    assert len(reads) == (2 if direct else 3)
    assert len(set(reads)) == len(reads)


def test_grid_counts_a_repeated_task_each_time(tmp_path, monkeypatch):
    config = load_config(_registry(tmp_path, classes=6))
    monkeypatch.setattr(bench, "GRID_VALUES", (0.1,))

    def mean_accuracy(tasks):
        (point, accuracy), = bench.run_grid(config, ["beta"], tasks)
        return accuracy

    ab, ca = mean_accuracy([("A", "B")]), mean_accuracy([("C", "A")])
    assert ab != ca
    assert mean_accuracy([("A", "B"), ("A", "B"), ("C", "A")]) == float(np.mean([ab, ab, ca]))


def test_grid_drops_each_runs_trace_when_it_ends(tmp_path, monkeypatch):
    # A grid reads only each run's accuracy, so no run's AdaptationResult
    # (projection, embeddings, predictions, records) is alive when the next
    # run starts.
    monkeypatch.setenv(bench.ENV_THREADS, "1")
    config = load_config(_registry(tmp_path))
    traces, alive = [], []
    run = bench.run_adaptation

    def spy(*args, **kwargs):
        alive.append(sum(trace() is not None for trace in traces))
        result = run(*args, **kwargs)
        traces.append(weakref.ref(result))
        return result

    monkeypatch.setattr(bench, "run_adaptation", spy)
    monkeypatch.setattr(bench, "GRID_VALUES", (0.1, 1.0))
    bench.run_grid(config, ["beta"], [("A", "B"), ("C", "A")])
    assert alive == [0, 0, 0, 0]


@pytest.mark.parametrize("command", ["run", "grid"])
def test_commands_hold_one_task_moments_at_a_time(tmp_path, monkeypatch, command):
    # Two more tasks, B-C and C-A, add their prepared pairs: scores and W,
    # 146.4 kB here.  The slack covers what else they add: their labels, a
    # run's step arrays on up to 10 more rows and, for "run", two more
    # results; 33-47 kB here.  One finished run's arrays kept alive beside
    # the next (Y, the class-weighted source copy, the m x m operands: about
    # 150 kB) exceed it.
    monkeypatch.setenv(bench.ENV_THREADS, "1")
    monkeypatch.setattr(bench, "GRID_VALUES", (0.1,))
    m = 60
    config = load_config(_registry(tmp_path, classes=12, dims=80, pca_dim=m))
    extra_rows = (45 + 50) + (50 + 40)  # domains A, B and C have 40, 45 and 50 rows
    slack = 100_000
    bound = 8 * (extra_rows * m + 2 * m * m) + slack

    def peak(tasks):
        tracemalloc.start()
        try:
            if command == "run":
                bench.run_task_suite(config, tasks)
            else:
                bench.run_grid(config, ["beta"], tasks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak([("A", "B")])  # a first run's one-time allocations stay out of both peaks
    assert peak([("A", "B"), ("B", "C"), ("C", "A")]) - peak([("A", "B")]) < bound


@pytest.mark.parametrize(
    "argv, built",
    [
        (["run", "--task", "A-B", "--ablation", "--with-baseline"], 4),  # four adaptation runs
        (["baseline", "--task", "A-B"], 0),
    ],
    ids=["ablation", "baseline"],
)
def test_source_moments_built_once_per_adaptation_run(tmp_path, monkeypatch, argv, built):
    import cdem.trainer as trainer_mod

    calls = []
    source_moments = trainer_mod.source_moments

    def counting_source_moments(*args, **kwargs):
        calls.append(1)
        return source_moments(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "source_moments", counting_source_moments)
    config = _registry(tmp_path)
    command, *rest = argv
    assert main([command, "--config", str(config), *rest, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == built
