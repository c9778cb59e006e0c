"""Task running, baselines, ablation, grid search, and report emission.

Tasks travel as ``matio.Task`` name pairs and report as ``S-T`` (or
``task``).  Every command is one task-major list of runs, each a report
method on a task under its own config, executed on one pool; each task is
prepared once (``trainer.PreparedTask``: PCA scores and the W that whitens
their constraint) for all of its methods, ablation stages and grid points.
Tasks are loaded together: each feature and label file is read and checked
once, however many tasks name it, and each unordered pair of registry
domains is prepared once, its two domains taken in sorted-name order, in a
pool pass before any task runs; a task and its reverse are two views of that
one prepared pair.  The pool pass hands each pair's two read matrices to its
PCA as they are, with no stacked copy, and drops them once the pair is
prepared.

Reports are written as a compact CSV (one decimal accuracy, plus an average
row per method) and a JSON file carrying full-precision accuracies and the
per-step training traces, one ``IterationRecord`` per step with its field
names as keys.  Wall-clock timings are kept in memory and on the console
only, so repeated runs with the same configuration and inputs produce
byte-identical report files under a fixed BLAS configuration.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import eigsolve, matio
from .errors import ConfigError
from .matio import (
    WEIGHT_KEYS,
    DomainPair,
    ExperimentConfig,
    Task,
    load_domain_pair,
    load_eval_labels,
    task_name,
    write_labels,
)
from .trainer import (
    AdaptationResult,
    PreparedTask,
    accuracy_pct,
    as_prepared,
    preprocess_rows,
    run_adaptation,
    source_probabilities,
)

GRID_VALUES = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)

# Each cumulative ablation stage, adding the objective's blocks ERM, DA, CDE
# and DFL one at a time, and the weights it sets to 0.
ABLATION_STAGES = (
    ("erm", ("lam", "gamma", "eta")),
    ("erm+da", ("gamma", "eta")),
    ("erm+da+cde", ("eta",)),
    ("full", ()),
)

ENV_THREADS = "CDEM_THREADS"
# Environment variables that fix OpenBLAS's thread count when it loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass
class TaskResult:
    task: str
    method: str
    accuracy: float | None
    predictions: np.ndarray
    trace: AdaptationResult | None = None
    wall_time: float = 0.0


def max_workers() -> int:
    raw = os.environ.get(ENV_THREADS, "")
    if not raw:
        return min(4, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_THREADS} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"{ENV_THREADS} must be positive")
    return value


def _task_result(
    name: str,
    method: str,
    config: ExperimentConfig | None,
    task: PreparedTask,
    eval_labels: np.ndarray | None,
    dump_dir: Path | None = None,
) -> TaskResult:
    """One run on a prepared task and its checked evaluation labels: the
    source-only classifier when config is None, else ``run_adaptation``
    under config.  wall_time times the run alone."""
    start = time.perf_counter()
    trace = None
    if config is None:
        predictions = np.argmax(source_probabilities(task), axis=1)
    else:
        # Called through this module's name, so a wrapper put on it here
        # (perfbench's tracer) sees every run.
        trace = run_adaptation(task, config, eval_labels, dump_dir=dump_dir)
        predictions = trace.predictions
    accuracy = accuracy_pct(predictions, eval_labels)
    return TaskResult(name, method, accuracy, predictions, trace, time.perf_counter() - start)


def run_source_only(
    pair: DomainPair | PreparedTask,
    config: ExperimentConfig,
    eval_labels: np.ndarray | None = None,
) -> TaskResult:
    """No adaptation: the source-only prototype classifier on pair, prepared
    here, or on a task prepared beforehand, reported as task "task".
    wall_time leaves out the preparation."""
    return _task_result("task", "source-only", None, *as_prepared(pair, config, eval_labels))


@dataclass(frozen=True)
class _Run:
    """One pool item: a report method on a task under its config, None for
    the source-only baseline."""

    task: Task
    method: str
    config: ExperimentConfig | None

    def __str__(self) -> str:
        # perfbench's tracer labels a pool item's spans by str()
        return task_name(self.task)


def expand_tasks(config: ExperimentConfig, names: list[str] | None) -> list[Task]:
    """The tasks that command-line names ask for: [None] without names, each
    ordered registry pair with a labeled source for ["all"], else each name
    split by ``matio.split_task``.  Two distinct tasks whose report files
    would share a name (``emit_report`` writes ``_safe_name(task_name(task))``),
    such as ("a", "b-c") and ("a-b", "c") or ("x y", "z") and ("x-y", "z"),
    raise ConfigError; a task named twice is kept twice."""
    if not names:
        return [None]
    if names == ["all"]:
        sources = sorted(n for n, entry in config.datasets.items() if entry.labels is not None)
        tasks = [(src, tgt) for src in sources for tgt in sorted(config.datasets) if src != tgt]
        if not tasks:
            raise ConfigError("no labeled datasets in the registry to expand 'all'")
    else:
        tasks = [matio.split_task(config, name) for name in names]
    stems: dict[str, Task] = {}
    for task in dict.fromkeys(tasks):
        stem = _safe_name(task_name(task))
        other = stems.setdefault(stem, task)
        if other != task:
            raise ConfigError(f"tasks {other} and {task} would both write files named {stem!r}")
    return tasks


def _parallel_map(fn: Callable, items: list) -> list:
    """fn over items, on a thread pool when there is more than one
    (CDEM_THREADS caps workers, and is checked however many items there
    are); results in input order.

    While the pool runs more than one item at a time, numpy's OpenBLAS runs
    one thread per call, and its previous count is restored afterwards:
    two task workers each running two BLAS threads oversubscribe two cores,
    while one task alone gains from the second thread.  A count set in
    BLAS_THREAD_VARS is left alone.
    """
    workers = max_workers()
    if len(items) == 1:
        return [fn(items[0])]
    blas = None
    if min(len(items), workers) > 1 and not any(v in os.environ for v in BLAS_THREAD_VARS):
        blas = eigsolve._openblas()
    if blas is not None:
        previous = blas.get_num_threads()
        blas.set_num_threads(1)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    finally:
        if blas is not None:
            blas.set_num_threads(previous)


def load_tasks(
    config: ExperimentConfig, tasks: list[Task]
) -> dict[Task, tuple[PreparedTask, np.ndarray | None]]:
    """Every task prepared, with its evaluation labels (None without a label
    file).

    Each task is read by ``load_domain_pair`` and ``load_eval_labels``,
    with their checks and messages, in task order and before any pair is
    prepared; each feature and label file is read once, however many tasks
    name it.  A registry task takes its two domains in sorted-name order,
    so it and its reverse are two views of one ``preprocess_rows`` result,
    one pool item keyed by the two names in that order, sharing its
    features and whitening W; the config's direct pair takes source then
    target.  A pool item passes its pair's two read matrices to
    ``preprocess_rows`` as they are and then drops them; no stacked copy of
    a pair is made.
    """
    # matio's readers are looked up at call time, so a wrapper put on them
    # there (perfbench's tracer) sees every read.
    matrix = functools.cache(lambda path: matio.read_matrix(path))
    labels = functools.cache(lambda path: matio.read_labels(path))
    blocks: dict[Task, list[np.ndarray]] = {}

    def check(task: Task) -> tuple[Task, dict, np.ndarray | None]:
        """The task's pool key, its PreparedTask fields other than the key's
        ``preprocess_rows`` result, by name, and its evaluation labels."""
        pair = load_domain_pair(config, task, matrix, labels)
        eval_labels = load_eval_labels(config, pair, task, labels)
        swapped = task is not None and task[0] > task[1]
        key = None if task is None else tuple(sorted(task))
        domains = [pair.source_x, pair.target_x]
        blocks.setdefault(key, domains[::-1] if swapped else domains)
        fields = dict(source_y=pair.source_y, n_classes=pair.n_classes, source_first=not swapped)
        return key, fields, eval_labels

    checked = {task: check(task) for task in dict.fromkeys(tasks)}
    matrix.cache_clear()
    keys = list(blocks)
    prepare = lambda key: preprocess_rows(*blocks.pop(key), config)
    rows = dict(zip(keys, _parallel_map(prepare, keys)))
    return {
        task: (PreparedTask(*rows[key], **fields), eval_labels)
        for task, (key, fields, eval_labels) in checked.items()
    }


def run_task_suite(
    config: ExperimentConfig,
    tasks: list[Task],
    methods: Sequence[str] = ("cdem",),
    dump_dir: Path | None = None,
) -> list[TaskResult]:
    """Every method on every task, in that order, as one list of runs on the
    pool (CDEM_THREADS caps workers).  A method is "source-only", "cdem" (the
    config as given) or an ABLATION_STAGES name (the config with that stage's
    weights set to 0); an unknown one raises before any file is read.  Each
    task is prepared once for all of its methods (see ``load_tasks``).

    dump_dir, when given, receives the adaptation run's per-step matrices.
    Their file names carry neither task nor method, so more than one
    adaptation run (methods other than "source-only", times tasks) with a
    dump_dir raises ConfigError, before any file is read.
    """
    known = {"source-only": None, "cdem": config}
    known.update(
        (name, replace(config, **dict.fromkeys(off, 0.0))) for name, off in ABLATION_STAGES
    )
    for method in methods:
        if method not in known:
            raise ConfigError(f"unknown method {method!r}")
    runs = [_Run(task, method, known[method]) for task in tasks for method in methods]
    if dump_dir is not None and sum(run.config is not None for run in runs) > 1:
        raise ConfigError("a dump needs a single task and a single adaptation method")
    loaded = load_tasks(config, tasks)

    def one(run: _Run) -> TaskResult:
        name = task_name(run.task)
        return _task_result(name, run.method, run.config, *loaded[run.task], dump_dir)

    return _parallel_map(one, runs)


def run_grid(
    config: ExperimentConfig,
    param_names: list[str],
    tasks: list[Task],
) -> list[tuple[dict[str, float], float]]:
    """Sweep GRID_VALUES over the named weights; score by mean accuracy.

    Requires evaluation labels for every task.  Each task is prepared once
    and run at every grid point, all as one list of runs on the pool
    (CDEM_THREADS caps workers); each run keeps only its accuracy, so no
    run's projection, embeddings or records outlive it.
    Returns (assignment, mean accuracy over the tasks) per grid point, in
    deterministic sweep order.
    """
    bad = [p for p in param_names if p not in WEIGHT_KEYS]
    if bad:
        raise ConfigError(f"cannot sweep {bad}; choose from {sorted(WEIGHT_KEYS)}")
    repeated = sorted({p for p in param_names if param_names.count(p) > 1})
    if repeated:
        raise ConfigError(f"cannot sweep {repeated} more than once")
    loaded = load_tasks(config, tasks)
    if any(eval_labels is None for _, eval_labels in loaded.values()):
        raise ConfigError("grid search needs target labels for every task")
    points = [
        dict(zip(param_names, combo))
        for combo in itertools.product(GRID_VALUES, repeat=len(param_names))
    ]
    configs = [replace(config, **{WEIGHT_KEYS[k]: v for k, v in p.items()}) for p in points]
    runs = [_Run(task, "cdem", cfg) for task in tasks for cfg in configs]

    def accuracy(run: _Run) -> float:
        name = task_name(run.task)
        return _task_result(name, run.method, run.config, *loaded[run.task]).accuracy

    accs = _parallel_map(accuracy, runs)
    # task-major: point i's accuracies are every len(points)-th from i
    return [
        (assignment, float(np.mean(accs[i :: len(points)])))
        for i, assignment in enumerate(points)
    ]


def _trace_payload(trace: AdaptationResult) -> dict:
    return {
        "eigenvalues": trace.eigenvalues.tolist(),
        "steps": [asdict(rec) for rec in trace.records],
        "n_selected_final": trace.records[-1].n_selected,
    }


def _safe_name(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_+" else "-" for c in text)


def emit_report(results: list[TaskResult], out_dir: str | Path) -> dict[str, Path]:
    """Write report.csv, report.json, per-task predictions, and 2-d embedding
    dumps for every result that carries a trace."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    methods: list[str] = []
    for res in results:
        if res.method not in methods:
            methods.append(res.method)

    one_decimal = lambda acc: "" if acc is None else f"{acc:.1f}"
    rows = [("task", "method", "accuracy")]
    rows += [(res.task, res.method, one_decimal(res.accuracy)) for res in results]
    averages: dict[str, float | None] = {}
    for method in methods:
        accs = [r.accuracy for r in results if r.method == method and r.accuracy is not None]
        averages[method] = float(np.mean(accs)) if accs else None
        rows.append(("average", method, one_decimal(averages[method])))
    csv_path = out / "report.csv"
    # csv quotes a task or method name that holds a comma or a quote
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    payload = {
        "results": [
            {
                "task": res.task,
                "method": res.method,
                "accuracy": res.accuracy,
                "trace": None if res.trace is None else _trace_payload(res.trace),
            }
            for res in results
        ],
        "average": averages,
    }
    json_path = out / "report.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    paths = {"csv": csv_path, "json": json_path}
    for res in results:
        stem = f"{_safe_name(res.task)}_{_safe_name(res.method)}"
        pred_path = out / f"{stem}_predictions.txt"
        write_labels(res.predictions, pred_path)
        paths[f"predictions:{res.task}:{res.method}"] = pred_path
        if res.trace is not None:
            emb_path = out / f"{stem}_embedding.csv"
            _write_embedding(res.trace, emb_path)
            paths[f"embedding:{res.task}:{res.method}"] = emb_path
    return paths


def _write_embedding(trace: AdaptationResult, path: Path) -> None:
    """Each float by its repr, a missing second column as 0.0."""
    lines = ["dim0,dim1,domain,label"]
    for domain, emb, labels in (
        ("source", trace.source_embedding, trace.source_labels),
        ("target", trace.target_embedding, trace.predictions),
    ):
        padded = np.zeros((emb.shape[0], 2))
        padded[:, : min(2, emb.shape[1])] = emb[:, :2]
        rows = zip(padded.tolist(), labels.tolist())
        lines += [f"{d0!r},{d1!r},{domain},{label}" for (d0, d1), label in rows]
    path.write_text("\n".join(lines) + "\n")
