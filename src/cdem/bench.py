"""Task running, baselines, ablation, grid search, and report emission.

Tasks travel as ``matio.Task`` name pairs and report as ``S-T`` (or
``task``).  Every command prepares each task once (``trainer.PreparedTask``:
PCA scores and factored constraint) and runs all of its methods, ablation
stages and grid points on it.  Tasks are loaded together: each feature and
label file is read and checked once, however many tasks name it, and each
unordered pair of registry domains is prepared once, its two domains taken
in sorted-name order, in a pool pass before any task runs; a task and its
reverse are two views of that one prepared pair.  The pool pass hands each
pair's two read matrices to its PCA as they are, with no stacked copy, and
drops them once the pair is prepared.

Reports are written as a compact CSV (one decimal accuracy, plus an average
row per method) and a JSON file carrying full-precision accuracies and the
per-step training traces, one ``IterationRecord`` per step with its field
names as keys.  Wall-clock timings are kept in memory and on the console
only, so repeated runs with the same configuration and inputs produce
byte-identical report files under a fixed BLAS configuration.
"""

from __future__ import annotations

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

from . import matio
from .errors import ConfigError
from .matio import (
    WEIGHT_KEYS,
    DomainPair,
    ExperimentConfig,
    Task,
    load_domain_pair,
    load_eval_labels,
    task_name,
    validate_eval_labels,
    write_labels,
)
from .prototype import class_probabilities, fit_prototypes, squared_distances
from .trainer import (
    AdaptationResult,
    PreparedTask,
    as_prepared,
    preprocess_rows,
    run_adaptation,
    task_view,
)

GRID_VALUES = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)

ABLATION_STAGES = (
    ("erm", ("erm",)),
    ("erm+da", ("erm", "da")),
    ("erm+da+cde", ("erm", "da", "cde")),
    ("full", ("erm", "da", "cde", "dfl")),
)

ENV_THREADS = "CDEM_THREADS"


@dataclass
class TaskResult:
    task: str
    method: str
    accuracy: float | None
    predictions: np.ndarray
    trace: AdaptationResult | None = None
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 100.0:
            raise ConfigError(f"accuracy {self.accuracy} outside [0, 100]")


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


def accuracy_pct(predictions: np.ndarray, truth: np.ndarray | None) -> float | None:
    if truth is None:
        return None
    return float(np.mean(np.asarray(predictions) == np.asarray(truth)) * 100.0)


def run_source_only(
    pair: DomainPair | PreparedTask,
    config: ExperimentConfig,
    eval_labels: np.ndarray | None = None,
    task: str = "task",
) -> TaskResult:
    """No adaptation: prototype classifier on the prepared source features."""
    start = time.perf_counter()
    prepared = as_prepared(pair, config)
    if eval_labels is not None:
        eval_labels = validate_eval_labels(eval_labels, prepared, "evaluation labels")
    centers = fit_prototypes(prepared.source, prepared.source_y, prepared.n_classes)
    predictions = np.argmax(
        class_probabilities(squared_distances(prepared.target, centers)), axis=1
    )
    return TaskResult(
        task=task,
        method="source-only",
        accuracy=accuracy_pct(predictions, eval_labels),
        predictions=predictions,
        wall_time=time.perf_counter() - start,
    )


def run_adaptation_task(
    pair: DomainPair | PreparedTask,
    config: ExperimentConfig,
    eval_labels: np.ndarray | None = None,
    task: str = "task",
    method: str = "cdem",
    dump_dir: Path | None = None,
) -> TaskResult:
    start = time.perf_counter()
    trace = run_adaptation(pair, config, eval_labels, dump_dir=dump_dir)
    return TaskResult(
        task=task,
        method=method,
        accuracy=accuracy_pct(trace.predictions, eval_labels),
        predictions=trace.predictions,
        trace=trace,
        wall_time=time.perf_counter() - start,
    )


def _run_method(
    pair: PreparedTask,
    config: ExperimentConfig,
    eval_labels: np.ndarray | None,
    task: str,
    method: str,
    dump_dir: Path | None = None,
) -> TaskResult:
    """One report method: "source-only", "cdem" (the config as given) or an
    ABLATION_STAGES name (the config with that stage's components)."""
    if method == "source-only":
        return run_source_only(pair, config, eval_labels, task=task)
    stages = dict(ABLATION_STAGES)
    if method in stages:
        config = replace(config, components=stages[method])
    elif method != "cdem":
        raise ConfigError(f"unknown method {method!r}")
    return run_adaptation_task(pair, config, eval_labels, task, method, dump_dir)


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
    (CDEM_THREADS caps workers); results in input order."""
    if len(items) == 1:
        return [fn(items[0])]
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        return list(pool.map(fn, items))


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
    features and constraint; the config's direct pair takes source then
    target.  A pool item passes its pair's two read matrices to
    ``preprocess_rows`` as they are and then drops them; no stacked copy of
    a pair is made.
    """
    # matio's readers are looked up at call time, so a wrapper put on them
    # there (perfbench's tracer) sees every read.
    matrix = functools.cache(lambda path: matio.read_matrix(path))
    labels = functools.cache(lambda path: matio.read_labels(path))
    blocks: dict[Task, list[np.ndarray]] = {}

    def check(task: Task) -> tuple[Task, bool, np.ndarray, int, np.ndarray | None]:
        pair = load_domain_pair(config, task, matrix, labels)
        eval_labels = load_eval_labels(config, pair, task, labels)
        swapped = task is not None and task[0] > task[1]
        key = None if task is None else tuple(sorted(task))
        domains = [pair.source_x, pair.target_x]
        blocks.setdefault(key, domains[::-1] if swapped else domains)
        return key, swapped, pair.source_y, pair.n_classes, eval_labels

    checked = {task: check(task) for task in dict.fromkeys(tasks)}
    matrix.cache_clear()
    keys = list(blocks)
    prepare = lambda key: preprocess_rows(*blocks.pop(key), config)
    rows = dict(zip(keys, _parallel_map(prepare, keys)))
    return {
        task: (task_view(rows[key], source_y, n_classes, config, not swapped), eval_labels)
        for task, (key, swapped, source_y, n_classes, eval_labels) in checked.items()
    }


def run_task_suite(
    config: ExperimentConfig,
    tasks: list[Task],
    methods: Sequence[str] = ("cdem",),
    dump_dir: Path | None = None,
) -> list[TaskResult]:
    """Run every method (see _run_method) on every task, in that order,
    parallelized across tasks (CDEM_THREADS caps workers).  Each task is
    prepared once for all of its methods (see ``load_tasks``).

    dump_dir, when given, receives each adaptation run's per-step matrices.
    Their file names carry neither task nor method, so pass it with a single
    task and a single adaptation method only.
    """
    loaded = load_tasks(config, tasks)

    def one_task(task: Task) -> list[TaskResult]:
        prepared, eval_labels = loaded[task]
        name = task_name(task)
        return [_run_method(prepared, config, eval_labels, name, m, dump_dir) for m in methods]

    chunks = _parallel_map(one_task, tasks)
    return [result for chunk in chunks for result in chunk]


def run_grid(
    config: ExperimentConfig,
    param_names: list[str],
    tasks: list[Task],
    values: Sequence[float] = GRID_VALUES,
) -> list[tuple[dict[str, float], float]]:
    """Sweep the standard grid over the named weights; score by mean accuracy.

    Requires evaluation labels for every task.  The tasks are swept one
    after another, each prepared once and run at every grid point
    (parallelized across points, CDEM_THREADS caps workers).
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
        for combo in itertools.product(values, repeat=len(param_names))
    ]

    def sweep(task: Task) -> list[float | None]:
        prepared, eval_labels = loaded[task]

        def one_point(assignment: dict[str, float]) -> float | None:
            fields = {WEIGHT_KEYS[k]: v for k, v in assignment.items()}
            point_config = replace(config, **fields)
            result = run_adaptation_task(prepared, point_config, eval_labels, task_name(task))
            return result.accuracy

        return _parallel_map(one_point, points)

    per_task = [sweep(task) for task in tasks]
    return [
        (assignment, float(np.mean([a for a in accs if a is not None])))
        for assignment, accs in zip(points, zip(*per_task))
    ]


def _numpy_to_json(value):
    """json.dumps default: numpy arrays and scalars as plain lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _trace_payload(trace: AdaptationResult) -> dict:
    return {
        "eigenvalues": trace.eigenvalues,
        "steps": [asdict(rec) for rec in trace.records],
        "n_selected_final": int(trace.selected.sum()),
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

    csv_lines = ["task,method,accuracy"]
    for res in results:
        acc = "" if res.accuracy is None else f"{res.accuracy:.1f}"
        csv_lines.append(f"{res.task},{res.method},{acc}")
    averages: dict[str, float | None] = {}
    for method in methods:
        accs = [r.accuracy for r in results if r.method == method and r.accuracy is not None]
        averages[method] = float(np.mean(accs)) if accs else None
        acc = "" if averages[method] is None else f"{averages[method]:.1f}"
        csv_lines.append(f"average,{method},{acc}")
    csv_path = out / "report.csv"
    csv_path.write_text("\n".join(csv_lines) + "\n")

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
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_numpy_to_json) + "\n"
    )

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
