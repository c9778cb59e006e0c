"""Task running, baselines, ablation, grid search, and report emission.

Reports are written as a compact CSV (one decimal accuracy, plus an average
row per method) and a JSON file carrying full-precision accuracies and the
per-step training traces, one ``IterationRecord`` per step with its field
names as keys.  Wall-clock timings are kept in memory and on the console
only, so repeated runs with the same configuration and inputs produce
byte-identical report files under a fixed BLAS configuration.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .matio import (
    WEIGHT_KEYS,
    DomainPair,
    ExperimentConfig,
    load_domain_pair,
    load_eval_labels,
    write_labels,
)
from .prototype import class_probabilities, fit_prototypes
from .trainer import AdaptationResult, preprocess_pair, run_adaptation

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
    pair: DomainPair,
    config: ExperimentConfig,
    eval_labels: np.ndarray | None = None,
    task: str = "task",
) -> TaskResult:
    """No adaptation: prototype classifier on preprocessed source features."""
    start = time.perf_counter()
    z = preprocess_pair(pair, config)
    centers = fit_prototypes(z[: pair.n_source], pair.source_y, pair.n_classes)
    predictions = np.argmax(class_probabilities(centers, z[pair.n_source :]), axis=1)
    return TaskResult(
        task=task,
        method="source-only",
        accuracy=accuracy_pct(predictions, eval_labels),
        predictions=predictions,
        wall_time=time.perf_counter() - start,
    )


def run_adaptation_task(
    pair: DomainPair,
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
    pair: DomainPair,
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


def expand_tasks(config: ExperimentConfig, names: list[str] | None) -> list[str | None]:
    """Resolve CLI task names; 'all' expands to every ordered registry pair."""
    if not names:
        return [None]
    if names == ["all"]:
        sources = [n for n in config.datasets if config.datasets[n].labels is not None]
        expanded = [
            f"{src}-{tgt}"
            for src in sorted(sources)
            for tgt in sorted(config.datasets)
            if src != tgt
        ]
        if not expanded:
            raise ConfigError("no labeled datasets in the registry to expand 'all'")
        return list(expanded)
    return list(names)


def run_task_suite(
    config: ExperimentConfig,
    tasks: list[str | None],
    methods: Sequence[str] = ("cdem",),
    dump_dir: Path | None = None,
) -> list[TaskResult]:
    """Run every method (see _run_method) on every task, in that order,
    parallelized across tasks (CDEM_THREADS caps workers).

    dump_dir, when given, receives each adaptation run's per-step matrices.
    Their file names carry neither task nor method, so pass it with a single
    task and a single adaptation method only.
    """

    def one_task(task: str | None) -> list[TaskResult]:
        pair = load_domain_pair(config, task)
        labels = load_eval_labels(config, pair, task)
        name = task if task is not None else "task"
        return [_run_method(pair, config, labels, name, m, dump_dir) for m in methods]

    if len(tasks) == 1:
        return one_task(tasks[0])
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        chunks = list(pool.map(one_task, tasks))
    return [result for chunk in chunks for result in chunk]


def run_grid(
    config: ExperimentConfig,
    param_names: list[str],
    tasks: list[str | None],
    values: tuple[float, ...] = GRID_VALUES,
) -> list[tuple[dict[str, float], float]]:
    """Sweep the standard grid over the named weights; score by mean accuracy.

    Requires evaluation labels for every task.  Returns (assignment, mean
    accuracy) per grid point, in deterministic sweep order.
    """
    bad = [p for p in param_names if p not in WEIGHT_KEYS]
    if bad:
        raise ConfigError(f"cannot sweep {bad}; choose from {sorted(WEIGHT_KEYS)}")
    loaded = []
    for task in tasks:
        pair = load_domain_pair(config, task)
        labels = load_eval_labels(config, pair, task)
        if labels is None:
            raise ConfigError("grid search needs target labels for every task")
        loaded.append((task if task is not None else "task", pair, labels))

    def one_point(assignment: dict[str, float]) -> tuple[dict[str, float], float]:
        fields = {WEIGHT_KEYS[k]: v for k, v in assignment.items()}
        point_config = replace(config, **fields)
        accs = [
            run_adaptation_task(pair, point_config, labels, task=name).accuracy
            for name, pair, labels in loaded
        ]
        return assignment, float(np.mean([a for a in accs if a is not None]))

    points = [
        dict(zip(param_names, combo))
        for combo in itertools.product(values, repeat=len(param_names))
    ]
    if len(points) == 1:
        return [one_point(points[0])]
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        return list(pool.map(one_point, points))


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
    lines = ["dim0,dim1,domain,label"]
    src = trace.source_embedding
    tgt = trace.target_embedding
    pad = lambda row: [float(v) for v in (list(row) + [0.0, 0.0])[:2]]
    for row, label in zip(src, trace.source_labels):
        d0, d1 = pad(row)
        lines.append(f"{d0!r},{d1!r},source,{int(label)}")
    for row, label in zip(tgt, trace.predictions):
        d0, d1 = pad(row)
        lines.append(f"{d0!r},{d1!r},target,{int(label)}")
    path.write_text("\n".join(lines) + "\n")
