"""In-memory span tracer that wraps cdem's public functions from outside.

Each function is wrapped under the name its caller looks up at call time:
``trainer`` imports its helpers by name, so ``cdem.trainer.fit_pca`` is
wrapped rather than ``cdem.preprocess.fit_pca``.  A span records its name,
start, end, parent span and task id.  Recording is thread-safe because
multi-task runs execute tasks on the ``cdem.bench`` thread pool; busy sums
over pool threads can therefore exceed wall time.  Spans stay in memory and
are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

MIB = float(1 << 20)


def _term_mb(tracer: "Tracer", args, result) -> None:
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
    tracer.maximum("objectives.term_mb", sum(a.nbytes for a in arrays) / MIB)
    tracer.add("objectives.skipped_terms", len(result.skipped))


def _pca_input(tracer: "Tracer", args, result) -> None:
    n, d = args[0].shape
    tracer.add("preprocess.pca_input_mb", n * d * 8 / MIB)


def _residual(tracer: "Tracer", args, result) -> None:
    tracer.maximum("eigsolve.residual_max", result.residual)


def _kmeans_iters(tracer: "Tracer", args, result) -> None:
    tracer.add("prototype.kmeans_iters", len(result[2]))


def _admitted(tracer: "Tracer", args, result) -> None:
    # Overwritten at every step, so what remains is the task's last step.
    tracer.last_admit[tracer.task()] = (int(result.selected_ids.size), args[0].n_samples)


def _report_size(tracer: "Tracer", args, result) -> None:
    tracer.add("bench.report_mb", sum(Path(p).stat().st_size for p in result.values()) / MIB)


def _read_size(tracer: "Tracer", args, result) -> None:
    tracer.add("matio.read_mb", result.nbytes / MIB)


# (module, attribute, span name, observer of the call's result)
WRAPPED = (
    ("cdem.matio", "read_matrix", "matio.read", _read_size),
    ("cdem.bench", "run_adaptation", "trainer.run", None),
    ("cdem.bench", "emit_report", "bench.report", _report_size),
    ("cdem.trainer", "fit_pca", "preprocess.pca", _pca_input),
    ("cdem.trainer", "build_objective_matrices", "objectives.build", _term_mb),
    ("cdem.trainer", "assemble_operands", "eigsolve.assemble", None),
    ("cdem.trainer", "solve_generalized", "eigsolve.solve", _residual),
    ("cdem.trainer", "target_kmeans", "prototype.kmeans", _kmeans_iters),
    ("cdem.trainer", "fit_prototypes", "prototype.fit", None),
    ("cdem.trainer", "class_probabilities", "prototype.probabilities", None),
    ("cdem.trainer", "combined_pseudo_labels", "prototype.blend", None),
    ("cdem.trainer", "evaluate_cross_domain_errors", "trainer.diagnostics", None),
    ("cdem.curriculum", "select", "curriculum.select", _admitted),
)


class Tracer:
    """Records spans and counters; ``install`` patches cdem, ``uninstall``
    puts every original back."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.last_admit: dict[str, tuple[int, int]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def task(self) -> str:
        return getattr(self._local, "task", "main")

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "task": self.task(),
            }
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    def _wrap(self, original, name: str, observe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Times each task from submission to start and parents its spans
            under the span that submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                submitted = time.perf_counter()

                def run_task():
                    tracer.add("bench.task_wait_s", time.perf_counter() - submitted)
                    tracer._local.stack = [] if parent is None else [parent]
                    tracer._local.task = str(args[0]) if args else "task"
                    try:
                        with tracer.span("bench.task"):
                            return fn(*args, **kwargs)
                    finally:
                        del tracer._local.stack, tracer._local.task

                return super().submit(run_task)

        return TracedPool

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        patches = [
            (importlib.import_module(mod), attr, name, observe)
            for mod, attr, name, observe in WRAPPED
        ]
        for module, attr, name, observe in patches:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observe))
        bench = importlib.import_module("cdem.bench")
        self._saved.append((bench, "ThreadPoolExecutor", bench.ThreadPoolExecutor))
        bench.ThreadPoolExecutor = self._pool_class()
        self.counts["bench.workers"] = float(bench.max_workers())

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        with self._lock:
            return {
                "spans": list(self.spans),
                "counts": dict(self.counts),
                "last_admit": dict(self.last_admit),
            }


def is_clean() -> bool:
    """True when no cdem function or the bench pool is still wrapped."""
    for mod, attr, _, _ in WRAPPED:
        if hasattr(getattr(importlib.import_module(mod), attr), "__wrapped__"):
            return False
    return importlib.import_module("cdem.bench").ThreadPoolExecutor is ThreadPoolExecutor


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name: duration minus the part of it that
    child spans cover (children on several threads are merged first)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - _covered(s["start"], s["end"], children.get(s["id"], []))
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def summarize(trace: dict) -> dict[str, float]:
    """Per-module metrics of one traced run, from ``Tracer.dump()``."""
    spans = trace["spans"]
    counts = trace["counts"]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        busy[s["name"]] = busy.get(s["name"], 0.0) + s["end"] - s["start"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    own = self_times(spans)
    admitted = sum(a for a, _ in trace["last_admit"].values())
    rows = sum(n for _, n in trace["last_admit"].values())
    return {
        "objectives.build_s": busy.get("objectives.build", 0.0),
        "objectives.build_calls": calls.get("objectives.build", 0),
        "objectives.term_mb": counts.get("objectives.term_mb", 0.0),
        "objectives.skipped_terms": counts.get("objectives.skipped_terms", 0.0),
        "preprocess.pca_s": busy.get("preprocess.pca", 0.0),
        "preprocess.pca_calls": calls.get("preprocess.pca", 0),
        "preprocess.pca_input_mb": counts.get("preprocess.pca_input_mb", 0.0),
        "eigsolve.assemble_s": busy.get("eigsolve.assemble", 0.0),
        "eigsolve.solve_s": busy.get("eigsolve.solve", 0.0),
        "eigsolve.solve_calls": calls.get("eigsolve.solve", 0),
        "eigsolve.residual_max": counts.get("eigsolve.residual_max", 0.0),
        "bench.task_wait_s": counts.get("bench.task_wait_s", 0.0),
        "bench.workers": counts.get("bench.workers", 0.0),
        "bench.report_s": busy.get("bench.report", 0.0),
        "bench.report_mb": counts.get("bench.report_mb", 0.0),
        "matio.read_s": busy.get("matio.read", 0.0),
        "matio.read_calls": calls.get("matio.read", 0),
        "matio.read_mb": counts.get("matio.read_mb", 0.0),
        "prototype.kmeans_s": busy.get("prototype.kmeans", 0.0),
        "prototype.kmeans_iters": counts.get("prototype.kmeans_iters", 0.0),
        "prototype.classify_s": sum(
            busy.get(n, 0.0)
            for n in ("prototype.fit", "prototype.probabilities", "prototype.blend")
        ),
        "curriculum.select_s": busy.get("curriculum.select", 0.0),
        "curriculum.admit_ratio": admitted / rows if rows else 0.0,
        "trainer.run_s": busy.get("trainer.run", 0.0),
        "trainer.self_s": own.get("trainer.run", 0.0),
        "trainer.diagnostics_s": busy.get("trainer.diagnostics", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }
