"""cdem benchmark: end-to-end timings of ``cdem run`` and a traced per-module run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; cdem is imported from ``./src``.  Set-up
writes the seeded workload (see ``workloads.py``) under ``.perfbench_work/``
and scores the source-only baseline on it once, as the accuracy reference.

Each timed repetition is a fresh interpreter (``child.py``) that imports
``cdem.cli`` and calls ``cdem.cli.main(["run", ...])``.  This is a closed loop
with one caller: one child at a time, each started after the previous one
ended.  Timed children run single-threaded (see TIMED_THREADS).  Every
repetition's outputs are checked, and report bytes must be identical across
the repetitions of one run.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced/traced pairs
and one run at the thread defaults, and prints the per-module metrics.  The last
line of stdout is the JSON result; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CDEM_THREADS")
# Timed runs pin OpenBLAS and the task pool to one thread each.  At the
# defaults (2 OpenBLAS threads per task, plus 2 pool workers on suite-12, on
# 2 cores) the threads wait on each other whenever the host takes a core
# away: on a shared 2-vCPU machine the median run_s of ten seeds spread by up
# to 28% on suite-12 and 21% on wide-d, more than any allowed bound.  The
# traced run still records one run at the defaults.
TIMED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "CDEM_THREADS": "1"}
MEMORY_CAP = 3 << 30  # address-space cap per child; the largest workload peaks near 0.9 GiB
REP_TIMEOUT = 100.0
RUN_LIMIT = 165.0  # every child is killed by then, so a run ends within 180 s
SETUP_PROBES = 5


class CheckFailed(Exception):
    """An output of one repetition is missing or wrong."""


def _child_env(extra: dict[str, str]) -> dict[str, str]:
    # Byte-code caching stays on, whatever the caller's environment says, so
    # setup_s is the import a user pays, not a recompile of cdem.
    unset = (*THREAD_VARS, "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def spawn(work: Path, tag: str, cli_args: list[str], env: dict[str, str], deadline: float,
          trace: bool = False) -> dict:
    """Run one child to completion, killing it after REP_TIMEOUT or at the
    monotonic ``deadline``; returns its timings and resource use, with
    ``error`` set when it did not finish cleanly."""
    result_path = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(MEMORY_CAP),
           "1" if trace else "0", *cli_args]
    with open(work / f"{tag}.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT, cwd=work)
    kill_at = min(spawned + REP_TIMEOUT, deadline)
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > kill_at:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "error": None,
    }
    if timed_out:
        out["error"] = f"timeout after {kill_at - spawned:.0f}s"
    elif proc.returncode != 0 or not result_path.exists():
        tail = (work / f"{tag}.log").read_text(errors="replace").strip().splitlines()[-1:]
        out["error"] = f"exit code {proc.returncode}: {' '.join(tail)}"
    else:
        out.update(json.loads(result_path.read_text()))
        out["setup_s"] = out["entered"] - spawned
    return out


def check_outputs(report: Path, wl, truth: dict[str, list[int]]) -> tuple[float, str]:
    """Validate one report directory; returns the mean cdem accuracy from
    report.json and a digest of every file in the directory."""
    try:
        with open(report / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        payload = json.loads((report / "report.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"report does not parse: {exc}") from exc
    if rows[0] != ["task", "method", "accuracy"]:
        raise CheckFailed(f"report.csv header {rows[0]}")
    csv_acc = {r[0]: r[2] for r in rows[1:] if r[1] == "cdem"}
    json_acc = {r["task"]: r["accuracy"] for r in payload["results"] if r["method"] == "cdem"}
    if set(json_acc) != set(wl.truth) or set(csv_acc) != set(wl.truth) | {"average"}:
        raise CheckFailed(f"report tasks {sorted(json_acc)} != {sorted(wl.truth)}")
    for task, labels in truth.items():
        pred_path = report / f"{task}_cdem_predictions.txt"
        try:
            pred = [int(line) for line in pred_path.read_text().split()]
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{pred_path.name}: {exc}") from exc
        if len(pred) != len(labels) or not all(0 <= p < wl.n_classes for p in pred):
            raise CheckFailed(f"{pred_path.name}: {len(pred)} labels, expected "
                              f"{len(labels)} in [0, {wl.n_classes})")
        hits = sum(p == t for p, t in zip(pred, labels))
        if abs(json_acc[task] - 100.0 * hits / len(labels)) > 1e-9:
            raise CheckFailed(f"{task}: report accuracy {json_acc[task]} does not match "
                              "its predictions")
        if csv_acc[task] != f"{json_acc[task]:.1f}":
            raise CheckFailed(f"{task}: report.csv says {csv_acc[task]}")
    digest = hashlib.sha256()
    for path in sorted(report.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return float(payload["average"]["cdem"]), digest.hexdigest()


class Bench:
    """One benchmark invocation: a generated workload plus its repetitions."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        from cdem.matio import read_labels
        from workloads import write_workload

        self.deadline = time.monotonic() + RUN_LIMIT
        self.work = work
        self.data = work / "data"
        self.wl = write_workload(workload, seed, self.data)
        self.truth = {
            task: [int(v) for v in read_labels(self.data / name)]
            for task, name in self.wl.truth.items()
        }
        self.reference = self._source_only()
        self.reps: list[dict] = []
        self.digest: str | None = None

    def _source_only(self) -> float:
        from cdem import bench
        from cdem.matio import load_config

        config = load_config(self.data / "config.txt")
        accs = []
        for task in bench.expand_tasks(config, list(self.wl.tasks) or None):
            pair = bench.load_domain_pair(config, task)
            labels = bench.load_eval_labels(config, pair, task)
            accs.append(bench.run_source_only(pair, config, labels).accuracy)
        return statistics.fmean(accs)

    def cli_args(self, out: Path) -> list[str]:
        args = ["run", "--config", str(self.data / "config.txt"), "--out", str(out)]
        for task in self.wl.tasks:
            args += ["--task", task]
        return args

    def setup_probe(self, tag: str) -> float:
        probe = spawn(self.work, tag, [], _child_env(TIMED_THREADS), self.deadline)
        if probe["error"]:
            raise CheckFailed(f"set-up probe failed: {probe['error']}")
        return probe["setup_s"]

    def rep(self, kind: str, trace: bool = False, threads: dict[str, str] = TIMED_THREADS,
            same_bytes: bool = True) -> dict:
        """One checked repetition.  ``same_bytes`` requires the report bytes
        to equal those of the first repetition that had it set."""
        tag = f"{kind}{len(self.reps):02d}"
        out = self.work / tag
        rep = spawn(self.work, tag, self.cli_args(out), _child_env(threads), self.deadline,
                    trace=trace)
        rep["kind"] = kind
        try:
            if rep["error"]:
                raise CheckFailed(rep["error"])
            if trace and not rep["restored"]:
                raise CheckFailed("a traced function was not restored")
            rep["accuracy"], digest = check_outputs(out, self.wl, self.truth)
            if rep["accuracy"] <= self.reference:
                raise CheckFailed(f"cdem accuracy {rep['accuracy']:.2f} does not beat "
                                  f"source-only {self.reference:.2f}")
            if same_bytes:
                self.digest = self.digest or digest
                if digest != self.digest:
                    raise CheckFailed("report bytes differ from the first repetition")
        except CheckFailed as exc:
            rep["error"] = str(exc)
        shutil.rmtree(out, ignore_errors=True)
        self.reps.append(rep)
        status = "ok" if rep["error"] is None else f"FAILED: {rep['error']}"
        print(f"rep {tag}: run_s={rep.get('run_s', float('nan')):.3f} "
              f"cpu_s={rep['cpu_s']:.3f} peak_rss_mb={rep['peak_rss_mb']:.1f} {status}",
              flush=True)
        return rep

    def ok(self, kind: str) -> list[dict]:
        return [r for r in self.reps if r["kind"] == kind and r["error"] is None]


def _median(reps: list[dict], key: str) -> float:
    values = [r[key] for r in reps]
    return statistics.median(values) if values else 0.0


def timed(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics: repetitions until the next one would overrun."""
    setups = [bench.setup_probe(f"probe{i}") for i in range(SETUP_PROBES)]
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        bench.rep("run")
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    ok = bench.ok("run")
    setups += [r["setup_s"] for r in ok]
    print(f"samples: {len(ok)} repetitions, {len(setups)} set-up times", flush=True)
    return {
        "setup_s": statistics.median(setups),
        "run_s": _median(ok, "run_s"),
        "cpu_s": _median(ok, "cpu_s"),
        "peak_rss_mb": _median(ok, "peak_rss_mb"),
        "accuracy_pct": _median(ok, "accuracy"),
    }


def traced(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-module metrics: untraced/traced pairs, then one run at the thread
    defaults (what a user gets), so the cost of oversubscription is on record."""
    from tracer import summarize

    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        bench.rep("plain")
        bench.rep("traced", trace=True)
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    default = bench.rep("default", threads={}, same_bytes=False)
    plain, traced_reps = bench.ok("plain"), bench.ok("traced")
    if not traced_reps:
        raise CheckFailed("no traced repetition succeeded")
    metrics = summarize(traced_reps[-1]["trace"])
    metrics["single_thread.run_s"] = _median(plain, "run_s")
    metrics["single_thread.cpu_s"] = _median(plain, "cpu_s")
    metrics["trace.run_s"] = _median(traced_reps, "run_s")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["single_thread.run_s"]
    metrics["default_threads.run_s"] = default.get("run_s", 0.0)
    metrics["default_threads.cpu_s"] = default["cpu_s"]
    return metrics


def environment(inherited: dict[str, str | None]) -> dict:
    import numpy
    import scipy
    from cdem import bench

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars_inherited": inherited,
        "thread_vars_timed_runs": TIMED_THREADS,
        "bench.max_workers_default": bench.max_workers(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdem" / "__init__.py").is_file():
        print(f"perfbench: no cdem package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The parent's own environment is cleaned too, so bench.max_workers()
    # below reports the default pool size.
    inherited = {k: os.environ.pop(k, None) for k in THREAD_VARS}
    from workloads import NAMES

    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(NAMES)}")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print("env " + json.dumps(environment(inherited)), flush=True)
        bench = Bench(args.workload, args.seed, work)
        print(f"reference: source-only accuracy {bench.reference:.4f}%", flush=True)
        # A discarded probe first, so byte-compiled files and the page cache
        # are warm as they are for a user's second run.
        bench.setup_probe("warmup")
        metrics = (traced if args.trace else timed)(bench, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: measured {sorted(metrics)}, declared {sorted(units)}")
    failed = sum(r["error"] is not None for r in bench.reps)
    attempted = len(bench.reps)
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}", flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
