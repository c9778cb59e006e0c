"""The benchmark declared in BENCHMARK.json, run as a user runs it from the
repository root: a change under src/ that breaks a traced run, a report
check or the metric list fails here."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace, metrics",
    [("pair-large-n", "1", "per_layer"), ("suite-12", "0", "end_to_end")],
)
def test_benchmark_run_is_correct(workload, trace, metrics):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = declared["command"][1:]  # after the interpreter, which is this one
    done = subprocess.run(
        [sys.executable, *script, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared[metrics]}
