"""Golden outputs: the reports and predictions a change promises to keep.

Each case of ``tests/golden/regenerate.py`` regenerates its inputs from
fixed ``cdem.synth`` specs, runs its command and compares the outputs with
the files stored in ``tests/golden/<case>/``: ``report.csv``, ``grid.csv``
and every predictions file byte for byte, ``report.json`` value by value
with floats at 1e-10 relative, because the README promises its bytes only
for one BLAS configuration.  How and when to regenerate: README, Tests.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
# Rounding-level fields (a solve's residual and orthonormality, near 1e-16)
# move with the BLAS thread count by more than 1e-10 of themselves.
ABS_FLOOR = 1e-12


def _regenerate_module():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGENERATE = _regenerate_module()


def _json_mismatches(got, want, where: str = "") -> list[str]:
    """Where got differs from want: floats beyond 1e-10 relative (or
    ABS_FLOOR), anything else when not equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in _json_mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in _json_mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=1e-10, abs_tol=ABS_FLOOR):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("case", sorted(REGENERATE.CASES))
def test_outputs_match_golden(case, tmp_path):
    outputs = REGENERATE.produce(case, tmp_path)
    stored = GOLDEN / case
    assert [p.name for p in outputs] == sorted(p.name for p in stored.iterdir())
    for got in outputs:
        want = stored / got.name
        if got.name == "report.json":
            mismatches = _json_mismatches(json.loads(got.read_text()), json.loads(want.read_text()))
            assert not mismatches, f"{case}/report.json: " + "; ".join(mismatches[:5])
        else:
            assert got.read_bytes() == want.read_bytes(), f"{case}/{got.name} moved"
