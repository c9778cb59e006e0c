"""The benchmark's tracer wraps cdem functions by module and attribute name;
every name it wraps must stay bound, or only the traced benchmark run fails."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, attribute, span, _ in tracer.WRAPPED:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{span}: {module}.{attribute} is not bound"
