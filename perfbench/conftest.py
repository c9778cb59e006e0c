"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the
repository root.  The benchmark's modules import each other by bare name, as
``run.py`` does when started as a script."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
