"""The benchmark's tracer wraps cdem functions by module and attribute name;
every name it wraps must stay bound, or only the traced benchmark run fails.
Its observers also read the wrapped calls' arguments and results, so those
shapes are pinned here too."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from cdem.matio import ExperimentConfig
from cdem.prototype import squared_distances, target_kmeans
from cdem.synth import ShiftSpec, generate
from cdem.trainer import prepare_task, run_adaptation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_wrapped_name_resolves():
    tracer = _tracer_module()
    assert tracer.WRAPPED
    for module, attribute, span, _ in tracer.WRAPPED:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{span}: {module}.{attribute} is not bound"


def test_observers_read_the_shapes_they_expect():
    # An observer that meets a changed shape raises inside the traced run.
    traced = _tracer_module()
    tracer = traced.Tracer()
    pair, labels = generate(ShiftSpec(classes=3, n_per_domain=60, dims=8, seed=2))
    config = ExperimentConfig(pca_dim=6, subspace_dim=3, iterations=3)
    tracer.install()
    try:
        result = run_adaptation(prepare_task(pair, config), config, labels)
    finally:
        tracer.uninstall()
    # len(target_kmeans(...)[2]): one history entry per Lloyd iteration
    init = pair.target_x[:3]
    to_init = squared_distances(pair.target_x, init)
    assert isinstance(target_kmeans(pair.target_x, init, to_init)[2], list)
    assert tracer.counts["prototype.kmeans_iters"] >= config.iterations
    # curriculum.select(table, ...) takes the table first, returns .selected_ids
    assert tracer.last_admit["main"] == (result.records[-1].n_selected, pair.n_target)
    # A span wrapped under a name the run no longer calls through records
    # nothing, and its time moves unnoticed into the caller's self time.
    called = {span["name"] for span in tracer.spans}
    for module, attribute, span, _ in traced.WRAPPED:
        if module in ("cdem.trainer", "cdem.curriculum"):
            assert span in called, f"{span}: {module}.{attribute} recorded no call"
