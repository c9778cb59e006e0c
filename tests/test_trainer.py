"""End-to-end adaptation runs on small synthetic tasks."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import cdem
from cdem import eigsolve, preprocess
from cdem.eigsolve import ORTHONORMALITY_BOUND, RESIDUAL_BOUND, top_eigenpairs
from cdem.errors import ConfigError, DataError, DegenerateDataError
from cdem.matio import DomainPair, ExperimentConfig, read_matrix
from cdem.preprocess import normalize_rows
from cdem.prototype import KMEANS_MAX_ITERS, fit_prototypes, squared_distances
from cdem.selftest import oracle_marginal_mmd
from cdem.synth import ShiftSpec, generate, standard_shift_spec
from cdem.trainer import PreparedTask, evaluate_cross_domain_errors, prepare_task, run_adaptation


def _small_spec(seed=0, **over):
    base = dict(
        classes=2, n_per_domain=40, dims=6, separation=6.0,
        rotation_deg=10.0, translation=(1.0, -1.0), seed=seed,
    )
    base.update(over)
    return ShiftSpec(**base)


def _small_config(**over):
    base = dict(
        pca_dim=6, subspace_dim=3, iterations=5,
        beta=0.1, lam=0.1, gamma=0.1, eta=0.1, delta=0.1,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_record_count_and_fields():
    pair, labels = generate(_small_spec())
    config = _small_config()
    result = run_adaptation(pair, config, labels)
    assert len(result.records) == config.iterations
    for step, rec in enumerate(result.records, start=1):
        assert rec.step == step
        assert np.isfinite(rec.objective)
        assert 0.0 <= rec.agreement <= 1.0
        assert rec.accuracy is not None and 0.0 <= rec.accuracy <= 100.0
        assert rec.n_selected == sum(rec.selected_per_class)
        for rate in (
            rec.errors.source_model_on_source,
            rec.errors.target_model_on_target,
            rec.errors.target_model_on_source,
            rec.errors.source_model_on_target,
        ):
            assert 0.0 <= rate <= 1.0
    assert result.projection.shape == (config.pca_dim, config.subspace_dim)
    assert result.eigenvalues.shape == (config.subspace_dim,)
    assert result.predictions.shape == (pair.n_target,)
    assert result.source_embedding.shape == (pair.n_source, 2)


def test_selection_grows_to_consistent_set():
    pair, labels = generate(_small_spec())
    result = run_adaptation(pair, _small_config(), labels)
    sizes = [rec.n_selected for rec in result.records]
    assert sizes[0] < sizes[-1]
    assert result.selected.sum() == sizes[-1]


def test_identical_domains_reach_perfect_accuracy():
    rng = np.random.default_rng(41)
    x = np.vstack(
        [rng.standard_normal((20, 5)) + 4.0 * np.eye(5)[cls] for cls in (0, 1)]
    )
    y = np.repeat([0, 1], 20)
    pair = DomainPair(x, y, x.copy(), 2)
    config = _small_config(pca_dim=5, subspace_dim=2, iterations=3)
    result = run_adaptation(pair, config, y)
    assert result.records[-1].accuracy == 100.0


def test_identical_domains_align_exactly():
    rng = np.random.default_rng(42)
    x = np.vstack(
        [rng.standard_normal((15, 4)) + 5.0 * np.eye(4)[cls] for cls in (0, 1)]
    )
    y = np.repeat([0, 1], 15)
    pair = DomainPair(x, y, x.copy(), 2)
    result = run_adaptation(pair, _small_config(pca_dim=4, subspace_dim=2, iterations=3), y)
    zs = np.asarray(result.source_embedding)
    zt = np.asarray(result.target_embedding)
    # same inputs, same projection: the domain means cannot differ
    gap = oracle_marginal_mmd(np.eye(2), zs, zt)
    assert gap <= 1e-18


def test_alignment_weight_reduces_domain_gap_term():
    from cdem.eigsolve import solve_generalized
    from cdem.objectives import (
        build_objective_matrices,
        objective_terms,
        source_moments,
        term_weights,
    )
    from cdem.selftest import trace_form

    pair, labels = generate(_small_spec(translation=(1.5, -1.5)))
    config = _small_config()
    task = prepare_task(pair, config)
    features = task.features
    # every target row selected, with its true label
    xt_sel = task.target
    moments = source_moments(task.source, task.target, task.source_y, task.n_classes)
    mmd = objective_terms(moments, xt_sel, labels)["mmd"]
    gap_terms = []
    for lam in (0.0, 10.0):
        params = ExperimentConfig(beta=0.1, lam=lam, gamma=0.1, eta=0.1, delta=0.1)
        weights = term_weights(params)
        parts = build_objective_matrices(moments, xt_sel, labels, weights)
        a = parts.combined + params.delta * np.eye(features.shape[1])
        w = task.whiten
        solution = solve_generalized(w.T @ a @ w, 3)
        gap_terms.append(trace_form(mmd, w @ solution.basis))
    # both solves minimize over the same feasible frames, so the heavier
    # alignment weight cannot end up with a larger alignment term
    assert gap_terms[1] <= gap_terms[0] + 1e-9 * (1.0 + abs(gap_terms[0]))
    assert gap_terms[1] < gap_terms[0]


def test_eval_labels_do_not_influence_training():
    pair, labels = generate(_small_spec(seed=3))
    config = _small_config()
    with_labels = run_adaptation(pair, config, labels)
    without = run_adaptation(pair, config, None)
    assert np.array_equal(with_labels.predictions, without.predictions)
    assert np.array_equal(with_labels.projection, without.projection)
    assert without.records[-1].accuracy is None


def test_objective_matches_eigenvalue_sum():
    pair, labels = generate(_small_spec(seed=5))
    config = _small_config(iterations=2)
    result = run_adaptation(pair, config, labels)
    # tr(P'AP) with B-orthonormal P equals the eigenvalue sum at the solve
    final = result.records[-1]
    assert abs(final.objective - result.eigenvalues.sum()) <= 1e-10 * abs(final.objective)


def test_component_subset_runs():
    pair, labels = generate(_small_spec(seed=7))
    config = _small_config(lam=0.0, gamma=0.0, eta=0.0)
    result = run_adaptation(pair, config, labels)
    assert len(result.records) == config.iterations


def test_dump_writes_term_matrices(tmp_path, monkeypatch):
    import cdem.trainer as trainer_mod
    from cdem.objectives import TERMS, term_weights

    built = []
    shifted_gram = trainer_mod.shifted_gram
    monkeypatch.setattr(
        trainer_mod, "shifted_gram", lambda features: built.append(1) or shifted_gram(features)
    )
    pair, labels = generate(_small_spec(seed=8))
    config = _small_config(iterations=2)
    dumped = run_adaptation(pair, config, labels, dump_dir=tmp_path)
    # B + sI is label-free: built once per run, written at every step
    assert len(built) == 1
    assert np.array_equal(
        read_matrix(tmp_path / "step01_operand_b.cdm"),
        read_matrix(tmp_path / "step02_operand_b.cdm"),
    )
    names = TERMS + ("combined", "operand_a", "operand_b", "projection", "eigenvalues")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"step{step:02d}_{name}.cdm" for step in (1, 2) for name in names
    )
    weights = term_weights(config)
    for step in (1, 2):
        read = lambda name: read_matrix(tmp_path / f"step{step:02d}_{name}.cdm")
        weighted = [weights[name] * read(name) for name in TERMS]
        scale = max(float(np.abs(t).max()) for t in weighted)
        assert np.abs(read("combined") - sum(weighted)).max() <= 1e-12 * scale
        delta = config.delta * np.eye(config.pca_dim)
        assert np.array_equal(read("operand_a"), read("combined") + delta)
    # building the terms for the dump leaves the run itself unchanged
    plain = run_adaptation(pair, config, labels)
    assert np.array_equal(dumped.predictions, plain.predictions)
    assert np.array_equal(dumped.projection, plain.projection)


def _unnormalized_task(pair, config):
    """pair prepared by hand on its PCA scores as they are, rows not scaled
    to unit length."""
    x = preprocess.fit_pca(pair.source_x, pair.target_x, n_components=config.pca_dim)
    x.flags.writeable = False
    whiten = eigsolve.assemble_operands(x)
    return PreparedTask(x, whiten, pair.source_y, pair.n_classes, source_first=True)


# case -> (ShiftSpec overrides, config overrides, the task run_adaptation
# takes): unit-length rows (the pair, prepared by the run) and rows at their
# own lengths, one ablation stage, and a wide task, 80 rows of 300 columns,
# whose PCA takes its n < d side
WHITENED_LOOP_CASES = {
    "normalized": ({}, {}, lambda pair, config: pair),
    "unnormalized": ({}, {}, _unnormalized_task),
    "erm+da": ({}, {"gamma": 0.0, "eta": 0.0}, lambda pair, config: pair),
    "wide": ({"dims": 300}, {"pca_dim": 20, "subspace_dim": 4}, lambda pair, config: pair),
}


@pytest.mark.parametrize("case", sorted(WHITENED_LOOP_CASES))
def test_dumped_steps_match_an_independent_generalized_solve(case, tmp_path):
    # The run solves in whitened coordinates; scipy solves the dumped
    # X-space pencil (A, B + sI) directly.
    import scipy.linalg

    spec_over, config_over, prepare = WHITENED_LOOP_CASES[case]
    pair, labels = generate(_small_spec(seed=14, **spec_over))
    config = _small_config(iterations=4, **config_over)
    result = run_adaptation(prepare(pair, config), config, labels, dump_dir=tmp_path)
    k = config.subspace_dim
    for record in result.records:
        read = lambda name: read_matrix(tmp_path / f"step{record.step:02d}_{name}.cdm")
        a, b, projection = read("operand_a"), read("operand_b"), read("projection")
        values, vectors = scipy.linalg.eigh(a, b, subset_by_index=[0, k - 1])
        theta = read("eigenvalues")[0]
        assert np.abs(theta - values).max() <= 1e-10 * np.abs(values).max()
        gap = scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[k, k])[0] - values[-1]
        assert abs(record.eigengap - gap) <= 1e-10 * np.abs(values).max()
        if gap > 1e-6 * abs(values[-1]):
            ours, theirs = np.linalg.qr(projection)[0], np.linalg.qr(vectors)[0]
            sine = np.linalg.norm(theirs - ours @ (ours.T @ theirs), 2)
            assert np.arcsin(min(sine, 1.0)) < 1e-8
        assert record.residual <= RESIDUAL_BOUND


def test_records_carry_the_solve_residual_and_eigengap():
    pair, labels = generate(standard_shift_spec())
    config = _small_config(pca_dim=10, subspace_dim=4, iterations=11)
    records = run_adaptation(pair, config, labels).records
    assert all(0.0 <= rec.residual <= RESIDUAL_BOUND for rec in records)
    assert all(isinstance(rec.eigengap, float) and rec.eigengap >= 0.0 for rec in records)
    assert all(0.0 <= rec.orthonormality <= ORTHONORMALITY_BOUND for rec in records)
    fields = {"residual", "eigengap", "orthonormality", "kmeans_iters", "kmeans_converged"}
    assert fields <= set(asdict(records[0]))
    # with every component kept there is no theta_{k+1}
    full = run_adaptation(pair, replace(config, subspace_dim=config.pca_dim), labels)
    assert all(rec.eigengap is None for rec in full.records)


def test_records_count_each_steps_kmeans_iterations(monkeypatch):
    import cdem.trainer as trainer_mod

    lengths = []
    kmeans = trainer_mod.target_kmeans

    def spy(*args):
        result = kmeans(*args)
        lengths.append(len(result[2]))
        return result

    monkeypatch.setattr(trainer_mod, "target_kmeans", spy)
    pair, labels = generate(standard_shift_spec())
    records = run_adaptation(pair, _small_config(pca_dim=10, subspace_dim=4), labels).records
    assert [rec.kmeans_iters for rec in records] == lengths
    assert all(1 <= count <= KMEANS_MAX_ITERS for count in lengths)


def test_records_tell_whether_each_steps_kmeans_converged(monkeypatch):
    import cdem.prototype as prototype_mod

    pair, labels = generate(standard_shift_spec())
    config = _small_config(pca_dim=10, subspace_dim=4)
    assert all(rec.kmeans_converged for rec in run_adaptation(pair, config, labels).records)
    # one pass cannot meet either stopping rule, which compare two passes
    monkeypatch.setattr(prototype_mod, "KMEANS_MAX_ITERS", 1)
    records = run_adaptation(pair, config, labels).records
    assert [(rec.kmeans_iters, rec.kmeans_converged) for rec in records] == [(1, False)] * 5


@pytest.mark.parametrize("dims", [40, 700], ids=["kernel", "subset-pca"])
def test_run_without_openblas_predicts_as_the_native_path(monkeypatch, dims):
    # numpy's own path throughout: matmul plus add for the PCA Gram and
    # np.linalg.eigh for every solve.  At 700 features the pair's 640-row
    # Gram takes dsyevr on the native path.
    pair, labels = generate(ShiftSpec(n_per_domain=320, dims=dims))
    config = _small_config(pca_dim=128 if dims > 128 else 10, subspace_dim=4)
    native = run_adaptation(pair, config, labels)
    monkeypatch.setattr(eigsolve, "_openblas", lambda: None)
    fallback = run_adaptation(pair, config, labels)
    assert len(fallback.records) == len(native.records)
    assert np.array_equal(fallback.predictions, native.predictions)


def test_step_distances_match_a_refit_of_the_embedded_source(monkeypatch):
    # A step takes its source centers from the whitened moments, not from a
    # refit; its distance table must be the one a refit on z would give, and
    # the diagnostics' source model that table's argmin.
    import cdem.trainer as trainer_mod

    tables, seen = [], []
    distances = trainer_mod.squared_distances
    evaluate = trainer_mod.evaluate_cross_domain_errors

    def distance_spy(features, centers):
        table = distances(features, centers)
        tables.append(table.copy())
        return table

    def spy(task, z, source_model, *args):
        # the step's last table over all rows is its table to the source centers
        to_source = next(t for t in reversed(tables) if t.shape[0] == z.shape[0])
        seen.append((task, z.copy(), to_source, source_model.copy()))
        return evaluate(task, z, source_model, *args)

    monkeypatch.setattr(trainer_mod, "squared_distances", distance_spy)
    monkeypatch.setattr(trainer_mod, "evaluate_cross_domain_errors", spy)
    pair, labels = generate(_small_spec(seed=15, classes=3, translation=(1.0, -1.0, 0.5)))
    result = run_adaptation(pair, _small_config(), labels)
    assert len(seen) == len(result.records)
    for task, z, to_source, source_model in seen:
        centers = fit_prototypes(z[task.source_rows], task.source_y, task.n_classes)
        expected = squared_distances(z, centers)
        assert np.abs(to_source - expected).max() <= 1e-10 * expected.max()
        assert np.array_equal(source_model, to_source.argmin(axis=1))
    # the run's last z, with each column's sign fixed once, at the run's end
    last = z[task.target_rows, :2]
    for j in range(2):
        column = result.target_embedding[:, j]
        assert np.array_equal(last[:, j], column) or np.array_equal(-last[:, j], column)


def test_error_carries_step_context(monkeypatch):
    import cdem.trainer as trainer_mod
    from cdem.errors import DataError

    pair, _ = generate(_small_spec(seed=9))

    def explode(*args, **kwargs):
        raise DataError("forced failure")

    monkeypatch.setattr(trainer_mod, "build_objective_matrices", explode)
    with pytest.raises(DataError, match=r"^step 1: forced failure$"):
        run_adaptation(pair, _small_config(), None)


def test_constraint_factored_once_per_run(monkeypatch):
    import cdem.trainer as trainer_mod

    counts = {"cholesky": 0, "solve": 0, "signs": 0}
    cholesky = np.linalg.cholesky
    solve = trainer_mod.solve_generalized
    column_signs = trainer_mod.column_signs

    def counting_cholesky(*args, **kwargs):
        counts["cholesky"] += 1
        return cholesky(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    def counting_signs(*args, **kwargs):
        counts["signs"] += 1
        return column_signs(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(trainer_mod, "solve_generalized", counting_solve)
    # P = WU is formed and sign-fixed once per run, not once per step
    monkeypatch.setattr(trainer_mod, "column_signs", counting_signs)
    pair, labels = generate(_small_spec(seed=10))
    result = run_adaptation(pair, _small_config(iterations=11), labels)
    assert len(result.records) == 11
    assert counts == {"cholesky": 1, "solve": 11, "signs": 1}


def test_final_projection_sign_fixed_and_constraint_orthonormal():
    from cdem.eigsolve import shifted_gram

    pair, labels = generate(_small_spec(seed=16, classes=3, translation=(1.0, -1.0, 0.5)))
    config = _small_config()
    task = prepare_task(pair, config)
    result = run_adaptation(task, config, labels)
    p = result.projection
    # each column's largest-magnitude entry is positive
    assert (p[np.abs(p).argmax(axis=0), np.arange(p.shape[1])] > 0).all()
    gram = p.T @ shifted_gram(task.features) @ p
    assert np.abs(gram - np.eye(p.shape[1])).max() <= ORTHONORMALITY_BOUND
    # the reported embeddings are XP's first two columns
    embedding = task.features @ p[:, :2]
    assert np.allclose(result.source_embedding, embedding[task.source_rows], atol=1e-12)
    assert np.allclose(result.target_embedding, embedding[task.target_rows], atol=1e-12)


def test_prepared_task_runs_like_its_pair():
    pair, labels = generate(_small_spec(seed=12))
    config = _small_config()
    task = prepare_task(pair, config)
    assert not task.features.flags.writeable
    assert (task.n_source, task.n_target) == (pair.n_source, pair.n_target)
    direct = run_adaptation(pair, config, labels)
    for run_config in (config, replace(config, beta=1.0, gamma=0.0, eta=0.0)):
        prepared = run_adaptation(task, run_config, labels)
        fresh = run_adaptation(pair, run_config, labels)
        assert np.array_equal(prepared.predictions, fresh.predictions)
        assert np.array_equal(prepared.projection, fresh.projection)
        assert [r.objective for r in prepared.records] == [r.objective for r in fresh.records]
    assert np.array_equal(run_adaptation(task, config, labels).projection, direct.projection)
    mismatch = "^task prepared with pca_dim=6, config asks for pca_dim=5$"
    with pytest.raises(ConfigError, match=mismatch):
        run_adaptation(task, replace(config, pca_dim=5))


# case -> (the fields a hand-built task changes, the DataError's message)
BROKEN_TASKS = {
    "whiten-of-another-width": (
        lambda t: dict(whiten=t.whiten[:-1, :-1]), r"^whiten is \(5, 5\), expected \(6, 6\)$"
    ),
    "one-dimensional-features": (
        lambda t: dict(features=t.features[:, 0]), "^features must be 2-d, got ndim=1$"
    ),
    "two-dimensional-labels": (
        lambda t: dict(source_y=t.source_y[:, None]), "^source labels must be 1-d$"
    ),
    "label-equals-class-count": (
        lambda t: dict(source_y=np.where(t.source_y == 1, 2, 0)),
        r"^source labels outside \[0, n_classes\)$",
    ),
    "negative-label": (
        lambda t: dict(source_y=t.source_y - 1), r"^source labels outside \[0, n_classes\)$"
    ),
    "missing-class": (
        lambda t: dict(source_y=np.zeros_like(t.source_y)), "^class 1 has no source samples$"
    ),
    "one-class": (lambda t: dict(n_classes=1), "^need at least two classes$"),
    "no-target-rows": (
        lambda t: dict(features=t.features[: t.n_source]),
        "^no target rows: 40 rows for 40 source labels$",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_TASKS))
def test_prepared_task_rejects_a_broken_contract(case):
    change, message = BROKEN_TASKS[case]
    task = prepare_task(generate(_small_spec(seed=12))[0], _small_config())
    with pytest.raises(DataError, match=message):
        replace(task, **change(task))


def test_float_source_labels_run_as_int64():
    from cdem.bench import run_source_only

    pair, labels = generate(_small_spec(seed=12))
    config = _small_config()
    task = prepare_task(pair, config)
    floats = PreparedTask(
        task.features, task.whiten, task.source_y.astype(np.float64), 2, source_first=True
    )
    assert floats.source_y.dtype == np.int64
    assert np.array_equal(floats.source_y, task.source_y)
    for run in (run_adaptation, run_source_only):
        got, want = run(floats, config, labels), run(task, config, labels)
        assert np.array_equal(got.predictions, want.predictions)


def _stub_kernel(monkeypatch, change):
    """Make every step's eigensolve return change(vectors) for its kept
    eigenvectors."""
    import cdem.eigsolve as eigsolve_mod

    exact = eigsolve_mod._kept_eigenpairs

    def changed(mat, k, largest):
        values, vectors = exact(mat, k, largest)
        return values, change(vectors)

    monkeypatch.setattr(eigsolve_mod, "_kept_eigenpairs", changed)


def test_residual_gate_carries_step_context(monkeypatch):
    from cdem.errors import NumericError

    _stub_kernel(monkeypatch, lambda vectors: vectors + 1e-3)
    pair, _ = generate(_small_spec(seed=11))
    with pytest.raises(NumericError, match=r"^step 1: eigensolver residual .* exceeds 1e-06$"):
        run_adaptation(pair, _small_config(), None)


def test_orthonormality_gate_carries_step_context(monkeypatch):
    # One column 1.01 times too long still solves M u = theta u, so the
    # residual gate stays quiet; U'U is 1.0201 on its diagonal.
    from cdem.errors import NumericError

    def stretched(vectors):
        vectors = vectors.copy()
        vectors[:, 0] *= 1.01
        return vectors

    _stub_kernel(monkeypatch, stretched)
    pair, _ = generate(_small_spec(seed=11))
    with pytest.raises(
        NumericError, match=r"^step 1: eigensolver basis orthonormality 2\.010e-02 exceeds 1e-06$"
    ):
        run_adaptation(pair, _small_config(), None)


def test_non_finite_objective_carries_step_context(monkeypatch):
    # A finite W'AW can pass the eigensolve's gates with an infinite
    # objective (three kept eigenvalues of -8e307 sum past float64's range),
    # but on the tasks tried a run's weights overflow its operand first, so the
    # solve is stubbed to return one at step 2.
    import cdem.trainer as trainer_mod
    from cdem.errors import NumericError

    solve = trainer_mod.solve_generalized
    calls = []

    def infinite_at_step_2(*args):
        calls.append(1)
        solution = solve(*args)
        return replace(solution, objective=np.inf) if len(calls) == 2 else solution

    monkeypatch.setattr(trainer_mod, "solve_generalized", infinite_at_step_2)
    pair, _ = generate(_small_spec(seed=11))
    with pytest.raises(NumericError, match=r"^step 2: objective value is not finite$"):
        run_adaptation(pair, _small_config(), None)


@pytest.mark.parametrize("weight", [1e160, 1e305, 3.7e306])
def test_large_weights_keep_a_measured_residual(weight):
    # The residual's norms square W'AW's entries: unscaled, they would read
    # a residual of 0 at 1e160 and a non-finite one at 1e305.
    pair, labels = generate(ShiftSpec(classes=3, n_per_domain=60, dims=8, seed=2))
    weights = dict(beta=weight, lam=weight, gamma=weight, eta=weight)
    config = ExperimentConfig(pca_dim=6, subspace_dim=3, iterations=3, **weights)
    result = run_adaptation(pair, config, labels)
    assert all(0.0 < rec.residual <= 1e-15 for rec in result.records)
    assert result.records[-1].accuracy == 100.0


@pytest.mark.parametrize("weight", [5.2e306, 7.2e306, 1.7e308])
def test_weights_that_overflow_the_operand_raise_a_named_error(weight):
    # On the task of test_large_weights_keep_a_measured_residual these
    # weights overflow the operand in float64; the solve names that before
    # LAPACK sees it, and building the operand warns of nothing on the way.
    from cdem.errors import NumericError

    pair, labels = generate(ShiftSpec(classes=3, n_per_domain=60, dims=8, seed=2))
    weights = dict(beta=weight, lam=weight, gamma=weight, eta=weight)
    config = ExperimentConfig(pca_dim=6, subspace_dim=3, iterations=3, **weights)
    message = r"^step \d: W'AW is not finite: the objective weights overflow float64$"
    with pytest.raises(NumericError, match=message):
        run_adaptation(pair, config, labels)


def _positive_pivots(vecs):
    """vecs with each column flipped so that its largest-magnitude entry is
    positive, fit_pca's sign rule for Gram eigenvectors."""
    pivots = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(pivots < 0, -1.0, 1.0)


@pytest.mark.parametrize("dims", [6, 300])
def test_preprocess_pair_equals_per_domain_projection(dims):
    # 150 stacked rows: 6 columns put PCA on its tall side, 300 on its wide one
    pair, _ = generate(_small_spec(n_per_domain=75, dims=dims))
    config = _small_config(pca_dim=6)
    m = config.pca_dim
    stacked = np.vstack([pair.source_x, pair.target_x])
    mean = (pair.source_x.sum(axis=0) + pair.target_x.sum(axis=0)) / stacked.shape[0]
    centered = stacked - mean
    if dims < stacked.shape[0]:
        # fit_pca's order of summation: the Gram of the centered rows is a sum
        # over pieces of at most _PIECE rows of one domain, each projected alone
        size = preprocess._PIECE
        pieces = [
            x[i : i + size] - mean
            for x in (pair.source_x, pair.target_x)
            for i in range(0, x.shape[0], size)
        ]
        gram = sum(piece.T @ piece for piece in pieces)
        basis = _positive_pivots(top_eigenpairs(gram, m)[1])
        parts = [normalize_rows(piece @ basis) for piece in pieces]
        assert np.array_equal(prepare_task(pair, config).features, np.vstack(parts))
        return
    u, singular, _ = np.linalg.svd(centered, full_matrices=False)
    ref = normalize_rows(_positive_pivots(u[:, :m]) * singular[:m])
    assert np.abs(prepare_task(pair, config).features - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize(
    "n, d, pca_dim, bound",
    [(400, 4096, 128, 0.35), (1500, 400, 8, 0.8), (1000, 512, 128, 0.7)],
    ids=["wide", "tall", "tall-k128"],
)
def test_prepare_task_peak_memory_below_four_fifths_of_the_pair(n, d, pca_dim, bound):
    # wide-d's shape, a tall pair, and pair-large-n's shape.  No n×d
    # temporary is made: fit_pca takes the two domains as they are and
    # centers them piece by piece into one buffer of at most 256 columns
    # (wide) or rows (tall), and BLAS dsyrk adds each piece into the Gram in
    # place.  On the Gram of side 512 the eigensolve overwrites the Gram and
    # back-transforms only the 128 kept eigenvectors, where np.linalg.eigh
    # returned all 512.
    rng = np.random.default_rng(0)
    pair = DomainPair(
        rng.standard_normal((n, d)), np.arange(n) % 2, rng.standard_normal((n, d)), 2
    )
    pair_bytes = pair.source_x.nbytes + pair.target_x.nbytes
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        prepare_task(pair, ExperimentConfig(pca_dim=pca_dim, subspace_dim=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline <= bound * pair_bytes


_VMHWM_PROBE = """
import sys
import numpy as np
from cdem.matio import DomainPair, ExperimentConfig
from cdem.trainer import prepare_task

def vmhwm_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

n, d = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(0)
pair = DomainPair(rng.standard_normal((n, d)), np.arange(n) % 2, rng.standard_normal((n, d)), 2)
before = vmhwm_kib()
prepare_task(pair, ExperimentConfig(pca_dim=128, subspace_dim=2))
print((vmhwm_kib() - before) * 1024 / (pair.source_x.nbytes + pair.target_x.nbytes))
"""


def _has_vmhwm():
    try:
        return "VmHWM:" in Path("/proc/self/status").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="/proc/self/status has no VmHWM")
@pytest.mark.parametrize(
    "n, d, bound", [(400, 4096, 0.5), (1000, 512, 1.35)], ids=["wide", "tall-k128"]
)
def test_prepare_task_peak_rss_growth_in_a_child(n, d, bound):
    # The resident high-water mark, unlike tracemalloc, also counts what
    # LAPACK allocates itself (the eigensolve's workspace).  Measured at one
    # BLAS thread: 0.40 and 1.19 times the pair's bytes.
    src = str(Path(cdem.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _VMHWM_PROBE, str(n), str(d)],
        check=True, env=env, capture_output=True, text=True, timeout=120,
    )
    assert float(done.stdout) <= bound


def test_run_peak_memory_follows_the_memory_rule():
    # README's memory rule for a running adaptation, in float64 numbers:
    # Y (n·m), the class-weighted source copy (n_s·m), the class sums (C·m),
    # the embedding YU (n·k), one n×C table to the source centers and three
    # n_t×C tables (k-means' distances and a softmax's two working tables):
    # 11.6 MiB here, where the run peaks at 11.2 MiB.  It holds only if each
    # step drops its tables after their last read.
    n_t = n_s = 1500
    n, n_classes, m, k = n_s + n_t, 150, 64, 32
    pair, labels = generate(ShiftSpec(classes=n_classes, n_per_domain=n_t, dims=256, seed=1))
    config = ExperimentConfig(pca_dim=m, subspace_dim=k, iterations=3)
    task = prepare_task(pair, config)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        run_adaptation(task, config, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rule = n * m + n_s * m + n_classes * m + n * k + n * n_classes + 3 * n_t * n_classes
    assert peak - baseline <= 8 * rule


def test_preparing_leaves_the_pair_matrices_unchanged():
    # prepare_task hands the pair's own matrices to fit_pca, which only
    # reads them
    pair, labels = generate(_small_spec(seed=12))
    before = (pair.source_x.copy(), pair.target_x.copy())
    config = _small_config()
    prepare_task(pair, config)
    run_adaptation(pair, config, labels)
    assert np.array_equal(pair.source_x, before[0])
    assert np.array_equal(pair.target_x, before[1])


@pytest.mark.parametrize("side", ["source", "target"])
def test_non_finite_pair_rejected_before_any_numerics(side):
    from cdem.bench import run_source_only

    pair, _ = generate(_small_spec(seed=13))
    bad = getattr(pair, f"{side}_x").copy()
    bad[1, 2] = np.nan if side == "target" else np.inf
    source_x, target_x = (bad, pair.target_x) if side == "source" else (pair.source_x, bad)
    pair = DomainPair(source_x, pair.source_y, target_x, pair.n_classes)
    config = _small_config()
    for run in (prepare_task, run_adaptation, run_source_only):
        with pytest.raises(DataError, match=f"^{side} features: matrix contains NaN or infinite"):
            run(pair, config)


def _embedded_task(zs, ys, zt):
    """A task on the two domains zs (labeled ys) and zt, built by hand on
    their stacked rows, and those rows, the embedding the diagnostics
    score."""
    z = np.vstack([zs, zt])
    return PreparedTask(z, eigsolve.assemble_operands(z), ys, 2, source_first=True), z


def test_cross_domain_errors_perfect_separation():
    zs = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
    ys = np.array([0, 0, 1, 1])
    zt = zs + 0.01
    yt = ys.copy()
    task, z = _embedded_task(zs, ys, zt)
    centers = fit_prototypes(zs, ys, 2)
    source_model = squared_distances(z, centers).argmin(axis=1)
    errors = evaluate_cross_domain_errors(task, z, source_model, yt)
    assert errors.source_model_on_source == 0.0
    assert errors.target_model_on_target == 0.0
    assert errors.target_model_on_source == 0.0
    assert errors.source_model_on_target == 0.0


def test_cross_domain_errors_against_truth():
    zs = np.array([[0.0], [1.0], [10.0], [11.0]])
    ys = np.array([0, 0, 1, 1])
    zt = np.array([[0.5], [10.5]])
    pseudo = np.array([0, 0])  # second pseudo label is wrong
    truth = np.array([0, 1])
    task, z = _embedded_task(zs, ys, zt)
    centers = fit_prototypes(zs, ys, 2)
    source_model = squared_distances(z, centers).argmin(axis=1)
    errors = evaluate_cross_domain_errors(task, z, source_model, pseudo, truth)
    # target model has a single class and mislabels the class-1 sample
    assert errors.target_model_on_target == 0.5
    assert errors.source_model_on_target == 0.0


def _metamorphic_task(seed, dims, subspace_dim):
    """A 4-class task whose class margins leave no near-ties to flip."""
    spec = ShiftSpec(
        classes=4, n_per_domain=120, dims=dims, separation=6.0,
        rotation_deg=20.0, translation=(1.0, -1.0, 0.5), noise_scale=0.3, seed=seed,
    )
    pair, labels = generate(spec)
    config = _small_config(pca_dim=12, subspace_dim=subspace_dim, iterations=5)
    predictions = run_adaptation(pair, config, labels).predictions
    assert np.unique(predictions).size == pair.n_classes
    return pair, config, predictions


# (seed, dims, subspace_dim): the 240 stacked rows put PCA on its tall side
# with 20 feature columns and on its wide side with 300; a subspace of 4 has
# exactly as many axes as there are classes
METAMORPHIC_TASKS = (
    [pytest.param(seed, 20, 6, id=str(seed)) for seed in range(4)]
    + [pytest.param(seed, 300, 6, id=f"wide-{seed}") for seed in range(4)]
    + [pytest.param(seed, 20, 4, id=f"k4-{seed}") for seed in range(8)]
)


@pytest.mark.parametrize("seed, dims, subspace_dim", METAMORPHIC_TASKS)
def test_permuting_target_rows_permutes_predictions(seed, dims, subspace_dim):
    pair, config, predictions = _metamorphic_task(seed, dims, subspace_dim)
    perm = np.random.default_rng(seed).permutation(pair.n_target)
    moved = DomainPair(pair.source_x, pair.source_y, pair.target_x[perm], pair.n_classes)
    assert np.array_equal(run_adaptation(moved, config).predictions, predictions[perm])


@pytest.mark.parametrize("seed, dims, subspace_dim", METAMORPHIC_TASKS)
def test_permuting_source_rows_keeps_predictions(seed, dims, subspace_dim):
    # The source rows enter only through order-free sums: the PCA Gram, the
    # class moments and the weighted source Gram of every step's operand
    pair, config, predictions = _metamorphic_task(seed, dims, subspace_dim)
    perm = np.random.default_rng(seed).permutation(pair.n_source)
    moved = DomainPair(pair.source_x[perm], pair.source_y[perm], pair.target_x, pair.n_classes)
    assert np.array_equal(run_adaptation(moved, config).predictions, predictions)


@pytest.mark.parametrize("seed, dims, subspace_dim", METAMORPHIC_TASKS)
def test_permuting_class_ids_permutes_labels(seed, dims, subspace_dim):
    pair, config, predictions = _metamorphic_task(seed, dims, subspace_dim)
    ids = np.random.default_rng(seed).permutation(pair.n_classes)
    renamed = DomainPair(pair.source_x, ids[pair.source_y], pair.target_x, pair.n_classes)
    assert np.array_equal(run_adaptation(renamed, config).predictions, ids[predictions])


@pytest.mark.parametrize("seed, dims, subspace_dim", METAMORPHIC_TASKS)
def test_rotating_and_translating_features_keeps_predictions(seed, dims, subspace_dim):
    # PCA and the eigensolver fix each axis's sign from the data, so the
    # rotated run may flip axes; distances, and so labels, cannot change
    pair, config, predictions = _metamorphic_task(seed, dims, subspace_dim)
    rng = np.random.default_rng(seed)
    d = pair.source_x.shape[1]
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    shift = 5.0 * rng.standard_normal(d)
    moved = DomainPair(
        pair.source_x @ rotation + shift, pair.source_y,
        pair.target_x @ rotation + shift, pair.n_classes,
    )
    assert np.array_equal(run_adaptation(moved, config).predictions, predictions)


def _scaled(pair, scale):
    return DomainPair(scale * pair.source_x, pair.source_y, scale * pair.target_x, pair.n_classes)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("seed, dims, subspace_dim", METAMORPHIC_TASKS)
def test_scaling_features_keeps_predictions(seed, dims, subspace_dim, scale):
    # scaling the PCA scores to unit length takes out a global scale, down to
    # where the PCA Gram underflows and up to where it overflows
    pair, config, predictions = _metamorphic_task(seed, dims, subspace_dim)
    assert np.array_equal(run_adaptation(_scaled(pair, scale), config).predictions, predictions)


def _with_target(pair, target_x):
    return DomainPair(pair.source_x, pair.source_y, target_x, pair.n_classes)


def _constant_first_column(pair):
    source_x, target_x = pair.source_x.copy(), pair.target_x.copy()
    source_x[:, 0] = target_x[:, 0] = 1.5
    return DomainPair(source_x, pair.source_y, target_x, pair.n_classes)


def _wide_pair(pair):
    # 88 low-noise columns more than the 80 rows, so pca_dim=80 keeps one
    # component past the centered rank of 79
    noise = 0.1 * np.random.default_rng(0).standard_normal((pair.n_source + pair.n_target, 88))
    x = np.hstack([np.vstack([pair.source_x, pair.target_x]), noise])
    return DomainPair(x[: pair.n_source], pair.source_y, x[pair.n_source :], pair.n_classes)


def _overflowing(pair, copies=1, noise_columns=0):
    # Features near 1e160, whose squares overflow float64.  copies repeats
    # each domain's rows and noise_columns widens them, so that the PCA Gram
    # side, min(n, d), can reach the subset solve's SUBSET_MIN_SIDE.
    noise = np.random.default_rng(0).standard_normal
    grow = lambda x: 1e160 * np.hstack(
        [np.tile(x, (copies, 1)), noise((copies * x.shape[0], noise_columns))]
    )
    source_y = np.tile(pair.source_y, copies)
    return DomainPair(grow(pair.source_x), source_y, grow(pair.target_x), pair.n_classes)


def _last_source_label_huge(pair):
    # A label file whose largest label is 10**13 sets n_classes to 10**13 + 1.
    source_y = pair.source_y.copy()
    source_y[-1] = 10**13
    return DomainPair(pair.source_x, source_y, pair.target_x, 10**13 + 1)


_OVERFLOW = (DegenerateDataError, "^feature magnitudes overflow float64 in the PCA Gram$")
# Features near 1e-170, whose squares underflow to zero: the rows differ.
_UNDERFLOW = (DegenerateDataError, "^feature magnitudes underflow float64 in the PCA Gram$")

# case -> (input from the 4-class task, config overrides, outcome): an outcome
# is the named error and its message, or the predicted classes and the number
# of objective terms skipped at the last step.
DEGENERATE_CASES = {
    "three-target-rows": (
        lambda pair: _with_target(pair, pair.target_x[:3]), {},
        (DataError, "step 1: cannot place 4 clusters on 3 samples"),
    ),
    "pca-dim-above-width": (lambda pair: pair, {"pca_dim": 13}, (ConfigError, "n_components=13")),
    "non-finite-weight": (
        lambda pair: pair, {"beta": float("nan")}, (ConfigError, "^beta must be finite, got nan$")
    ),
    "source-label-above-row-count": (
        _last_source_label_huge, {}, (DataError, "^class 4 has no source samples$")
    ),
    "overflowing-features": (_overflowing, {}, _OVERFLOW),
    # 640 rows of 712 columns: a 640-side Gram, which dsyevr solves at pca_dim=128
    "overflowing-features-subset-solve": (
        lambda pair: _overflowing(pair, copies=8, noise_columns=700), {"pca_dim": 128}, _OVERFLOW
    ),
    "underflowing-features": (lambda pair: _scaled(pair, 1e-170), {}, _UNDERFLOW),
    "underflowing-features-wide": (
        lambda pair: _scaled(_wide_pair(pair), 1e-170), {"pca_dim": 80}, _UNDERFLOW
    ),
    "identical-rows": (
        lambda pair: _scaled(pair, 0.0), {},
        (DegenerateDataError, "^all samples identical: no variance to project$"),
    ),
    "constant-feature-column": (_constant_first_column, {}, ([0, 1, 2, 3], 0)),
    "identical-domains": (lambda pair: _with_target(pair, pair.source_x), {}, ([0, 1, 2, 3], 0)),
    "subspace-below-classes": (lambda pair: pair, {"subspace_dim": 3}, ([0, 1, 2, 3], 0)),
    "pca-dim-at-width": (lambda pair: pair, {"pca_dim": 12}, ([0, 1, 2, 3], 0)),
    "wide-pca-dim-at-row-count": (_wide_pair, {"pca_dim": 80}, ([0, 1, 2, 3], 0)),
    "identical-target-rows": (
        lambda pair: _with_target(pair, np.repeat(pair.target_x[:1], pair.n_target, axis=0)),
        {},
        ([0], 11),
    ),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
def test_degenerate_inputs_run_or_raise_named_errors(case):
    build, overrides, outcome = DEGENERATE_CASES[case]
    pair, _ = generate(ShiftSpec(classes=4, n_per_domain=40, dims=12, seed=3))
    settings = dict(pca_dim=10, subspace_dim=6, iterations=5) | overrides
    expected, detail = outcome
    if isinstance(expected, type):
        # the error may come from building the pair or the config
        with pytest.raises(expected, match=detail):
            run_adaptation(build(pair), ExperimentConfig(**settings))
        return
    pair, config = build(pair), ExperimentConfig(**settings)
    result = run_adaptation(pair, config)
    assert len(result.records) == config.iterations
    assert all(np.isfinite(rec.objective) for rec in result.records)
    assert np.unique(result.predictions).tolist() == expected
    assert len(result.records[-1].skipped) == detail
