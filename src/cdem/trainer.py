"""Alternating optimization: solve for a projection, relabel, reselect.

A run works on one feature matrix holding both domains' rows.
``preprocess_rows`` does everything that depends only on those rows,
``pca_dim`` and ``normalize``: it centers a fresh stacked buffer in place,
replaces it by its PCA scores, fit on both domains together (unit-length rows
when ``normalize`` is on), and factors the label-free constraint B = X'HX
once.  A ``PreparedTask`` is a view of that prepared pair: its ``source`` and
``target`` are row slices of the read-only scores, in whichever order the two
blocks were stacked, so a task and its reverse share one pair.  Methods,
ablation stages and grid points that differ only in their weights or
components share one ``PreparedTask``.  ``run_adaptation`` computes the
source-side moments of the objective once per run, bootstraps pseudo labels
from a source-only prototype classifier in that space and alternates for a
fixed number of steps between (a) solving the generalized eigenproblem whose
objective is built from the source moments, the selected target rows and
their pseudo labels, and (b) refreshing pseudo labels and the curriculum
selection in the new subspace.  True target labels never enter any of these
steps; when provided they are used solely to score predictions per step."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import curriculum
from .curriculum import combined_pseudo_labels
from .eigsolve import (
    FactoredConstraint,
    TransformSolution,
    assemble_operands,
    solve_generalized,
)
from .errors import CdemError, ConfigError, NumericError
from .matio import DomainPair, ExperimentConfig, check_finite, validate_eval_labels, write_matrix
from .objectives import (
    SourceMoments,
    build_objective_matrices,
    objective_terms,
    source_moments,
    term_weights,
)
from .preprocess import fit_pca, normalize_rows
from .prototype import (
    class_moments,
    class_probabilities,
    fit_prototypes,
    nearest_center_labels,
    squared_distances,
    target_kmeans,
)


@dataclass(frozen=True)
class CrossDomainErrors:
    """0/1-loss rates of the two prototype classifiers on both domains.

    The source model is fit on true source labels, the target model on the
    current pseudo labels.  Target-side rates score against true labels when
    they were provided for evaluation, otherwise against the pseudo labels.
    """

    source_model_on_source: float
    target_model_on_target: float
    target_model_on_source: float
    source_model_on_target: float


@dataclass
class IterationRecord:
    step: int
    objective: float
    selected_per_class: np.ndarray
    n_selected: int
    agreement: float
    accuracy: float | None
    errors: CrossDomainErrors
    skipped: list[str] = field(default_factory=list)


@dataclass
class AdaptationResult:
    """Final projection, per-step records, and target predictions."""

    projection: np.ndarray
    eigenvalues: np.ndarray
    records: list[IterationRecord]
    predictions: np.ndarray
    selected: np.ndarray
    source_embedding: np.ndarray
    target_embedding: np.ndarray
    source_labels: np.ndarray


@dataclass(frozen=True)
class PreparedTask:
    """What every run on one task shares: the read-only PCA scores of both
    domains (``features``, m columns, the two blocks in their stacked
    order), ``source`` and ``target`` as row slices of them, the source
    labels and the factored constraint B = X'HX of the features.
    ``normalize`` records whether the rows were scaled to unit length; m is
    the ``pca_dim`` they were prepared with."""

    features: np.ndarray
    source: np.ndarray
    target: np.ndarray
    source_y: np.ndarray
    n_classes: int
    normalize: bool
    constraint: FactoredConstraint

    @property
    def n_source(self) -> int:
        return self.source.shape[0]

    @property
    def n_target(self) -> int:
        return self.target.shape[0]


def preprocess_rows(
    x: np.ndarray, config: ExperimentConfig
) -> tuple[np.ndarray, FactoredConstraint]:
    """The label-free part of preparing a task: read-only PCA scores of the
    stacked rows x, a fresh buffer the caller hands over and this centers in
    place, unit-length when config.normalize is on, plus their factored
    constraint B = X'HX.  A task and its reverse stack the same rows, so a
    suite computes this once per unordered domain pair."""
    x -= x.mean(axis=0)
    features = fit_pca(x, config.pca_dim)
    if config.normalize:
        features = normalize_rows(features)
    features.flags.writeable = False
    return features, assemble_operands(features)


def task_view(
    rows: tuple[np.ndarray, FactoredConstraint],
    source_y: np.ndarray,
    n_classes: int,
    config: ExperimentConfig,
    source_first: bool,
) -> PreparedTask:
    """The task on a ``preprocess_rows`` result whose source, labeled
    source_y, is its first row block when source_first, else its last."""
    features, constraint = rows
    split = source_y.shape[0] if source_first else features.shape[0] - source_y.shape[0]
    head, tail = features[:split], features[split:]
    return PreparedTask(
        features=features,
        source=head if source_first else tail,
        target=tail if source_first else head,
        source_y=source_y,
        n_classes=n_classes,
        normalize=config.normalize,
        constraint=constraint,
    )


def prepare_task(pair: DomainPair, config: ExperimentConfig) -> PreparedTask:
    """Prepare pair, whose own matrices are left unchanged, once for any
    number of runs that share its pca_dim and normalize settings."""
    check_finite(pair.source_x, "source features")
    check_finite(pair.target_x, "target features")
    rows = preprocess_rows(np.concatenate([pair.source_x, pair.target_x]), config)
    return task_view(rows, pair.source_y, pair.n_classes, config, source_first=True)


def as_prepared(task: DomainPair | PreparedTask, config: ExperimentConfig) -> PreparedTask:
    """task itself when already prepared (with config's pca_dim and
    normalize), else ``prepare_task(task, config)``."""
    if isinstance(task, DomainPair):
        return prepare_task(task, config)
    prepared_as = (task.features.shape[1], task.normalize)
    if prepared_as != (config.pca_dim, config.normalize):
        raise ConfigError(
            f"task prepared with (pca_dim, normalize) = {prepared_as}, config asks for "
            f"{(config.pca_dim, config.normalize)}"
        )
    return task


def evaluate_cross_domain_errors(
    z_source: np.ndarray,
    y_source: np.ndarray,
    source_centers: np.ndarray,
    z_target: np.ndarray,
    target_to_source: np.ndarray,
    pseudo_labels: np.ndarray,
    eval_labels: np.ndarray | None = None,
) -> CrossDomainErrors:
    """Cross-score the source prototype classifier (source_centers, one row
    per class, at squared distances target_to_source from z_target) and a
    target one fit on the pseudo labels of the classes they cover."""
    counts, sums = class_moments(z_target, pseudo_labels, source_centers.shape[0])
    classes_t = np.flatnonzero(counts)
    centers_t = sums[classes_t] / counts[classes_t, None]
    y_target_ref = pseudo_labels if eval_labels is None else eval_labels
    source_on_source = nearest_center_labels(source_centers, z_source)
    source_on_target = np.argmin(target_to_source, axis=1)
    target_model = lambda z: classes_t[nearest_center_labels(centers_t, z)]
    return CrossDomainErrors(
        source_model_on_source=float(np.mean(source_on_source != y_source)),
        target_model_on_target=float(np.mean(target_model(z_target) != y_target_ref)),
        target_model_on_source=float(np.mean(target_model(z_source) != y_source)),
        source_model_on_target=float(np.mean(source_on_target != y_target_ref)),
    )


def _dump_iteration(
    dump_dir: Path,
    step: int,
    task: PreparedTask,
    moments: SourceMoments,
    xt_sel: np.ndarray,
    y_sel: np.ndarray,
    combined: np.ndarray,
    a: np.ndarray,
    solution: TransformSolution,
) -> None:
    """Write one step's matrices; only a dump builds the terms alone."""
    dump_dir.mkdir(parents=True, exist_ok=True)
    named = {
        **objective_terms(moments, xt_sel, y_sel),
        "combined": combined,
        "operand_a": a,
        "operand_b": task.constraint.shifted,
        "projection": solution.projection,
        "eigenvalues": solution.eigenvalues.reshape(1, -1),
    }
    for name, mat in named.items():
        write_matrix(mat, dump_dir / f"step{step:02d}_{name}.cdm")


def run_adaptation(
    pair: DomainPair | PreparedTask,
    config: ExperimentConfig,
    eval_labels: np.ndarray | None = None,
    dump_dir: str | Path | None = None,
) -> AdaptationResult:
    """Full alternating run on a pair, prepared here, or on a task prepared
    beforehand; returns exactly config.iterations records."""
    task = as_prepared(pair, config)
    if eval_labels is not None:
        eval_labels = validate_eval_labels(eval_labels, task, "evaluation labels")
    weights = term_weights(config)
    total = config.iterations
    moments = source_moments(task.source, task.target, task.source_y, task.n_classes)
    delta_identity = config.delta * np.eye(task.features.shape[1])

    # Bootstrap in the identity projection: source prototypes classify the
    # preprocessed targets, and that one distribution stands for both
    # classifiers.
    centers = fit_prototypes(task.source, task.source_y, task.n_classes)
    p_source = class_probabilities(squared_distances(task.target, centers))
    table = combined_pseudo_labels(p_source, p_source, 1, total)
    state = curriculum.select(table, 1, total)
    prev_labels = table.label
    records: list[IterationRecord] = []
    solution: TransformSolution | None = None

    for step in range(1, total + 1):
        try:
            xt_sel = task.target[state.selected]
            y_sel = table.label[state.selected]
            parts = build_objective_matrices(moments, xt_sel, y_sel, weights)
            a = parts.combined + delta_identity
            solution = solve_generalized(a, task.constraint, config.subspace_dim)
            zs = task.source @ solution.projection
            zt = task.target @ solution.projection

            # One table to the source centers serves p_source, the first Lloyd
            # iteration and the diagnostics; k-means returns its final one.
            source_centers = fit_prototypes(zs, task.source_y, task.n_classes)
            to_source = squared_distances(zt, source_centers)
            _, _, _, to_clusters = target_kmeans(zt, source_centers, to_source)

            p_source = class_probabilities(to_source)
            p_target = class_probabilities(to_clusters)
            table = combined_pseudo_labels(p_source, p_target, step, total)
            state = curriculum.select(table, step, total)

            # tr(P'AP); with B-orthonormal P this is the eigenvalue sum
            objective = float(np.sum(solution.projection * (a @ solution.projection)))
            if not np.isfinite(objective):
                raise NumericError("objective value is not finite")
            if dump_dir is not None:
                _dump_iteration(
                    Path(dump_dir), step, task, moments, xt_sel, y_sel, parts.combined, a, solution
                )

            agreement = float(np.mean(table.label == prev_labels))
            prev_labels = table.label
            accuracy = None
            if eval_labels is not None:
                accuracy = float(np.mean(table.label == eval_labels) * 100.0)
            errors = evaluate_cross_domain_errors(
                zs, task.source_y, source_centers, zt, to_source, table.label, eval_labels
            )
            records.append(
                IterationRecord(
                    step=step,
                    objective=objective,
                    selected_per_class=state.quotas,
                    n_selected=int(state.selected.sum()),
                    agreement=agreement,
                    accuracy=accuracy,
                    errors=errors,
                    skipped=list(parts.skipped),
                )
            )
        except CdemError as exc:
            raise type(exc)(f"step {step}: {exc}") from exc

    assert solution is not None
    embed_cols = min(2, solution.projection.shape[1])
    return AdaptationResult(
        projection=solution.projection,
        eigenvalues=solution.eigenvalues,
        records=records,
        predictions=table.label,
        selected=state.selected,
        source_embedding=zs[:, :embed_cols].copy(),
        target_embedding=zt[:, :embed_cols].copy(),
        source_labels=task.source_y.copy(),
    )
