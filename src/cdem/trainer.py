"""Alternating optimization: solve for a projection, relabel, reselect.

A run works on one feature matrix: the source rows followed by the target
rows, as ``DomainPair.x`` stores them.  ``prepare_task`` does everything
that depends only on those rows, the source labels, ``pca_dim`` and
``normalize``: it replaces the matrix by its PCA scores, fit on both
domains together (unit-length rows when ``normalize`` is on), factors the
label-free constraint B = X'HX once, and computes the source-side moments of
the objective.  Methods, ablation stages and grid points that differ only in
their weights or components share one ``PreparedTask``.  ``run_adaptation``
then bootstraps pseudo labels from a source-only prototype classifier in
that space and alternates for a fixed number of steps between (a) solving
the generalized eigenproblem for the current labeling and (b) refreshing
pseudo labels and the curriculum selection in the new subspace.  Each
domain's rows are row slices of the joint matrix, never separate copies.
True target labels never enter any of these steps; when provided they are
used solely to score predictions per step."""

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
from .matio import DomainPair, ExperimentConfig, validate_eval_labels, write_matrix
from .objectives import (
    JointLabeling,
    ObjectiveMatrices,
    SourceMoments,
    build_objective_matrices,
    source_moments,
)
from .preprocess import fit_pca, normalize_rows
from .prototype import (
    class_moments,
    class_probabilities,
    fit_prototypes,
    nearest_center_labels,
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
    """What every run on one task shares: the (n_source + n_target) × m
    read-only features (PCA scores, source rows first), the source labels,
    the factored constraint B = X'HX of the features and the source-side
    moments of the objective.  ``normalize`` records whether the rows were
    scaled to unit length; m is the ``pca_dim`` they were prepared with."""

    features: np.ndarray
    n_source: int
    source_y: np.ndarray
    n_classes: int
    normalize: bool
    constraint: FactoredConstraint
    moments: SourceMoments

    @property
    def n_target(self) -> int:
        return self.features.shape[0] - self.n_source


def preprocess_rows(
    x: np.ndarray, config: ExperimentConfig
) -> tuple[np.ndarray, FactoredConstraint]:
    """The label-free part of preparing a task: PCA scores of the stacked
    rows x, unit-length when config.normalize is on, plus their factored
    constraint B = X'HX.  A task and its reverse stack the same rows, so a
    suite computes this once per unordered domain pair."""
    features = fit_pca(x, config.pca_dim)
    if config.normalize:
        features = normalize_rows(features)
    return features, assemble_operands(features)


def label_task(
    features: np.ndarray,
    constraint: FactoredConstraint,
    source_y: np.ndarray,
    n_classes: int,
    config: ExperimentConfig,
) -> PreparedTask:
    """The prepared task whose first len(source_y) rows of features (from
    ``preprocess_rows`` on the same rows, in any row order) are the source,
    labeled source_y."""
    features.flags.writeable = False
    return PreparedTask(
        features=features,
        n_source=source_y.shape[0],
        source_y=source_y,
        n_classes=n_classes,
        normalize=config.normalize,
        constraint=constraint,
        moments=source_moments(features, source_y, n_classes),
    )


def prepare_task(pair: DomainPair, config: ExperimentConfig) -> PreparedTask:
    """Prepare pair once for any number of runs that share its pca_dim and
    normalize settings."""
    features, constraint = preprocess_rows(pair.x, config)
    return label_task(features, constraint, pair.source_y, pair.n_classes, config)


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
    pseudo_labels: np.ndarray,
    eval_labels: np.ndarray | None = None,
) -> CrossDomainErrors:
    """Cross-score the source prototype classifier (source_centers, one row
    per class) and a target one fit on the pseudo labels of the classes they
    cover."""
    counts, sums = class_moments(z_target, pseudo_labels, source_centers.shape[0])
    classes_t = np.flatnonzero(counts)
    centers_t = sums[classes_t] / counts[classes_t, None]
    y_target_ref = pseudo_labels if eval_labels is None else eval_labels
    source_model = lambda z: nearest_center_labels(source_centers, z)
    target_model = lambda z: classes_t[nearest_center_labels(centers_t, z)]
    return CrossDomainErrors(
        source_model_on_source=float(np.mean(source_model(z_source) != y_source)),
        target_model_on_target=float(np.mean(target_model(z_target) != y_target_ref)),
        target_model_on_source=float(np.mean(target_model(z_source) != y_source)),
        source_model_on_target=float(np.mean(source_model(z_target) != y_target_ref)),
    )


def _dump_iteration(
    dump_dir: Path,
    step: int,
    parts: ObjectiveMatrices,
    operands: tuple[np.ndarray, np.ndarray],
    solution: TransformSolution,
) -> None:
    dump_dir.mkdir(parents=True, exist_ok=True)
    named = {
        "within_class": parts.within_class,
        "center_push": parts.center_push,
        "mmd": parts.mmd,
        "cross_st": parts.cross_st,
        "cross_ts": parts.cross_ts,
        "laplacian": parts.laplacian,
        "combined": parts.combined,
        "operand_a": operands[0],
        "operand_b": operands[1],
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
    params = config.hyperparams
    total = config.iterations
    features = task.features
    n_source = task.n_source
    delta_identity = params.delta * np.eye(features.shape[1])

    # Bootstrap in the identity projection: source prototypes classify the
    # preprocessed targets, and that one distribution stands for both
    # classifiers.
    p_source = class_probabilities(
        fit_prototypes(features[:n_source], task.source_y, task.n_classes),
        features[n_source:],
    )
    table = combined_pseudo_labels(p_source, p_source, 1, total)
    state = curriculum.select(table, 1, total)
    prev_labels = table.label
    records: list[IterationRecord] = []
    solution: TransformSolution | None = None

    for step in range(1, total + 1):
        try:
            labeling = JointLabeling(
                source=task.source_y,
                target=table.label,
                selected=state.selected,
                n_classes=task.n_classes,
            )
            parts = build_objective_matrices(
                labeling, features, task.moments, params, components=config.components
            )
            a = parts.combined + delta_identity
            solution = solve_generalized(a, task.constraint, config.subspace_dim)
            projected = features @ solution.projection
            zs = projected[:n_source]
            zt = projected[n_source:]

            source_centers = fit_prototypes(zs, task.source_y, task.n_classes)
            cluster_centers, _, _ = target_kmeans(zt, source_centers)

            p_source = class_probabilities(source_centers, zt)
            p_target = class_probabilities(cluster_centers, zt)
            table = combined_pseudo_labels(p_source, p_target, step, total)
            state = curriculum.select(table, step, total)

            # tr(P'AP); with B-orthonormal P this is the eigenvalue sum
            objective = float(np.sum(solution.projection * (a @ solution.projection)))
            if not np.isfinite(objective):
                raise NumericError("objective value is not finite")
            if dump_dir is not None:
                _dump_iteration(
                    Path(dump_dir), step, parts, (a, task.constraint.shifted), solution
                )

            agreement = float(np.mean(table.label == prev_labels))
            prev_labels = table.label
            accuracy = None
            if eval_labels is not None:
                accuracy = float(np.mean(table.label == eval_labels) * 100.0)
            errors = evaluate_cross_domain_errors(
                zs, task.source_y, source_centers, zt, table.label, eval_labels
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
