"""Alternating optimization: solve for a projection, relabel, reselect.

A run works on one feature matrix: the source rows followed by the target
rows, as ``DomainPair.x`` stores them.  It replaces that matrix once by its
PCA scores, fit on both domains together, and bootstraps pseudo labels from
a source-only prototype classifier in that space.  It then alternates for a
fixed number of steps between (a) solving the generalized eigenproblem for
the current labeling and (b) refreshing pseudo labels and the curriculum
selection in the new subspace.  Each domain's rows are row slices of the
joint matrix, never separate copies.  True target labels never enter any of
these steps; when provided they are used solely to score predictions per
step."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import curriculum
from .curriculum import combined_pseudo_labels
from .eigsolve import TransformSolution, assemble_operands, solve_generalized
from .errors import CdemError, NumericError
from .matio import DomainPair, ExperimentConfig, validate_eval_labels, write_matrix
from .objectives import JointLabeling, ObjectiveMatrices, build_objective_matrices
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


def preprocess_pair(pair: DomainPair, config: ExperimentConfig) -> np.ndarray:
    """PCA scores of pair.x, followed by optional unit-length row
    normalization: (n_source + n_target) × pca_dim, source rows first."""
    z = fit_pca(pair.x, config.pca_dim)
    return normalize_rows(z) if config.normalize else z


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
    pair: DomainPair,
    config: ExperimentConfig,
    eval_labels: np.ndarray | None = None,
    dump_dir: str | Path | None = None,
) -> AdaptationResult:
    """Full alternating run; returns exactly config.iterations records."""
    if eval_labels is not None:
        eval_labels = validate_eval_labels(eval_labels, pair, "evaluation labels")
    params = config.hyperparams
    total = config.iterations
    features = preprocess_pair(pair, config)
    n_source = pair.n_source
    constraint = assemble_operands(features)
    delta_identity = params.delta * np.eye(features.shape[1])

    # Bootstrap in the identity projection: source prototypes classify the
    # preprocessed targets, and that one distribution stands for both
    # classifiers.
    p_source = class_probabilities(
        fit_prototypes(features[:n_source], pair.source_y, pair.n_classes),
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
                source=pair.source_y,
                target=table.label,
                selected=state.selected,
                n_classes=pair.n_classes,
            )
            parts = build_objective_matrices(
                labeling, features, params, components=config.components
            )
            a = parts.combined + delta_identity
            solution = solve_generalized(a, constraint, config.subspace_dim)
            projected = features @ solution.projection
            zs = projected[:n_source]
            zt = projected[n_source:]

            source_centers = fit_prototypes(zs, pair.source_y, pair.n_classes)
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
                _dump_iteration(Path(dump_dir), step, parts, (a, constraint.shifted), solution)

            agreement = float(np.mean(table.label == prev_labels))
            prev_labels = table.label
            accuracy = None
            if eval_labels is not None:
                accuracy = float(np.mean(table.label == eval_labels) * 100.0)
            errors = evaluate_cross_domain_errors(
                zs, pair.source_y, source_centers, zt, table.label, eval_labels
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
        source_labels=pair.source_y.copy(),
    )
