"""Alternating optimization: solve for a projection, relabel, reselect.

A run works on one feature matrix holding both domains' rows.
``preprocess_rows`` does everything that depends only on those rows and
``pca_dim``: it takes the two domains' matrices as they are, fits one PCA on
both together (``preprocess.fit_pca`` centers them piece by piece, so no
stacked copy is made), keeps the read-only scores of their rows in that
order, each scaled to unit length, and factors the label-free constraint
B = X'HX once, keeping only the W that whitens it.  A ``PreparedTask`` is a
view of that prepared pair: its ``source`` and ``target`` are row slices of
the scores, in whichever order the two blocks were passed, so a task and
its reverse share one pair.  Methods, ablation
stages and grid points that differ only in their weights (an ablation stage
zeroes some of them) share one ``PreparedTask``.  ``run_adaptation``
bootstraps pseudo labels from the source-only prototype classifier on the
scores X (``source_probabilities``, which is also the source-only baseline),
then works in whitened coordinates Y = XW, W = L^-T from the constraint's
Cholesky factor: it forms Y once per run, computes the source-side moments of
the objective on Y, and alternates for a fixed number of steps between (a)
solving the eigenproblem whose operand W'AW is built from those moments, the
selected target rows of Y and their pseudo labels, and (b) refreshing pseudo
labels and the curriculum selection in the new subspace, whose embedding YU
equals XP.  A step hands on to the next one only those blended pseudo
labels and that selection: it drops each n×C distance or probability table
and the blend after its last read, and its diagnostics take the source
model's per-row labels, not its distance table.  A step keeps the whitened
basis U with LAPACK's column signs, to which distances, k-means,
probabilities and every record are blind; P = WU is formed and sign-fixed
(``eigsolve.column_signs``) once, when the run ends, together with the
embeddings it reports.  True target labels never enter any of these steps;
when provided they are used solely to score predictions per step."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import curriculum, matio
from .curriculum import combined_pseudo_labels
from .eigsolve import (
    TransformSolution,
    assemble_operands,
    column_signs,
    shifted_gram,
    solve_generalized,
)
from .errors import CdemError, ConfigError, DataError, NumericError
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
    selected_per_class: list[int]
    n_selected: int
    agreement: float
    accuracy: float | None
    errors: CrossDomainErrors
    residual: float
    eigengap: float | None
    orthonormality: float
    kmeans_iters: int
    kmeans_converged: bool
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
    domains (``features``, m columns, the two blocks in the order they were
    prepared, the source block first when ``source_first``), the W = L^-T
    that whitens their constraint B + sI = LL' (B = X'HX) and the source
    labels; m is the ``pca_dim`` they were prepared with.  The first two
    fields are a ``preprocess_rows`` result, so ``PreparedTask(
    *preprocess_rows(...), ...)`` builds one; ``PreparedTask(x,
    assemble_operands(x), ...)`` builds one on any read-only scores x, such
    as PCA scores whose rows were not scaled to unit length.

    Construction checks what the run's steps then take unchecked, raising
    DataError: features are 2-d, whiten is (m, m), source_y follows
    ``matio.check_source_labels`` and is stored as int64, and at least one
    row is left for the target."""

    features: np.ndarray
    whiten: np.ndarray
    source_y: np.ndarray
    n_classes: int
    source_first: bool

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-d, got ndim={self.features.ndim}")
        rows, m = self.features.shape
        if self.whiten.shape != (m, m):
            raise DataError(f"whiten is {self.whiten.shape}, expected {(m, m)}")
        source_y = matio.check_source_labels(self.source_y, self.n_classes)
        if source_y.shape[0] >= rows:
            raise DataError(f"no target rows: {rows} rows for {source_y.shape[0]} source labels")
        object.__setattr__(self, "source_y", source_y)

    @property
    def n_source(self) -> int:
        return self.source_y.shape[0]

    @property
    def n_target(self) -> int:
        return self.features.shape[0] - self.n_source

    @property
    def source_rows(self) -> slice:
        """The source block's rows of ``features``, or of any array that
        lists the same rows in the same order."""
        return slice(0, self.n_source) if self.source_first else slice(self.n_target, None)

    @property
    def target_rows(self) -> slice:
        return slice(self.n_source, None) if self.source_first else slice(0, self.n_target)

    @property
    def source(self) -> np.ndarray:
        return self.features[self.source_rows]

    @property
    def target(self) -> np.ndarray:
        return self.features[self.target_rows]


def preprocess_rows(
    head: np.ndarray, tail: np.ndarray, config: ExperimentConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The label-free part of preparing a task: read-only PCA scores of the
    rows of head followed by those of tail, which are left unchanged, each
    scaled to unit length, plus the W that whitens their constraint B = X'HX
    (``assemble_operands``).  A task and its reverse take the same two
    blocks, so a suite computes this once per unordered domain pair."""
    features = normalize_rows(fit_pca(head, tail, n_components=config.pca_dim))
    features.flags.writeable = False
    return features, assemble_operands(features)


def prepare_task(pair: DomainPair, config: ExperimentConfig) -> PreparedTask:
    """Prepare pair, whose own matrices are left unchanged, once for any
    number of runs that share its pca_dim."""
    check_finite(pair.source_x, "source features")
    check_finite(pair.target_x, "target features")
    rows = preprocess_rows(pair.source_x, pair.target_x, config)
    return PreparedTask(*rows, pair.source_y, pair.n_classes, source_first=True)


def as_prepared(
    task: DomainPair | PreparedTask,
    config: ExperimentConfig,
    eval_labels: np.ndarray | None = None,
) -> tuple[PreparedTask, np.ndarray | None]:
    """task itself when already prepared (with config's pca_dim), else
    ``prepare_task(task, config)``; and eval_labels checked against it (see
    ``validate_eval_labels``), None staying None."""
    if isinstance(task, DomainPair):
        task = prepare_task(task, config)
    if task.features.shape[1] != config.pca_dim:
        raise ConfigError(
            f"task prepared with pca_dim={task.features.shape[1]}, config asks for "
            f"pca_dim={config.pca_dim}"
        )
    if eval_labels is not None:
        eval_labels = validate_eval_labels(eval_labels, task, "evaluation labels")
    return task, eval_labels


def accuracy_pct(predictions: np.ndarray, truth: np.ndarray | None) -> float | None:
    """The percentage of predictions equal to truth, None without truth."""
    if truth is None:
        return None
    return float(np.mean(np.asarray(predictions) == np.asarray(truth)) * 100.0)


def source_probabilities(task: PreparedTask) -> np.ndarray:
    """The source-only classifier: class probabilities of the target rows
    under the source class prototypes of the prepared features."""
    centers = fit_prototypes(task.source, task.source_y, task.n_classes)
    return class_probabilities(squared_distances(task.target, centers))


def evaluate_cross_domain_errors(
    task: PreparedTask,
    z: np.ndarray,
    source_model: np.ndarray,
    labels: np.ndarray,
    eval_labels: np.ndarray | None = None,
) -> CrossDomainErrors:
    """Cross-score the source prototype classifier and a target one fit on
    the pseudo labels of the classes they cover.  z embeds every row of
    task's features, in their order, and source_model holds each row's
    nearest source class center in it, the argmin the step takes where it
    forms its distance table to those centers; labels are the step's blended
    pseudo labels of the target rows, which with the curriculum selection are
    all a step hands on to the next one.  The target model's distances are
    formed here, read once and dropped."""
    source, target = task.source_rows, task.target_rows
    counts, sums = class_moments(z[target], labels, task.n_classes)
    classes_t = np.flatnonzero(counts)
    target_centers = sums[classes_t] / counts[classes_t, None]
    target_model = classes_t[squared_distances(z, target_centers).argmin(axis=1)]
    y_target_ref = labels if eval_labels is None else eval_labels
    return CrossDomainErrors(
        source_model_on_source=float(np.mean(source_model[source] != task.source_y)),
        target_model_on_target=float(np.mean(target_model[target] != y_target_ref)),
        target_model_on_source=float(np.mean(target_model[source] != task.source_y)),
        source_model_on_target=float(np.mean(source_model[target] != y_target_ref)),
    )


def _projection(task: PreparedTask, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P = WU for a whitened basis U, sign-fixed by ``column_signs``, and
    those signs."""
    projection = task.whiten @ basis
    signs = column_signs(projection)
    projection *= signs
    return projection, signs


def _dump_iteration(
    dump_dir: Path,
    step: int,
    task: PreparedTask,
    moments: SourceMoments,
    shifted: np.ndarray,
    selected: np.ndarray,
    labels: np.ndarray,
    config: ExperimentConfig,
    solution: TransformSolution,
) -> None:
    """Write one step's matrices in the coordinates of the scores X, from
    their own source moments and B + sI; only a dump builds these, and the
    terms alone."""
    dump_dir.mkdir(parents=True, exist_ok=True)
    xt_sel = task.target[selected]
    combined = build_objective_matrices(moments, xt_sel, labels, term_weights(config)).combined
    named = {
        **objective_terms(moments, xt_sel, labels),
        "combined": combined,
        "operand_a": combined + config.delta * np.eye(combined.shape[0]),
        "operand_b": shifted,
        "projection": _projection(task, solution.basis)[0],
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
    task, eval_labels = as_prepared(pair, config, eval_labels)
    weights = term_weights(config)
    total = config.iterations
    source, target = task.source_rows, task.target_rows

    # Bootstrap in the identity projection: the source-only classifier's
    # distribution stands for both classifiers.
    p_source = source_probabilities(task)
    table = combined_pseudo_labels(p_source, p_source, 1, total)
    del p_source
    state = curriculum.select(table, 1, total)
    labels = table.label
    del table
    records: list[IterationRecord] = []
    solution: TransformSolution | None = None

    # Every step works in whitened coordinates Y = XW, where the operand is
    # W'AW: the moments of Y give W'(combined)W, and delta W'W is W'(delta I)W.
    whiten = task.whiten
    whitened = task.features @ whiten
    target_whitened = whitened[target]
    moments = source_moments(whitened[source], target_whitened, task.source_y, task.n_classes)
    delta_gram = config.delta * (whiten.T @ whiten)
    dump_moments = dump_shifted = None
    if dump_dir is not None:
        dump_moments = source_moments(task.source, task.target, task.source_y, task.n_classes)
        dump_shifted = shifted_gram(task.features)

    for step in range(1, total + 1):
        try:
            selected = state.selected
            y_sel = labels[selected]
            # Weights that overflow the operand leave it non-finite, which the
            # solve rejects by name, so its build raises no float warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                parts = build_objective_matrices(moments, target_whitened[selected], y_sel, weights)
                reduced = parts.combined + delta_gram
            solution = solve_generalized(reduced, config.subspace_dim)
            # YU = XP embeds both domains; the source class means of Y map to
            # the source centers in it.
            z = whitened @ solution.basis
            zt = z[target]
            source_centers = (moments.sums @ solution.basis) / moments.counts[:, None]

            # One table to the source centers serves the diagnostics' source
            # model, the first Lloyd iteration and p_source; k-means returns
            # its final one.  Each n×C table is dropped after its last read,
            # so the next step sees only the blended labels and the selection.
            to_source = squared_distances(z, source_centers)
            source_model = to_source.argmin(axis=1)
            _, _, history, to_clusters, converged = target_kmeans(
                zt, source_centers, to_source[target]
            )

            p_source = class_probabilities(to_source[target])
            del to_source
            p_target = class_probabilities(to_clusters)
            del to_clusters
            table = combined_pseudo_labels(p_source, p_target, step, total)
            del p_source, p_target
            state = curriculum.select(table, step, total)
            agreement = float(np.mean(table.label == labels))
            labels = table.label
            del table

            # tr(P'AP); with B-orthonormal P this is the eigenvalue sum
            if not np.isfinite(solution.objective):
                raise NumericError("objective value is not finite")
            if dump_dir is not None:
                _dump_iteration(
                    Path(dump_dir), step, task, dump_moments, dump_shifted, selected, y_sel,
                    config, solution,
                )

            errors = evaluate_cross_domain_errors(task, z, source_model, labels, eval_labels)
            records.append(
                IterationRecord(
                    step=step,
                    objective=solution.objective,
                    selected_per_class=state.quotas.tolist(),
                    n_selected=int(state.selected.sum()),
                    agreement=agreement,
                    accuracy=accuracy_pct(labels, eval_labels),
                    errors=errors,
                    residual=solution.residual,
                    eigengap=solution.eigengap,
                    orthonormality=solution.orthonormality,
                    kmeans_iters=len(history),
                    kmeans_converged=converged,
                    skipped=list(parts.skipped),
                )
            )
        except CdemError as exc:
            raise type(exc)(f"step {step}: {exc}") from exc

    assert solution is not None
    projection, signs = _projection(task, solution.basis)
    return AdaptationResult(
        projection=projection,
        eigenvalues=solution.eigenvalues,
        records=records,
        predictions=labels,
        selected=state.selected,
        source_embedding=z[source, :2] * signs[:2],
        target_embedding=z[target, :2] * signs[:2],
        source_labels=task.source_y.copy(),
    )
