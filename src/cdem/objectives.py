"""The objective operand in moment form: m×m, never n×n coefficient matrices.

The objective is tr(P' A P) over the stacked features X (n samples in rows, m
columns; source rows first, then target rows).  A weighs the six ``TERMS``,
each a quadratic form X'QX equal to a sum of squared distances in the
projected space.  These sums depend on the samples only through the count
n_g and row sum s_g of each source and selected-target class (from
``prototype.class_moments``) and through the labeled rows themselves: the
source rows Xs with their labels and the selected target rows Xsel with
their pseudo labels.  A step therefore passes the builder the run's
``SourceMoments``, Xsel and Xsel's pseudo labels, never X or a mask.  With
means mu_g = s_g / n_g and n_{y_r} the count of row r's class:

- within-class scatter: Xs'Xs + Xsel'Xsel - sum_g n_g mu_g mu_g'
- center push, marginal and conditional MMD, cross pushes: weighted
  (mu_a - mu_b)(mu_a - mu_b)', complement means taken from totals minus
  the group
- same-label Laplacian: Xs' diag(n_{y_r}) Xs + Xsel' diag(n_{y_r}) Xsel
  - sum_c s_c s_c', n_c and s_c counting both sides together

A is linear in the term weights w, so ``build_objective_matrices`` forms it
from three products, never term by term: Xs' diag(g_{y_r}) Xs and
Xsel' diag(g_{y_r}) Xsel with g = w_within + w_lap n, and D' diag(u) D for
every rank-one part, D stacking the class means, mean differences, class
sums and the marginal gap (at most 8C + 1 rows).  A term alone is the same
call with a unit weight on it (``objective_terms``), for dumps and checks.

Every term is linear in the moments' coordinates: the moments of the rows
of XT give T'AT.  The trainer computes them on the whitened rows Y = XW,
with W = L^-T for the constraint B + sI = LL', so the operand it
builds is W'AW, the standard-form matrix the eigensolver takes, and no step
forms W'AW from A.  A dump builds the same operand from the moments of X.

``source_moments`` computes the source-only parts once per run: the class
counts and sums and the gap between the domains' mean rows, beside the
source rows and labels it was given, which it keeps without copying.  A step
costs O(n m^2 + C m^2) time and holds O(n_s m + C m + m^2) numbers beyond
those rows.  Unselected target samples enter only the marginal MMD term.

``source_moments`` and ``build_objective_matrices`` take the loop's own
arrays unchecked: the source rows and labels of a ``trainer.PreparedTask``,
which construction checked (every class has a source row), and the step's
selected rows and pseudo labels, which the loop forms.  Only an empty
selection raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .prototype import class_moments

if TYPE_CHECKING:
    from .matio import ExperimentConfig

# The terms A is a weighted sum of, in the order ``term_weights`` lists them.
TERMS = ("within_class", "center_push", "mmd", "cross_st", "cross_ts", "laplacian")


@dataclass(frozen=True)
class SourceMoments:
    """The source-side terms of every step's objective (see the module
    docstring): the source rows (n_s, m) and their labels (n_s,), as given,
    per-class counts (C,) and row sums (C, m), and the mean source row minus
    the mean target row (m,)."""

    rows: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    marginal_gap: np.ndarray


def source_moments(
    xs: np.ndarray, xt: np.ndarray, source_y: np.ndarray, n_classes: int
) -> SourceMoments:
    """Moments of the source rows xs, labeled source_y, against the target
    rows xt."""
    counts, sums = class_moments(xs, source_y, n_classes)
    return SourceMoments(
        rows=xs,
        labels=source_y,
        counts=counts,
        sums=sums,
        marginal_gap=xs.mean(axis=0) - xt.mean(axis=0),
    )


@dataclass
class ObjectiveMatrices:
    """One step's m×m objective operand and the terms left out of it."""

    combined: np.ndarray
    skipped: list[str] = field(default_factory=list)


def term_weights(config: ExperimentConfig) -> dict[str, float]:
    """Each term's weight in the objective of config.

    The empirical block (erm) is within_class - beta * center_push;
    distribution alignment (da) adds lam * mmd, the cross-domain push (cde)
    -gamma * (cross_st + cross_ts) and the affinity Laplacian (dfl)
    eta * laplacian.  A block is left out by a zero weight.
    """
    cross = -config.gamma
    weights = (1.0, -config.beta, config.lam, cross, cross, config.eta)
    return dict(zip(TERMS, weights))


def _means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # Rows with a zero count are never used with a non-zero weight.
    return sums / np.maximum(counts, 1)[:, None]


def _skipped_terms(n_src: np.ndarray, n_tgt: np.ndarray) -> list[str]:
    """Terms left out because a class is empty or has an empty complement,
    in the order the terms are listed."""
    classes = range(n_src.shape[0])
    tgt_total = int(n_tgt.sum())
    skipped: list[str] = []
    for cls in classes:
        if not n_tgt[cls]:
            skipped.append(f"center-push target block: class {cls} has no selected samples")
        elif n_tgt[cls] == tgt_total:
            skipped.append(f"center-push target block: class {cls} has empty complement")
    for cls in classes:
        if not (n_src[cls] and n_tgt[cls]):
            skipped.append(f"conditional distribution term: class {cls} missing on one side")
    for cls in classes:
        if not (n_src[cls] and n_tgt[cls]):
            skipped.append(f"cross-domain push: class {cls} missing on one side")
        elif n_tgt[cls] == tgt_total:
            skipped.append(f"cross-domain push: class {cls} has empty target complement")
    return skipped


def build_objective_matrices(
    source: SourceMoments,
    xt_sel: np.ndarray,
    y_sel: np.ndarray,
    weights: dict[str, float],
) -> ObjectiveMatrices:
    """The operand sum_t weights[t] X'Q_tX over ``TERMS``, from the three
    products of the module docstring.

    source holds the ``source_moments`` of the run; xt_sel are the selected
    target rows and y_sel their pseudo labels.  The class count C and the
    source row count come from source.counts.  The center push weighs each
    class's squared distance to the rest of its domain by its count; the
    cross push compares a class mean with the opposite domain's other-class
    mean.  On the target side early curriculum stages can leave a class
    empty or complement-less, so those blocks are skipped and reported in
    ``skipped``.
    """
    n_classes = source.counts.shape[0]
    if not xt_sel.shape[0]:
        raise DataError("no selected target samples: cannot build objective")
    n_src, s_src = source.counts, source.sums
    n_tgt, s_tgt = class_moments(xt_sel, y_sel, n_classes)
    n_cls = n_src + n_tgt

    # Each row's Gram enters the within-class scatter once and the
    # Laplacian n times, n counting the row's class over both sides.
    gram_weight = weights["within_class"] + weights["laplacian"] * n_cls
    combined = (source.rows * gram_weight[source.labels, None]).T @ source.rows
    combined += (xt_sel * gram_weight[y_sel, None]).T @ xt_sel

    n_sel = n_tgt.sum()
    mean_src = _means(s_src, n_src)
    mean_tgt = _means(s_tgt, n_tgt)
    rest_src = _means(s_src.sum(axis=0) - s_src, n_src.sum() - n_src)
    rest_tgt = _means(s_tgt.sum(axis=0) - s_tgt, n_sel - n_tgt)
    both = ((n_src > 0) & (n_tgt > 0)).astype(float)
    tgt_has_rest = n_tgt < n_sel
    # (term, rows of D, their factors): row d with factor f adds f d d'
    rank_one = (
        ("within_class", mean_src, -n_src),
        ("within_class", mean_tgt, -n_tgt),
        ("center_push", mean_src - rest_src, n_src),
        ("center_push", mean_tgt - rest_tgt, np.where(tgt_has_rest, n_tgt, 0)),
        ("mmd", source.marginal_gap[None, :], np.ones(1)),
        ("mmd", mean_src - mean_tgt, both),
        ("cross_st", mean_src - rest_tgt, both * tgt_has_rest),
        ("cross_ts", mean_tgt - rest_src, both),
        ("laplacian", s_src + s_tgt, -np.ones(n_classes)),
    )
    d = np.concatenate([rows for _, rows, _ in rank_one])
    u = np.concatenate([weights[term] * factor for term, _, factor in rank_one])
    combined += (d * u[:, None]).T @ d
    return ObjectiveMatrices(combined=combined, skipped=_skipped_terms(n_src, n_tgt))


def objective_terms(
    source: SourceMoments, xt_sel: np.ndarray, y_sel: np.ndarray
) -> dict[str, np.ndarray]:
    """Each of ``TERMS`` alone: ``build_objective_matrices`` with a unit
    weight on that term and 0 on the others."""
    unit = lambda term: {t: float(t == term) for t in TERMS}
    build = lambda term: build_objective_matrices(source, xt_sel, y_sel, unit(term))
    return {term: build(term).combined for term in TERMS}
