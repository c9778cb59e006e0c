"""Objective terms in moment form: m×m operands, never n×n coefficient matrices.

Each term is a quadratic form tr(P' T P) over the stacked features X (n
samples in rows, m columns; source rows first, then target rows) that equals
a sum of squared distances in the projected space.  Every such sum depends on
the samples only through the count n_g and the sum s_g (m) of each source
class and each selected-target class (both from ``prototype.class_moments``,
the one place class counts and sums are computed), and through two Gram
matrices per domain side: the plain X'X of its rows and the count-weighted
X' diag(n_{y_r}) X, where n_{y_r} counts row r's class over both sides.
With means mu_g = s_g / n_g:

- within-class scatter: Xs'Xs + Xsel'Xsel - sum_g n_g mu_g mu_g'
- center push, marginal and conditional MMD, cross push: weighted
  (mu_a - mu_b)(mu_a - mu_b)', complement means taken from totals minus
  the group
- same-label Laplacian: R' diag(n_{y_r}) R - sum_c s_c s_c', where R holds
  the source and the selected target rows and s_c sums class c over both

So building T costs O(n m^2) time and O(m^2 + C m) memory.  Unselected
target samples enter only the marginal distribution term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .prototype import class_moments

# The objective blocks compose_objective switches on and off.
KNOWN_COMPONENTS = ("erm", "da", "cde", "dfl")


@dataclass(frozen=True)
class Hyperparams:
    """Non-negative weights for the objective terms plus the ridge delta."""

    beta: float = 0.1
    lam: float = 0.1
    gamma: float = 0.1
    eta: float = 0.1
    delta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("beta", "lam", "gamma", "eta", "delta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class JointLabeling:
    """Source labels plus current target pseudo labels and the selection mask.

    Rows of the stacked features follow the same order: source sample i sits
    at row i, target sample j at row n_source + j.
    """

    source: np.ndarray
    target: np.ndarray
    selected: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", np.asarray(self.source, dtype=np.int64))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=np.int64))
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=bool))
        if self.source.ndim != 1 or self.target.ndim != 1:
            raise DataError("labels must be 1-d")
        if self.selected.shape != self.target.shape:
            raise DataError("selection mask must match target labels")
        if self.n_classes < 2:
            raise DataError("need at least two classes")
        for name, arr in (("source", self.source), ("target", self.target)):
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_classes):
                raise DataError(f"{name} labels outside [0, {self.n_classes})")

    @property
    def n_source(self) -> int:
        return self.source.shape[0]

    @property
    def n_target(self) -> int:
        return self.target.shape[0]

    @property
    def n_total(self) -> int:
        return self.n_source + self.n_target


@dataclass
class ObjectiveMatrices:
    """All m×m term operands for one iteration plus their composition."""

    within_class: np.ndarray
    center_push: np.ndarray
    mmd: np.ndarray
    cross_st: np.ndarray
    cross_ts: np.ndarray
    laplacian: np.ndarray
    combined: np.ndarray
    skipped: list[str] = field(default_factory=list)


def _means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # Rows with a zero count are never used with a non-zero weight.
    return sums / np.maximum(counts, 1)[:, None]


def _weighted_outer(diffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_c weights[c] * diffs[c] diffs[c]'."""
    return (diffs * weights[:, None]).T @ diffs


def _skipped_terms(n_src: np.ndarray, n_tgt: np.ndarray) -> list[str]:
    """Terms left out because a class is empty or has an empty complement,
    in the order the terms are built."""
    classes = range(n_src.shape[0])
    tgt_total = int(n_tgt.sum())
    skipped: list[str] = []
    for cls in classes:
        if not n_src[cls]:
            skipped.append(f"center-push source block: class {cls} empty")
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


def compose_objective(
    parts: "ObjectiveMatrices",
    params: Hyperparams,
    components: tuple[str, ...] = KNOWN_COMPONENTS,
) -> np.ndarray:
    """Weighted combination of the term matrices.

    The empirical block is within_class - beta * center_push.  Distribution
    alignment (da), cross-domain push (cde) and the affinity Laplacian (dfl)
    toggle with the component switches used by the ablation suite.
    """
    erm = parts.within_class - params.beta * parts.center_push
    out = np.zeros_like(parts.within_class)
    if "erm" in components:
        out = out + erm
    if "da" in components:
        out = out + params.lam * parts.mmd
    if "dfl" in components:
        out = out + params.eta * parts.laplacian
    if "cde" in components:
        out = out - params.gamma * (parts.cross_st + parts.cross_ts)
    return out


def build_objective_matrices(
    labeling: JointLabeling,
    features: np.ndarray,
    params: Hyperparams,
    components: tuple[str, ...] = KNOWN_COMPONENTS,
) -> ObjectiveMatrices:
    """Build every m×m term X'QX for the current labeling and compose them.

    features stacks the source rows, then the target rows.  Source samples
    use true labels, selected target samples pseudo labels.  The center push
    weighs each class's squared distance to the rest of its domain by its
    count; the cross push compares a class mean with the opposite domain's
    other-class mean.  A single-class source has no complement and is a
    configuration error; on the target side early curriculum stages can
    leave a class empty or complement-less, so those blocks are skipped and
    reported in ``skipped``.
    """
    if not labeling.selected.any():
        raise DataError("no selected target samples: cannot build objective")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != labeling.n_total:
        raise ConfigError(f"features are {x.shape}, expected ({labeling.n_total}, m)")
    xs = x[: labeling.n_source]
    xt = x[labeling.n_source :]
    xt_sel = xt[labeling.selected]
    y_sel = labeling.target[labeling.selected]
    n_src, s_src = class_moments(xs, labeling.source, labeling.n_classes)
    n_tgt, s_tgt = class_moments(xt_sel, y_sel, labeling.n_classes)
    only = np.flatnonzero((n_src > 0) & (n_src == labeling.n_source))
    if only.size:
        raise ConfigError(f"source contains only class {only[0]}: empty complement")

    n_sel = n_tgt.sum()
    mean_src = _means(s_src, n_src)
    mean_tgt = _means(s_tgt, n_tgt)
    rest_src = _means(s_src.sum(axis=0) - s_src, labeling.n_source - n_src)
    rest_tgt = _means(s_tgt.sum(axis=0) - s_tgt, n_sel - n_tgt)
    both = ((n_src > 0) & (n_tgt > 0)).astype(float)
    tgt_has_rest = n_tgt < n_sel

    within = xs.T @ xs + xt_sel.T @ xt_sel
    within -= _weighted_outer(mean_src, n_src) + _weighted_outer(mean_tgt, n_tgt)
    push = _weighted_outer(mean_src - rest_src, n_src)
    push += _weighted_outer(mean_tgt - rest_tgt, np.where(tgt_has_rest, n_tgt, 0))
    marginal = xs.mean(axis=0) - xt.mean(axis=0)
    mmd = np.outer(marginal, marginal) + _weighted_outer(mean_src - mean_tgt, both)
    cross_st = _weighted_outer(mean_src - rest_tgt, both * tgt_has_rest)
    cross_ts = _weighted_outer(mean_tgt - rest_src, both)
    n_cls = n_src + n_tgt
    s_cls = s_src + s_tgt
    laplacian = (xs * n_cls[labeling.source, None]).T @ xs
    laplacian += (xt_sel * n_cls[y_sel, None]).T @ xt_sel
    laplacian -= s_cls.T @ s_cls

    parts = ObjectiveMatrices(
        within_class=within,
        center_push=push,
        mmd=mmd,
        cross_st=cross_st,
        cross_ts=cross_ts,
        laplacian=laplacian,
        combined=np.zeros_like(within),
        skipped=_skipped_terms(n_src, n_tgt),
    )
    parts.combined = compose_objective(parts, params, components)
    return parts
