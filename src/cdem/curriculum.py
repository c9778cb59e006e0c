"""Curriculum pseudo-labeling: blended target labels and easy-to-hard
selection, both on the schedule step/total.

Each step blends the source and target classifiers with weight step/total
on the target side, then admits at most ceil(count * step / total) samples
per class, where count is the class's size in the blended labeling, clamped
by how many consistently-labeled candidates exist.  The ceiling is computed
in integer arithmetic so quota sequences are exact and the final step always
admits every consistent sample.  The loop's own probability tables and
1 <= step <= total come in unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PseudoLabelTable:
    """Per-target-sample labels for one curriculum step.

    p is the (n_t, C) row-stochastic blend of the two classifiers, label
    its argmax and confidence its max; consistent marks rows where both
    classifiers pick the same class.
    """

    p: np.ndarray
    label: np.ndarray
    consistent: np.ndarray
    confidence: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.label.shape[0]


@dataclass(frozen=True)
class CurriculumState:
    """Outcome of one selection step.

    quotas : (C,) admitted count per class (already clamped)
    selected : (n_t,) mask of the admitted target samples
    """

    quotas: np.ndarray
    selected: np.ndarray

    @property
    def selected_ids(self) -> np.ndarray:
        """Sorted indices of the admitted target samples."""
        return np.flatnonzero(self.selected)


def combined_pseudo_labels(
    p_source: np.ndarray, p_target: np.ndarray, step: int, total_steps: int
) -> PseudoLabelTable:
    """Blend the two classifiers with weight step/total_steps on the target
    side, so early steps trust the source model and the final step trusts
    target structure alone."""
    weight = step / total_steps
    p = (1.0 - weight) * p_source + weight * p_target
    return PseudoLabelTable(
        p=p,
        label=np.argmax(p, axis=1).astype(np.int64),
        consistent=np.argmax(p_source, axis=1) == np.argmax(p_target, axis=1),
        confidence=p.max(axis=1),
    )


def quota(count: int | np.ndarray, step: int, total_steps: int) -> int | np.ndarray:
    """ceil(count * step / total_steps) without floating point; count may be
    an integer array of per-class counts."""
    return (count * step + total_steps - 1) // total_steps


def select(table: PseudoLabelTable, step: int, total_steps: int) -> CurriculumState:
    """Admit the most confident consistent samples per class, up to quota.

    Each class's quota follows its count in table.label.  Ties in
    confidence break toward the lower sample index, which keeps selection
    deterministic: ``np.lexsort`` is stable and the candidates enter it in
    ascending index order, so no index key is needed.
    """
    n_classes = table.p.shape[1]
    pool = np.flatnonzero(table.consistent)
    # lexsort: last key is primary, so candidates are grouped by label, most
    # confident first within a class
    order = pool[np.lexsort((-table.confidence[pool], table.label[pool]))]
    labels = table.label[order]
    consistent_counts = np.bincount(labels, minlength=n_classes)
    counts = np.bincount(table.label, minlength=n_classes)
    quotas = np.minimum(quota(counts, step, total_steps), consistent_counts)
    class_start = np.cumsum(consistent_counts) - consistent_counts
    rank = np.arange(order.size) - class_start[labels]
    selected = np.zeros(table.n_samples, dtype=bool)
    selected[order[rank < quotas[labels]]] = True
    return CurriculumState(quotas=quotas, selected=selected)
