"""Easy-to-hard target sample selection.

Each step admits at most ceil(count * step / total) samples per class,
clamped by how many consistently-labeled candidates exist.  The ceiling is
computed in integer arithmetic so quota sequences are exact and the final
step always admits every consistent sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .prototype import PseudoLabelTable


@dataclass(frozen=True)
class CurriculumState:
    """Outcome of one selection step.

    quotas : (C,) admitted count per class (already clamped)
    consistent_counts : (C,) available consistent candidates per class
    selected_ids : sorted target-sample indices that were admitted
    """

    quotas: np.ndarray
    consistent_counts: np.ndarray
    selected_ids: np.ndarray


def quota(count: int | np.ndarray, step: int, total_steps: int) -> int | np.ndarray:
    """ceil(count * step / total_steps) without floating point; count may be
    an integer array of per-class counts."""
    if np.any(np.asarray(count) < 0) or step < 1 or total_steps < step:
        raise ConfigError(f"bad quota arguments: count={count}, step={step}/{total_steps}")
    return (count * step + total_steps - 1) // total_steps


def select(
    table: PseudoLabelTable, class_counts: np.ndarray, step: int, total_steps: int
) -> CurriculumState:
    """Admit the most confident consistent samples per class, up to quota.

    class_counts holds, for each class (column of table.p), the estimated
    target population used for the proportional quota (in training this is the combined pseudo-label
    histogram over all target samples).  Ties in confidence break toward
    the lower sample index, which keeps selection deterministic.
    """
    counts = np.asarray(class_counts, dtype=np.int64)
    n_classes = table.p.shape[1]
    if counts.shape != (n_classes,):
        raise DataError(f"class_counts must have shape ({n_classes},)")
    pool = np.flatnonzero(table.consistent)
    # lexsort: last key is primary, so candidates are grouped by label, most
    # confident first within a class, ties broken on the original index
    order = pool[np.lexsort((pool, -table.confidence[pool], table.label[pool]))]
    labels = table.label[order]
    consistent_counts = np.bincount(labels, minlength=n_classes)
    quotas = np.minimum(quota(counts, step, total_steps), consistent_counts)
    class_start = np.cumsum(consistent_counts) - consistent_counts
    rank = np.arange(order.size) - class_start[labels]
    return CurriculumState(
        quotas=quotas,
        consistent_counts=consistent_counts,
        selected_ids=np.sort(order[rank < quotas[labels]]),
    )


def apply_selection(table: PseudoLabelTable, state: CurriculumState) -> None:
    """Write the admitted set back into the table's selection mask."""
    mask = np.zeros(table.n_samples, dtype=bool)
    mask[state.selected_ids] = True
    table.selected = mask
