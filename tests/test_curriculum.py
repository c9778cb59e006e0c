"""Selection quotas and confidence-ordered admission."""

from __future__ import annotations

import numpy as np
import pytest

from cdem.curriculum import combined_pseudo_labels, quota, select


def _table(p_source, p_target, step=1, total=11):
    return combined_pseudo_labels(np.asarray(p_source), np.asarray(p_target), step, total)


def test_quota_fixed_example():
    assert quota(30, 1, 11) == 3
    assert min(quota(30, 1, 11), 8) == 3


def test_quota_integer_exact_sequence():
    # ceil(count * step / total) computed without floats, checked exhaustively
    for count in range(0, 200):
        for total in (1, 7, 11):
            for step in range(1, total + 1):
                got = quota(count, step, total)
                assert got == -(-count * step // total)
    assert quota(100, 11, 11) == 100


def _make_table(conf_by_class):
    """Build a consistent table with given per-sample (class, confidence)."""
    rows = []
    for cls, conf in conf_by_class:
        row = np.full(2, 1.0 - conf)
        row[cls] = conf
        row /= row.sum()
        rows.append(row)
    p = np.vstack(rows)
    return _table(p, p.copy())


def test_selects_most_confident_per_class():
    table = _make_table([(0, 0.9), (0, 0.8), (0, 0.95), (1, 0.7), (1, 0.6)])
    state = select(table, 1, 3)
    # class counts [3, 2]; quotas: ceil(3/3)=1, ceil(2/3)=1
    assert state.quotas.tolist() == [1, 1]
    assert state.selected_ids.tolist() == [2, 3]
    assert state.selected.tolist() == [False, False, True, True, False]


def test_quota_clamped_by_consistency():
    table = _make_table([(0, 0.9), (0, 0.8), (1, 0.7)])
    table.consistent[:] = [True, False, False]
    state = select(table, 3, 3)
    # class counts [2, 1] at the final step, clamped to the consistent [1, 0]
    assert state.quotas.tolist() == [1, 0]
    assert state.selected_ids.tolist() == [0]


def test_selected_always_consistent_and_counts_match():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        c = int(rng.integers(2, 5))
        ps = rng.dirichlet(np.ones(c), size=n)
        pt = rng.dirichlet(np.ones(c), size=n)
        step = int(rng.integers(1, 12))
        table = combined_pseudo_labels(ps, pt, step, 11)
        counts = np.bincount(table.label, minlength=c)
        state = select(table, step, 11)
        assert (table.consistent[state.selected]).all()
        assert np.array_equal(state.selected_ids, np.flatnonzero(state.selected))
        for cls in range(c):
            in_class = table.label == cls
            assert (state.selected & in_class).sum() == state.quotas[cls]
            assert state.quotas[cls] == min(
                quota(int(counts[cls]), step, 11), (table.consistent & in_class).sum()
            )


def test_final_step_admits_all_consistent():
    rng = np.random.default_rng(32)
    ps = rng.dirichlet(np.ones(3), size=25)
    pt = rng.dirichlet(np.ones(3), size=25)
    table = combined_pseudo_labels(ps, pt, 11, 11)
    state = select(table, 11, 11)
    assert state.selected_ids.size == table.consistent.sum()


def test_selection_invariant_under_permutation():
    rng = np.random.default_rng(33)
    n, c = 30, 3
    ps = rng.dirichlet(np.ones(c), size=n)
    pt = rng.dirichlet(np.ones(c), size=n)
    table = combined_pseudo_labels(ps, pt, 2, 5)
    state = select(table, 2, 5)
    perm = rng.permutation(n)
    table_p = combined_pseudo_labels(ps[perm], pt[perm], 2, 5)
    state_p = select(table_p, 2, 5)
    # confidences are distinct with probability one, so the selected SET maps
    # through the permutation
    expected = np.sort(np.argsort(perm)[state.selected_ids])
    assert np.array_equal(np.sort(state_p.selected_ids), expected)


def test_tie_breaks_by_original_index():
    table = _make_table([(0, 0.8), (0, 0.8), (0, 0.8)])
    state = select(table, 1, 3)
    assert state.selected_ids.tolist() == [0]


def test_zero_count_class_gets_zero_quota():
    table = _make_table([(0, 0.9), (0, 0.8)])
    state = select(table, 2, 11)
    assert state.quotas.tolist() == [1, 0]


def _loop_select(table, step, total):
    """Per-class reference: sort each class's consistent rows on their own."""
    counts = np.bincount(table.label, minlength=table.p.shape[1])
    quotas, chosen = [], []
    for cls, count in enumerate(counts):
        pool = [i for i in range(table.n_samples) if table.consistent[i] and table.label[i] == cls]
        pool.sort(key=lambda i: (-table.confidence[i], i))
        admitted = min(-(-int(count) * step // total), len(pool))
        quotas.append(admitted)
        chosen += pool[:admitted]
    return quotas, sorted(chosen)


@pytest.mark.parametrize("seed", range(4))
def test_select_matches_per_class_loop(seed):
    rng = np.random.default_rng(70 + seed)
    c = 4
    for _ in range(25):
        n = int(rng.integers(5, 60))
        # rows drawn from a small palette repeat exactly, so confidences tie
        palette = rng.dirichlet(np.ones(c), size=6)
        ps = palette[rng.integers(0, 6, size=n)]
        pt = np.where(rng.random((n, 1)) < 0.7, ps, palette[rng.integers(0, 6, size=n)])
        total = int(rng.integers(1, 12))
        step = int(rng.integers(1, total + 1))
        table = combined_pseudo_labels(ps, pt, step, total)
        table.consistent &= table.label != 3  # class 3 has no consistent rows
        state = select(table, step, total)
        quotas, chosen = _loop_select(table, step, total)
        assert state.quotas.tolist() == quotas
        assert state.selected_ids.tolist() == chosen
