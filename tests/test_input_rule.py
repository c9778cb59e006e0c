"""One rule for the arrays cdem is handed, swept by property tests.

A feature matrix passes ``matio.as_matrix``: a real dtype (bool, int, uint
or float), two dimensions and at least one row and one column.  Labels pass
``matio._int64_labels``: a real dtype.  At every public entry point that
takes such an array, an input outside the rule raises DataError, and any
other input returns or raises a CdemError subtype; neither emits a warning.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdem.eigsolve import assemble_operands
from cdem.errors import CdemError, DataError
from cdem.matio import DomainPair, validate_eval_labels, write_labels, write_matrix
from cdem.preprocess import fit_pca
from cdem.trainer import PreparedTask, source_probabilities

# Complex, str and object arrays are built from the same small integers as
# the real ones, so a str array holds numerals and a complex one has no
# imaginary part: each would convert to floats without a loss.
DTYPES = (bool, np.int64, np.uint8, np.float32, np.float64, np.complex128, str, object)
# Rows of unequal lengths, which numpy cannot make an array of.
_RAGGED = st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=2, max_size=4).filter(
    lambda rows: len({len(row) for row in rows}) > 1
)


@st.composite
def _inputs(draw, usual_ndim: int):
    """An array of one of DTYPES or, as often as any one dtype, a ragged
    nesting.  Two arrays in three have usual_ndim, the rest another ndim in
    0-3; sides are 1-4 or, one in five, 0; entries are 0-3."""
    dtype = draw(st.sampled_from((*DTYPES, "ragged")))
    if dtype == "ragged":
        return draw(_RAGGED)
    others = [ndim for ndim in range(4) if ndim != usual_ndim]
    ndim = usual_ndim if draw(st.integers(0, 2)) else draw(st.sampled_from(others))
    shape = tuple(draw(st.lists(st.sampled_from((1, 2, 3, 4, 0)), min_size=ndim, max_size=ndim)))
    size = int(np.prod(shape))
    entries = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    return np.array(entries, dtype=np.int64).reshape(shape).astype(dtype)


def _real(values) -> bool:
    return isinstance(values, np.ndarray) and values.dtype.kind in "biuf"


def _matrix(values) -> bool:
    return _real(values) and values.ndim == 2 and 0 not in values.shape


def _width(values) -> int:
    """The width a well-formed companion of values takes: its own for a
    matrix, so that such a call can return, else 2."""
    return values.shape[1] if _matrix(values) else 2


def _check(call, follows_rule: bool, context: str) -> None:
    """call() returns or raises a CdemError subtype, a DataError naming its
    input (context) when that input breaks the rule, and emits no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except CdemError as exc:
            assert follows_rule or isinstance(exc, DataError), repr(exc)
            assert follows_rule or str(exc).startswith(f"{context}: "), repr(exc)
            return
    assert follows_rule, "an input outside the rule was accepted"


def _prepared_task(x, out):
    # The steps take what construction checked unchecked, so a task that
    # construction lets through is put to its first use too.
    task = PreparedTask(x, np.eye(_width(x)), np.array([0, 1]), 2, source_first=True)
    source_probabilities(task)


def _whitened_task(w, out):
    # A run's first use of whiten is the product Y = XW.
    task = PreparedTask(np.eye(3, _width(w)), w, np.array([0, 1]), 2, source_first=True)
    task.features @ task.whiten


# name -> (how its errors name the input, with {out} the directory written
# to; the call on that input)
FEATURE_CALLS = {
    "DomainPair": (
        "target features", lambda x, out: DomainPair(np.eye(3, _width(x)), [0, 1, 0], x, 2)
    ),
    "PreparedTask": ("features", _prepared_task),
    "whiten": ("whiten", _whitened_task),
    "fit_pca-one-block": ("PCA block 0", lambda x, out: fit_pca(x, n_components=1)),
    # a first block of width 3 meets blocks of every width
    "fit_pca-two-blocks": (
        "PCA block 1", lambda x, out: fit_pca(np.eye(2, 3), x, n_components=1)
    ),
    "assemble_operands": ("features", lambda x, out: assemble_operands(x)),
    "write_matrix": ("{out}/features.cdm", lambda x, out: write_matrix(x, out / "features.cdm")),
}
# Three target rows and two classes, for the evaluation labels.
_PAIR = DomainPair(np.eye(3), [0, 1, 0], np.eye(3), 2)
LABEL_CALLS = {
    "validate_eval_labels": (
        "evaluation labels", lambda y, out: validate_eval_labels(y, _PAIR, "evaluation labels")
    ),
    "write_labels": ("{out}/labels.txt", lambda y, out: write_labels(y, out / "labels.txt")),
}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


@pytest.mark.parametrize("name", FEATURE_CALLS)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=_inputs(2))
def test_feature_entry_points_follow_the_rule(out_dir, name, values):
    context, call = FEATURE_CALLS[name]
    _check(lambda: call(values, out_dir), _matrix(values), context.format(out=out_dir))


@pytest.mark.parametrize("name", LABEL_CALLS)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=_inputs(1))
def test_label_entry_points_follow_the_rule(out_dir, name, values):
    context, call = LABEL_CALLS[name]
    _check(lambda: call(values, out_dir), _real(values), context.format(out=out_dir))


def test_whiten_given_as_a_list_is_stored_as_float64():
    task = PreparedTask(np.eye(3, 2), [[1, 0], [0, 1]], np.array([0, 1]), 2, source_first=True)
    assert task.whiten.dtype == np.float64
    assert np.array_equal(task.whiten, np.eye(2))


def test_fit_pca_without_blocks_raises_a_data_error():
    with pytest.raises(DataError, match="^PCA needs at least one block$"):
        fit_pca(n_components=1)
