"""Batch-vs-scalar equivalence for the vectorized space kernels.

``contains_batch`` / ``project_batch`` / ``normalize_batch`` switch between
a scalar loop (below ``_VECTORIZE_MIN_ROWS``) and numpy kernels;
both implementations must be bitwise identical, including exactly at the
switchover boundary.
"""

import numpy as np
import pytest

from repro.space import (
    FloatParameter,
    IntParameter,
    OrdinalParameter,
    ParameterSpace,
)

MIXED = ParameterSpace(
    [
        IntParameter("i", -5, 5),
        FloatParameter("f", -1.0, 1.0),
        OrdinalParameter("o", [1, 2, 4, 8, 16]),
    ]
)

THRESHOLD = ParameterSpace._VECTORIZE_MIN_ROWS

# Exercise both code paths and the exact switchover row counts; 11-13 rows
# sit on the scalar path below the switchover.
SIZES = sorted({0, 1, 5, 11, 12, 13, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 64})


def rows(m, seed):
    """Rows straddling bounds, off-lattice values, and exact members."""
    rng = np.random.default_rng(seed)
    lo, hi = MIXED.lower_bounds(), MIXED.upper_bounds()
    span = hi - lo
    arr = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(m, MIXED.dimension))
    # sprinkle in exactly-admissible rows so contains() sees both outcomes
    for r in range(0, m, 3):
        arr[r] = MIXED.nearest(np.clip(arr[r], lo, hi))
    return arr


@pytest.mark.parametrize("m", SIZES)
def test_contains_batch_matches_scalar(m):
    arr = rows(m, seed=m + 1)
    got = MIXED.contains_batch(arr)
    expected = np.array([MIXED.contains(row) for row in arr], dtype=bool)
    assert got.dtype == np.bool_
    assert np.array_equal(got, expected)


def test_contains_batch_checks_every_row_chunk():
    # only the integer coordinate is off-lattice, in every other row of
    # every chunk the membership kernel takes, the last partial one included
    m = 2 * ParameterSpace._CONTAINS_CHUNK_ROWS + 5
    arr = np.tile(MIXED.center(), (m, 1))
    arr[1::2, 0] += 0.5
    expected = np.array([MIXED.contains(row) for row in arr], dtype=bool)
    assert expected[::2].all() and not expected[1::2].any()
    assert np.array_equal(MIXED.contains_batch(arr), expected)


@pytest.mark.parametrize("m", SIZES)
def test_project_batch_matches_scalar(m):
    arr = rows(m, seed=m + 101)
    center = MIXED.center()
    got = MIXED.project_batch(arr, center)
    expected = np.array([MIXED.project(row, center) for row in arr]).reshape(
        m, MIXED.dimension
    )
    assert got.tobytes() == expected.tobytes()
    if m:
        assert MIXED.contains_batch(got).all()


@pytest.mark.parametrize("m", SIZES)
def test_normalize_batch_matches_scalar(m):
    arr = rows(m, seed=m + 202)
    got = MIXED.normalize_batch(arr)
    expected = np.array([MIXED.normalize(row) for row in arr]).reshape(
        m, MIXED.dimension
    )
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", sorted({5, 48, 4 * THRESHOLD}))
def test_project_batch_rejects_inadmissible_center(m):
    arr = rows(m, seed=7)
    with pytest.raises(ValueError):
        MIXED.project_batch(arr, [0.25, 0.0, 1.0])  # 0.25 not an int value
    with pytest.raises(ValueError):
        MIXED.project_batch(arr, [0.0, 0.0, 3.0])  # 3 not an ordinal level


def test_as_batch_validates_shape():
    assert MIXED.as_batch([]).shape == (0, 3)
    with pytest.raises(ValueError):
        MIXED.as_batch(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        MIXED.as_batch(np.zeros((2, 2, 3)))
