"""Property: the batch kernels are the per-row scalar methods, bit for bit.

``ParameterSpace.project_batch`` / ``contains_batch`` must equal stacking
``project`` / ``contains`` over the rows, at every row count on both sides
of ``_VECTORIZE_MIN_ROWS`` — including rows with non-finite coordinates
and inadmissible centres, where both sides must raise the same exception
type.  Spaces mix all three parameter kinds with off-lattice upper bounds.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.space import FloatParameter, IntParameter, OrdinalParameter, ParameterSpace

THRESHOLD = ParameterSpace._VECTORIZE_MIN_ROWS
NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def parameters(draw, name):
    kind = draw(st.sampled_from(["int", "ordinal", "float"]))
    if kind == "int":
        lower = draw(st.integers(-20, 20))
        step = draw(st.integers(1, 5))
        count = draw(st.integers(1, 12))
        # the declared upper bound need not sit on the lattice
        upper = lower + (count - 1) * step + draw(st.integers(0, step - 1))
        return IntParameter(name, lower, upper, step=step)
    if kind == "ordinal":
        quarters = draw(st.lists(st.integers(-200, 200), min_size=1, max_size=7,
                                 unique=True))
        return OrdinalParameter(name, [q / 4 for q in quarters])
    lower = draw(st.floats(-10, 10))
    span = draw(st.floats(0.01, 20))
    return FloatParameter(name, lower, lower + span)


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 4))
    return ParameterSpace([draw(parameters(f"p{i}")) for i in range(n)])


def admissible_values(p):
    if isinstance(p, FloatParameter):
        return [p.lower, p.upper, 0.5 * (p.lower + p.upper)]
    return [float(v) for v in p.values()]


@st.composite
def coordinate(draw, p, finite_only):
    """An exact member, a hair off one, a value anywhere around the range,
    or (unless *finite_only*) a non-finite value."""
    choices = ["member", "near", "anywhere"] + ([] if finite_only else ["bad"])
    how = draw(st.sampled_from(choices))
    if how == "bad":
        return draw(st.sampled_from(NON_FINITE))
    if how == "anywhere":
        return draw(st.floats(p.lower - p.span - 3, p.upper + p.span + 3))
    member = draw(st.sampled_from(admissible_values(p)))
    if how == "member":
        return member
    # inside and just outside the 1e-9 lattice-membership tolerance
    offsets = [-0.5, -1e-8, -2e-9, -1e-10, 1e-10, 2e-9, 1e-8, 0.25, 0.5]
    return member + draw(st.sampled_from(offsets))


@st.composite
def cases(draw):
    space = draw(spaces())
    finite_only = draw(st.booleans())
    m = draw(st.integers(0, THRESHOLD + 12))
    rows = np.array(
        [
            [draw(coordinate(p, finite_only)) for p in space.parameters]
            for _ in range(m)
        ],
        dtype=float,
    ).reshape(m, space.dimension)
    center = [draw(st.sampled_from(admissible_values(p))) for p in space.parameters]
    if m and draw(st.booleans()):
        # an off-lattice or out-of-range centre coordinate
        i = draw(st.integers(0, space.dimension - 1))
        center[i] = draw(st.sampled_from([math.nan, space[i].upper + 1.0,
                                          center[i] + 0.125]))
    return space, rows, np.array(center, dtype=float)


def outcome(fn):
    """(result, None) or (None, exception type)."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return None, type(exc)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_contains_batch_is_rowwise_contains(case):
    space, rows, _ = case
    got = space.contains_batch(rows)
    expected = np.array([space.contains(row) for row in rows], dtype=bool)
    assert got.dtype == np.bool_ and got.shape == (rows.shape[0],)
    assert np.array_equal(got, expected)


#: a -0.0 at a float parameter's 0.0 bound: the scalar clip keeps it, so
#: the vectorized kernel must not turn it into 0.0
SIGNED_ZERO = (
    ParameterSpace([IntParameter("p0", 0, 0), FloatParameter("p1", 0.0, 1.0)]),
    np.array([[0.0, 0.0]] * (THRESHOLD - 1) + [[0.0, -0.0]]),
    np.array([0.0, 0.0]),
)


@given(cases())
@example(SIGNED_ZERO)
@settings(max_examples=300, deadline=None)
def test_project_batch_is_rowwise_project(case):
    space, rows, center = case
    got, got_exc = outcome(lambda: space.project_batch(rows, center))
    expected, expected_exc = outcome(
        lambda: np.array(
            [space.project(row, center) for row in rows], dtype=float
        ).reshape(rows.shape)
    )
    assert got_exc is expected_exc
    if got_exc is None:
        assert got.shape == rows.shape
        assert got.tobytes() == expected.tobytes()
