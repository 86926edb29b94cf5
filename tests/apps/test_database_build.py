"""``PerformanceDatabase.from_function`` against its per-point reference.

The reference is the historical build: one ``gen.random()`` and one
``add(pt, fn(pt))`` per lattice point in grid order.  The vectorized pass
must store the same entries in the same sorted arrays, answer the same
queries with the same values and counters, and leave the generator in the
same state — for a function with a ``batch`` method (the GS2 surrogate)
and for a plain callable without one.
"""

import pickle

import numpy as np
import pytest

from repro import _shm
from repro.apps.database import PerformanceDatabase
from repro.apps.gs2 import GS2Surrogate
from repro.space import IntParameter, OrdinalParameter, ParameterSpace

# The ordinal values are declared out of order on purpose: the lattice
# must still come out in sorted row order.
PLAIN_SPACE = ParameterSpace(
    [
        IntParameter("a", -6, 9),
        OrdinalParameter("b", [8, 1, 2, 4, 32]),
        IntParameter("c", 0, 20, step=4),
    ]
)


def plain(point):
    """A rugged cost with no ``batch`` attribute."""
    x = np.asarray(point, dtype=float)
    return float(1.0 + np.sum(np.sin(x) ** 2) + 0.01 * x[0] * x[2])


CASES = {
    "gs2": (GS2Surrogate(), GS2Surrogate.space()),
    "plain": (plain, PLAIN_SPACE),
}


def reference_build(fn, space, *, fraction, gen):
    db = PerformanceDatabase(space)
    for pt in space.grid():
        if fraction < 1.0 and gen.random() >= fraction:
            continue
        db.add(pt, float(fn(pt)))
    return db


def queries(space, seed, n=60):
    """Lattice points, off-lattice points and repeats (memo hits)."""
    gen = np.random.default_rng(seed)
    lattice = space.grid_array()
    on = lattice[gen.integers(0, lattice.shape[0], n)]
    lo, hi = space.lower_bounds(), space.upper_bounds()
    off = lo + gen.random((n, space.dimension)) * (hi - lo)
    return np.concatenate([on, off, on[: n // 3], off[: n // 3]])


def assert_same_answers(db, ref, space, seed):
    qs = queries(space, seed)
    scalar = [db(q) for q in qs[:40]]
    scalar_ref = [ref(q) for q in qs[:40]]
    assert np.array(scalar).tobytes() == np.array(scalar_ref).tobytes()
    assert db.evaluate_batch(qs).tobytes() == ref.evaluate_batch(qs).tobytes()
    assert [db.lookup(q) for q in qs[:40]] == [ref.lookup(q) for q in qs[:40]]
    assert db.cache_stats() == ref.cache_stats()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fraction", [1.0, 0.3])
def test_matches_per_point_reference(case, fraction):
    fn, space = CASES[case]
    gen, gen_ref = np.random.default_rng(17), np.random.default_rng(17)
    db = PerformanceDatabase.from_function(fn, space, fraction=fraction, rng=gen)
    ref = reference_build(fn, space, fraction=fraction, gen=gen_ref)

    assert gen.bit_generator.state == gen_ref.bit_generator.state
    assert len(db) == len(ref)
    pts, vals = db._arrays()
    ref_pts, ref_vals = ref._arrays()
    assert pts.tobytes() == ref_pts.tobytes()
    assert vals.tobytes() == ref_vals.tobytes()
    assert dict(zip(map(tuple, pts.tolist()), vals.tolist())) == ref._entries
    top, top_ref = db.top_entries(5), ref.top_entries(5)
    assert [(p.tobytes(), v) for p, v in top] == [(p.tobytes(), v) for p, v in top_ref]
    assert_same_answers(db, ref, space, seed=3)


def test_rows_come_out_sorted():
    rows = PLAIN_SPACE.grid_array()
    assert [tuple(r) for r in rows.tolist()] == sorted(
        tuple(p) for p in PLAIN_SPACE.grid()
    )


def test_add_materializes_like_the_reference():
    fn, space = CASES["plain"]
    db = PerformanceDatabase.from_function(fn, space, fraction=0.5, rng=4)
    ref = reference_build(fn, space, fraction=0.5, gen=np.random.default_rng(4))
    hole = next(pt for pt in space.grid() if ref.lookup(pt) is None)
    for target in (db, ref):
        target.add(hole, 0.5)
        target.add(space.grid_array()[0], 7.0)
    assert db._entries == ref._entries
    assert db._arrays()[0].tobytes() == ref._arrays()[0].tobytes()
    assert db._arrays()[1].tobytes() == ref._arrays()[1].tobytes()
    assert_same_answers(db, ref, space, seed=5)


def test_shared_memory_round_trip():
    fn, space = CASES["gs2"]
    db = PerformanceDatabase.from_function(fn, space, fraction=0.3, rng=9)
    ref = reference_build(fn, space, fraction=0.3, gen=np.random.default_rng(9))
    pts, vals = db._arrays()
    with _shm.ShmBroadcast() as broadcast:
        with _shm.broadcasting(broadcast):
            blob = pickle.dumps(db)
        assert broadcast.n_segments == 2
        assert broadcast.total_bytes >= pts.nbytes + vals.nbytes
        assert len(blob) < 2000
        clone = pickle.loads(blob)
        assert clone.is_shared
        assert clone._arrays()[0].tobytes() == pts.tobytes()
        assert clone._arrays()[1].tobytes() == vals.tobytes()
        assert_same_answers(clone, ref, space, seed=6)
        clone._materialize()  # detach before the broadcast unlinks
    assert not clone.is_shared


def test_plain_pickle_keeps_the_arrays():
    fn, space = CASES["plain"]
    db = PerformanceDatabase.from_function(fn, space, rng=2)
    copy = pickle.loads(pickle.dumps(db))
    assert not copy.is_shared
    assert copy._arrays()[0].tobytes() == db._arrays()[0].tobytes()
    assert copy._arrays()[1].tobytes() == db._arrays()[1].tobytes()


class TestChecks:
    def test_non_finite_value_rejected(self):
        def bad(point):
            return float("inf") if point[0] == 3 else 1.0

        with pytest.raises(ValueError, match="value must be finite, got inf"):
            PerformanceDatabase.from_function(bad, PLAIN_SPACE)

    def test_empty_sample_rejected(self):
        space = ParameterSpace([IntParameter("a", 0, 1)])
        with pytest.raises(ValueError, match="empty database"):
            PerformanceDatabase.from_function(plain, space, fraction=1e-9, rng=0)

    def test_continuous_space_rejected(self):
        from repro.space import FloatParameter

        space = ParameterSpace([FloatParameter("x", 0.0, 1.0)])
        with pytest.raises(ValueError, match="discrete"):
            PerformanceDatabase.from_function(plain, space)
