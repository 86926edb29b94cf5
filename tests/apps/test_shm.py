"""Shared-memory broadcast round-trips (``repro._shm`` + database export)."""

import gc
import os
import pickle
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from repro import _shm
from repro.apps.database import SHM_MIN_ENTRIES, PerformanceDatabase
from repro.experiments.parallel import ProcessExecutor, SweepTask, TrialFailure
from repro.experiments.runner import run_sweep
from repro.space import IntParameter, ParameterSpace

# 10x10 lattice: comfortably above SHM_MIN_ENTRIES even at fraction 0.8.
SPACE10 = ParameterSpace([IntParameter("a", 0, 9), IntParameter("b", 0, 9)])


def cost(p):
    return 1.0 + p[0] + 10.0 * p[1]


def make_large_db():
    db = PerformanceDatabase.from_function(cost, SPACE10, fraction=0.8, rng=0)
    assert len(db) >= SHM_MIN_ENTRIES
    return db


def missing_point(db):
    for pt in db.space.grid():
        if db.lookup(pt) is None:
            return pt
    raise AssertionError("fraction < 1 should leave holes")


class TestShmBroadcast:
    def test_export_attach_round_trip(self):
        arr = np.arange(12.0).reshape(3, 4)
        with _shm.ShmBroadcast() as broadcast:
            spec = broadcast.export_array(arr)
            assert broadcast.n_segments == 1
            assert broadcast.total_bytes >= arr.nbytes
            view, seg = _shm.attach_array(spec)
            assert np.array_equal(view, arr)
            assert not view.flags.writeable
            del view
            seg.close()
        # leaving the context unlinks the segment
        with pytest.raises(FileNotFoundError):
            _shm.attach_array(spec)

    def test_broadcasting_context_nests_and_restores(self):
        assert _shm.active_broadcast() is None
        outer, inner = _shm.ShmBroadcast(), _shm.ShmBroadcast()
        with _shm.broadcasting(outer):
            assert _shm.active_broadcast() is outer
            with _shm.broadcasting(inner):
                assert _shm.active_broadcast() is inner
            assert _shm.active_broadcast() is outer
        assert _shm.active_broadcast() is None


@dataclass(frozen=True)
class KillWorkerCell:
    """Broadcast-eligible factory whose every worker dies before answering.

    Carries a database large enough to trigger the shared-memory export on
    the worker-startup pickle, then hard-kills the worker on the first
    trial — the pool breaks with the segments still exported.
    """

    db: PerformanceDatabase

    def __call__(self, seed: int):
        os._exit(1)


class TestSegmentReleaseOnWorkerDeath:
    @staticmethod
    def _spy_broadcast(monkeypatch):
        created, specs = [], []
        real = _shm.ShmBroadcast

        class SpyBroadcast(real):
            def __init__(self):
                super().__init__()
                created.append(self)

            def export_array(self, arr):
                spec = super().export_array(arr)
                specs.append(spec)
                return spec

        monkeypatch.setattr(_shm, "ShmBroadcast", SpyBroadcast)
        return created, specs

    def test_broken_pool_releases_segments_before_generator_exits(
        self, monkeypatch
    ):
        # Regression: map_tasks used to release shared-memory segments only
        # in its finally clause, i.e. when the generator was exhausted or
        # garbage-collected.  A consumer that holds the suspended generator
        # (or an exception traceback pinning it) after the pool breaks kept
        # the dead workers' segments linked indefinitely.  The broken-pool
        # path must release them eagerly, before yielding the failures.
        created, specs = self._spy_broadcast(monkeypatch)
        cell = KillWorkerCell(make_large_db())
        tasks = [
            SweepTask(
                cell_index=0, cell_name="kill", trial_index=i, seed=i,
                factory=cell,
            )
            for i in range(2)
        ]
        gen = ProcessExecutor(2).map_tasks(tasks)
        try:
            _, result = next(gen)
            assert isinstance(result, TrialFailure)
            assert result.kind == "worker-lost"
            # The generator is still suspended mid-iteration, yet the
            # segments of the broken pool must already be gone.
            assert len(created) == 1, "broadcast never constructed"
            assert len(specs) == 2, "database arrays never exported"
            assert created[0].n_segments == 0
            for spec in specs:
                with pytest.raises(FileNotFoundError):
                    _shm.attach_array(spec)
        finally:
            gen.close()

    def test_raising_sweep_leaves_no_segments(self, monkeypatch):
        # End-to-end: failure_policy="raise" aborts the sweep out of a
        # broken pool; no segment may survive the raise.
        created, specs = self._spy_broadcast(monkeypatch)
        cell = KillWorkerCell(make_large_db())
        with pytest.raises(BrokenExecutor):
            run_sweep(
                [("kill", cell)], trials=2, rng=0,
                executor=ProcessExecutor(2),
                failure_policy="raise",
            )
        assert len(specs) == 2
        assert created[0].n_segments == 0
        for spec in specs:
            with pytest.raises(FileNotFoundError):
                _shm.attach_array(spec)

    def test_finalizer_unlinks_segments_on_gc(self):
        # Safety net for any other path that drops a broadcast un-closed.
        broadcast = _shm.ShmBroadcast()
        spec = broadcast.export_array(np.arange(8.0))
        del broadcast
        gc.collect()
        with pytest.raises(FileNotFoundError):
            _shm.attach_array(spec)

    def test_close_is_idempotent(self):
        broadcast = _shm.ShmBroadcast()
        broadcast.export_array(np.arange(4.0))
        broadcast.close()
        broadcast.close()
        assert broadcast.n_segments == 0


class TestDatabaseBroadcastPickle:
    def test_round_trip_is_compact_and_identical(self):
        db = make_large_db()
        hole = missing_point(db)
        with _shm.ShmBroadcast() as broadcast:
            with _shm.broadcasting(broadcast):
                blob = pickle.dumps(db)
            # points + values arrays travel as descriptors, not data
            assert broadcast.n_segments == 2
            assert len(blob) < 2000
            clone = pickle.loads(blob)
            assert clone.is_shared
            assert len(clone) == len(db)
            for q in [(0, 0), (3, 5), (9, 9)]:
                assert clone(q) == db(q)
            assert clone(hole) == db(hole)  # interpolation off the frozen arrays
            assert [(list(p), v) for p, v in clone.top_entries(3)] == [
                (list(p), v) for p, v in db.top_entries(3)
            ]
            clone._materialize()  # detach before the broadcast unlinks
        assert not clone.is_shared

    def test_attached_db_repickles_self_contained(self):
        db = make_large_db()
        with _shm.ShmBroadcast() as broadcast:
            with _shm.broadcasting(broadcast):
                clone = pickle.loads(pickle.dumps(db))
            # no broadcast active now: the attached clone must pickle a
            # self-contained copy a fresh process could load on its own
            copy = pickle.loads(pickle.dumps(clone))
            clone._materialize()
        assert not copy.is_shared
        assert len(copy) == len(db)
        assert copy((2, 7)) == db((2, 7))

    def test_add_materializes_attached_db(self):
        db = make_large_db()
        hole = missing_point(db)
        with _shm.ShmBroadcast() as broadcast:
            with _shm.broadcasting(broadcast):
                clone = pickle.loads(pickle.dumps(db))
            assert clone.is_shared
            clone.add(hole, 123.0)
            assert not clone.is_shared  # mutation detaches into a private dict
            assert clone.lookup(hole) == 123.0
            assert len(clone) == len(db) + 1
        assert db.lookup(hole) is None  # the exporter never sees the write

    def test_small_db_pickles_plain_even_under_broadcast(self):
        small = PerformanceDatabase.from_mapping(
            {(0.0, 0.0): 1.0, (1.0, 1.0): 12.0}, SPACE10
        )
        with _shm.ShmBroadcast() as broadcast:
            with _shm.broadcasting(broadcast):
                clone = pickle.loads(pickle.dumps(small))
            assert broadcast.n_segments == 0
        assert not clone.is_shared
        assert clone((0, 0)) == 1.0

    def test_pickle_without_broadcast_is_self_contained(self):
        db = make_large_db()
        clone = pickle.loads(pickle.dumps(db))
        assert not clone.is_shared
        assert len(clone) == len(db)
        assert clone((4, 4)) == db((4, 4))
