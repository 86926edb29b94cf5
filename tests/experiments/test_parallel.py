"""Executor equivalence and scheduling tests for the parallel sweep engine.

The contract under test: the serial and process executors produce a
bit-identical :class:`SweepResult` for the same master seed, and ``collect``
hooks observe results in deterministic (cell-major, trial-minor) order
whatever the executor.
"""

import json
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _shm
from repro.apps.database import SHM_MIN_ENTRIES, PerformanceDatabase
from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.experiments.parallel import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
    SweepTask,
    _resolve_factory,
    _strip_factories,
    _worker_init,
    _WORKER_REGISTRY,
    chunk_tasks,
    make_executor,
)
from repro.experiments.runner import run_sweep
from repro.faults import FaultPlan
from repro.harmony.session import TuningSession
from repro.space import IntParameter, ParameterSpace
from repro.variability import ParetoNoise

# Module-level problem pieces so the factories pickle for ProcessExecutor.
SPACE = ParameterSpace([IntParameter(f"x{i}", -6, 6) for i in range(3)])


def quad_objective(point) -> float:
    return 1.0 + float(np.sum((np.asarray(point, dtype=float) - 2.0) ** 2))


@dataclass(frozen=True)
class QuadCell:
    """Picklable paired-seed session factory over the quadratic problem."""

    k: int = 1
    rho: float = 0.2
    budget: int = 40

    def __call__(self, seed: int) -> TuningSession:
        tuner = ParallelRankOrdering(SPACE)
        noise = ParetoNoise(rho=self.rho) if self.rho > 0 else None
        return TuningSession(
            tuner, quad_objective, noise=noise, budget=self.budget,
            plan=SamplingPlan(self.k), rng=seed,
        )


CELLS = [("k1", QuadCell(k=1)), ("k2", QuadCell(k=2)), ("k3", QuadCell(k=3))]


def not_a_session(seed: int) -> str:
    """A broken (but picklable) factory: returns no TuningSession."""
    return "not a session"


class TrialAwareCell:
    """Records (seed, trial) call order; offsets the budget by trial."""

    trial_aware = True
    calls: list[tuple[int, int]] = []

    def __call__(self, seed: int, trial: int) -> TuningSession:
        TrialAwareCell.calls.append((seed, trial))
        return QuadCell(budget=20 + trial)(seed)


class TestExecutorEquivalence:
    def _run(self, executor, jobs=None, collect=None):
        if executor == "serial":
            jobs = None
        return run_sweep(
            CELLS, trials=4, rng=123, collect=collect,
            executor=executor, jobs=jobs,
        )

    @pytest.fixture(scope="class")
    def serial_result(self):
        return self._run("serial")

    @pytest.mark.parametrize("executor", ["process"])
    def test_bit_identical_to_serial(self, serial_result, executor):
        parallel = self._run(executor, jobs=2)
        assert parallel.trial_seeds == serial_result.trial_seeds
        assert parallel.cells == serial_result.cells
        assert parallel.to_dict() == serial_result.to_dict()

    def test_executor_instance_accepted(self, serial_result):
        result = self._run(ProcessExecutor(2))
        assert result.cells == serial_result.cells

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_collect_order_deterministic(self, executor):
        seen: list[float] = []
        self._run(executor, jobs=2, collect=lambda r: seen.append(r.total_time()))
        reference: list[float] = []
        self._run("serial", collect=lambda r: reference.append(r.total_time()))
        assert seen == reference
        assert len(seen) == len(CELLS) * 4

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_bad_factory_raises_typeerror(self, executor):
        # Two trials, so the process pool really runs them in its workers
        # and the TypeError crosses back to the parent.
        with pytest.raises(TypeError, match="must return a TuningSession"):
            run_sweep(
                {"bad": not_a_session}, trials=2,
                executor=executor,
                jobs=2 if executor != "serial" else None,
            )


class TestTrialAwareFactories:
    def test_receives_trial_indices_in_order(self):
        TrialAwareCell.calls = []
        result = run_sweep(
            [("a", TrialAwareCell()), ("b", TrialAwareCell())], trials=3, rng=9
        )
        trials = [t for _, t in TrialAwareCell.calls]
        assert trials == [0, 1, 2, 0, 1, 2]
        seeds = [s for s, _ in TrialAwareCell.calls]
        assert tuple(seeds[:3]) == result.trial_seeds
        assert seeds[:3] == seeds[3:]  # paired seeds replayed per cell


class TestFaultedExecutorEquivalence:
    """Property: executor choice never changes a faulted sweep's result.

    For any fault plan and any recovering policy, serial and process
    sweeps of the same master seed serialize to the same ``to_dict()``
    (compared as canonical JSON — NaN aggregates from all-failed cells
    would defeat plain dict equality).
    """

    @settings(max_examples=6, deadline=None)
    @given(
        plan_seed=st.integers(0, 2**16),
        crash=st.floats(0.0, 0.35),
        nan=st.floats(0.0, 0.25),
        policy=st.sampled_from(["retry", "skip"]),
    )
    def test_faulted_sweeps_are_executor_invariant(
        self, plan_seed, crash, nan, policy
    ):
        plan = FaultPlan(seed=plan_seed, crash=crash, nan=nan)
        cells = [("k1", QuadCell(k=1, budget=12)), ("k2", QuadCell(k=2, budget=12))]
        kwargs = dict(trials=3, rng=77, faults=plan, failure_policy=policy)
        reference = json.dumps(
            run_sweep(cells, **kwargs).to_dict(), sort_keys=True
        )
        parallel = run_sweep(cells, executor="process", jobs=2, **kwargs)
        assert (
            json.dumps(parallel.to_dict(), sort_keys=True) == reference
        ), f"process sweep diverged from serial under {policy}"


class TestWorkerPersistentState:
    """The initializer path ships lean tasks and stays bit-identical."""

    CELLS2 = [("k1", QuadCell(k=1, budget=12)), ("k2", QuadCell(k=2, budget=12))]

    @pytest.mark.parametrize(
        "trials",
        # 2 cells x 3 trials = 6 tasks < 2 jobs x 4: one task per chunk;
        # 2 x 8 = 16 tasks: chunks of 4, 3 and 2 tasks lead, so workers run
        # chunk siblings.
        [3, 8],
        ids=["unit-chunks", "multi-task-chunks"],
    )
    def test_every_pool_variant_is_bit_identical(self, trials):
        reference = run_sweep(self.CELLS2, trials=trials, rng=31).to_dict()
        result = run_sweep(
            self.CELLS2, trials=trials, rng=31, executor=ProcessExecutor(2)
        )
        assert result.to_dict() == reference

    def test_strip_factories_dedups_shared_factory(self):
        factory = QuadCell(budget=12)

        def task(i):
            return SweepTask(
                cell_index=0, cell_name="c", trial_index=i, seed=i, factory=factory
            )

        lean, registry = _strip_factories([task(0), task(1)])
        assert list(registry) == ["cell-0"]
        assert all(t.factory is None for t in lean)
        assert lean[0].factory_key == lean[1].factory_key
        assert registry[lean[0].factory_key] is factory

    def test_worker_init_installs_pickled_registry(self):
        before = dict(_WORKER_REGISTRY)
        blob = pickle.dumps({"cell-0": QuadCell(budget=12)})
        try:
            _worker_init(blob)
            assert isinstance(_WORKER_REGISTRY["cell-0"], QuadCell)
        finally:
            _WORKER_REGISTRY.clear()
            _WORKER_REGISTRY.update(before)

    def test_resolve_missing_key_raises(self):
        task = SweepTask(
            cell_index=0, cell_name="c", trial_index=0, seed=1,
            factory=None, factory_key="absent",
        )
        with pytest.raises(RuntimeError, match="no worker factory"):
            _resolve_factory(task)


# Module-level database problem so the cell pickles for ProcessExecutor.
DB_SPACE = ParameterSpace([IntParameter(f"d{i}", 0, 9) for i in range(2)])


def db_cost(point) -> float:
    return 1.0 + float(np.sum((np.asarray(point, dtype=float) - 6.0) ** 2))


class DatabaseCell:
    """Factory whose sessions all query one broadcast-worthy database."""

    def __init__(self, db: PerformanceDatabase) -> None:
        self.db = db

    def __call__(self, seed: int) -> TuningSession:
        return TuningSession(
            ParallelRankOrdering(DB_SPACE), self.db, noise=ParetoNoise(rho=0.2),
            budget=15, plan=SamplingPlan(2), rng=seed,
        )


class TestSharedMemorySweep:
    def test_database_sweep_identical_across_broadcast_modes(self, monkeypatch):
        """Shared-memory export and its inline-pickle fallback agree.

        The fallback is the ``OSError`` branch of
        ``PerformanceDatabase.__getstate__`` (a full or missing
        ``/dev/shm``).  Here the points array takes a segment and the
        values array's export fails, so the fallback also has to leave the
        orphaned segment to the broadcast's cleanup.
        """
        db = PerformanceDatabase.from_function(db_cost, DB_SPACE)
        assert len(db) >= SHM_MIN_ENTRIES  # large enough to take the shm path
        cells = [("db", DatabaseCell(db))]
        reference = run_sweep(cells, trials=3, rng=17).to_dict()
        shared = run_sweep(cells, trials=3, rng=17, executor=ProcessExecutor(2))
        assert shared.to_dict() == reference

        exported: list[dict] = []
        real_export = _shm.ShmBroadcast.export_array

        def export_then_fail(self, arr):
            if exported:
                raise OSError(28, "No space left on device")
            exported.append(real_export(self, arr))
            return exported[-1]

        monkeypatch.setattr(_shm.ShmBroadcast, "export_array", export_then_fail)
        inline = run_sweep(cells, trials=3, rng=17, executor=ProcessExecutor(2))
        assert inline.to_dict() == reference
        assert len(exported) == 1, "the fallback path was never taken"
        with pytest.raises(FileNotFoundError):
            _shm.attach_array(exported[0])


class TestMakeExecutor:
    def test_names(self):
        assert EXECUTOR_NAMES == ("serial", "process")
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process", 3), ProcessExecutor)
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("thread", 2)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_serial_rejects_jobs(self):
        with pytest.raises(ValueError):
            make_executor("serial", jobs=4)
        assert isinstance(make_executor("serial", jobs=1), SerialExecutor)

    def test_instance_rejects_jobs(self):
        with pytest.raises(ValueError):
            make_executor(ProcessExecutor(2), jobs=4)

    def test_pool_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)


class TestChunking:
    def test_covers_all_tasks_contiguously(self):
        chunks = chunk_tasks(10, 3)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(10))

    def test_guided_sizes_shrink_to_single_tasks(self):
        # Each chunk takes 1/(2 jobs) of the tasks left, so no worker idles
        # behind a long last chunk: non-increasing contiguous sizes, and the
        # last `jobs` chunks hold one task each.
        assert [len(c) for c in chunk_tasks(144, 2)][:4] == [36, 27, 20, 15]
        for n_tasks, jobs in [(144, 2), (192, 2), (64, 3), (9, 1)]:
            chunks = chunk_tasks(n_tasks, jobs)
            sizes = [len(c) for c in chunks]
            assert [i for c in chunks for i in c] == list(range(n_tasks))
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] == n_tasks // (2 * jobs)
            assert sizes[-jobs:] == [1] * jobs

    def test_small_sweeps_get_unit_chunks(self):
        # Below jobs*4 tasks, chunking would serialize work onto too few
        # workers; every task must become its own chunk instead.
        chunks = chunk_tasks(7, 2)
        assert [len(c) for c in chunks] == [1] * 7
        assert all(len(c) == 1 for c in chunk_tasks(3, 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_tasks(-1, 2)
        with pytest.raises(ValueError):
            chunk_tasks(4, 0)
        assert chunk_tasks(0, 2) == []
