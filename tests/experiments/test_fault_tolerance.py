"""Fault tolerance contract of the sweep engine.

Covers the per-task isolation guarantee (a failed task never takes its
chunk or sweep down unless asked to), the three failure policies, the
timeout/straggler watchdog, recovery from outright worker death, and the
bit-identical-recovery acceptance criterion: a faulted-then-retried sweep
equals a clean run of the same seeds, on every executor.
"""

import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.experiments.parallel import (
    ProcessExecutor,
    SerialExecutor,
    SweepTask,
    TrialFailure,
    TrialOutcome,
    _run_chunk,
    execute_ordered,
)
from repro.experiments.runner import run_sweep
from repro.faults import FaultPlan, InjectedFault
from repro.harmony.session import TuningSession

from tests.experiments.test_parallel import QuadCell

# Small-budget cells keep the many sweeps in this module fast; module-level
# so they pickle for ProcessExecutor.
CELLS = [("k1", QuadCell(k=1, budget=15)), ("k2", QuadCell(k=2, budget=15))]

#: every fault kind at once, severe enough to fire in a 2x3 grid but mild
#: enough that one retry round recovers everything (attempts beyond
#: ``max_faulty_attempts=1`` are clean by construction)
MIXED_PLAN = FaultPlan(
    seed=42, crash=0.2, hang=0.1, nan=0.15, slowdown=0.15, hang_seconds=0.05
)


def _tasks(n: int = 5, **overrides) -> list[SweepTask]:
    base = [
        SweepTask(
            cell_index=0,
            cell_name="a",
            trial_index=t,
            seed=1000 + t,
            factory=QuadCell(budget=10),
        )
        for t in range(n)
    ]
    return [replace(task, **overrides) for task in base]


class TestChunkFaultIsolation:
    """Regression: one raising task used to poison its whole chunk."""

    def test_failed_task_leaves_chunk_siblings_intact(self):
        tasks = _tasks(5)
        # Only task 2 carries a certain-crash plan; the whole batch runs as
        # ONE chunk through the pool worker's entry point.
        tasks[2] = replace(tasks[2], faults=FaultPlan(seed=0, crash=1.0))
        results = _run_chunk(tasks)
        assert len(results) == len(tasks)
        assert isinstance(results[2], TrialFailure)
        assert results[2].kind == "error"
        assert results[2].error_type == "InjectedFault"
        assert results[2].seed == tasks[2].seed
        for i in (0, 1, 3, 4):
            assert isinstance(results[i], TrialOutcome), f"sibling {i} was lost"

    def test_serial_executor_captures_failures_identically(self):
        tasks = _tasks(3)
        tasks[0] = replace(tasks[0], faults=FaultPlan(seed=0, crash=1.0))
        results = dict(SerialExecutor().map_tasks(tasks))
        assert isinstance(results[0], TrialFailure)
        assert isinstance(results[1], TrialOutcome)
        assert isinstance(results[2], TrialOutcome)


class TestFailurePolicies:
    def test_raise_aborts_on_first_failure(self):
        with pytest.raises(InjectedFault, match="injected crash"):
            run_sweep(
                CELLS, trials=2, rng=1, faults=FaultPlan(seed=0, crash=1.0)
            )

    def test_raise_with_retries_only_raises_after_exhaustion(self):
        # One faulty attempt, one retry: every trial recovers, nothing raises,
        # and the recovered sweep matches a clean run of the same seeds.
        plan = FaultPlan(seed=0, crash=1.0, max_faulty_attempts=1)
        result = run_sweep(
            CELLS, trials=2, rng=1, faults=plan,
            failure_policy="raise", retries=1,
        )
        clean = run_sweep(CELLS, trials=2, rng=1)
        assert result.cells == clean.cells
        assert result.failures == ()
        # Crashing on every attempt exhausts the retry budget and raises.
        stubborn = FaultPlan(seed=0, crash=1.0, max_faulty_attempts=5)
        with pytest.raises(InjectedFault):
            run_sweep(
                CELLS, trials=2, rng=1, faults=stubborn,
                failure_policy="raise", retries=1,
            )

    def test_skip_excludes_failures_from_aggregates(self):
        plan = FaultPlan(seed=7, crash=0.4)
        collected = []
        result = run_sweep(
            CELLS, trials=4, rng=99, faults=plan,
            failure_policy="skip", collect=collected.append,
        )
        assert result.failures, "plan never fired; pick a different seed"
        # collect saw exactly the survivors, in cell-major order, so the
        # per-cell aggregates must be recomputable from consecutive runs.
        idx = 0
        for cell in result.cells:
            ntts = [
                r.normalized_total_time()
                for r in collected[idx : idx + cell.trials]
            ]
            idx += cell.trials
            assert cell.trials + cell.failures == 4
            if cell.trials:
                assert cell.ntt_mean == pytest.approx(np.mean(ntts))
                assert cell.converged_fraction <= 1.0
        assert idx == len(collected)
        assert result.meta["n_failed"] == len(result.failures)
        ledger = result.to_dict()["failures"]
        assert ledger == [f.to_dict() for f in result.failures]
        assert {f["error_type"] for f in ledger} == {"InjectedFault"}
        assert all(f["attempt"] == 0 for f in ledger)

    def test_retry_exhaustion_degrades_to_skip_with_ledger(self):
        plan = FaultPlan(seed=3, crash=1.0, max_faulty_attempts=5)
        result = run_sweep(
            CELLS, trials=2, rng=4, faults=plan,
            failure_policy="retry", retries=2,
        )
        assert len(result.failures) == len(CELLS) * 2
        assert all(f.attempt == 2 for f in result.failures)
        for cell in result.cells:
            assert cell.trials == 0
            assert cell.failures == 2
            assert np.isnan(cell.ntt_mean)
            assert cell.converged_fraction == 0.0

    def test_retry_preserves_original_seed(self):
        tasks = _tasks(3, faults=FaultPlan(seed=0, crash=1.0))
        results = execute_ordered(
            SerialExecutor(), tasks, failure_policy="retry", retries=1
        )
        assert all(isinstance(r, TrialOutcome) for r in results)
        assert [r.seed for r in results] == [t.seed for t in tasks]

    def test_slowdown_faults_succeed_but_shift_time_deterministically(self):
        plan = FaultPlan(seed=5, slowdown=1.0, slowdown_factor=4.0)
        slowed = run_sweep(
            CELLS, trials=2, rng=8, faults=plan, failure_policy="skip"
        )
        clean = run_sweep(CELLS, trials=2, rng=8)
        assert slowed.failures == ()
        for s, c in zip(slowed.cells, clean.cells):
            assert s.trials == c.trials
            assert s.total_time_mean > c.total_time_mean
        again = run_sweep(
            CELLS, trials=2, rng=8, faults=plan, failure_policy="skip"
        )
        assert again.cells == slowed.cells


class TestBitIdenticalRecovery:
    """Acceptance: faulted + retried sweeps are executor-invariant."""

    def test_plan_actually_schedules_faults(self):
        kinds = {
            MIXED_PLAN.fault_for(c, t)
            for c in range(len(CELLS))
            for t in range(3)
        }
        assert kinds - {None}, "MIXED_PLAN is a no-op on this grid; reseed it"

    def test_faulted_retry_sweep_matches_serial(self):
        kwargs = dict(
            trials=3, rng=123, faults=MIXED_PLAN, failure_policy="retry"
        )
        serial = run_sweep(CELLS, **kwargs)
        parallel = run_sweep(CELLS, executor="process", jobs=2, **kwargs)
        assert json.dumps(parallel.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )
        assert serial.failures == ()  # every injected fault was recovered

    def test_recovered_sweep_matches_clean_run(self):
        # Crashes/hangs/NaNs are transient (one faulty attempt) so the
        # retried sweep must equal a clean sweep of the same seeds —
        # except where a slowdown legitimately shifted total time.
        plan = FaultPlan(seed=42, crash=0.2, hang=0.1, nan=0.15,
                         hang_seconds=0.05)
        faulted = run_sweep(
            CELLS, trials=3, rng=123, faults=plan, failure_policy="retry"
        )
        clean = run_sweep(CELLS, trials=3, rng=123)
        assert faulted.cells == clean.cells
        assert faulted.trial_seeds == clean.trial_seeds


class TestTimeoutsAndStragglers:
    def test_hung_trial_is_abandoned_and_redispatched_in_bounded_time(self):
        # Every first attempt hangs for 5s; the watchdog abandons it after
        # 0.4s and the retry (clean by construction) finishes the sweep in
        # well under the hang time.
        plan = FaultPlan(seed=1, hang=1.0, hang_seconds=5.0)
        cells = [("a", QuadCell(budget=15))]
        start = time.monotonic()
        result = run_sweep(
            cells, trials=2, rng=11, faults=plan,
            failure_policy="retry", retries=1, task_timeout=0.4,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 4.0, f"straggler was not abandoned ({elapsed:.1f}s)"
        clean = run_sweep(cells, trials=2, rng=11)
        assert result.cells == clean.cells
        assert result.failures == ()
        assert result.meta["task_timeout"] == 0.4

    def test_timeout_without_retry_surfaces_as_timeout_failure(self):
        plan = FaultPlan(seed=1, hang=1.0, hang_seconds=5.0)
        result = run_sweep(
            [("a", QuadCell(budget=15))], trials=2, rng=11, faults=plan,
            failure_policy="skip", task_timeout=0.3,
        )
        assert len(result.failures) == 2
        assert {f.kind for f in result.failures} == {"timeout"}
        assert {f.error_type for f in result.failures} == {"TrialTimeout"}
        assert result.cells[0].trials == 0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            run_sweep(CELLS, trials=1, task_timeout=0.0)


@dataclass(frozen=True)
class KillOnceCell:
    """Hard-kills its worker process until *sentinel* exists on disk.

    The sentinel is created before ``os._exit`` so the retry pass (which
    runs on a fresh pool) builds sessions normally — the cross-process
    analogue of a node that comes back after a reboot.
    """

    sentinel: str
    k: int = 1

    def __call__(self, seed: int) -> TuningSession:
        if not os.path.exists(self.sentinel):
            open(self.sentinel, "w").close()
            os._exit(13)
        return QuadCell(k=self.k, budget=15)(seed)


class TestWorkerLoss:
    def test_dead_worker_is_survived_by_fresh_pool_retry(self, tmp_path):
        sentinel = str(tmp_path / "node-rebooted")
        cells = [
            ("k1", KillOnceCell(sentinel, k=1)),
            ("k2", KillOnceCell(sentinel, k=2)),
        ]
        result = run_sweep(
            cells, trials=2, rng=5,
            executor=ProcessExecutor(2),
            failure_policy="retry", retries=2,
        )
        clean = run_sweep(CELLS, trials=2, rng=5)
        assert result.cells == clean.cells
        assert result.trial_seeds == clean.trial_seeds
        assert result.failures == ()
