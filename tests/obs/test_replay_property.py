"""Property: a merged trace replays to the sweep's exact aggregates.

For any seeded sweep — serial or process, with or without crash
faults — feeding the recorded JSONL trace through
:func:`repro.obs.replay_sweep` must reproduce every surviving cell's
aggregates bit-for-bit and agree on the best cell.  This is the
trace-is-faithful guarantee: the ``trial.settled`` events the parent emits
carry everything the aggregation consumed, and JSON float round-trips are
lossless.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_sweep
from repro.faults import FaultPlan
from repro.obs import read_trace, replay_sweep

from tests.experiments.test_parallel import QuadCell

CELLS = [("k1", QuadCell(k=1, budget=20)), ("k2", QuadCell(k=2, budget=20))]

_SETTINGS = dict(
    deadline=None,
    max_examples=4,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_and_replay(executor, jobs, rng, trials, faults):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        result = run_sweep(
            CELLS, trials=trials, rng=rng, executor=executor, jobs=jobs,
            failure_policy="skip", faults=faults, trace=path,
        )
        return result, replay_sweep(read_trace(path))


def _assert_replay_matches(result, replay):
    assert replay["n_failed"] == len(result.failures)
    assert set(replay["cells"]) == set(result.names)
    for cell in result.cells:
        got = replay["cells"][cell.name]
        assert got["trials"] == cell.trials
        assert got["failures"] == cell.failures
        for field in ("ntt_mean", "ntt_std", "final_cost_mean",
                      "total_time_mean", "converged_fraction"):
            want = getattr(cell, field)
            if isinstance(want, float) and math.isnan(want):
                assert math.isnan(got[field]), (cell.name, field)
            else:
                assert got[field] == want, (cell.name, field)
    if all(not math.isnan(c.ntt_mean) for c in result.cells):
        assert replay["best"] == result.best_by_ntt().name


class TestTraceExecutorInvariance:
    def test_stripped_traces_identical_across_executors(self):
        """The executor changes the schedule, never the trace.

        Canonical stripped traces — worker events included — must be
        identical for serial and process runs of the same seed,
        modulo the ``executor`` field of ``sweep.start`` and the
        process-only ``shm.export`` event.  Guards in particular against
        fork-started workers inheriting the parent's adopted tracer and
        silently dropping their shard events.
        """
        from repro.obs import canonical_events

        def normalized(executor, jobs):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "trace.jsonl"
                run_sweep(CELLS, trials=2, rng=13, executor=executor,
                          jobs=jobs, trace=path)
                events = []
                for event in canonical_events(read_trace(path)):
                    if event["kind"] == "shm.export":
                        continue
                    event = dict(event)
                    if event["kind"] == "sweep.start":
                        event.pop("executor")
                    events.append(event)
                return events

        serial = normalized("serial", None)
        assert sum(e["kind"] == "trial.end" for e in serial) == 4
        assert sum(e["kind"] == "session.step" for e in serial) > 0
        assert normalized("process", 2) == serial


class TestReplayMatchesSweep:
    @pytest.mark.parametrize("executor,jobs", [
        ("serial", None), ("process", 2),
    ])
    @settings(**_SETTINGS)
    @given(rng=st.integers(0, 2**16), trials=st.integers(2, 4))
    def test_clean_sweep(self, executor, jobs, rng, trials):
        result, replay = _run_and_replay(executor, jobs, rng, trials, None)
        assert not result.failures
        _assert_replay_matches(result, replay)

    @pytest.mark.parametrize("executor,jobs", [("serial", None)])
    @settings(**_SETTINGS)
    @given(
        rng=st.integers(0, 2**16),
        trials=st.integers(2, 4),
        fault_seed=st.integers(0, 64),
    )
    def test_faulted_sweep(self, executor, jobs, rng, trials, fault_seed):
        faults = FaultPlan(seed=fault_seed, crash=0.3)
        result, replay = _run_and_replay(executor, jobs, rng, trials, faults)
        _assert_replay_matches(result, replay)

    @settings(deadline=None, max_examples=3,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rng=st.integers(0, 2**16), fault_seed=st.integers(0, 64))
    def test_faulted_process_sweep(self, rng, fault_seed):
        faults = FaultPlan(seed=fault_seed, crash=0.3)
        result, replay = _run_and_replay("process", 2, rng, 3, faults)
        _assert_replay_matches(result, replay)
