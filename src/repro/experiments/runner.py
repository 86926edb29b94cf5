"""A general paired-trials sweep runner for tuning experiments.

Every study in the paper has the same skeleton: a grid of configurations
(tuner variant × noise level × sampling plan), each run for T independent
trials, with per-cell means/stds of Normalized Total Time and final cost.
This module factors that skeleton out so new studies are a dozen lines:

* **paired seeds** — every cell replays the same per-trial seed sequence,
  so cell differences are configuration effects, not sampling luck;
* **cells are factories** — a cell is a callable returning a fresh
  :class:`~repro.harmony.session.TuningSession` for (trial_seed), so any
  combination of tuner/noise/plan/evaluator fits;
* **results are arrays + labels**, exportable to JSON and renderable with
  :func:`repro.experiments._fmt.format_table`;
* **failures are data** — under ``failure_policy="skip"``/``"retry"`` a
  crashed, hung, or timed-out trial becomes a ledger entry instead of an
  aborted sweep: aggregates are computed over the surviving trials and
  the per-trial failure records ride along on the result.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro._util import as_generator
from repro.experiments.parallel import (
    FAILURE_POLICIES,
    Executor,
    SerialExecutor,
    SweepTask,
    TrialFailure,
    TrialOutcome,
    execute_ordered,
    make_executor,
)
from repro.faults.plan import FaultPlan
from repro.harmony.metrics import SessionResult
from repro.harmony.session import TuningSession
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry

__all__ = ["CellStats", "SweepResult", "run_sweep"]

#: builds one fresh session for a given trial seed; factories that set a
#: truthy ``trial_aware`` attribute are instead called ``(seed, trial_index)``
#: (for paired designs that key per-trial state, e.g. one database per trial)
SessionFactory = Callable[[int], TuningSession]


@dataclass(frozen=True)
class CellStats:
    """Aggregates of one grid cell across its *surviving* trials.

    ``trials`` counts the trials that produced a result; ``failures``
    counts the trials lost to errors/timeouts after recovery.  A cell
    whose every trial failed reports NaN aggregates.
    """

    name: str
    ntt_mean: float
    ntt_std: float
    final_cost_mean: float
    final_cost_std: float
    total_time_mean: float
    converged_fraction: float
    trials: int
    failures: int = 0

    def row(self) -> list[object]:
        return [
            self.name,
            self.ntt_mean,
            self.ntt_std,
            self.final_cost_mean,
            self.converged_fraction,
        ]


@dataclass(frozen=True)
class SweepResult:
    """All cells of one sweep, plus the per-trial failure ledger."""

    cells: tuple[CellStats, ...]
    trial_seeds: tuple[int, ...]
    meta: dict = field(default_factory=dict)
    #: trials that produced no result after recovery (empty for a clean run)
    failures: tuple[TrialFailure, ...] = ()

    def __getitem__(self, name: str) -> CellStats:
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise KeyError(f"no cell named {name!r}; have {[c.name for c in self.cells]}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.cells)

    def best_by_ntt(self) -> CellStats:
        return min(self.cells, key=lambda c: c.ntt_mean)

    def rows(self) -> list[list[object]]:
        return [c.row() for c in self.cells]

    def to_dict(self) -> dict:
        return {
            "cells": [vars(c) for c in self.cells],
            "trial_seeds": list(self.trial_seeds),
            "meta": {k: _json_safe(v) for k, v in self.meta.items()},
            "failures": [f.to_dict() for f in self.failures],
        }


def _json_safe(value):
    """Coerce a meta value to a JSON-native type, losslessly where possible.

    Ints/floats/bools/strings/None pass through (NumPy scalars unwrapped),
    lists/tuples/dicts recurse; anything else falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def _sweep_metrics(events: list[dict], meta: dict) -> MetricsRegistry:
    """Reduce a merged trace to the ``meta["obs"]`` aggregate metrics."""
    registry = MetricsRegistry()
    for event in events:
        kind = event["kind"]
        if kind == "trial.start" and event.get("wait_s") is not None:
            registry.observe("queue_wait_s", event["wait_s"])
        elif kind == "trial.end" and event.get("dur_s") is not None:
            registry.observe("trial_latency_s", event["dur_s"])
        elif kind == "trial.settled":
            if event.get("status") == "ok":
                registry.inc("trials_ok")
                registry.observe("trial_total_time", event["total_time"])
            else:
                registry.inc("trials_failed")
                registry.inc("failures_" + event.get("fail_kind", "unknown"))
        elif kind == "retry.dispatch":
            registry.inc("retries_dispatched")
        elif kind == "worker.lost":
            registry.inc("workers_lost")
        elif kind == "fault.injected":
            registry.inc("faults_injected")
        elif kind == "shm.export":
            registry.inc("shm_broadcast_bytes", event.get("total_bytes", 0))
            registry.inc("shm_segments", event.get("n_segments", 0))
    db = meta.get("db_cache")
    if db is not None:
        queries = db.get("n_exact", 0) + db.get("n_interpolated", 0)
        if queries:
            registry.gauge(
                "db_cache_hit_rate", db.get("n_memo_hits", 0) / queries
            )
    return registry


def run_sweep(
    cells: Mapping[str, SessionFactory] | Sequence[tuple[str, SessionFactory]],
    *,
    trials: int,
    rng: int | np.random.Generator | None = None,
    collect: Callable[[SessionResult], None] | None = None,
    executor: str | Executor = "serial",
    jobs: int | None = None,
    failure_policy: str = "raise",
    retries: int | None = None,
    task_timeout: float | None = None,
    faults: FaultPlan | None = None,
    cache_stats: object | None = None,
    trace: str | Path | None = None,
) -> SweepResult:
    """Run every cell for *trials* paired-seed sessions and aggregate.

    Parameters
    ----------
    cells:
        Mapping (or ordered pairs) of cell name → session factory.  The
        factory receives the trial's seed and must build a *fresh* tuner and
        session (sessions are single-use).
    trials:
        Trials per cell; the same seed sequence is replayed for every cell.
    collect:
        Optional hook called with every successful :class:`SessionResult`
        (e.g. to archive them with ``result.to_json()``).  Hooks always
        observe results in deterministic (cell-major, trial-minor) order,
        whatever the executor; failed trials are skipped.
    executor:
        ``"serial"`` (default), ``"process"``, or a pre-configured
        :class:`~repro.experiments.parallel.Executor`.  The master RNG
        draws the trial-seed vector once up front either way, so every
        executor produces a bit-identical :class:`SweepResult` for the
        same ``rng``.  Process execution requires picklable factories.
    jobs:
        Worker count for the process executor (default: all CPUs).
    failure_policy:
        ``"raise"`` (default) aborts on the first failed trial — the
        historical behavior; ``"skip"`` drops failed trials from the
        aggregates and records them in ``SweepResult.failures``;
        ``"retry"`` re-dispatches failed trials (same seed, incremented
        attempt) before skipping survivors-of-retry.
    retries:
        Extra recovery rounds for failed tasks (default: 2 under
        ``"retry"``, 0 otherwise).
    task_timeout:
        Per-trial wall-clock allowance in seconds; an over-budget trial is
        abandoned and handled per *failure_policy* (under ``"retry"`` it
        is re-dispatched — the straggler pass).
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected at the worker:
        deterministic per-(cell, trial, attempt) crashes/hangs/NaNs/
        slowdowns for testing and resilience experiments.
    cache_stats:
        Optional object exposing ``cache_stats() -> dict[str, int]`` (e.g.
        the :class:`~repro.apps.database.PerformanceDatabase` the cells
        share): the sweep snapshots it before and after and reports the
        counter deltas under ``SweepResult.meta["db_cache"]``.  Serial
        executor only (any other raises ``ValueError``): process workers
        query their own *copies* of the database, so their hits never
        reach the parent's counters.
    trace:
        Optional path for a JSONL trace of the whole sweep.  Every worker
        records typed events (trial lifecycle, session steps, tuner
        phases, injected faults) into per-worker shard files; the runner
        merges them with its own dispatch/verdict events into one
        canonically ordered file and snapshots aggregate metrics into
        ``SweepResult.meta["obs"]``.  ``None`` (the default) keeps every
        instrumentation site a single ``is None`` check.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if failure_policy not in FAILURE_POLICIES:
        raise ValueError(
            f"unknown failure_policy {failure_policy!r}; known: {FAILURE_POLICIES}"
        )
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task_timeout must be > 0 seconds, got {task_timeout}")
    if retries is None:
        retries = 2 if failure_policy == "retry" else 0
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    items = list(cells.items()) if isinstance(cells, Mapping) else list(cells)
    if not items:
        raise ValueError("need at least one cell")
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate cell names: {names}")
    exec_ = make_executor(executor, jobs)
    if cache_stats is not None and not isinstance(exec_, SerialExecutor):
        raise ValueError(
            "cache_stats needs the serial executor: process workers query "
            f"their own copies of the database, got executor {exec_.name!r}"
        )
    master = as_generator(rng)
    trial_seeds = [int(s) for s in master.integers(0, 2**63 - 1, size=trials)]
    keep_results = collect is not None
    tracer: obs_trace.Tracer | None = None
    shard_spec: dict | None = None
    shard_dir: str | None = None
    t_start = 0.0
    if trace is not None:
        tracer = obs_trace.Tracer(label="sweep")
        shard_dir = tempfile.mkdtemp(prefix="repro-obs-")
        shard_spec = {"dir": shard_dir}
        obs_trace._adopt_worker_tracer(shard_spec, tracer)
        exec_.tracer = tracer
        t_start = time.time()
    dispatch_ts = time.time() if tracer is not None else None
    tasks = [
        SweepTask(
            cell_index=c,
            cell_name=name,
            trial_index=t,
            seed=seed,
            factory=factory,
            keep_result=keep_results,
            timeout=task_timeout,
            faults=faults,
            trace=shard_spec,
            dispatch_ts=dispatch_ts,
        )
        for c, (name, factory) in enumerate(items)
        for t, seed in enumerate(trial_seeds)
    ]
    if tracer is not None:
        tracer.emit(
            "sweep.start",
            n_cells=len(items),
            trials=trials,
            cell_names=[name for name, _ in items],
            executor=exec_.name,
            failure_policy=failure_policy,
            retries=retries,
            task_timeout=task_timeout,
            trial_seeds=list(trial_seeds),
        )
    if cache_stats is not None and not callable(
        getattr(cache_stats, "cache_stats", None)
    ):
        raise TypeError(
            "cache_stats must expose a cache_stats() method, got "
            f"{type(cache_stats).__name__}"
        )
    stats_before = dict(cache_stats.cache_stats()) if cache_stats is not None else None
    emit = (lambda outcome: collect(outcome.result)) if keep_results else None
    try:
        results = execute_ordered(
            exec_, tasks, emit, failure_policy=failure_policy, retries=retries
        )
    except BaseException:
        if tracer is not None:
            exec_.tracer = None
            obs_trace._forget_worker_tracer(shard_spec)
            shutil.rmtree(shard_dir, ignore_errors=True)
        raise
    all_failures: list[TrialFailure] = []
    stats: list[CellStats] = []
    for c, (name, _) in enumerate(items):
        cell_results = results[c * trials : (c + 1) * trials]
        survived = [r for r in cell_results if isinstance(r, TrialOutcome)]
        failed = [r for r in cell_results if isinstance(r, TrialFailure)]
        all_failures.extend(failed)
        if survived:
            ntts = np.array([o.ntt for o in survived], dtype=float)
            finals = np.array([o.final_cost for o in survived], dtype=float)
            totals = np.array([o.total_time for o in survived], dtype=float)
            converged = sum(o.converged for o in survived)
            stats.append(
                CellStats(
                    name=name,
                    ntt_mean=float(ntts.mean()),
                    ntt_std=float(ntts.std()),
                    final_cost_mean=float(np.nanmean(finals)),
                    final_cost_std=float(np.nanstd(finals)),
                    total_time_mean=float(totals.mean()),
                    converged_fraction=converged / len(survived),
                    trials=len(survived),
                    failures=len(failed),
                )
            )
        else:
            stats.append(
                CellStats(
                    name=name,
                    ntt_mean=float("nan"),
                    ntt_std=float("nan"),
                    final_cost_mean=float("nan"),
                    final_cost_std=float("nan"),
                    total_time_mean=float("nan"),
                    converged_fraction=0.0,
                    trials=0,
                    failures=len(failed),
                )
            )
    meta: dict = {"trials": trials, "failure_policy": failure_policy}
    if retries:
        meta["retries"] = retries
    if task_timeout is not None:
        meta["task_timeout"] = task_timeout
    if all_failures:
        meta["n_failed"] = len(all_failures)
    if stats_before is not None:
        after = dict(cache_stats.cache_stats())
        # Monotone counters report the sweep's delta; gauges (memo_len)
        # report the final value.
        meta["db_cache"] = {
            key: value - stats_before.get(key, 0) if key.startswith("n_") else value
            for key, value in after.items()
        }
    if tracer is not None:
        best = min(stats, key=lambda c: c.ntt_mean)
        tracer.emit(
            "sweep.end",
            n_failed=len(all_failures),
            best=best.name,
            dur_s=time.time() - t_start,
        )
        exec_.tracer = None
        events = obs_trace.canonical_events(
            tracer.drain() + obs_trace.read_shards(shard_dir), strip=False
        )
        obs_trace._forget_worker_tracer(shard_spec)
        shutil.rmtree(shard_dir, ignore_errors=True)
        obs_trace.write_jsonl(events, trace)
        meta["obs"] = {
            "trace_path": str(trace),
            "n_events": len(events),
            "metrics": _sweep_metrics(events, meta).snapshot(),
        }
    return SweepResult(
        cells=tuple(stats),
        trial_seeds=tuple(trial_seeds),
        meta=meta,
        failures=tuple(all_failures),
    )
