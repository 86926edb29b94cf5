"""Deterministic fault injection for sweep execution.

Real parallel machines misbehave: daemons interfere, nodes straggle,
workers crash, observations go heavy-tailed.  This package makes those
failure regimes *first-class and reproducible* so the fault-tolerance
layer in :mod:`repro.experiments.parallel` can be exercised — in tests
and in experiments — with bit-identical replays:

* :class:`FaultPlan` — a seedable per-task fault schedule.  Every
  decision is a pure function of ``(plan seed, cell, trial, attempt)``
  driven by a spawned :class:`numpy.random.SeedSequence`, so injection
  composes with paired seeding, is independent of execution order, and
  replays identically on the serial and process executors;
* :class:`FaultyEvaluator` — evaluator-layer injection: wraps any
  substrate and misbehaves on schedule (NaN / negative / mis-shaped
  observations, inconsistent barriers, raised exceptions, slowdowns);
* :class:`FaultyFactory` — session-factory-layer injection: wraps a
  sweep cell factory and crashes/hangs/degrades sessions per plan;
* :class:`InjectedFault` — the exception raised by injected crashes,
  so tests can tell injected failures from real bugs;
* :class:`DroppingTransport` / :func:`dropping_factory` — serving-layer
  injection: client connections that die on a deterministic schedule
  (``FaultPlan.conn_drop_at``), exercising the tuning client's
  reconnect-and-replay path; ``FaultPlan.server_crash_at`` schedules
  whole-server kills for the WAL crash-recovery battery.

The executor-worker layer consumes :class:`FaultPlan` directly: a
:class:`~repro.experiments.parallel.SweepTask` carries an optional
``faults`` plan which :func:`~repro.experiments.parallel.run_trial`
applies before and around the session.
"""

from repro.faults.plan import FAULT_KINDS, FaultPlan, InjectedFault
from repro.faults.inject import (
    DroppingTransport,
    FaultyEvaluator,
    FaultyFactory,
    dropping_factory,
)

__all__ = [
    "FAULT_KINDS",
    "DroppingTransport",
    "FaultPlan",
    "FaultyEvaluator",
    "FaultyFactory",
    "InjectedFault",
    "dropping_factory",
]
