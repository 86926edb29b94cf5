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
* :class:`InjectedFault` — the exception raised by injected crashes,
  so tests can tell injected failures from real bugs;
* :class:`DroppingTransport` / :func:`dropping_factory` — serving-layer
  injection: client connections that die on a deterministic schedule
  (``FaultPlan.conn_drop_at``), exercising the tuning client's
  reconnect-and-replay path; ``FaultPlan.server_crash_at`` schedules
  whole-server kills for the WAL crash-recovery battery.

Sweeps inject through one layer, the executor worker, which consumes
:class:`FaultPlan` directly: ``run_sweep(faults=plan)`` gives each
:class:`~repro.experiments.parallel.SweepTask` the plan, and
:func:`~repro.experiments.parallel.run_trial` applies the fault drawn for
its (cell, trial, attempt) before and around the session — a crash or
hang before it, a ``nan`` or ``slowdown`` :class:`FaultyEvaluator`
around its evaluator.
"""

from repro.faults.plan import FAULT_KINDS, FaultPlan, InjectedFault
from repro.faults.inject import (
    DroppingTransport,
    FaultyEvaluator,
    dropping_factory,
)

__all__ = [
    "FAULT_KINDS",
    "DroppingTransport",
    "FaultPlan",
    "FaultyEvaluator",
    "InjectedFault",
    "dropping_factory",
]
