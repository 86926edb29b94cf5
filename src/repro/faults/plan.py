"""Seedable per-task fault schedules.

A :class:`FaultPlan` answers one question: *what goes wrong for attempt
``a`` of task ``(cell, trial)``?*  The answer is drawn from a generator
seeded by ``SeedSequence([plan_seed, 0, cell, trial, attempt])``, which makes
the schedule

* **deterministic** — the same plan seed always yields the same faults;
* **order-independent** — the decision for one task never consumes
  entropy another task observes, so the serial and process executors
  (and any completion order) see identical schedules;
* **retry-aware** — the attempt index is part of the key, and attempts
  at or beyond ``max_faulty_attempts`` are always clean, so a bounded
  retry loop is guaranteed to converge on an injected (as opposed to
  real) fault.

Injection never touches the session's own RNG stream: a crashed/hung/NaN
attempt dies before delivering a result, and the clean retry rebuilds the
session from its original seed — so the surviving outcome is bit-identical
to a run that was never faulted at all.  (The one exception is
``slowdown``, which deliberately *succeeds* with scaled observations to
model stragglers; it too is deterministic per task and attempt.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FAULT_KINDS", "FaultPlan", "InjectedFault"]

#: everything a plan can schedule, in band order
FAULT_KINDS = ("crash", "hang", "nan", "slowdown")


class InjectedFault(RuntimeError):
    """Raised by deliberately injected crashes (never by real bugs)."""


@dataclass(frozen=True)
class FaultPlan:
    """Per-task crash/hang/NaN/slowdown schedule, seeded and replayable.

    Each rate is the marginal probability that a *faulty-eligible* attempt
    of a task draws that fault; rates partition one uniform draw, so they
    must sum to at most 1.  ``max_faulty_attempts`` bounds how many leading
    attempts of a task may misbehave — attempt indices at or beyond it are
    always clean, which is what lets ``failure_policy="retry"`` terminate.
    """

    seed: int
    crash: float = 0.0
    hang: float = 0.0
    nan: float = 0.0
    slowdown: float = 0.0
    #: serving-layer rates (independent draws, not part of the trial-fault
    #: band partition): probability that a given request index kills the
    #: server process / drops the client's connection.  Consumed by the
    #: durability tests and :class:`~repro.faults.DroppingTransport`.
    server_crash: float = 0.0
    conn_drop: float = 0.0
    #: attempts >= this index never fault (1 = only first attempts fault)
    max_faulty_attempts: int = 1
    #: how long an injected hang sleeps (a straggler, not an infinite wedge)
    hang_seconds: float = 30.0
    #: multiplier applied to observed times by ``slowdown`` faults
    slowdown_factor: float = 4.0

    def __post_init__(self) -> None:
        for name in FAULT_KINDS:
            rate = getattr(self, name)
            if not np.isfinite(rate) or not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} rate must lie in [0, 1], got {rate!r}")
        total = self.crash + self.hang + self.nan + self.slowdown
        if total > 1.0 + 1e-12:
            raise ValueError(f"fault rates must sum to <= 1, got {total}")
        for name in ("server_crash", "conn_drop"):
            rate = getattr(self, name)
            if not np.isfinite(rate) or not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} rate must lie in [0, 1], got {rate!r}")
        if self.max_faulty_attempts < 0:
            raise ValueError(
                f"max_faulty_attempts must be >= 0, got {self.max_faulty_attempts}"
            )
        if not np.isfinite(self.hang_seconds) or self.hang_seconds <= 0:
            raise ValueError(f"hang_seconds must be > 0, got {self.hang_seconds}")
        if not np.isfinite(self.slowdown_factor) or self.slowdown_factor <= 0:
            raise ValueError(
                f"slowdown_factor must be > 0, got {self.slowdown_factor}"
            )

    # -- the schedule ----------------------------------------------------------

    # Each schedule draws from its own SeedSequence domain, the key's
    # second word: 0 for trial faults, 2 for server crashes and 3 for
    # connection drops.  Changing one moves that schedule.

    def fault_for(
        self, cell_index: int, trial_index: int, attempt: int = 0
    ) -> str | None:
        """The fault (or None) for attempt *attempt* of task (cell, trial).

        One uniform draw, partitioned into the fault bands in
        :data:`FAULT_KINDS` order.
        """
        if attempt >= self.max_faulty_attempts:
            return None
        ss = np.random.SeedSequence(
            [int(self.seed), 0, int(cell_index), int(trial_index), int(attempt)]
        )
        u = float(np.random.default_rng(ss).random())
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if u < rate:
                return kind
            u -= rate
        return None

    def expected_fault_rate(self) -> float:
        """Marginal probability a first attempt draws *any* fault."""
        return self.crash + self.hang + self.nan + self.slowdown

    # -- serving-layer faults ----------------------------------------------------

    def server_crash_at(self, event_index: int) -> bool:
        """Whether the *event_index*-th durability event kills the server.

        Keyed only by the event index, so the schedule is identical no
        matter which client's request produced the event — the paired
        baseline run (``server_crash=0``) sees the same request stream.
        """
        if self.server_crash <= 0.0:
            return False
        ss = np.random.SeedSequence([int(self.seed), 2, int(event_index)])
        return float(np.random.default_rng(ss).random()) < self.server_crash

    def conn_drop_at(self, conn_index: int, request_index: int) -> bool:
        """Whether request *request_index* on connection *conn_index* drops.

        Drives :class:`~repro.faults.DroppingTransport`: the draw is keyed
        by (connection, request), so every reconnection epoch replays a
        fresh — but deterministic — drop schedule.
        """
        if self.conn_drop <= 0.0:
            return False
        ss = np.random.SeedSequence(
            [int(self.seed), 3, int(conn_index), int(request_index)]
        )
        return float(np.random.default_rng(ss).random()) < self.conn_drop
