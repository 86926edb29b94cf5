"""Reference implementations, kept as test oracles.

Three production paths in :mod:`repro` each run one fast kernel.  Each
kernel has a slow, plainly correct twin here, and the tests and the
bench-smoke arms require the two to agree bit for bit:

* :class:`HeapMachine` / :class:`HeapCluster` — the cluster node on a
  per-event merge heap, the reference for
  :class:`~repro.cluster.machine.PriorityMachine`'s event-horizon kernel;
* :func:`per_wave` — an evaluator that sends a
  :class:`~repro.harmony.session.TuningSession` down its per-wave
  ``observe_wave`` loop, the reference for the batch path through
  ``observe_waves``;
* :func:`absorb_reports_scalar` — one ``_absorb_one`` call per report,
  in order, the reference for the server session's vectorized
  ``_absorb_reports``.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import PriorityMachine, _bad_event, _EventBuffer
from repro.harmony.evaluator import DelegatingEvaluator, Evaluator

__all__ = ["HeapCluster", "HeapMachine", "absorb_reports_scalar", "per_wave"]


# -- the cluster node: a per-event merge heap ------------------------------------


def _next_event(buffer: _EventBuffer) -> tuple[float, float] | None:
    """Pop *buffer*'s next ``(arrival, service)``, or None when dry.

    A stream's next block is drawn only when the event after the last one
    is asked for, which fixes the order in which sources sharing one
    generator draw.
    """
    while buffer._times is None or buffer._pos >= buffer._times.size:
        try:
            buffer._times, buffer._services = next(buffer._blocks)
        except StopIteration:
            return None
        buffer._pos = 0
    i = buffer._pos
    buffer._pos = i + 1
    return float(buffer._times[i]), float(buffer._services[i])


class HeapMachine(PriorityMachine):
    """A :class:`PriorityMachine` whose kernel pops one event at a time.

    Each stream keeps its head event in a heap ordered by ``(time,
    push counter)``; absorbing an event pushes that stream's next one.
    Equal-time events from different streams therefore pop in
    least-recently-popped stream order, one per turn.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._heap: list[tuple[float, int, float, int]] = []
        self._counter = 0
        for sid in range(len(self._streams)):
            self._pull(sid)

    def _pull(self, stream_id: int) -> None:
        """Fetch the next event of *stream_id* into the heap (if any)."""
        event = _next_event(self._streams[stream_id])
        if event is None:
            return
        t, service = event
        if not (0.0 <= service < math.inf and -math.inf < t < math.inf):
            raise _bad_event(stream_id, t, service)
        self._counter += 1
        heapq.heappush(self._heap, (t, self._counter, service, stream_id))

    def _next_arrival_time(self) -> float:
        return self._heap[0][0] if self._heap else math.inf

    def _absorb_next_arrival(self) -> None:
        """Move the earliest pending event into the backlog and refill."""
        t, _, service, stream_id = heapq.heappop(self._heap)
        if t < self.clock - 1e-9:
            raise RuntimeError(
                f"event at t={t} arrived in the past (clock={self.clock})"
            )
        self.backlog += service
        self._pull(stream_id)

    def _serve(self, work: float) -> float:
        remaining = work
        while True:
            next_t = self._next_arrival_time()
            if self.backlog > 0.0:
                drain_at = self.clock + self.backlog
                if drain_at <= self.clock:
                    # Backlog below the clock's float resolution: drained.
                    self.p1_service_done += self.backlog
                    self.backlog = 0.0
                    continue
                if next_t < drain_at:
                    served = next_t - self.clock
                    # max() guards the one-ulp float leak when served was
                    # computed from clock + backlog.
                    self.backlog = max(0.0, self.backlog - served)
                    self.p1_service_done += served
                    self.clock = next_t
                    self._absorb_next_arrival()
                else:
                    self.p1_service_done += self.backlog
                    self.clock = drain_at
                    self.backlog = 0.0
            else:
                if remaining <= 0.0:
                    return self.clock
                finish_at = self.clock + remaining
                if next_t < finish_at:
                    remaining -= next_t - self.clock
                    self.clock = next_t
                    self._absorb_next_arrival()
                else:
                    self.clock = finish_at
                    remaining = 0.0
                    return self.clock

    def _advance(self, t: float) -> None:
        while self.clock < t:
            next_t = self._next_arrival_time()
            if self.backlog > 0.0:
                drain_at = self.clock + self.backlog
                if drain_at <= self.clock:
                    # Backlog below the clock's float resolution: drained.
                    self.p1_service_done += self.backlog
                    self.backlog = 0.0
                    continue
                stop_at = min(next_t, drain_at, t)
                served = stop_at - self.clock
                self.backlog = max(0.0, self.backlog - served)
                self.p1_service_done += served
                self.clock = stop_at
            else:
                self.clock = min(next_t, t)
            while self._heap and self._heap[0][0] <= self.clock:
                self._absorb_next_arrival()


class HeapCluster(Cluster):
    """A :class:`Cluster` of :class:`HeapMachine` nodes."""

    machine_class = HeapMachine


# -- the tuning session: the per-wave path ----------------------------------------


def per_wave(evaluator: Evaluator) -> Evaluator:
    """*evaluator* as the session's per-wave reference path sees it.

    An evaluator that advertises ``supports_precomputed`` comes back
    wrapped in a :class:`DelegatingEvaluator`, which does not, so the
    session observes it one ``observe_wave`` call per wave.  Any other
    evaluator already takes that path and comes back as it is.  That
    matters for a ``ClusterEvaluator``: the wrapper does not forward
    ``set_fill_point``, so a wrapped cluster would fill its idle nodes
    with the wrong point.
    """
    if not evaluator.supports_precomputed:
        return evaluator
    return DelegatingEvaluator(evaluator)


# -- the server session: in-order report absorption --------------------------------


def absorb_reports_scalar(session, tokens: np.ndarray, times: np.ndarray) -> int:
    """Absorb a validated report group into *session* one report at a time.

    The semantic spec of ``ServerSession._absorb_reports``: ``_absorb_one``
    per measurement, in order.  Returns the number of stale reports.
    """
    return sum(
        session._absorb_one(token, t)
        for token, t in zip(tokens.tolist(), times.tolist())
    )
