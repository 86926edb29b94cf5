"""Injection wrappers: broken substrates and dropped client connections.

:class:`FaultyEvaluator` generalizes the ad-hoc ``BrokenEvaluator`` stubs
the test suite used to carry: it wraps a real substrate (or a bare cost
function) and misbehaves on a configurable window of waves.  Because it is
a plain picklable object it also works inside process-pool workers, which
is how :func:`repro.experiments.parallel.run_trial` degrades a session
whose task drew a ``nan`` or ``slowdown`` fault.

:class:`DroppingTransport` injects on the serving path: a client
connection that dies on the schedule of
:meth:`~repro.faults.FaultPlan.conn_drop_at`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.harmony.evaluator import DelegatingEvaluator, Evaluator
from repro.obs.trace import emit as _obs_emit

__all__ = [
    "DroppingTransport",
    "FaultyEvaluator",
    "dropping_factory",
]


class FaultyEvaluator(DelegatingEvaluator):
    """Wraps a substrate and misbehaves on schedule.

    Parameters
    ----------
    inner:
        The real substrate — an :class:`Evaluator` or a bare cost callable
        (wrapped in a noise-free :class:`FunctionEvaluator`).
    mode:
        What goes wrong on an active wave: ``"nan"``, ``"negative"``,
        ``"wrong_shape"``, ``"bad_barrier"`` (invalid observations the
        session must reject), ``"raises"`` (the substrate goes away), or
        ``"slowdown"`` (observations scaled by *factor* — a straggler that
        still answers).
    after, times:
        The active window: waves ``[after, after + times)`` misbehave
        (``times=None`` = every wave from *after* on).  Defaults inject
        from the very first wave, matching the historical BrokenEvaluator.
    """

    MODES = ("nan", "negative", "wrong_shape", "bad_barrier", "raises", "slowdown")

    #: Faults are injected by intercepting ``observe_wave``, so the
    #: session's batched ``observe_waves`` fast path must stay off —
    #: it would route observations around the interception and the
    #: scheduled fault would silently never fire.  Explicit here (rather
    #: than inherited) because it is a correctness requirement, not a
    #: missing optimization.
    supports_precomputed = False

    def __init__(
        self,
        inner: Evaluator | Callable[[np.ndarray], float],
        *,
        mode: str,
        after: int = 0,
        times: int | None = None,
        factor: float = 4.0,
        message: str = "substrate went away",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown fault mode {mode!r}; known: {self.MODES}")
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1 (or None), got {times}")
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        super().__init__(inner)
        self.mode = mode
        self.after = int(after)
        self.times = times if times is None else int(times)
        self.factor = float(factor)
        self.message = message
        self._wave_index = 0

    def observe_wave(
        self, points: Sequence[np.ndarray], rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        wave = self._wave_index
        self._wave_index += 1
        active = wave >= self.after and (
            self.times is None or wave < self.after + self.times
        )
        if not active:
            return self.inner.observe_wave(points, rng)
        _obs_emit("fault.fire", mode=self.mode, wave=wave)
        n = len(points)
        if self.mode == "raises":
            raise OSError(self.message)
        if self.mode == "nan":
            return np.full(n, np.nan), 1.0
        if self.mode == "negative":
            return np.full(n, -1.0), 1.0
        if self.mode == "wrong_shape":
            return np.ones(n + 3), 1.0
        if self.mode == "bad_barrier":
            # observations fine, barrier below the wave max: inconsistent
            return np.full(n, 5.0), 1.0
        # slowdown: the substrate answers, just late — scale both the
        # observations and the barrier so the record stays self-consistent
        y, t_step = self.inner.observe_wave(points, rng)
        return np.asarray(y, dtype=float) * self.factor, float(t_step) * self.factor


class DroppingTransport:
    """Client-transport injection: connections that die on schedule.

    Wraps a real :class:`~repro.harmony.transport.Transport` and consults
    :meth:`FaultPlan.conn_drop_at` per request: a scheduled drop *delivers
    the request* to the inner transport, discards the response, closes the
    connection, and raises :class:`ConnectionError` — the lost-ACK case,
    the harshest one for exactly-once semantics (a drop before delivery is
    strictly easier).  Pair with ``TuningClient(transport_factory=
    dropping_factory(...))``: each reconnection mints a fresh epoch with
    its own deterministic drop schedule, so the client's reconnect-and-
    replay path is exercised without a real server ever being killed.

    Binary negotiation is deliberately not forwarded (``supports_binary``
    stays False): drops then interleave with plain JSON requests, which
    keeps the injected schedule aligned with request indices.
    """

    def __init__(self, inner, plan: FaultPlan, epoch: int = 0) -> None:
        self.inner = inner
        self.plan = plan
        self.epoch = int(epoch)
        self._n = 0

    def _scheduled(self) -> bool:
        index = self._n
        self._n += 1
        return self.plan.conn_drop_at(self.epoch, index)

    def _drop(self, deliver: Callable[[], object]) -> None:
        try:
            deliver()
        except Exception:  # the connection may genuinely be gone already
            pass
        self.close()
        raise ConnectionError(
            f"injected connection drop (epoch {self.epoch}, "
            f"request {self._n - 1})"
        )

    def request(self, message):
        if self._scheduled():
            self._drop(lambda: self.inner.request(message))
        return self.inner.request(message)

    def request_many(self, messages):
        if self._scheduled():
            self._drop(lambda: self.inner.request_many(messages))
        return self.inner.request_many(messages)

    def close(self) -> None:
        self.inner.close()


def dropping_factory(make: Callable, plan: FaultPlan) -> Callable:
    """A ``transport_factory`` whose connections drop per *plan*.

    Each call (i.e. each client reconnection) wraps a fresh transport from
    *make* in a :class:`DroppingTransport` with the next epoch index.
    """
    from itertools import count as _count

    epochs = _count()

    def factory():
        return DroppingTransport(make(), plan, next(epochs))

    return factory
