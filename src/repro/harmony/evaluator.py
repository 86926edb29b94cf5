"""Evaluation substrates: how candidate batches become observed times.

An :class:`Evaluator` answers one question per application time step: given
the wave of configurations the P processors are about to run, what times
were observed?  It returns both the per-point observations (the tuner's
samples) and the wave's barrier time ``T_k`` (the session's cost charge).
A substrate whose observations are a deterministic cost plus drawn noise
(``supports_precomputed``) also answers a batch's whole wave schedule in
one ``observe_waves`` call.

Three substrates:

* :class:`FunctionEvaluator` — a pure cost function plus an analytic noise
  model (the paper's §6 methodology: GS2 database + i.i.d. Pareto noise);
* :class:`DatabaseEvaluator` — convenience wrapper over
  :class:`~repro.apps.database.PerformanceDatabase`;
* :class:`ClusterEvaluator` — the event-driven two-priority-queue cluster:
  each wave is an actual barrier-synchronized iteration on the simulated
  machine, so noise comes out of queueing dynamics instead of a closed form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro._util import as_generator
from repro.apps.database import PerformanceDatabase
from repro.cluster.cluster import Cluster
from repro.variability.models import NoiseModel, NoNoise

__all__ = [
    "Evaluator",
    "DelegatingEvaluator",
    "FunctionEvaluator",
    "DatabaseEvaluator",
    "ClusterEvaluator",
]


class Evaluator(ABC):
    """Turns one wave of candidate configurations into observed times."""

    #: idle throughput of the substrate (for Normalized Total Time)
    rho: float = 0.0

    #: True when the evaluator implements ``observe_waves(f, starts, rng)``
    #: and that call may stand in for :meth:`observe_wave` — i.e. an
    #: observation is exactly (deterministic true cost) + (noise drawn from
    #: *rng* in wave order), so the session may compute true costs once per
    #: batch and observe a batch's whole wave schedule in one call.
    #: Wrappers that intercept ``observe_wave`` must leave this False or
    #: the interception would be bypassed.
    supports_precomputed: bool = False

    @abstractmethod
    def true_cost(self, point: np.ndarray) -> float:
        """Noise-free cost f(v) (bookkeeping/ground truth, never charged)."""

    def true_cost_batch(self, points: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized :meth:`true_cost` over many points.

        The default loops; substrates whose cost source understands arrays
        (the performance database, the GS2 surrogate) answer the whole
        batch in one call.  Values must be bitwise identical to the loop.
        """
        return np.array([self.true_cost(p) for p in points], dtype=float)

    @abstractmethod
    def observe_wave(
        self, points: Sequence[np.ndarray], rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        """Observe one parallel wave.

        Returns ``(times, t_step)``: per-point observed times ``y_p`` and
        the wave's barrier time ``T_k = max_p y_p`` (Eq. 1).
        """

    @property
    def max_wave_size(self) -> int | None:
        """Largest wave the substrate can run at once (None = unbounded)."""
        return None


class DelegatingEvaluator(Evaluator):
    """Base for evaluator *wrappers*: forwards everything to ``inner``.

    Decorator-style substrates (fault injectors, caches, recorders)
    subclass this and override only :meth:`observe_wave` (or whatever they
    intercept); identity queries — ``true_cost``, ``rho``,
    ``max_wave_size`` — stay in sync with the wrapped evaluator.  Accepts
    a bare cost callable for convenience, wrapping it noise-free.
    """

    def __init__(self, inner: "Evaluator | Callable[[np.ndarray], float]") -> None:
        self.inner = inner if isinstance(inner, Evaluator) else FunctionEvaluator(inner)
        self.rho = self.inner.rho

    @property
    def max_wave_size(self) -> int | None:
        return self.inner.max_wave_size

    def true_cost(self, point: np.ndarray) -> float:
        return self.inner.true_cost(point)

    def true_cost_batch(self, points: Sequence[np.ndarray]) -> np.ndarray:
        return self.inner.true_cost_batch(points)

    def observe_wave(
        self, points: Sequence[np.ndarray], rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        return self.inner.observe_wave(points, rng)


class FunctionEvaluator(Evaluator):
    """Pure cost function + analytic noise model.

    Observation decomposes as deterministic cost + analytic noise, so the
    session may precompute ``true_cost_batch`` once per ask-batch and
    observe the batch's waves in one :meth:`observe_waves` call.
    """

    supports_precomputed = True

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        noise: NoiseModel | None = None,
    ) -> None:
        self.fn = fn
        self.noise = noise if noise is not None else NoNoise()
        self.rho = self.noise.rho

    def true_cost(self, point: np.ndarray) -> float:
        return float(self.fn(np.asarray(point, dtype=float)))

    def true_cost_batch(self, points: Sequence[np.ndarray]) -> np.ndarray:
        if len(points) == 0:
            return np.empty(0, dtype=float)
        batch_fn = getattr(self.fn, "evaluate_batch", None)
        if batch_fn is None:
            batch_fn = getattr(self.fn, "batch", None)
        if batch_fn is not None:
            arr = np.asarray(points, dtype=float)
            return np.asarray(batch_fn(arr), dtype=float)
        return np.array([self.true_cost(p) for p in points], dtype=float)

    def observe_wave(
        self, points: Sequence[np.ndarray], rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        if len(points) == 0:
            raise ValueError("cannot observe an empty wave")
        f = np.array([self.true_cost(p) for p in points], dtype=float)
        y = self.noise.observe_batch(f, rng)
        return y, float(y.max())

    def observe_waves(
        self, f: np.ndarray, starts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observe successive waves whose true costs *f* were already
        computed, wave *i* being ``f[starts[i]:starts[i + 1]]`` (the last
        runs to the end).

        Returns every observation in the order of *f* and each wave's
        barrier time, the max over its slice (Eq. 1).  The noise model's
        ``observe_waves`` returns, and leaves *rng* in the state of, one
        :meth:`observe_wave` call per wave.
        """
        f = np.asarray(f, dtype=float)
        if f.size == 0:
            raise ValueError("cannot observe an empty wave")
        y = self.noise.observe_waves(f, starts, rng)
        return y, np.maximum.reduceat(y, starts)


class DatabaseEvaluator(FunctionEvaluator):
    """The paper's §6 substrate: performance database + noise model."""

    def __init__(
        self, database: PerformanceDatabase, noise: NoiseModel | None = None
    ) -> None:
        super().__init__(database, noise)
        self.database = database


class ClusterEvaluator(Evaluator):
    """Waves run as real barrier iterations on the simulated cluster.

    Each wave assigns point *i* to node *i*; when the wave is smaller than
    the cluster, the remaining nodes run ``fill_point`` (by default the
    first point of the wave — on an SPMD machine every node runs
    *something*).  The barrier time includes every node, exactly like Eq. 1.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        cluster: Cluster,
    ) -> None:
        self.fn = fn
        self.cluster = cluster
        self.rho = cluster.rho
        self._fill_point: np.ndarray | None = None

    @property
    def max_wave_size(self) -> int | None:
        return self.cluster.n_nodes

    def set_fill_point(self, point: np.ndarray | None) -> None:
        """Configuration idle nodes run (typically the incumbent best)."""
        self._fill_point = None if point is None else np.asarray(point, dtype=float)

    def true_cost(self, point: np.ndarray) -> float:
        return float(self.fn(np.asarray(point, dtype=float)))

    def observe_wave(
        self, points: Sequence[np.ndarray], rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        if len(points) == 0:
            raise ValueError("cannot observe an empty wave")
        if len(points) > self.cluster.n_nodes:
            raise ValueError(
                f"wave of {len(points)} exceeds the {self.cluster.n_nodes}-node cluster"
            )
        costs = np.empty(self.cluster.n_nodes, dtype=float)
        for p, point in enumerate(points):
            costs[p] = self.true_cost(point)
        if len(points) < self.cluster.n_nodes:
            # Every idle node runs the same fill point: price it once.
            fill = self._fill_point if self._fill_point is not None else points[0]
            costs[len(points):] = self.true_cost(fill)
        trace = self.cluster.run(costs, 1)
        times = trace.times[:, 0]
        return times[: len(points)].copy(), float(times.max())
