"""A tiny metrics registry: counters, gauges, histograms.

The sweep runner aggregates what a trace records event-by-event into a
handful of numbers cheap enough to ship inside ``SweepResult.meta["obs"]``:
how many trials ran/failed (by kind), how long probes took, how long tasks
queued, how many bytes the shared-memory broadcast moved, how well the
database memo performed.  Zero dependencies, JSON-native snapshots.

Histograms keep raw samples (sweeps observe at most a few thousand values)
and summarize them at snapshot time; quantiles use the same linear
interpolation as ``np.quantile`` defaults.  Long-running recorders — the
tuning server observes one latency sample per request, indefinitely — pass
``max_samples`` to turn each histogram into a sliding window of the most
recent values instead of an unbounded list.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = ["MetricsRegistry"]

#: quantiles reported for every histogram
_QUANTILES = (0.5, 0.9, 0.99)


class MetricsRegistry:
    """Counters, gauges, and sample-backed histograms behind one lock.

    The lock is uncontended in the sweep runner — it records from the
    parent only, at trial granularity — but makes the registry safe to
    share between threads, e.g. a server and its Prometheus endpoint.

    ``max_samples=None`` (the default) keeps every observed sample;
    a positive cap keeps only the most recent *max_samples* per histogram
    (``total`` in the snapshot still counts all observations).
    """

    def __init__(self, *, max_samples: int | None = None) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._samples: dict[str, deque[float]] = {}
        self._observed: dict[str, int] = {}

    def inc(self, name: str, by: int = 1) -> None:
        """Increment counter *name* (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(by)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Add one sample to histogram *name* (a sliding window when capped)."""
        with self._lock:
            buf = self._samples.get(name)
            if buf is None:
                buf = self._samples[name] = deque(maxlen=self.max_samples)
            buf.append(float(value))
            self._observed[name] = self._observed.get(name, 0) + 1

    def snapshot(self) -> dict:
        """JSON-safe summary of everything recorded so far.

        ``{"counters": {...}, "gauges": {...}, "histograms": {name:
        {count, min, max, mean, p50, p90, p99}}}``, keys sorted so equal
        recordings serialize identically.
        """
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
            samples = {k: list(v) for k, v in sorted(self._samples.items())}
            observed = dict(self._observed)
        histograms = {}
        for name, values in samples.items():
            arr = np.asarray(values, dtype=float)
            finite = arr[np.isfinite(arr)]
            summary = {"count": int(arr.size)}
            if observed.get(name, arr.size) != arr.size:
                # The window dropped old samples; expose the true total too.
                summary["total"] = int(observed[name])
            if finite.size:
                summary.update(
                    min=float(finite.min()),
                    max=float(finite.max()),
                    mean=float(finite.mean()),
                )
                for q in _QUANTILES:
                    summary[f"p{int(q * 100)}"] = float(np.quantile(finite, q))
            histograms[name] = summary
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
