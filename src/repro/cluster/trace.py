"""Per-processor iteration-time traces from a simulated cluster run.

A trace holds ``times[p, k]`` — the wall-clock duration of iteration *k* on
processor *p* — plus the barrier times.  It derives the paper's metrics:

* ``iteration_maxima()`` — ``T_k = max_p t_{p,k}`` (Eq. 1);
* ``total_time()`` — ``Σ_k T_k`` (Eq. 2);
* the flattened sample set used by the heavy-tail diagnostics (Figs. 4–7);
* the cross-processor correlation matrix (the Fig. 3 similarity claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ClusterTrace"]


@dataclass(frozen=True)
class ClusterTrace:
    """Result of :meth:`repro.cluster.Cluster.run`."""

    #: iteration durations, shape (P, K)
    times: np.ndarray
    #: barrier completion times on the cluster clock, shape (K,): on a
    #: fresh cluster barrier_times[k] = Σ_{j<=k} T_j
    barrier_times: np.ndarray
    #: idle throughput ρ of the cluster configuration that produced the trace
    rho: float = 0.0
    #: free-form provenance notes (workload description, seed, ...)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        barriers = np.asarray(self.barrier_times, dtype=float)
        if times.ndim != 2:
            raise ValueError(f"times must be 2-D (P, K), got shape {times.shape}")
        if barriers.shape != (times.shape[1],):
            raise ValueError(
                f"barrier_times shape {barriers.shape} does not match K={times.shape[1]}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "barrier_times", barriers)

    # -- shape ------------------------------------------------------------------

    @property
    def n_processors(self) -> int:
        return int(self.times.shape[0])

    @property
    def n_iterations(self) -> int:
        return int(self.times.shape[1])

    # -- the paper's metrics -------------------------------------------------------

    def iteration_maxima(self) -> np.ndarray:
        """T_k = max_p t_{p,k} (Eq. 1)."""
        return self.times.max(axis=0)

    def total_time(self) -> float:
        """Total_Time(K) = Σ_k T_k (Eq. 2)."""
        return float(self.iteration_maxima().sum())

    def normalized_total_time(self) -> float:
        """NTT = (1-ρ)·Total_Time (Eq. 23)."""
        return (1.0 - self.rho) * self.total_time()

    def processor_series(self, p: int) -> np.ndarray:
        """Iteration-time series of processor *p* (one curve of Fig. 3)."""
        if not (0 <= p < self.n_processors):
            raise IndexError(f"processor {p} out of range [0, {self.n_processors})")
        return self.times[p].copy()

    def flatten(self) -> np.ndarray:
        """All P×K samples pooled — the data set behind Figs. 4–7."""
        return self.times.ravel().copy()

    # -- structure diagnostics ---------------------------------------------------

    def correlation_matrix(self) -> np.ndarray:
        """Pearson correlation of iteration times across processors.

        The paper observes "high correlation and similarity between the
        curves" of different processors; cluster-wide shared events produce
        exactly that signature.  Degenerate (constant) series correlate as 0.
        """
        x = self.times
        std = x.std(axis=1)
        safe = np.where(std > 0, std, 1.0)
        centered = (x - x.mean(axis=1, keepdims=True)) / safe[:, None]
        corr = centered @ centered.T / x.shape[1]
        corr[std == 0, :] = 0.0
        corr[:, std == 0] = 0.0
        np.fill_diagonal(corr, 1.0)
        return corr

    def mean_cross_correlation(self) -> float:
        """Average off-diagonal correlation — one number for the Fig. 3 claim."""
        corr = self.correlation_matrix()
        p = corr.shape[0]
        if p < 2:
            return 0.0
        off = corr[~np.eye(p, dtype=bool)]
        return float(off.mean())

    def spike_counts(self, small: float = 2.0, big: float = 5.0) -> tuple[int, int]:
        """Count (small, big) spikes relative to the pooled median.

        A sample is a *small spike* when it exceeds ``small × median`` but not
        ``big × median``, and a *big spike* above ``big × median`` — the two
        populations visible in Fig. 3.
        """
        if not (0 < small < big):
            raise ValueError(f"need 0 < small < big, got {small}, {big}")
        data = self.flatten()
        med = float(np.median(data))
        n_big = int(np.sum(data > big * med))
        n_small = int(np.sum(data > small * med)) - n_big
        return n_small, n_big

    def summary(self) -> dict:
        """Headline numbers for reports and benches."""
        data = self.flatten()
        n_small, n_big = self.spike_counts()
        return {
            "processors": self.n_processors,
            "iterations": self.n_iterations,
            "total_time": self.total_time(),
            "median_iteration": float(np.median(data)),
            "max_iteration": float(data.max()),
            "small_spikes": n_small,
            "big_spikes": n_big,
            "mean_cross_correlation": self.mean_cross_correlation(),
            "rho": self.rho,
        }
