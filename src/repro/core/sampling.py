"""Multi-sample estimators for noisy performance measurements (paper §5).

Under heavy-tailed variability, the sample *average* need not converge (a
Pareto(α<2) noise term has infinite variance; for α<1 even the mean is
infinite).  The paper's estimator of choice is the **minimum**: for
``y_k = f(v) + n_k(v)``,

.. math:: L_y^{(K)}(v) = \\min_k y_k = f(v) + \\min_k n_k(v)

converges (in probability, geometrically fast — Eq. 20) to the deterministic
floor ``f(v) + n_min(v)``.  When ``n_min`` is an increasing function of
``f`` — which the two-job model's Eq. (17) guarantees — comparing min
estimates orders configurations exactly like comparing true costs (§5.1).

The mean and median estimators are provided for the ablation studies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Estimator",
    "MinEstimator",
    "MeanEstimator",
    "MedianEstimator",
    "PercentileEstimator",
    "ESTIMATORS",
    "SamplingPlan",
]


class Estimator(ABC):
    """Reduces K samples of one configuration to a single estimate."""

    name: str = "estimator"

    @abstractmethod
    def combine(self, samples: np.ndarray) -> float:
        """Combine a 1-D sample array into one estimate."""

    def combine_batch(self, samples: np.ndarray) -> np.ndarray:
        """Combine each row of a (points × K) sample matrix.

        Subclasses override with a single axis-1 reduction; overrides must
        agree with :meth:`combine` row-by-row (the session relies on that
        to take the vectorized path without changing results).
        """
        return np.array(
            [self.combine(row) for row in self._matrix(samples)], dtype=float
        )

    @staticmethod
    def _matrix(samples: np.ndarray) -> np.ndarray:
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D (points, K) matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        return arr

    @staticmethod
    def _validate(samples: np.ndarray) -> np.ndarray:
        arr = np.asarray(samples, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("cannot combine an empty sample set")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        return arr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class MinEstimator(Estimator):
    """The paper's min operator L_y^(K) (§5.1) — heavy-tail resilient."""

    name = "min"

    def combine(self, samples: np.ndarray) -> float:
        return float(self._validate(samples).min())

    def combine_batch(self, samples: np.ndarray) -> np.ndarray:
        return self._matrix(samples).min(axis=1)


class MeanEstimator(Estimator):
    """The conventional average — fails under infinite variance (§5.1)."""

    name = "mean"

    def combine(self, samples: np.ndarray) -> float:
        return float(self._validate(samples).mean())

    def combine_batch(self, samples: np.ndarray) -> np.ndarray:
        return self._matrix(samples).mean(axis=1)


class MedianEstimator(Estimator):
    """Robust middle ground: bounded influence, but a biased locator of f."""

    name = "median"

    def combine(self, samples: np.ndarray) -> float:
        return float(np.median(self._validate(samples)))

    def combine_batch(self, samples: np.ndarray) -> np.ndarray:
        return np.median(self._matrix(samples), axis=1)


class PercentileEstimator(Estimator):
    """Generalized order-statistic estimator; q=0 recovers the minimum."""

    def __init__(self, q: float) -> None:
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile q must lie in [0, 100], got {q}")
        self.q = float(q)
        self.name = f"p{q:g}"

    def combine(self, samples: np.ndarray) -> float:
        return float(np.percentile(self._validate(samples), self.q))

    def combine_batch(self, samples: np.ndarray) -> np.ndarray:
        return np.percentile(self._matrix(samples), self.q, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PercentileEstimator(q={self.q})"


#: estimators addressable by name: the CLI's ``--estimator``, the
#: ``open_session`` op and the plan spec of a WAL snapshot
ESTIMATORS: dict[str, type[Estimator]] = {
    "min": MinEstimator,
    "mean": MeanEstimator,
    "median": MedianEstimator,
}


@dataclass(frozen=True)
class SamplingPlan:
    """How a configuration's performance is estimated: K samples + reducer.

    ``k`` is the fixed sample count of §5.2 ("instead of evaluating f(v)
    only once, we evaluate it K times"); each sample occupies one application
    time step when taken sequentially, which is how the session charges it.
    """

    k: int = 1
    estimator: Estimator = MinEstimator()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"sample count k must be >= 1, got {self.k}")

    def combine(self, samples: np.ndarray) -> float:
        return self.estimator.combine(samples)

    def combine_batch(self, samples: np.ndarray) -> np.ndarray:
        return self.estimator.combine_batch(samples)
