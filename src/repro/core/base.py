"""The ask/tell batch-tuner protocol.

Search algorithms in :mod:`repro` never evaluate the objective themselves;
they *ask* for a batch of candidate configurations and are later *told* the
performance estimates.  The evaluation substrate
(:mod:`repro.harmony.session`) owns everything the paper's online metric
depends on: mapping batches onto P processors, charging one application time
step per wave (``T_k = max`` barrier semantics), taking K samples per point,
and reducing them with the chosen estimator.

This split keeps Algorithm 2 a pure search loop and makes ``Total_Time``
unfakeable — a tuner cannot evaluate more points than it pays for.

Contract:

* ``ask()`` returns the next batch of points (possibly a single point for
  sequential algorithms, or ``[]`` once converged);
* ``tell(values)`` delivers estimates in ask-order; calling ``ask`` twice
  without an interleaved ``tell`` is an error, as is a mismatched length;
* ``best_point`` / ``best_value`` expose the incumbent at all times after
  initialization (the session exploits the incumbent once the tuner has
  converged or between batches).
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.obs.trace import emit as _obs_emit
from repro.space import ParameterSpace

__all__ = ["TunerState", "BatchTuner"]


class TunerState(enum.Enum):
    """Coarse lifecycle state of a tuner."""

    RUNNING = "running"
    CONVERGED = "converged"


class BatchTuner(ABC):
    """Base class implementing the ask/tell bookkeeping."""

    def __init__(self, space: ParameterSpace) -> None:
        self.space = space
        self.state = TunerState.RUNNING
        self._pending: list[np.ndarray] | None = None
        #: total number of objective estimates consumed
        self.n_evaluations = 0
        #: number of ask/tell round trips completed
        self.n_batches = 0
        #: human-readable log of accepted step kinds (diagnostics/ablation)
        self.step_log: list[str] = []

    # -- the public protocol -------------------------------------------------

    def ask(self) -> list[np.ndarray]:
        """Next batch of candidate points (empty once converged)."""
        if self._pending is not None:
            raise RuntimeError(
                "ask() called with a batch still pending; call tell() first"
            )
        if self.converged:
            return []
        # The tuner is not called again before tell(), so the pending batch
        # may share _ask()'s arrays; the caller gets the one copy.
        batch = [np.asarray(p, dtype=float) for p in self._ask()]
        if batch:
            ok = self.space.contains_batch(batch)
            if not ok.all():
                bad = batch[int(np.argmax(~ok))]
                raise RuntimeError(
                    f"tuner proposed inadmissible point {bad!r} — projection bug"
                )
            self._pending = batch
        return [p.copy() for p in batch]

    def tell(self, values: Sequence[float]) -> None:
        """Deliver estimates for the last asked batch, in ask-order."""
        vals = [float(v) for v in values]
        if self._pending is None:
            if vals:
                raise RuntimeError("tell() called with no pending batch")
            return
        if len(vals) != len(self._pending):
            raise ValueError(
                f"expected {len(self._pending)} values, got {len(vals)}"
            )
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"estimates must be finite, got {vals}")
        batch = self._pending
        self._pending = None
        self.n_evaluations += len(vals)
        self.n_batches += 1
        self._tell(batch, vals)

    @property
    def converged(self) -> bool:
        """True once a local-minimum certificate has been obtained."""
        return self.state is TunerState.CONVERGED

    @property
    def has_pending(self) -> bool:
        return self._pending is not None

    @property
    def max_batch_size(self) -> int | None:
        """Upper bound on ``len(ask())`` across the tuner's lifetime.

        ``None`` means unknown; evaluation substrates use this to size
        reusable sample buffers, so a returned bound must never be exceeded.
        """
        return None

    # -- to implement -----------------------------------------------------------

    @abstractmethod
    def _ask(self) -> list[np.ndarray]:
        """Produce the next batch (admissible points)."""

    @abstractmethod
    def _tell(self, batch: list[np.ndarray], values: list[float]) -> None:
        """Consume estimates for *batch*."""

    @property
    @abstractmethod
    def best_point(self) -> np.ndarray:
        """Incumbent configuration (defined once initialization completed)."""

    @property
    @abstractmethod
    def best_value(self) -> float:
        """Estimate at the incumbent."""

    # -- helpers -------------------------------------------------------------------

    def _mark_converged(self, reason: str) -> None:
        self.state = TunerState.CONVERGED
        self.step_log.append(f"converged:{reason}")
        _obs_emit(
            "tuner.converged", reason=reason, n_evaluations=self.n_evaluations
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(state={self.state.value}, "
            f"evals={self.n_evaluations})"
        )
