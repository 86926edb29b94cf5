"""The online tuning loop (the heart of the paper's cost accounting).

A :class:`TuningSession` drives an ask/tell tuner against an evaluator under
a hard budget of application *time steps*:

* each batch the tuner asks for is split into *waves* of at most P points
  (P = number of processors); every wave costs exactly one time step and is
  charged its barrier time ``T_k = max`` of the observed times (Eq. 1);
* each point is observed K times (§5.2's multi-sampling) and reduced by
  the configured estimator (min by default).  Two sampling disciplines:

  - **sequential** (default) — the K rounds occupy subsequent time steps,
    the paper's explicit worst-case assumption ("we do not take advantage
    of multiple parallel sampling");
  - **parallel** (``parallel_sampling=True``) — the K replicas of each
    candidate are spread across spare processors within the same waves,
    the paper's "if there are 64 parallel processors … we can set K = 10
    with no additional cost" case: when ``n·K <= P`` a fully sampled batch
    costs a single time step;
* once the tuner has produced a local-minimum certificate (or whenever it
  has nothing to ask), the remaining budget runs the incumbent best
  configuration, which still pays observed (noisy) time — a converged tuner
  keeps living on the same machine;
* if the budget expires mid-batch, the run is truncated right there: the
  metric is ``Total_Time(budget)``, never more.

The session also supports the adaptive-K controller (§5.2 future work),
which re-decides K between batches from the observed sample spread.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._util import as_generator
from repro.core.adaptive import AdaptiveSamplingController
from repro.core.base import BatchTuner
from repro.core.sampling import SamplingPlan
from repro.harmony.evaluator import Evaluator, FunctionEvaluator
from repro.harmony.metrics import SessionResult, StepKind
from repro.obs import trace as obs_trace
from repro.variability.models import NoiseModel

__all__ = ["TuningSession"]


class TuningSession:
    """Runs one online tuning experiment and records the paper's metrics."""

    def __init__(
        self,
        tuner: BatchTuner,
        evaluator: Evaluator | Callable[[np.ndarray], float],
        *,
        noise: NoiseModel | None = None,
        budget: int = 100,
        n_processors: int | None = None,
        plan: SamplingPlan | None = None,
        controller: AdaptiveSamplingController | None = None,
        parallel_sampling: bool = False,
        record_details: bool = False,
        batched_eval: bool | None = None,
        rng: int | np.random.Generator | None = None,
        tracer: "obs_trace.Tracer | None" = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1 time step, got {budget}")
        if n_processors is not None and n_processors < 1:
            raise ValueError(f"n_processors must be >= 1, got {n_processors}")
        self.tuner = tuner
        if isinstance(evaluator, Evaluator):
            if noise is not None:
                raise ValueError(
                    "pass noise inside the Evaluator, not alongside one"
                )
            self.evaluator = evaluator
        else:
            self.evaluator = FunctionEvaluator(evaluator, noise)
        self.budget = int(budget)
        cap = self.evaluator.max_wave_size
        if n_processors is None:
            self.n_processors = cap  # None means unbounded
        else:
            self.n_processors = (
                n_processors if cap is None else min(n_processors, cap)
            )
        self.plan = plan if plan is not None else SamplingPlan()
        self.controller = controller
        self.parallel_sampling = bool(parallel_sampling)
        self.record_details = bool(record_details)
        #: batched-evaluation fast path: None = use it whenever the
        #: evaluator advertises ``supports_precomputed`` (bit-identical by
        #: contract), False = always per-wave scalar loops (ablation /
        #: debugging), True = require the fast path (raise if unsupported).
        self.batched_eval = batched_eval
        self.rng = as_generator(rng)
        #: optional :class:`repro.obs.trace.Tracer` recording the session's
        #: per-step / per-batch events; sweep workers install one after
        #: construction, so this stays assignable post-init
        self.tracer = tracer

    # -- helpers ---------------------------------------------------------------

    def _waves(self, batch: list[np.ndarray]) -> list[list[np.ndarray]]:
        """Split a batch into waves of at most P points."""
        p = self.n_processors
        if p is None or len(batch) <= p:
            return [batch]
        return [batch[i : i + p] for i in range(0, len(batch), p)]

    def _incumbent(self) -> np.ndarray:
        return self.tuner.best_point

    def _fast_eval_active(self) -> bool:
        """Whether this batch may go through ``observe_precomputed``.

        Resolved per batch because fault injectors swap ``self.evaluator``
        after construction; a wrapper that intercepts ``observe_wave`` keeps
        ``supports_precomputed`` False and turns the fast path off.
        """
        if self.batched_eval is False:
            return False
        supported = bool(getattr(self.evaluator, "supports_precomputed", False))
        if self.batched_eval is True and not supported:
            raise ValueError(
                f"batched_eval=True but {type(self.evaluator).__name__} "
                "does not support precomputed observation"
            )
        return supported

    def _validate(
        self, times: np.ndarray, t_step: float, n_pts: int
    ) -> tuple[np.ndarray, float]:
        """Validate one wave's output (two reductions cover every check).

        A substrate returning NaN/negative times or a mis-shaped result
        would silently corrupt the Total_Time metric; fail loudly instead.
        """
        times = np.asarray(times, dtype=float)
        if times.shape != (n_pts,):
            raise RuntimeError(
                f"evaluator returned {times.shape} times for a "
                f"{n_pts}-point wave"
            )
        tmin = float(times.min())
        tmax = float(times.max())
        # NaN propagates into both reductions; +/-inf lands in one of them.
        if not (np.isfinite(tmin) and np.isfinite(tmax)) or tmin < 0:
            raise RuntimeError(
                f"evaluator returned invalid observation(s): {times!r}"
            )
        if not np.isfinite(t_step) or t_step < tmax:
            raise RuntimeError(
                f"evaluator returned inconsistent barrier time {t_step!r} "
                f"for wave maxima {tmax!r}"
            )
        return times, float(t_step)

    def _validate_repeated(self, t_steps: np.ndarray, n: int) -> np.ndarray:
        """Validate the barrier times of *n* one-point waves at once (a
        one-point wave's observation is its barrier time)."""
        t_steps = np.asarray(t_steps, dtype=float)
        if t_steps.shape != (n,):
            raise RuntimeError(
                f"evaluator returned {t_steps.shape} times for {n} one-point waves"
            )
        if not (np.isfinite(t_steps).all() and float(t_steps.min()) >= 0.0):
            raise RuntimeError(
                f"evaluator returned invalid observation(s): {t_steps!r}"
            )
        return t_steps

    def _observe(self, pts: list[np.ndarray]) -> tuple[np.ndarray, float]:
        """Observe one wave through the scalar evaluator interface."""
        times, t_step = self.evaluator.observe_wave(pts, self.rng)
        return self._validate(times, t_step, len(pts))

    def _observe_precomputed(
        self, f_wave: np.ndarray, n_pts: int
    ) -> tuple[np.ndarray, float]:
        """Observe one wave whose true costs were computed with the batch."""
        times, t_step = self.evaluator.observe_precomputed(f_wave, self.rng)
        return self._validate(times, t_step, n_pts)

    def _precompute(
        self, batch, probe_incumbent
    ) -> tuple[np.ndarray | None, float | None]:
        """True costs for the batch (and incumbent), or (None, None).

        The heart of the batched fast path: one vectorized
        ``true_cost_batch`` call replaces per-wave per-round scalar loops.
        The noise draws stay wave-by-wave in ``observe_precomputed``, so
        RNG consumption — and therefore every result — is bit-identical to
        the scalar path.
        """
        if not self._fast_eval_active():
            return None, None
        f_batch = np.asarray(self.evaluator.true_cost_batch(batch), dtype=float)
        f_inc = (
            float(self.evaluator.true_cost(self._incumbent()))
            if probe_incumbent
            else None
        )
        return f_batch, f_inc

    def _evaluate_sequential(
        self, batch, k, samples, probe_incumbent, record, step_times
    ) -> tuple[bool, int]:
        """K sampling rounds in subsequent time steps (the §6 worst case).

        Fills ``samples`` in place; returns (truncated, measurements)."""
        waves = self._waves(batch)
        f_batch, f_inc = self._precompute(batch, probe_incumbent)
        n_meas = 0
        for s in range(k):
            offset = 0
            for w_idx, wave in enumerate(waves):
                if len(step_times) >= self.budget:
                    return True, n_meas
                n_pts = len(wave)
                extra = (
                    probe_incumbent
                    and w_idx == 0
                    and (self.n_processors is None or n_pts < self.n_processors)
                )
                if extra:
                    n_pts += 1
                if f_batch is not None:
                    f_wave = f_batch[offset : offset + len(wave)]
                    if extra:
                        f_wave = np.append(f_wave, f_inc)
                    times, t_step = self._observe_precomputed(f_wave, n_pts)
                else:
                    pts = list(wave)
                    if extra:
                        pts.append(self._incumbent())
                    times, t_step = self._observe(pts)
                if extra:
                    self.controller.observe_incumbent(float(times[-1]))
                    times = times[: len(wave)]
                samples[offset : offset + len(wave), s] = times
                n_meas += n_pts
                record(t_step, StepKind.EVALUATE, n_pts)
                offset += len(wave)
        return False, n_meas

    def _evaluate_parallel(
        self, batch, k, samples, probe_incumbent, record, step_times
    ) -> tuple[bool, int]:
        """K replicas of every candidate spread across processors (§5.2's
        free-multi-sampling case: n·K <= P costs one time step).

        Jobs are ordered round-major so a budget truncation still leaves the
        earliest rounds complete across all points."""
        jobs = [(i, s) for s in range(k) for i in range(len(batch))]
        p = self.n_processors
        wave_size = len(jobs) if p is None else p
        f_batch, f_inc = self._precompute(batch, probe_incumbent)
        n_meas = 0
        first_wave = True
        for start in range(0, len(jobs), wave_size):
            if len(step_times) >= self.budget:
                return True, n_meas
            wave_jobs = jobs[start : start + wave_size]
            n_pts = len(wave_jobs)
            extra = (
                probe_incumbent
                and first_wave
                and (p is None or n_pts < p)
            )
            if extra:
                n_pts += 1
            if f_batch is not None:
                f_wave = f_batch[[i for i, _ in wave_jobs]]
                if extra:
                    f_wave = np.append(f_wave, f_inc)
                times, t_step = self._observe_precomputed(f_wave, n_pts)
            else:
                pts = [batch[i] for i, _ in wave_jobs]
                if extra:
                    pts.append(self._incumbent())
                times, t_step = self._observe(pts)
            if extra:
                self.controller.observe_incumbent(float(times[-1]))
                times = times[: len(wave_jobs)]
            for (i, s), t in zip(wave_jobs, times):
                samples[i, s] = t
            n_meas += n_pts
            record(t_step, StepKind.EVALUATE, n_pts)
            first_wave = False
        return False, n_meas

    # -- the loop -------------------------------------------------------------------

    def run(self) -> SessionResult:
        """Drive the tuner for exactly ``budget`` application time steps.

        Returns the per-step record (barrier times, step kinds, incumbent
        trajectory) and aggregates.  A session is single-use: the tuner's
        state is consumed.

        With a tracer attached, the run is bracketed by ``session.start``/
        ``session.end`` events and the tracer is installed as the thread's
        active one, so substrate-level emitters (fault injectors, the
        performance database, tuner convergence) record into the same
        stream; every event payload is model-deterministic.
        """
        if self.tracer is None:
            return self._run()
        with obs_trace.activated(self.tracer):
            self.tracer.emit(
                "session.start",
                tuner=type(self.tuner).__name__,
                budget=self.budget,
                k=self.plan.k if self.controller is None else "adaptive",
                n_processors=self.n_processors,
                parallel_sampling=self.parallel_sampling,
            )
            result = self._run()
            self.tracer.emit(
                "session.end",
                n_steps=int(result.step_times.size),
                total_time=result.total_time(),
                ntt=result.normalized_total_time(),
                best_true_cost=result.best_true_cost,
                converged_at=result.converged_at,
                n_measurements=result.n_measurements,
            )
            return result

    def _run(self) -> SessionResult:
        step_times: list[float] = []
        step_kinds: list[StepKind] = []
        incumbent_true: list[float] = []
        details: list[dict] = []
        n_measurements = 0
        converged_at: int | None = None
        # true_cost is deterministic by contract, and the incumbent only
        # changes on tell(), so its cost is recomputed once per distinct
        # configuration instead of once per recorded step.  The ablation
        # switch keeps the legacy per-step call for honest benchmarking.
        inc_cost_cache: dict[bytes, float] = {}
        use_inc_cache = self.batched_eval is not False

        def incumbent_cost() -> float:
            pt = self._incumbent()
            if not use_inc_cache:
                return self.evaluator.true_cost(pt)
            key = pt.tobytes()
            cost = inc_cost_cache.get(key)
            if cost is None:
                cost = float(self.evaluator.true_cost(pt))
                inc_cost_cache[key] = cost
            return cost

        tracer = self.tracer

        def record_steps(
            t_steps: list[float], kind: StepKind, wave_size: int = 1
        ) -> None:
            """Record successive steps of one kind with no tell() between
            them, exactly as one record() call per step would."""
            first = len(step_times)
            step_times.extend(t_steps)
            step_kinds.extend([kind] * len(t_steps))
            if tracer is not None:
                for t, t_step in enumerate(t_steps, first):
                    tracer.emit(
                        "session.step",
                        t=t,
                        step_kind=kind.value,
                        t_step=t_step,
                        wave=int(wave_size),
                    )
            initialized = getattr(self.tuner, "initialized", True)
            cost = incumbent_cost() if initialized else float("nan")
            incumbent_true.extend([cost] * len(t_steps))
            if self.record_details:
                batch_index = (
                    self.tuner.n_batches if kind is StepKind.EVALUATE else None
                )
                details.extend(
                    {
                        "kind": kind.value,
                        "wave_size": int(wave_size),
                        "batch_index": batch_index,
                    }
                    for _ in t_steps
                )

        def record(t_step: float, kind: StepKind, wave_size: int = 1) -> None:
            record_steps([float(t_step)], kind, wave_size)

        # Reusable sample matrix: tuners that bound their batch size let us
        # allocate once and slice per batch instead of np.full every loop.
        max_batch = getattr(self.tuner, "max_batch_size", None)
        sample_buf: np.ndarray | None = None

        while len(step_times) < self.budget:
            if self.tuner.converged and converged_at is None:
                converged_at = len(step_times)
            batch = [] if self.tuner.converged else self.tuner.ask()
            if tracer is not None and batch:
                tracer.emit(
                    "batch.proposed",
                    size=len(batch),
                    batch_index=self.tuner.n_batches,
                )
            if not batch:
                if self.tuner.converged and converged_at is None:
                    converged_at = len(step_times)
                # Exploit: run the incumbent for one time step.  The fast
                # path reuses the cached true cost (the incumbent cannot
                # change between tell()s) and draws only the noise —
                # bit-identical to observe_wave, which computes the same f
                # before making the same draw.
                if self._fast_eval_active():
                    f_exploit = incumbent_cost()
                    if self.tuner.converged:
                        # A converged tuner never asks again, so every
                        # remaining step runs this incumbent: observe them
                        # in one call, which draws exactly as the per-step
                        # loop would.
                        n = self.budget - len(step_times)
                        t_steps = self._validate_repeated(
                            self.evaluator.observe_repeated(f_exploit, n, self.rng), n
                        )
                        n_measurements += n
                        record_steps(t_steps.tolist(), StepKind.EXPLOIT)
                        break
                    times, t_step = self._observe_precomputed(
                        np.array([f_exploit], dtype=float), 1
                    )
                else:
                    times, t_step = self._observe([self._incumbent()])
                n_measurements += times.size
                record(t_step, StepKind.EXPLOIT, 1)
                continue
            # Cluster substrates let idle nodes run the incumbent.
            set_fill = getattr(self.evaluator, "set_fill_point", None)
            if set_fill is not None and getattr(self.tuner, "initialized", False):
                set_fill(self._incumbent())
            k = (
                self.controller.current_k
                if self.controller is not None
                else self.plan.k
            )
            if max_batch is not None and len(batch) <= max_batch:
                if sample_buf is None or sample_buf.shape[1] != k:
                    sample_buf = np.empty((max_batch, k), dtype=float)
                samples = sample_buf[: len(batch)]
                samples.fill(np.nan)
            else:
                samples = np.full((len(batch), k), np.nan)
            # With a controller in play, piggyback one observation of the
            # incumbent per batch on a spare processor: repeated
            # same-configuration measurements are the pure-noise signal the
            # controller needs to escape K = 1 (which otherwise gives it no
            # spread information at all).
            probe_incumbent = (
                self.controller is not None
                and getattr(self.tuner, "initialized", False)
            )
            if self.parallel_sampling:
                truncated, n_meas = self._evaluate_parallel(
                    batch, k, samples, probe_incumbent, record, step_times
                )
            else:
                truncated, n_meas = self._evaluate_sequential(
                    batch, k, samples, probe_incumbent, record, step_times
                )
            n_measurements += n_meas
            valid = ~np.isnan(samples)
            if np.all(valid.any(axis=1)):
                if valid.all():
                    # Untruncated batch: one vectorized axis-1 reduction.
                    estimates = np.asarray(
                        self.plan.combine_batch(samples), dtype=float
                    )
                else:
                    estimates = np.array(
                        [
                            self.plan.combine(row[mask])
                            for row, mask in zip(samples, valid)
                        ]
                    )
                self.tuner.tell(estimates)
                if tracer is not None:
                    tracer.emit(
                        "batch.told",
                        size=int(len(estimates)),
                        best=float(np.min(estimates)),
                    )
                if self.controller is not None:
                    self.controller.observe_batch(samples)
            if truncated:
                break

        if self.tuner.converged and converged_at is None:
            converged_at = len(step_times)

        # Pad in the pathological case where the loop exited one step early
        # (cannot happen with the logic above, but keep the metric honest).
        assert len(step_times) <= self.budget
        initialized = getattr(self.tuner, "initialized", True)
        best_point = self._incumbent()
        best_true = (
            self.evaluator.true_cost(best_point) if initialized else float("nan")
        )
        return SessionResult(
            step_times=np.asarray(step_times, dtype=float),
            step_kinds=tuple(step_kinds),
            incumbent_true_costs=np.asarray(incumbent_true, dtype=float),
            best_point=np.asarray(best_point, dtype=float),
            best_estimate=float(self.tuner.best_value),
            best_true_cost=float(best_true),
            rho=self.evaluator.rho,
            n_measurements=int(n_measurements),
            n_evaluations=int(self.tuner.n_evaluations),
            converged_at=converged_at,
            tuner_name=type(self.tuner).__name__,
            meta={
                "budget": self.budget,
                "k": self.plan.k if self.controller is None else "adaptive",
                "estimator": self.plan.estimator.name,
                "n_processors": self.n_processors,
                "parallel_sampling": self.parallel_sampling,
            },
            step_details=tuple(details) if self.record_details else None,
        )
