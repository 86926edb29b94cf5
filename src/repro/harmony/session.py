"""The online tuning loop (the heart of the paper's cost accounting).

A :class:`TuningSession` drives an ask/tell tuner against an evaluator under
a hard budget of application *time steps*:

* each batch the tuner asks for is observed K times (§5.2's
  multi-sampling) and each point's samples are reduced by the configured
  estimator (min by default);
* the batch's observations run in *waves* of at most P points (P = number
  of processors); every wave costs exactly one time step and is charged its
  barrier time ``T_k = max`` of the observed times (Eq. 1).  One loop walks
  a wave schedule built once per batch, and the two sampling disciplines
  differ only in that schedule:

  - **sequential** (default) — each of the K rounds gets its own waves, in
    subsequent time steps: the paper's explicit worst-case assumption ("we
    do not take advantage of multiple parallel sampling");
  - **parallel** (``parallel_sampling=True``) — the round-major jobs are
    packed into waves of P, so a wave may span rounds: the paper's "if there
    are 64 parallel processors … we can set K = 10 with no additional cost"
    case, where a fully sampled batch with ``n·K <= P`` costs a single time
    step;
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

import functools
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

#: the schedule of a one-point wave (the exploit step)
_ONE_POINT = ((0, 0, 1),)


@functools.lru_cache(maxsize=1024)
def _schedule(n: int, k: int, p: int | None, parallel: bool, probe: bool) -> tuple:
    """The waves that observe *n* candidates *k* times each on *p* processors.

    A wave is ``(segments, carries_probe)``: each ``(round, lo, hi)``
    segment runs candidates ``lo:hi`` in that sampling round.  Sequential
    sampling gives each round its own waves of at most P candidates.
    Parallel sampling packs the round-major jobs into waves of P, so a wave
    may span rounds and a budget cut still leaves the earliest rounds
    complete across all points.  The incumbent *probe* needs a spare
    processor, which a wave has only when it holds a whole round
    (sequential) or the whole batch (parallel).  Batch shapes repeat, so
    schedules are cached (they are tuples).
    """
    if not parallel:
        size = n if p is None else p
        spare = probe and (p is None or n < p)
        return tuple(
            (((s, lo, min(lo + size, n)),), spare)
            for s in range(k)
            for lo in range(0, n, size)
        )
    total = n * k
    size = total if p is None else p
    spare = probe and (p is None or total < p)
    waves = []
    for start in range(0, total, size):
        stop = min(start + size, total)
        segments = tuple(
            (s, max(start - s * n, 0), min(stop - s * n, n))
            for s in range(start // n, (stop - 1) // n + 1)
        )
        waves.append((segments, spare))
    return tuple(waves)


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
        batched_eval: bool = True,
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
        #: batched-evaluation fast path: True = use it whenever the evaluator
        #: advertises ``supports_precomputed`` (bit-identical by contract),
        #: False = the per-wave ``observe_wave`` reference
        self.batched_eval = bool(batched_eval)
        self.rng = as_generator(rng)
        #: optional :class:`repro.obs.trace.Tracer` recording the session's
        #: per-step / per-batch events; sweep workers install one after
        #: construction, so this stays assignable post-init
        self.tracer = tracer

    # -- helpers ---------------------------------------------------------------

    def _incumbent(self) -> np.ndarray:
        return self.tuner.best_point

    def _fast_eval_active(self) -> bool:
        """Whether this batch may go through ``observe_precomputed``.

        Resolved per batch because fault injectors swap ``self.evaluator``
        after construction; a wrapper that intercepts ``observe_wave`` keeps
        ``supports_precomputed`` False and turns the fast path off.
        """
        return self.batched_eval and self.evaluator.supports_precomputed

    def _validate(
        self, times: np.ndarray, n: int, t_step: float | None = None
    ) -> np.ndarray:
        """Validate *n* observations (two reductions cover every check).

        *t_step* is one wave's barrier time; None means *times* are the
        barrier times of *n* one-point waves, each its own barrier.  A
        substrate returning NaN/negative times or a mis-shaped result would
        silently corrupt the Total_Time metric; fail loudly instead.
        """
        times = np.asarray(times, dtype=float)
        if times.shape != (n,):
            raise RuntimeError(
                f"evaluator returned {times.shape} times for {n} observations"
            )
        tmin = float(times.min())
        tmax = float(times.max())
        # NaN propagates into both reductions; +/-inf lands in one of them.
        if not (np.isfinite(tmin) and np.isfinite(tmax)) or tmin < 0:
            raise RuntimeError(
                f"evaluator returned invalid observation(s): {times!r}"
            )
        if t_step is not None and (not np.isfinite(t_step) or t_step < tmax):
            raise RuntimeError(
                f"evaluator returned inconsistent barrier time {t_step!r} "
                f"for wave maxima {tmax!r}"
            )
        return times

    def _observe(
        self, points, costs, segments, probe: bool = False
    ) -> tuple[np.ndarray, float]:
        """Observe one wave: ``points[lo:hi]`` of each segment, then the
        incumbent if *probe*.

        On the fast path *costs* is ``(f_points, f_probe)``, the true costs
        computed with the batch, and only the noise is drawn; with *costs*
        None the wave goes through ``observe_wave``.
        """
        if costs is None:
            pts = [pt for _, lo, hi in segments for pt in points[lo:hi]]
            if probe:
                pts.append(self._incumbent())
            times, t_step = self.evaluator.observe_wave(pts, self.rng)
            n = len(pts)
        else:
            f_points, f_probe = costs
            if len(segments) == 1:
                _, lo, hi = segments[0]
                f = f_points[lo:hi]
            else:
                f = np.concatenate([f_points[lo:hi] for _, lo, hi in segments])
            if probe:
                f = np.append(f, f_probe)
            times, t_step = self.evaluator.observe_precomputed(f, self.rng)
            n = f.size
        return self._validate(times, n, t_step), float(t_step)

    def _evaluate(self, batch, k, samples, probe, record_steps, steps_left) -> int:
        """Run the batch's wave schedule, filling ``samples`` in place;
        returns the measurements taken.  Every wave costs one time step, so
        at most *steps_left* waves run: a budget cut truncates the batch.

        The fast path prices the batch (and the incumbent) in one vectorized
        ``true_cost_batch`` call; the noise draws stay wave by wave, so RNG
        consumption — and therefore every result — is bit-identical to the
        per-wave reference.
        """
        costs = None
        if self._fast_eval_active():
            f_batch = np.asarray(self.evaluator.true_cost_batch(batch), dtype=float)
            f_probe = (
                np.array([float(self.evaluator.true_cost(self._incumbent()))])
                if probe
                else None
            )
            costs = (f_batch, f_probe)
        n_meas = 0
        schedule = _schedule(
            len(batch), k, self.n_processors, self.parallel_sampling, probe
        )
        for segments, carries_probe in schedule[:steps_left]:
            times, t_step = self._observe(batch, costs, segments, carries_probe)
            if carries_probe:
                self.controller.observe_incumbent(float(times[-1]))
            a = 0
            for s, lo, hi in segments:
                b = a + hi - lo
                samples[lo:hi, s] = times[a:b]
                a = b
            n_meas += times.size
            record_steps([t_step], StepKind.EVALUATE, times.size)
        return n_meas

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
        # configuration instead of once per recorded step.  The reference
        # path keeps the per-step call for honest benchmarking.
        inc_cost_cache: dict[bytes, float] = {}
        use_inc_cache = self.batched_eval

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
            """Record successive steps of one kind (no tell() between
            them, so they share the incumbent's cost)."""
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
                        t_steps = self._validate(
                            self.evaluator.observe_repeated(f_exploit, n, self.rng), n
                        )
                        n_measurements += n
                        record_steps(t_steps.tolist(), StepKind.EXPLOIT)
                        break
                    points, costs = None, (np.array([f_exploit]), None)
                else:
                    points, costs = [self._incumbent()], None
                times, t_step = self._observe(points, costs, _ONE_POINT)
                n_measurements += times.size
                record_steps([t_step], StepKind.EXPLOIT)
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
            n_measurements += self._evaluate(
                batch, k, samples, probe_incumbent, record_steps,
                self.budget - len(step_times),
            )
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

        if self.tuner.converged and converged_at is None:
            converged_at = len(step_times)

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
