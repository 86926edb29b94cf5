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

  in both, the observations run in round-major order, so an evaluator that
  takes precomputed costs observes a batch's whole schedule in one call;
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
import math
from typing import Callable, NamedTuple

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

#: the segments of a one-point wave (the exploit step)
_ONE_POINT = ((0, 0, 1),)


class _Schedule(NamedTuple):
    """The waves that observe one batch (see :func:`_schedule`)."""

    #: each wave's ``(round, lo, hi)`` segments
    waves: tuple
    #: whether every wave ends with the incumbent probe (else none does)
    probe: bool
    #: each wave's first observation in the batch's round-major order, then
    #: the total: the ``starts`` of ``observe_waves``
    bounds: np.ndarray
    #: each wave's size, the probe included
    sizes: tuple


@functools.lru_cache(maxsize=1024)
def _schedule(n: int, k: int, p: int | None, parallel: bool, probe: bool) -> _Schedule:
    """The waves that observe *n* candidates *k* times each on *p* processors.

    Each ``(round, lo, hi)`` segment of a wave runs candidates ``lo:hi`` in
    that sampling round.  Sequential sampling gives each round its own
    waves of at most P candidates.  Parallel sampling packs the round-major
    jobs into waves of P, so a wave may span rounds and a budget cut still
    leaves the earliest rounds complete across all points.  Either way the
    waves list the observations in round-major order.  The incumbent
    *probe* needs a spare processor, which a wave has only when it holds a
    whole round (sequential) or the whole batch (parallel), and then every
    wave has one.  Batch shapes repeat, so schedules are cached.
    """
    if not parallel:
        size = n if p is None else p
        spare = probe and (p is None or n < p)
        waves = tuple(
            ((s, lo, min(lo + size, n)),)
            for s in range(k)
            for lo in range(0, n, size)
        )
    else:
        total = n * k
        size = total if p is None else p
        spare = probe and (p is None or total < p)
        waves = []
        for start in range(0, total, size):
            stop = min(start + size, total)
            waves.append(tuple(
                (s, max(start - s * n, 0), min(stop - s * n, n))
                for s in range(start // n, (stop - 1) // n + 1)
            ))
        waves = tuple(waves)
    sizes = tuple(sum(hi - lo for _, lo, hi in wave) + spare for wave in waves)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    bounds.setflags(write=False)  # shared by every caller of the cache
    return _Schedule(waves, spare, bounds, sizes)


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
        self.rng = as_generator(rng)
        #: optional :class:`repro.obs.trace.Tracer` recording the session's
        #: per-step / per-batch events; sweep workers install one after
        #: construction, so this stays assignable post-init
        self.tracer = tracer

    # -- helpers ---------------------------------------------------------------

    def _incumbent(self) -> np.ndarray:
        return self.tuner.best_point

    def _fast_eval_active(self) -> bool:
        """Whether this batch may go through ``observe_waves``.

        The evaluator alone decides, through ``supports_precomputed``.  It
        is resolved per batch because fault injectors swap
        ``self.evaluator`` after construction; a wrapper that intercepts
        ``observe_wave`` keeps ``supports_precomputed`` False and turns the
        fast path off.
        """
        return self.evaluator.supports_precomputed

    @staticmethod
    def _check_times(times, n: int) -> tuple[np.ndarray, float]:
        """Validate *n* observations (two reductions cover every check) and
        return them with their max.

        A substrate returning NaN/negative times or a mis-shaped result
        would silently corrupt the Total_Time metric; fail loudly instead.
        """
        times = np.asarray(times, dtype=float)
        if times.shape != (n,):
            raise RuntimeError(
                f"evaluator returned {times.shape} times for {n} observations"
            )
        tmin = float(times.min())
        tmax = float(times.max())
        # NaN propagates into both reductions; +/-inf lands in one of them.
        if not (math.isfinite(tmin) and math.isfinite(tmax)) or tmin < 0:
            raise RuntimeError(
                f"evaluator returned invalid observation(s): {times!r}"
            )
        return times, tmax

    def _validate(self, times, n: int, t_step: float) -> np.ndarray:
        """Validate one wave of *n* observations and its barrier time."""
        times, tmax = self._check_times(times, n)
        if not math.isfinite(t_step) or t_step < tmax:
            raise RuntimeError(
                f"evaluator returned inconsistent barrier time {t_step!r} "
                f"for wave maxima {tmax!r}"
            )
        return times

    def _validate_waves(
        self, times, t_steps, starts: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate *n* observations of the waves that start at *starts* and
        their barrier times, all in one pass."""
        times, _ = self._check_times(times, n)
        t_steps = np.asarray(t_steps, dtype=float)
        if t_steps.shape != starts.shape:
            raise RuntimeError(
                f"evaluator returned {t_steps.shape} barrier times for "
                f"{starts.size} waves"
            )
        maxima = np.maximum.reduceat(times, starts)
        # NaN fails the comparison; +inf passes it but not the max.
        if not ((t_steps >= maxima).all() and math.isfinite(float(t_steps.max()))):
            raise RuntimeError(
                f"evaluator returned inconsistent barrier time(s) {t_steps!r} "
                f"for wave maxima {maxima!r}"
            )
        return times, t_steps

    def _observe(self, points, segments, probe: bool = False) -> tuple[np.ndarray, float]:
        """Observe one wave through ``observe_wave``: ``points[lo:hi]`` of
        each segment, then the incumbent if *probe*."""
        pts = [pt for _, lo, hi in segments for pt in points[lo:hi]]
        if probe:
            pts.append(self._incumbent())
        times, t_step = self.evaluator.observe_wave(pts, self.rng)
        return self._validate(times, len(pts), t_step), float(t_step)

    def _evaluate(
        self, batch, samples, schedule, n_waves, incumbent_cost, record_steps
    ) -> int:
        """Run the first *n_waves* waves of the batch's *schedule*, filling
        ``samples`` in place; returns the measurements taken.

        The fast path prices the batch in one vectorized ``true_cost_batch``
        call, takes the probe's cost from *incumbent_cost* (only when a wave
        runs the probe) and observes every wave in one ``observe_waves``
        call, which draws the noise exactly as the per-wave reference does:
        every result is bit-identical to it.  The observations come back in
        round-major order, the probe closing each wave that carries it, so
        the sample matrix fills by reshaped slices.
        """
        if not self._fast_eval_active():
            n_meas = 0
            for segments in schedule.waves[:n_waves]:
                times, t_step = self._observe(batch, segments, schedule.probe)
                if schedule.probe:
                    self.controller.observe_incumbent(float(times[-1]))
                a = 0
                for s, lo, hi in segments:
                    b = a + hi - lo
                    samples[lo:hi, s] = times[a:b]
                    a = b
                n_meas += times.size
                record_steps([t_step], StepKind.EVALUATE, (times.size,))
            return n_meas
        n = len(batch)
        starts = schedule.bounds[:n_waves]
        total = int(schedule.bounds[n_waves])
        m = total - n_waves if schedule.probe else total  # candidate observations
        f_batch = np.asarray(self.evaluator.true_cost_batch(batch), dtype=float)
        if m <= n:
            f = f_batch[:m]
        else:
            rounds = -(-m // n)
            f = np.empty(rounds * n)
            f.reshape(rounds, n)[:] = f_batch
            f = f[:m]
        if schedule.probe:
            per_wave = np.empty((n_waves, m // n_waves + 1))
            per_wave[:, :-1] = f.reshape(n_waves, -1)
            per_wave[:, -1] = incumbent_cost()
            f = per_wave.reshape(-1)
        times, t_steps = self.evaluator.observe_waves(f, starts, self.rng)
        times, t_steps = self._validate_waves(times, t_steps, starts, total)
        r, rem = divmod(m, n)
        if schedule.probe:
            per_wave = times.reshape(n_waves, -1)
            samples[:, :r] = per_wave[:, :-1].reshape(r, n).T
            for t in per_wave[:, -1].tolist():
                self.controller.observe_incumbent(t)
        else:
            samples[:, :r] = times[: r * n].reshape(r, n).T
            if rem:
                samples[:rem, r] = times[r * n :]
        record_steps(t_steps.tolist(), StepKind.EVALUATE, schedule.sizes[:n_waves])
        return total

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
        # changes on tell(), so its cost is computed once per distinct
        # configuration instead of once per recorded step.
        inc_cost_cache: dict[bytes, float] = {}

        def incumbent_cost() -> float:
            pt = self._incumbent()
            key = pt.tobytes()
            cost = inc_cost_cache.get(key)
            if cost is None:
                cost = float(self.evaluator.true_cost(pt))
                inc_cost_cache[key] = cost
            return cost

        tracer = self.tracer

        def record_steps(
            t_steps: list[float], kind: StepKind, wave_sizes: tuple | None = None
        ) -> None:
            """Record successive steps of one kind (no tell() between
            them, so they share the incumbent's cost); *wave_sizes* gives
            each step's wave size, None one-point waves."""
            first = len(step_times)
            step_times.extend(t_steps)
            step_kinds.extend([kind] * len(t_steps))
            if wave_sizes is None:
                wave_sizes = (1,) * len(t_steps)
            if tracer is not None:
                for t, (t_step, size) in enumerate(zip(t_steps, wave_sizes), first):
                    tracer.emit(
                        "session.step",
                        t=t,
                        step_kind=kind.value,
                        t_step=t_step,
                        wave=int(size),
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
                        "wave_size": int(size),
                        "batch_index": batch_index,
                    }
                    for size in wave_sizes
                )

        # Reusable sample matrix: tuners that bound their batch size let us
        # allocate once and slice per batch instead of allocating every loop.
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
                # before making the same draw.  A converged tuner never asks
                # again, so every remaining step runs this incumbent: the
                # fast path observes them as one schedule of one-point waves.
                if self._fast_eval_active():
                    n = self.budget - len(step_times) if self.tuner.converged else 1
                    starts = np.arange(n)
                    times, t_steps = self.evaluator.observe_waves(
                        np.full(n, incumbent_cost()), starts, self.rng
                    )
                    times, t_steps = self._validate_waves(times, t_steps, starts, n)
                    n_measurements += n
                    record_steps(t_steps.tolist(), StepKind.EXPLOIT)
                else:
                    times, t_step = self._observe([self._incumbent()], _ONE_POINT)
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
            # With a controller in play, piggyback one observation of the
            # incumbent per batch on a spare processor: repeated
            # same-configuration measurements are the pure-noise signal the
            # controller needs to escape K = 1 (which otherwise gives it no
            # spread information at all).
            probe_incumbent = (
                self.controller is not None
                and getattr(self.tuner, "initialized", False)
            )
            schedule = _schedule(
                len(batch), k, self.n_processors, self.parallel_sampling,
                probe_incumbent,
            )
            # Every wave costs one time step, so a budget cut truncates the
            # batch; only a truncated batch leaves samples unobserved (NaN).
            n_waves = min(self.budget - len(step_times), len(schedule.waves))
            whole = n_waves == len(schedule.waves)
            if max_batch is not None and len(batch) <= max_batch:
                if sample_buf is None or sample_buf.shape[1] != k:
                    sample_buf = np.empty((max_batch, k), dtype=float)
                samples = sample_buf[: len(batch)]
            else:
                samples = np.empty((len(batch), k))
            if not whole:
                samples.fill(np.nan)
            n_measurements += self._evaluate(
                batch, samples, schedule, n_waves, incumbent_cost, record_steps
            )
            if whole:
                # One vectorized axis-1 reduction.
                estimates = np.asarray(self.plan.combine_batch(samples), dtype=float)
            else:
                valid = ~np.isnan(samples)
                if not valid.any(axis=1).all():
                    break  # a point went unobserved; the budget is spent
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
