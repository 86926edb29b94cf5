"""Parallel execution engine for paired-seed tuning sweeps.

The sweeps the paper's evaluation runs (tuner variant × noise level ×
sampling plan × dozens of trials) are embarrassingly parallel: every
(cell, trial) pair is an independent session fully determined by
``(factory, trial_seed)``.  This module supplies the pluggable execution
layer :func:`repro.experiments.runner.run_sweep` fans those pairs out on:

* :class:`SerialExecutor` — in-process, the historical behavior;
* :class:`ProcessExecutor` — a process pool for CPU-bound simulation
  sweeps (task descriptors and factories must be picklable).

Design contract (what keeps parallel runs trustworthy):

* **paired seeding is preserved** — the master RNG draws the trial-seed
  vector once, up front, in the caller; a worker never touches the master
  stream and reconstructs its session purely from ``(factory, seed)``;
* **worker-persistent factories** — the process pool ships each distinct
  factory to the workers exactly once (a pool ``initializer`` installs
  them in a per-process registry); tasks then travel as lean
  ``(cell, trial, seed)`` descriptors carrying only a registry key, so a
  10 000-trial sweep pickles its evaluator state once per worker, not
  once per chunk.  Large database arrays additionally ride in POSIX
  shared memory (:mod:`repro._shm`) instead of inside the pickle;
* **ordered gathering** — workers may finish in any order, but
  :func:`execute_ordered` re-emits outcomes in task-submission order
  (cell-major, trial-minor), so ``collect`` hooks and downstream
  aggregation observe exactly the serial sequence;
* **chunked scheduling** — tasks ship to pools in contiguous chunks to
  amortize inter-process pickling, without affecting results;
* **per-task fault isolation** — a task that raises, times out, or dies
  with its worker becomes a :class:`TrialFailure` record instead of
  poisoning its chunk or aborting the sweep; the completed siblings of a
  failed task always survive;
* **deterministic recovery** — a retried or re-dispatched task carries
  its original seed (a retried trial is the *same* trial), and injected
  faults (:mod:`repro.faults`) are keyed by ``(cell, trial, attempt)``,
  so a faulted-then-recovered sweep is bit-identical to a clean serial
  run of the surviving attempts, on every executor.

Together these make serial and parallel sweeps bit-identical — the
equivalence tests in ``tests/experiments/test_parallel.py`` and the
fault-tolerance suite in ``tests/experiments/test_fault_tolerance.py``
are the contract.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from repro import _shm
from repro.faults.inject import FaultyEvaluator
from repro.faults.plan import FaultPlan, InjectedFault
from repro.harmony.metrics import SessionResult
from repro.harmony.session import TuningSession
from repro.obs import trace as obs_trace

__all__ = [
    "EXECUTOR_NAMES",
    "FAILURE_POLICIES",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "SweepTask",
    "TrialFailure",
    "TrialOutcome",
    "TrialTimeout",
    "chunk_tasks",
    "execute_ordered",
    "make_executor",
    "run_trial",
]

#: executor specs accepted by :func:`make_executor` (and the CLI)
EXECUTOR_NAMES = ("serial", "process")

#: what to do with a trial that still fails after recovery (see
#: :func:`execute_ordered`): abort the sweep, drop the trial but keep a
#: record, or retry it (with its original seed) before dropping
FAILURE_POLICIES = ("raise", "skip", "retry")


class TrialTimeout(RuntimeError):
    """A task exceeded its wall-clock allowance and was abandoned."""


@dataclass(frozen=True)
class SweepTask:
    """One (cell, trial) evaluation, fully self-describing.

    A task is the unit shipped to workers: the factory plus the trial seed
    reconstruct the session from scratch, so a worker needs no other state.
    For :class:`ProcessExecutor` the factory must be picklable (a
    module-level function or class instance — not a closure).
    """

    cell_index: int
    cell_name: str
    trial_index: int
    seed: int
    #: builds a fresh session; called ``factory(seed)``, or
    #: ``factory(seed, trial_index)`` when ``factory.trial_aware`` is true.
    #: The process executor strips this to None and sets ``factory_key``
    #: instead, so the descriptor stays a few bytes.
    factory: Callable | None
    #: ship the full SessionResult back (needed by ``collect`` hooks);
    #: off by default to keep inter-process traffic small
    keep_result: bool = False
    #: retry generation: 0 for the first dispatch, incremented by the
    #: recovery loop; the seed never changes — a retried trial is the same
    #: trial, and fault plans key their schedule on this index
    attempt: int = 0
    #: per-task wall-clock allowance in seconds (None = unbounded); an
    #: over-budget task is abandoned and surfaces as a timeout failure
    timeout: float | None = None
    #: deterministic fault-injection schedule applied by the worker
    faults: FaultPlan | None = None
    #: registry key resolving the factory on the worker when ``factory``
    #: is None (see :data:`_WORKER_REGISTRY` / :func:`_worker_init`)
    factory_key: object | None = None
    #: observability shard descriptor (``{"dir": <shard directory>}``); the
    #: worker resolves it to a per-process tracer and flushes trial events
    #: as JSONL shards the sweep runner merges on gather.  None = no tracing.
    trace: dict | None = None
    #: parent wall clock at dispatch, for the queue-wait metric (volatile —
    #: never part of a canonical trace)
    dispatch_ts: float | None = None


@dataclass(frozen=True)
class TrialOutcome:
    """What one task produced: the scalars the aggregation needs, plus the
    full :class:`SessionResult` when the task asked for it."""

    cell_index: int
    cell_name: str
    trial_index: int
    seed: int
    ntt: float
    final_cost: float
    total_time: float
    converged: bool
    result: SessionResult | None = None


@dataclass(frozen=True)
class TrialFailure:
    """TrialOutcome-shaped record of a task that produced no result.

    Carries the same identity fields as :class:`TrialOutcome` so the
    aggregation can place it, plus what went wrong and on which attempt.
    The original exception rides along in-process (``exception``) for
    ``failure_policy="raise"`` re-raising; only the string fields cross
    process boundaries reliably and only they are serialized.
    """

    cell_index: int
    cell_name: str
    trial_index: int
    seed: int
    attempt: int
    #: ``"error"`` (the task raised), ``"timeout"`` (exceeded its
    #: allowance), or ``"worker-lost"`` (its pool worker died outright)
    kind: str
    error_type: str
    message: str
    exception: BaseException | None = None

    def to_dict(self) -> dict:
        """JSON-safe record for the :class:`SweepResult` failure ledger."""
        return {
            "cell_index": int(self.cell_index),
            "cell_name": self.cell_name,
            "trial_index": int(self.trial_index),
            "seed": int(self.seed),
            "attempt": int(self.attempt),
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
        }

    def _picklable(self) -> "TrialFailure":
        """Drop (or substitute) an exception object that cannot pickle."""
        if self.exception is None:
            return self
        try:
            pickle.dumps(self.exception)
            return self
        except Exception:
            return replace(
                self,
                exception=RuntimeError(f"{self.error_type}: {self.message}"),
            )


def _failure(task: SweepTask, exc: BaseException, kind: str) -> TrialFailure:
    return TrialFailure(
        cell_index=task.cell_index,
        cell_name=task.cell_name,
        trial_index=task.trial_index,
        seed=task.seed,
        attempt=task.attempt,
        kind=kind,
        error_type=type(exc).__name__,
        message=str(exc),
        exception=exc,
    )


# -- worker-persistent factory state ------------------------------------------

#: per-process registry of session factories installed by :func:`_worker_init`
#: in each process-pool worker.  Lean :class:`SweepTask` descriptors
#: reference entries by ``factory_key``.
_WORKER_REGISTRY: dict = {}


def _worker_init(blob: bytes) -> None:
    """Process-pool initializer: unpickle the factory registry once.

    *blob* is pickled in the parent under a shared-memory broadcast, so
    database-backed factories materialize here as zero-copy attached
    views.  Runs once per worker process; every chunk the worker later
    receives resolves factories from this registry instead of
    re-unpickling them.
    """
    registry = pickle.loads(blob)
    _WORKER_REGISTRY.clear()
    _WORKER_REGISTRY.update(registry)


def _resolve_factory(task: SweepTask) -> Callable:
    """The task's factory, from the descriptor or the worker registry."""
    if task.factory is not None:
        return task.factory
    try:
        return _WORKER_REGISTRY[task.factory_key]
    except KeyError:
        raise RuntimeError(
            f"no worker factory registered under key {task.factory_key!r} "
            "(was the pool started with its initializer?)"
        ) from None


def run_trial(task: SweepTask) -> TrialOutcome:
    """Execute one task: rebuild the session from (factory, seed) and run it.

    Runs inside the worker (the calling process for serial, a pool worker
    for process).  Validation mirrors the historical serial runner so bad
    factories fail identically under every executor.  When the task
    carries a :class:`~repro.faults.FaultPlan`, its scheduled fault for
    ``(cell, trial, attempt)`` is applied here: ``crash`` raises before
    the session is built, ``hang`` sleeps ``plan.hang_seconds`` (a
    straggler the timeout layer can abandon), and ``nan``/``slowdown``
    wrap the session's evaluator.  Raises on failure; fault capture is the
    executor's job.

    A traced task (``task.trace`` set) additionally records trial.start /
    trial.end events under its (cell, trial, attempt) identity and flushes
    them to the sweep's shard directory before returning.
    """
    if task.trace is None:
        return _run_trial_impl(task, None)
    tracer = obs_trace.worker_tracer(task.trace)
    with tracer.scope(
        cell=task.cell_index,
        trial=task.trial_index,
        attempt=task.attempt,
        src="worker",
    ), obs_trace.activated(tracer):
        t0 = time.time()
        tracer.emit(
            "trial.start",
            seed=task.seed,
            wait_s=(t0 - task.dispatch_ts) if task.dispatch_ts else None,
        )
        try:
            outcome = _run_trial_impl(task, tracer)
        except BaseException:
            # The failure event is the executor's job (it knows the kind);
            # flush so the events so far survive the raise.
            tracer.flush()
            raise
        tracer.emit(
            "trial.end",
            ntt=outcome.ntt,
            final_cost=outcome.final_cost,
            total_time=outcome.total_time,
            converged=outcome.converged,
            dur_s=time.time() - t0,
        )
        tracer.flush()
        return outcome


def _run_trial_impl(task: SweepTask, tracer: "obs_trace.Tracer | None") -> TrialOutcome:
    fault = None
    if task.faults is not None:
        fault = task.faults.fault_for(
            task.cell_index, task.trial_index, task.attempt
        )
        if fault is not None and tracer is not None:
            tracer.emit("fault.injected", fault=fault)
    if fault == "crash":
        raise InjectedFault(
            f"injected crash: cell {task.cell_index} trial {task.trial_index} "
            f"attempt {task.attempt}"
        )
    if fault == "hang":
        time.sleep(task.faults.hang_seconds)
    factory = _resolve_factory(task)
    if getattr(factory, "trial_aware", False):
        session = factory(task.seed, task.trial_index)
    else:
        session = factory(task.seed)
    if not isinstance(session, TuningSession):
        raise TypeError(
            f"cell {task.cell_name!r} factory must return a TuningSession, "
            f"got {type(session).__name__}"
        )
    if fault in ("nan", "slowdown"):
        session.evaluator = FaultyEvaluator(
            session.evaluator,
            mode="nan" if fault == "nan" else "slowdown",
            factor=task.faults.slowdown_factor,
        )
    if tracer is not None:
        session.tracer = tracer
    result = session.run()
    return TrialOutcome(
        cell_index=task.cell_index,
        cell_name=task.cell_name,
        trial_index=task.trial_index,
        seed=task.seed,
        ntt=result.normalized_total_time(),
        final_cost=result.best_true_cost,
        total_time=result.total_time(),
        converged=result.converged_at is not None,
        result=result if task.keep_result else None,
    )


def _emit_trial_fail(task: SweepTask, exc: BaseException, kind: str) -> None:
    """Record a worker-side failure event for a traced task (and flush)."""
    if task.trace is None:
        return
    tracer = obs_trace.worker_tracer(task.trace)
    tracer.emit(
        "trial.fail",
        cell=task.cell_index,
        trial=task.trial_index,
        attempt=task.attempt,
        src="worker",
        fail_kind=kind,
        error_type=type(exc).__name__,
        message=str(exc),
    )
    tracer.flush()


def _run_trial_with_timeout(task: SweepTask, timeout: float) -> TrialOutcome:
    """Run one task under a wall-clock watchdog.

    The trial runs in a daemon thread; if it has not finished within
    *timeout* seconds it is abandoned (the thread keeps running but its
    eventual result is discarded — it cannot race the re-dispatched copy)
    and :class:`TrialTimeout` is raised so the recovery loop can
    re-dispatch the task.
    """
    box: list[object] = []

    def target() -> None:
        try:
            box.append(run_trial(task))
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            box.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise TrialTimeout(
            f"cell {task.cell_index} trial {task.trial_index} attempt "
            f"{task.attempt} exceeded its {timeout:g}s allowance"
        )
    outcome = box[0]
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome  # type: ignore[return-value]


def _guarded_trial(task: SweepTask) -> TrialOutcome | TrialFailure:
    """Run one task, capturing any failure as a :class:`TrialFailure`."""
    try:
        if task.timeout is not None:
            return _run_trial_with_timeout(task, task.timeout)
        return run_trial(task)
    except TrialTimeout as exc:
        _emit_trial_fail(task, exc, "timeout")
        return _failure(task, exc, kind="timeout")
    except Exception as exc:  # noqa: BLE001 - per-task isolation is the point
        _emit_trial_fail(task, exc, "error")
        return _failure(task, exc, kind="error")


def _run_chunk(tasks: Sequence[SweepTask]) -> list[TrialOutcome | TrialFailure]:
    """Worker entry point for the process pool: run one contiguous chunk.

    Outcomes are captured per task — a raising task yields its own
    :class:`TrialFailure` and its completed siblings survive untouched
    (the chunk is a shipping container, not a failure domain).
    """
    out: list[TrialOutcome | TrialFailure] = []
    for task in tasks:
        result = _guarded_trial(task)
        if isinstance(result, TrialFailure):
            result = result._picklable()
        out.append(result)
    return out


def chunk_tasks(n_tasks: int, jobs: int) -> list[range]:
    """Split ``range(n_tasks)`` into contiguous chunks for pool submission.

    Chunk sizes are guided: each chunk takes ``1 / (2 * jobs)`` of the
    tasks still unassigned (at least one), so 144 tasks on 2 workers ship
    as 36, 27, 20, ..., 1.  Large early chunks keep pickling overhead
    amortized, and the sizes shrink towards single tasks, so no worker
    idles at the end of a sweep while another finishes a long last chunk;
    short sweeps (fewer than 4 tasks per worker) chunk at size 1 throughout
    — with worker-persistent factories a task descriptor is a few bytes,
    so minimal chunks cost nothing.  Stragglers are not rebalanced at this
    layer: a task that exceeds its ``timeout`` is abandoned by the per-task
    watchdog and surfaces as a timeout :class:`TrialFailure`, which the
    recovery pass in :func:`execute_ordered` re-dispatches (with its
    original seed) as a fresh single-task submission.
    """
    if n_tasks < 0:
        raise ValueError(f"n_tasks must be >= 0, got {n_tasks}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    chunks = []
    start = 0
    while start < n_tasks:
        stop = start + max(1, (n_tasks - start) // (2 * jobs))
        chunks.append(range(start, stop))
        start = stop
    return chunks


class Executor(ABC):
    """Runs sweep tasks, yielding ``(task_index, result)`` in any order.

    Implementations must evaluate every task exactly once via
    :func:`_guarded_trial` (or :func:`_run_chunk`), yielding a
    :class:`TrialOutcome` or a captured :class:`TrialFailure` per task —
    never raising for a task-level error.  Ordering and failure policy are
    the caller's problem — see :func:`execute_ordered`.
    """

    name: str = "executor"

    #: parent-side tracer installed by the sweep runner for the duration of
    #: one traced sweep; executors emit scheduling events (worker loss,
    #: shared-memory export) through it.  None = tracing off.
    tracer: "obs_trace.Tracer | None" = None

    @abstractmethod
    def map_tasks(
        self, tasks: Sequence[SweepTask]
    ) -> Iterator[tuple[int, TrialOutcome | TrialFailure]]:
        """Yield ``(index, outcome-or-failure)`` pairs, completion-ordered."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """In-process, in-order execution — the reference implementation."""

    name = "serial"

    def map_tasks(
        self, tasks: Sequence[SweepTask]
    ) -> Iterator[tuple[int, TrialOutcome | TrialFailure]]:
        for i, task in enumerate(tasks):
            yield i, _guarded_trial(task)


def _strip_factories(tasks: Sequence[SweepTask]) -> tuple[list[SweepTask], dict]:
    """Replace each task's factory with a ``cell-N`` registry key (one per
    distinct factory object); returns the lean tasks and the
    ``key -> factory`` map."""
    registry: dict = {}
    key_of: dict[int, str] = {}
    lean: list[SweepTask] = []
    for task in tasks:
        key = key_of.get(id(task.factory))
        if key is None:
            key = f"cell-{len(registry)}"
            key_of[id(task.factory)] = key
            registry[key] = task.factory
        lean.append(replace(task, factory=None, factory_key=key))
    return lean, registry


class ProcessExecutor(Executor):
    """Process-pool execution for CPU-bound sweeps.

    Factories must be picklable (module-level callables or instances,
    never closures or lambdas).  Each ``map_tasks`` call pickles the
    distinct factories once into a worker ``initializer`` blob and ships
    the tasks as lean keyed descriptors.  The blob is pickled under a
    shared-memory broadcast, so a
    :class:`~repro.apps.database.PerformanceDatabase` inside a factory
    travels as an attach-by-name descriptor and the workers map its arrays
    zero-copy (small databases, and any when ``/dev/shm`` is unavailable,
    pickle inline instead).
    """

    name = "process"

    def __init__(self, jobs: int | None = None):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)

    def _prepare(
        self, tasks: list[SweepTask]
    ) -> tuple[list[SweepTask], bytes, Callable[[], None]]:
        """Set up worker-persistent state for one map_tasks call.

        Returns ``(tasks_to_ship, initializer_blob, release)``; *release*
        unlinks the broadcast's segments and is safe to call twice.
        """
        lean, registry = _strip_factories(tasks)
        broadcast = _shm.ShmBroadcast()
        try:
            # Pickle in the parent, explicitly, so the broadcast export
            # happens even under fork (where initargs are inherited, not
            # pickled at submission time).
            with _shm.broadcasting(broadcast):
                blob = pickle.dumps(registry)
        except Exception:
            broadcast.close()
            raise
        if self.tracer is not None:
            self.tracer.emit(
                "shm.export",
                n_segments=broadcast.n_segments,
                total_bytes=broadcast.total_bytes,
                blob_bytes=len(blob),
            )
        return lean, blob, broadcast.close

    def map_tasks(
        self, tasks: Sequence[SweepTask]
    ) -> Iterator[tuple[int, TrialOutcome | TrialFailure]]:
        tasks = list(tasks)
        if not tasks:
            return
        if self.jobs == 1 or len(tasks) == 1:
            # A one-worker pool is pure overhead; degrade to in-process.
            yield from SerialExecutor().map_tasks(tasks)
            return
        chunks = chunk_tasks(len(tasks), self.jobs)
        ship, blob, release = self._prepare(tasks)
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(chunks)),
                initializer=_worker_init,
                initargs=(blob,),
            ) as pool:
                futures = {
                    pool.submit(_run_chunk, [ship[i] for i in chunk]): chunk
                    for chunk in chunks
                }
                for future in as_completed(futures):
                    chunk = futures[future]
                    try:
                        outcomes = future.result()
                    except BrokenExecutor as exc:
                        # A worker process died outright (segfault, OOM
                        # kill, os._exit).  The pool is unusable from here
                        # on, but the sweep is not: every task still in
                        # flight becomes a worker-lost failure the recovery
                        # pass can re-dispatch on a fresh pool.
                        outcomes = [
                            _failure(tasks[i], exc, kind="worker-lost")
                            for i in chunk
                        ]
                        if self.tracer is not None:
                            for i in chunk:
                                self.tracer.emit(
                                    "worker.lost",
                                    cell=tasks[i].cell_index,
                                    trial=tasks[i].trial_index,
                                    attempt=tasks[i].attempt,
                                    error_type=type(exc).__name__,
                                )
                        # The workers are gone, so the shared-memory
                        # segments can and must be released now: a consumer
                        # that reacts to the failures by raising leaves this
                        # generator suspended in the exception's traceback,
                        # deferring the finally below (and the segments with
                        # it) indefinitely.
                        release()
                    yield from zip(chunk, outcomes)
        finally:
            # Segments stay alive until every worker has exited; the pool's
            # context exit above joins the workers first.
            release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


def make_executor(
    spec: str | Executor, jobs: int | None = None
) -> Executor:
    """Resolve an executor spec (``"serial"|"process"`` or an
    :class:`Executor` instance) plus a worker count into an executor."""
    if isinstance(spec, Executor):
        if jobs is not None:
            raise ValueError(
                "jobs cannot be combined with an Executor instance; "
                "configure the instance directly"
            )
        return spec
    if spec == "serial":
        if jobs not in (None, 1):
            raise ValueError(f"serial executor ignores workers, got jobs={jobs}")
        return SerialExecutor()
    if spec == "process":
        return ProcessExecutor(jobs)
    raise ValueError(f"unknown executor {spec!r}; known: {EXECUTOR_NAMES}")


def _raise_failure(failure: TrialFailure) -> None:
    if failure.exception is not None:
        raise failure.exception
    raise RuntimeError(
        f"cell {failure.cell_name!r} trial {failure.trial_index} failed: "
        f"{failure.error_type}: {failure.message}"
    )


def execute_ordered(
    executor: Executor,
    tasks: Iterable[SweepTask],
    emit: Callable[[TrialOutcome], None] | None = None,
    *,
    failure_policy: str = "raise",
    retries: int | None = None,
) -> list[TrialOutcome | TrialFailure]:
    """Run *tasks* on *executor*; return per-task results in task order.

    ``emit`` (the ``collect`` plumbing) is called with each successful
    outcome in strict submission order — with no recovery in play a trial
    that finishes early is buffered until every earlier trial has landed;
    when retries are enabled, emission happens once every task's fate is
    final (a failed trial's slot might otherwise be filled out of order by
    its retry).  Hooks observe the exact serial sequence either way.

    Failure handling:

    * ``failure_policy="raise"`` (default) — the first failure aborts the
      sweep by re-raising the task's exception, the historical behavior;
    * ``"skip"`` — failed trials stay in the result list as
      :class:`TrialFailure` records for the caller to account;
    * ``"retry"`` — failed (crashed, timed-out, or worker-lost) tasks are
      re-dispatched with their original seed and an incremented
      ``attempt``, up to *retries* extra rounds (default 2); tasks that
      still fail are then treated as skipped.  Each retry round runs on a
      fresh pool, which also recovers from a broken process pool.

    *retries* may be combined with any policy (``raise`` then raises only
    if a task exhausts its retries); it defaults to 2 under ``"retry"``
    and 0 otherwise.
    """
    if failure_policy not in FAILURE_POLICIES:
        raise ValueError(
            f"unknown failure_policy {failure_policy!r}; known: {FAILURE_POLICIES}"
        )
    if retries is None:
        retries = 2 if failure_policy == "retry" else 0
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    tasks = list(tasks)
    tracer = getattr(executor, "tracer", None)
    #: the attempt index that produced each task's final result (retries
    #: replace results in place, so the outcome itself doesn't carry it)
    final_attempt = [0] * len(tasks)
    results: list[TrialOutcome | TrialFailure | None] = [None] * len(tasks)
    stream = emit is not None and retries == 0
    next_emit = 0
    for i, result in executor.map_tasks(tasks):
        if results[i] is not None:
            raise RuntimeError(f"executor produced task {i} twice")
        if (
            isinstance(result, TrialFailure)
            and failure_policy == "raise"
            and retries == 0
        ):
            _raise_failure(result)
        results[i] = result
        if stream:
            while next_emit < len(tasks) and results[next_emit] is not None:
                ready = results[next_emit]
                if isinstance(ready, TrialOutcome):
                    emit(ready)  # type: ignore[misc]
                next_emit += 1
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        raise RuntimeError(f"executor dropped tasks {missing[:5]}")
    # Recovery: re-dispatch failed tasks (same seed, next attempt) round by
    # round; each round uses a fresh map_tasks call, hence a fresh pool.
    for attempt in range(1, retries + 1):
        pending = [
            i for i, r in enumerate(results) if isinstance(r, TrialFailure)
        ]
        if not pending:
            break
        redispatch = [replace(tasks[i], attempt=attempt) for i in pending]
        if tracer is not None:
            for task in redispatch:
                tracer.emit(
                    "retry.dispatch",
                    cell=task.cell_index,
                    trial=task.trial_index,
                    attempt=task.attempt,
                )
        round_results: list[TrialOutcome | TrialFailure | None] = [None] * len(
            redispatch
        )
        for j, result in executor.map_tasks(redispatch):
            if round_results[j] is not None:
                raise RuntimeError(f"executor produced retried task {j} twice")
            round_results[j] = result
        for j, i in enumerate(pending):
            if round_results[j] is None:
                raise RuntimeError(f"executor dropped retried task {i}")
            results[i] = round_results[j]
            final_attempt[i] = attempt
    if tracer is not None:
        # Parent-authoritative verdicts, one per task, emitted after every
        # recovery round has run.  Replay (repro.obs.replay) trusts these —
        # unlike worker shard events, they cannot race a timed-out trial's
        # abandoned watchdog thread.
        for i, result in enumerate(results):
            task = tasks[i]
            if isinstance(result, TrialOutcome):
                tracer.emit(
                    "trial.settled",
                    cell=task.cell_index,
                    trial=task.trial_index,
                    attempt=final_attempt[i],
                    seed=task.seed,
                    status="ok",
                    ntt=result.ntt,
                    final_cost=result.final_cost,
                    total_time=result.total_time,
                    converged=bool(result.converged),
                )
            elif isinstance(result, TrialFailure):
                tracer.emit(
                    "trial.settled",
                    cell=task.cell_index,
                    trial=task.trial_index,
                    attempt=result.attempt,
                    seed=task.seed,
                    status="failed",
                    fail_kind=result.kind,
                    error_type=result.error_type,
                )
    failures = [r for r in results if isinstance(r, TrialFailure)]
    if failures and failure_policy == "raise":
        _raise_failure(failures[0])
    if emit is not None and not stream:
        for result in results:
            if isinstance(result, TrialOutcome):
                emit(result)
    return results  # type: ignore[return-value]
