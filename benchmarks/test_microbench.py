"""Micro-benchmarks of the library's hot paths.

Not figure reproductions — these time the operations the simulation
experiments hammer (projection, session stepping, database interpolation,
the queue simulator), so performance regressions in the substrate are
visible next to the figure benches.

The ``bench_smoke`` subset (``pytest benchmarks/test_microbench.py -m
bench_smoke``) additionally times the parallel sweep engine and the
vectorized cluster step against their baselines and records the numbers in
machine-readable form at ``BENCH_runner.json`` in the repo root, so
successive PRs can be compared without scraping test output.
"""

import gc
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.apps.database import PerformanceDatabase
from repro.apps.gs2 import GS2Surrogate
from repro.cluster import Cluster, ExponentialService, PoissonArrivals
from repro.cluster.workload import WorkloadSource
from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.experiments.runner import run_sweep
from repro.harmony.evaluator import FunctionEvaluator
from repro.harmony.session import TuningSession
from repro.space import IntParameter, ParameterSpace
from repro.variability.models import ParetoNoise
from test_server_throughput import _update_bench_json
from tests.oracles import HeapCluster, per_wave


@pytest.fixture(scope="module")
def gs2():
    return GS2Surrogate()


@pytest.fixture(scope="module")
def gs2_db(gs2):
    return PerformanceDatabase.from_function(gs2, gs2.space(), rng=0)


@pytest.fixture(scope="module")
def sparse_db(gs2):
    return PerformanceDatabase.from_function(
        gs2, gs2.space(), fraction=0.5, rng=0
    )


def test_perf_projection(benchmark, gs2):
    space = gs2.space()
    center = space.center()
    rng = np.random.default_rng(0)
    raw = [space.random_point(rng) + rng.normal(0, 3, 3) for _ in range(64)]

    def project_batch():
        return [space.project(p, center) for p in raw]

    out = benchmark(project_batch)
    assert all(space.contains(p) for p in out)


def test_perf_surrogate_eval(benchmark, gs2):
    space = gs2.space()
    rng = np.random.default_rng(1)
    pts = np.array([space.random_point(rng) for _ in range(256)])
    total = benchmark(lambda: gs2.batch(pts).sum())
    assert total > 0


def test_perf_db_exact_lookup(benchmark, gs2_db, gs2):
    space = gs2.space()
    rng = np.random.default_rng(2)
    pts = [space.random_point(rng) for _ in range(128)]
    total = benchmark(lambda: sum(gs2_db(p) for p in pts))
    assert total > 0


def test_perf_db_interpolation(benchmark, sparse_db, gs2):
    space = gs2.space()
    rng = np.random.default_rng(3)
    # Force interpolation by querying points missing from the sparse DB.
    missing = [p for p in (space.random_point(rng) for _ in range(400))
               if sparse_db.lookup(p) is None][:64]
    assert missing
    total = benchmark(lambda: sum(sparse_db.interpolate(p) for p in missing))
    assert total > 0


def test_perf_session_steps(benchmark, gs2, gs2_db):
    noise = ParetoNoise(rho=0.2)

    def one_session():
        tuner = ParallelRankOrdering(gs2.space())
        return TuningSession(
            tuner, gs2_db, noise=noise, budget=100,
            plan=SamplingPlan(1), rng=4,
        ).run().total_time()

    assert benchmark(one_session) > 0


def test_perf_queue_simulator(benchmark):
    def run_cluster():
        cluster = Cluster(
            8,
            private_sources=[PoissonArrivals(0.2, ExponentialService(0.3))],
            seed=5,
        )
        return cluster.run(1.0, 200).total_time()

    assert benchmark(run_cluster) > 0


# -- bench_smoke: machine-readable runner/cluster perf numbers --------------------

# Module-level so the sweep cell pickles into process-pool workers.
_SMOKE_SPACE = ParameterSpace([IntParameter(f"x{i}", -6, 6) for i in range(3)])


def _smoke_objective(point) -> float:
    return 1.0 + float(np.sum((np.asarray(point, dtype=float) - 2.0) ** 2))


#: simulated per-measurement wall time of the latency-modeled workload
_MEASURE_LATENCY_S = 0.001


def _latency_objective(point) -> float:
    """A measurement that takes wall-clock time, like a real application run.

    ``sleep`` releases both the GIL and the CPU, so process workers overlap
    these measurements even on a single core — the regime the paper's
    tuning targets (application runs dominate, Python bookkeeping doesn't).
    """
    time.sleep(_MEASURE_LATENCY_S)
    return _smoke_objective(point)


@dataclass(frozen=True)
class _SmokeCell:
    k: int
    budget: int = 120
    objective: object = _smoke_objective

    def __call__(self, seed: int) -> TuningSession:
        return TuningSession(
            ParallelRankOrdering(_SMOKE_SPACE),
            self.objective,
            noise=ParetoNoise(rho=0.2),
            budget=self.budget,
            plan=SamplingPlan(self.k),
            rng=seed,
        )


class _PerEventPoisson(WorkloadSource):
    """Scalar-draw Poisson source: the pre-vectorization event generator.

    Inherits the default per-event ``stream_blocks`` wrapper, so timing a
    cluster built on it measures exactly what the block interface replaced.
    """

    def __init__(self, rate, service):
        self.rate = rate
        self.service = service

    @property
    def load(self):
        return self.rate * self.service.mean

    def stream(self, start, rng=None):
        from repro._util import as_generator

        gen = as_generator(rng)
        t = float(start)
        scale = 1.0 / self.rate
        while True:
            t += float(gen.exponential(scale))
            yield t, self.service.sample(gen)


def _best_of(n: int, fn):
    best = float("inf")
    value = None
    for _ in range(n):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


@pytest.mark.bench_smoke
def test_smoke_sweep_executors():
    """Serial vs process-parallel run_sweep on a latency-modeled workload.

    Each measurement sleeps :data:`_MEASURE_LATENCY_S` (a stand-in for an
    application iteration actually running), so process workers overlap
    measurements even on a single core.  With worker-persistent factories
    and lean task descriptors the pool overhead no longer eats the
    overlap: the speedup is asserted > 1, the tentpole claim of this
    engine.  Results must stay bit-identical to serial.
    """
    cells = [
        (f"k{k}", _SmokeCell(k, budget=24, objective=_latency_objective))
        for k in (1, 2)
    ]
    trials, jobs = 8, 4

    serial_s, serial = _best_of(
        1, lambda: run_sweep(cells, trials=trials, rng=77, executor="serial")
    )
    process_s, parallel = _best_of(
        1,
        lambda: run_sweep(
            cells, trials=trials, rng=77, executor="process", jobs=jobs
        ),
    )
    identical = parallel.to_dict() == serial.to_dict()
    assert identical, "process sweep diverged from serial"
    speedup = serial_s / process_s
    assert speedup > 1.0, (
        f"process sweep ({jobs} workers) must beat serial on the "
        f"latency-modeled workload, got {speedup:.2f}x"
    )
    _update_bench_json(
        "sweep",
        {
            "cells": len(cells),
            "trials": trials,
            "budget": 24,
            "jobs": jobs,
            "measure_latency_s": _MEASURE_LATENCY_S,
            "serial_s": round(serial_s, 4),
            "process_s": round(process_s, 4),
            "speedup": round(speedup, 3),
            "results_identical": identical,
        },
    )


@pytest.mark.bench_smoke
def test_smoke_sweep_executors_cpu():
    """Pure-CPU sweep timing: recorded, not asserted.

    On a single-core container a CPU-bound process sweep cannot beat
    serial whatever the engine does; the number is recorded so multi-core
    environments can see the overhead trend across PRs.
    """
    cells = [(f"k{k}", _SmokeCell(k)) for k in (1, 2, 3, 5)]
    trials, jobs = 16, 4

    serial_s, serial = _best_of(
        1, lambda: run_sweep(cells, trials=trials, rng=77, executor="serial")
    )
    process_s, parallel = _best_of(
        1,
        lambda: run_sweep(
            cells, trials=trials, rng=77, executor="process", jobs=jobs
        ),
    )
    identical = parallel.to_dict() == serial.to_dict()
    assert identical, "process sweep diverged from serial"
    _update_bench_json(
        "sweep_cpu",
        {
            "cells": len(cells),
            "trials": trials,
            "budget": 120,
            "jobs": jobs,
            "serial_s": round(serial_s, 4),
            "process_s": round(process_s, 4),
            "speedup": round(serial_s / process_s, 3),
            "results_identical": identical,
        },
    )


@pytest.mark.bench_smoke
def test_smoke_cluster_event_generation():
    """Batched event-horizon kernel vs the per-event scalar baseline.

    The baseline arm is the seed's configuration end to end: per-event
    block generation feeding the scalar heap loop, which lives on as the
    test oracle ``tests/oracles.HeapCluster``.  The contender is the
    production cluster: vectorized block generation feeding the batched
    horizon-merge kernel.  Both produce bit-identical traces (asserted in
    ``tests/cluster/test_batched_kernel.py``); here only the total is
    sanity-checked so the timing loop stays honest.
    """
    nodes, iterations = 8, 250

    def run(source_cls, cluster_class):
        cluster = cluster_class(
            nodes,
            private_sources=[source_cls(5.0, ExponentialService(0.05))],
            seed=9,
        )
        return cluster.run(1.0, iterations).total_time()

    vector_s, vector_total = _best_of(3, lambda: run(PoissonArrivals, Cluster))
    scalar_s, scalar_total = _best_of(
        3, lambda: run(_PerEventPoisson, HeapCluster)
    )
    assert vector_total > 0 and scalar_total > 0
    _update_bench_json(
        "cluster_step",
        {
            "nodes": nodes,
            "iterations": iterations,
            "event_rate": 5.0,
            "kernel": "batched",
            "baseline_kernel": "scalar",
            "vectorized_s": round(vector_s, 4),
            "per_event_s": round(scalar_s, 4),
            "speedup": round(scalar_s / vector_s, 3),
        },
    )


#: per-measurement wall time for the tracing bench — 2 ms keeps the trace
#: apparatus (a fixed ~15 ms per sweep) well under the 2% gate even with
#: scheduler jitter on a loaded single-core runner
_TRACE_BENCH_LATENCY_S = 0.002


def _trace_bench_objective(point) -> float:
    time.sleep(_TRACE_BENCH_LATENCY_S)
    return _smoke_objective(point)


@pytest.mark.bench_smoke
def test_smoke_tracing_overhead(tmp_path):
    """Traced vs untraced serial sweep on a latency-modeled workload.

    Tracing is the observability tentpole's cost center: every session step
    and trial emits an event, and the runner merges and writes the JSONL
    trace at the end.  On a workload where measurements dominate — exactly
    the regime where traces are worth recording — the whole apparatus must
    stay under 2% of wall clock.  Arms are interleaved and take the best of
    six so a load burst on a shared runner cannot poison one side.
    """
    cells = [
        (f"k{k}", _SmokeCell(k, budget=24, objective=_trace_bench_objective))
        for k in (1, 2)
    ]
    trials = 8

    def plain():
        return run_sweep(cells, trials=trials, rng=77, executor="serial")

    def traced():
        target = tmp_path / "bench-trace.jsonl"
        return run_sweep(
            cells, trials=trials, rng=77, executor="serial", trace=target
        )

    # One untimed round lets straggler state from earlier benches (worker
    # reaping, allocator growth) drain before anything is measured.
    plain()
    traced()
    plain_s = traced_s = float("inf")
    n_events = 0
    for _ in range(6):
        gc.collect()
        t, _unused = _best_of(1, plain)
        plain_s = min(plain_s, t)
        gc.collect()
        t, result = _best_of(1, traced)
        traced_s = min(traced_s, t)
        n_events = result.meta["obs"]["n_events"]
    overhead = traced_s / plain_s - 1.0
    assert overhead < 0.02, (
        f"tracing must cost < 2% on the latency-modeled workload, "
        f"got {overhead:.2%} ({plain_s:.4f}s -> {traced_s:.4f}s)"
    )
    _update_bench_json(
        "obs",
        {
            "cells": len(cells),
            "trials": trials,
            "budget": 24,
            "measure_latency_s": _TRACE_BENCH_LATENCY_S,
            "n_events": n_events,
            "plain_s": round(plain_s, 4),
            "traced_s": round(traced_s, 4),
            "overhead_frac": round(overhead, 4),
        },
    )


# -- bench_smoke: batched single-process session throughput ----------------------

_DB_DIM = 16
_DB_ENTRIES = 2000
_DB_SPACE = ParameterSpace([IntParameter(f"x{i}", -10, 10) for i in range(_DB_DIM)])


def _rugged(point) -> float:
    """A multimodal cost surface that keeps PRO searching (no early
    convergence), so the session spends its budget on EVALUATE batches —
    the regime the batched fast path targets."""
    x = np.asarray(point, dtype=float)
    return float(1.0 + np.sum(x * x + 10.0 * (1.0 - np.cos(np.pi * x / 2.0))))


def _make_session_db() -> PerformanceDatabase:
    rng = np.random.default_rng(3)
    entries = {}
    while len(entries) < _DB_ENTRIES:
        pt = tuple(float(v) for v in rng.integers(-10, 11, size=_DB_DIM))
        entries[pt] = _rugged(pt)
    db = PerformanceDatabase.from_mapping(entries, _DB_SPACE)
    db._index()  # prebuild the KD-tree outside the timed region
    return db


class _ScalarSpace(ParameterSpace):
    """Pre-batching geometry: batch entry points loop row by row through
    the scalar operators, exactly as the seed's tuner did."""

    def contains_batch(self, points):
        arr = self.as_batch(points)
        return np.fromiter(
            (self.contains(row) for row in arr), dtype=bool, count=arr.shape[0]
        )

    def project_batch(self, points, center):
        arr = self.as_batch(points)
        return np.array([self.project(row, center) for row in arr], dtype=float)


class _ScalarDB:
    """Hides ``evaluate_batch`` so the evaluator degrades to the seed's
    one-Python-call-per-point cost loop (the memo predates this engine and
    stays on in both arms)."""

    def __init__(self, db: PerformanceDatabase) -> None:
        self._db = db

    def __call__(self, point) -> float:
        return self._db(point)


def _db_session(db, space, seed, batched) -> TuningSession:
    evaluator = FunctionEvaluator(db, ParetoNoise(rho=0.2))
    return TuningSession(
        ParallelRankOrdering(space),
        evaluator if batched else per_wave(evaluator),
        budget=60,
        plan=SamplingPlan(5),
        rng=seed,
    )


@pytest.mark.bench_smoke
def test_smoke_session_batched():
    """Batched vs scalar single-process session on the database evaluator.

    The "before" arm reconstructs the seed's behavior: scalar geometry in
    the tuner, per-point database calls, and the per-wave ``observe_wave``
    path (``tests/oracles.per_wave``).  The "after" arm is the default
    configuration.  Identity is asserted bitwise (same seed, same
    step times); the tentpole targets >= 2x, asserted at >= 1.5x to keep
    the gate robust to CI timer noise.
    """
    db_new = _make_session_db()
    db_old = _make_session_db()
    scalar_space = _ScalarSpace(_DB_SPACE.parameters)
    scalar_db = _ScalarDB(db_old)

    # Bitwise identity of the two paths on a paired seed.
    r_new = _db_session(db_new, _DB_SPACE, 991, batched=True).run()
    r_old = _db_session(scalar_db, scalar_space, 991, batched=False).run()
    identical = (
        r_new.step_times.tobytes() == r_old.step_times.tobytes()
        and r_new.best_point.tobytes() == r_old.best_point.tobytes()
    )
    assert identical, "batched session diverged from the scalar path"

    seeds = list(range(5000, 5010))

    def run_arm(db, space, batched):
        for seed in seeds:
            _db_session(db, space, seed, batched).run()

    # Interleave the arms' timing reps so a load burst on a shared runner
    # penalizes both sides instead of poisoning one arm's best-of.
    batched_s = scalar_s = float("inf")
    for _ in range(4):
        t, _unused = _best_of(1, lambda: run_arm(db_new, _DB_SPACE, True))
        batched_s = min(batched_s, t)
        t, _unused = _best_of(1, lambda: run_arm(scalar_db, scalar_space, False))
        scalar_s = min(scalar_s, t)
    speedup = scalar_s / batched_s
    assert speedup >= 1.5, (
        f"batched session fast path must be >= 1.5x the scalar path, "
        f"got {speedup:.2f}x"
    )
    _update_bench_json(
        "session_db",
        {
            "dimension": _DB_DIM,
            "entries": _DB_ENTRIES,
            "k": 5,
            "budget": 60,
            "sessions": len(seeds),
            "batched_s": round(batched_s, 4),
            "scalar_s": round(scalar_s, 4),
            "speedup": round(speedup, 3),
            "results_identical": identical,
        },
    )


#: batch widths for the wire codec bench — 1 isolates per-frame overhead,
#: 16 is the client default, 256 is the wide-batch regime where JSON's
#: per-value parse cost dominates
_WIRE_WIDTHS = (1, 16, 256)


@pytest.mark.bench_smoke
def test_smoke_wire_codec():
    """Pure codec throughput: JSON lines vs binary frames, same payloads.

    Each round trip encodes and decodes one ``report_many`` request plus
    one points response carrying *width* messages — the serving hot path
    with the sockets taken out.  Both arms run identical widths, so
    ``speedup_16`` (guarded in ``compare_bench.py``) is a like-for-like
    codec ratio, unlike the ``server`` section's mixed-width serving arms.
    """
    from repro.harmony import binproto, protocol

    section: dict = {"widths": list(_WIRE_WIDTHS)}
    for width in _WIRE_WIDTHS:
        rng = np.random.default_rng(width)
        tokens = np.arange(width, dtype=np.int32)
        times = rng.uniform(0.5, 2.0, width)
        points = rng.uniform(-10.0, 10.0, (width, 2))
        report_msg = {
            "op": "report_many",
            "session": "bench",
            "client": 3,
            "step": 7,
            "tokens": tokens.tolist(),
            "times": times.tolist(),
        }
        points_msg = {
            "ok": True,
            "seq": 7,
            "tokens": tokens.tolist(),
            "points": points.tolist(),
        }
        rounds = max(1, 4096 // width)

        def json_arm():
            for _ in range(rounds):
                req = protocol.encode_line(report_msg)
                msg, err = protocol.decode_line(req[:-1])
                assert err is None and msg["op"] == "report_many"
                resp = protocol.encode_line(points_msg)
                out, err = protocol.decode_line(resp[:-1])
                assert err is None and out["ok"]

        def bin_arm():
            for _ in range(rounds):
                req = binproto.encode_report_many(
                    7, "bench", 3, 7, tokens, times
                )
                _client, _step, _sess, got_tokens, got_times = (
                    binproto.decode_report_many(req[binproto.HEADER_SIZE:])
                )
                assert len(got_times) == width
                resp = binproto.encode_points(7, tokens, points)
                decoded = binproto.decode_response(
                    binproto.MSG_POINTS, resp[binproto.HEADER_SIZE:]
                )
                assert decoded[0] == "points"

        json_s, _unused = _best_of(3, json_arm)
        bin_s, _unused = _best_of(3, bin_arm)
        msgs = 2 * width * rounds
        section[f"json_msgs_per_s_{width}"] = round(msgs / json_s, 1)
        section[f"bin_msgs_per_s_{width}"] = round(msgs / bin_s, 1)
        section[f"speedup_{width}"] = round(json_s / bin_s, 3)
    assert section["speedup_256"] > 1.0, (
        "binary codec must beat JSON at width 256, got "
        f"{section['speedup_256']}x"
    )
    _update_bench_json("wire", section)
