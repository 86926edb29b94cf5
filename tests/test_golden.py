"""Golden-snapshot tests: end-to-end outputs pinned as committed JSON.

These catch *silent* numeric drift — a refactor that changes session
accounting or sweep aggregation without failing any unit test will move
these snapshots.  After an intentional change, regenerate with::

    PYTHONPATH=src python -m pytest --regen-golden tests/test_golden.py

and review the JSON diff as part of the change.  Snapshots must stay
NaN-free (NaN defeats JSON round-trip equality), so the faulted sweep
below uses a plan seed verified to leave survivors in every cell.
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ExponentialService,
    FixedService,
    ParetoService,
    PeriodicDaemon,
    PoissonArrivals,
)
from repro.core.adaptive import AdaptiveSamplingController
from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import (
    MeanEstimator,
    MedianEstimator,
    MinEstimator,
    SamplingPlan,
)
from repro.experiments.runner import run_sweep
from repro.faults import FaultPlan, FaultyEvaluator
from repro.harmony.evaluator import ClusterEvaluator, FunctionEvaluator
from repro.harmony.session import TuningSession
from repro.obs import Tracer, canonical_events, read_trace
from repro.search import RandomSearch
from repro.variability import ParetoNoise

from tests.cluster.test_batched_kernel import CASES as MACHINE_CASES
from tests.experiments.test_parallel import SPACE, QuadCell, quad_objective
from tests.harmony.test_batched_eval import SPACE as RUGGED_SPACE
from tests.harmony.test_batched_eval import rugged
from tests.oracles import HeapCluster, per_wave

CELLS = [("k1", QuadCell(k=1, budget=20)), ("k2", QuadCell(k=2, budget=20))]


def _assert_nan_free(data, path="$"):
    if isinstance(data, float):
        assert not math.isnan(data), f"NaN at {path} would break the snapshot"
    elif isinstance(data, dict):
        for k, v in data.items():
            _assert_nan_free(v, f"{path}.{k}")
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            _assert_nan_free(v, f"{path}[{i}]")


def test_session_result_snapshot(golden):
    session = TuningSession(
        ParallelRankOrdering(SPACE),
        quad_objective,
        noise=ParetoNoise(rho=0.2),
        budget=30,
        plan=SamplingPlan(2),
        rng=2005,
    )
    data = session.run().to_dict()
    _assert_nan_free(data)
    golden("session_quad.json", data)


def test_clean_sweep_snapshot(golden):
    result = run_sweep(CELLS, trials=3, rng=7)
    data = result.to_dict()
    assert data["failures"] == []
    _assert_nan_free(data)
    golden("sweep_quad_serial.json", data)


def test_faulted_skip_sweep_snapshot(golden):
    plan = FaultPlan(seed=3, crash=0.25)
    result = run_sweep(
        CELLS, trials=4, rng=7, faults=plan, failure_policy="skip"
    )
    data = result.to_dict()
    assert data["failures"], "plan never fired; the snapshot would be clean"
    assert all(c.trials > 0 for c in result.cells), (
        "a cell lost every trial; its NaN aggregates would break the snapshot"
    )
    _assert_nan_free(data)
    golden("sweep_faulted_skip.json", data)


# -- trace snapshots (observability layer) ----------------------------------------
#
# Canonicalized traces carry only model-deterministic payloads (seeds, step
# kinds, model times, costs), so a seeded run reproduces them byte-for-byte;
# a diff here means the *sequence of decisions* changed, not just a metric.


def test_session_trace_snapshot(golden_jsonl):
    tracer = Tracer(label="session")
    TuningSession(
        ParallelRankOrdering(SPACE),
        quad_objective,
        noise=ParetoNoise(rho=0.2),
        budget=30,
        plan=SamplingPlan(2),
        rng=2005,
        tracer=tracer,
    ).run()
    golden_jsonl(
        "trace_session_quad.jsonl", canonical_events(tracer.drain())
    )


def test_faulted_sweep_trace_snapshot(golden_jsonl, tmp_path):
    path = tmp_path / "trace.jsonl"
    run_sweep(
        CELLS, trials=4, rng=7, faults=FaultPlan(seed=3, crash=0.25),
        failure_policy="skip", trace=path,
    )
    golden_jsonl(
        "trace_sweep_faulted_skip.jsonl", canonical_events(read_trace(path))
    )


def test_wal_recovery_trace_snapshot(golden_jsonl, tmp_path):
    """The durable-serving lifecycle, pinned: appends during a run, a kill,
    replay on restart (``wal.recover``), resumed appends under the same
    client identity, and a snapshot+truncate.  A diff here means the
    *durability decisions* — what gets logged, what replay reports —
    changed, not just a metric."""
    from repro.harmony.client import TuningClient
    from repro.harmony.server import TuningServer
    from repro.harmony.transport import InProcessTransport
    from repro.harmony.wal import WalWriter, recover_server

    wal_dir = tmp_path / "wal"

    def run_steps(client, start, steps):
        for step in range(start, start + steps):
            config = client.fetch()
            client.report(quad_objective(config), step=step)

    tracer_before = Tracer(label="server")
    server = TuningServer(
        lambda s: ParallelRankOrdering(s), plan=SamplingPlan(1),
        tracer=tracer_before,
    )
    server.attach_wal(WalWriter(wal_dir))
    client = TuningClient(InProcessTransport(server), nonce="golden-client")
    client.register(SPACE)
    run_steps(client, 0, 6)
    server.close_wal()  # the kill: in-memory state is gone, the log remains

    tracer_after = Tracer(label="server")
    recovered = recover_server(
        lambda s: ParallelRankOrdering(s), wal_dir, plan=SamplingPlan(1),
        tracer=tracer_after,
    )
    client.transport = InProcessTransport(recovered)
    client._register_message(resume=True)
    run_steps(client, 6, 4)
    assert recovered.snapshot_wal()
    recovered.close_wal()

    golden_jsonl(
        "trace_wal_recovery.jsonl",
        canonical_events(tracer_before.drain())
        + canonical_events(tracer_after.drain()),
    )


# -- the session's wave loop, case by case -----------------------------------------
#
# A compact matrix over the loop that charges every wave one time step:
# sequential and parallel sampling, P in {None, 2, 5, 64}, K in {1, 3}, the
# adaptive-K controller (whose incumbent probe rides a spare processor) on
# and off, and budgets of 7 (cut mid-batch), 60 and 200 steps; then P at
# the batch-size edges, the mean and median estimators, random search, a
# slowdown fault injector, a simulated cluster and one traced run per
# discipline.  Each case runs on the batched fast path and on the per-wave
# reference (``tests/oracles.per_wave``), which must agree exactly.  Records spell floats in hex and end
# with the generator's state; the snapshot keeps every case's SHA-256 and
# the full record of a few.

_WAVE_FULL = ("seq-P2-K3-ctrl-b7", "par-P5-K3-ctrl-b7", "seq-traced", "par-traced")


def _wave_cases():
    """``{name: case}`` for the wave-loop snapshot."""
    cases = {}

    def add(name, par, **case):
        cases[f"{'par' if par else 'seq'}-{name}"] = dict(parallel_sampling=par, **case)

    def ctrl_name(ctrl):
        return "ctrl" if ctrl else "fixed"

    for par, p, k, ctrl, budget in itertools.product(
        (False, True), (None, 2, 5, 64), (1, 3), (False, True), (7, 60, 200)
    ):
        add(f"P{p}-K{k}-{ctrl_name(ctrl)}-b{budget}", par,
            n_processors=p, k=k, controller=ctrl, budget=budget)
    # P at and just above the batch sizes (7 and 8 candidates, n·K for
    # K = 2): the probe needs a spare processor, so a full wave never has it
    for par, p, k in itertools.product((False, True), (7, 8, 14, 16), (1, 2)):
        add(f"edge-P{p}-K{k}", par, n_processors=p, k=k, controller=True, budget=60)
    for par, est, p in itertools.product((False, True), ("mean", "median"), (2, None)):
        add(f"{est}-P{p}", par, n_processors=p, k=3, controller=True, budget=60,
            estimator=est)
    for par, p, k, ctrl in itertools.product(
        (False, True), (None, 4), (1, 3), (False, True)
    ):
        add(f"random-P{p}-K{k}-{ctrl_name(ctrl)}", par,
            n_processors=p, k=k, controller=ctrl, budget=30, tuner="random")
    for par, p, ctrl in itertools.product((False, True), (None, 3), (False, True)):
        add(f"slowdown-P{p}-{ctrl_name(ctrl)}", par,
            n_processors=p, k=2, controller=ctrl, budget=60, substrate="slowdown")
    for par in (False, True):
        add("cluster", par, n_processors=None, k=2, controller=True, budget=40,
            substrate="cluster")
        add("traced", par, n_processors=5, k=2, controller=True, budget=60,
            traced=True)
    return cases


def _wave_session(case, seed, reference):
    estimator = {"mean": MeanEstimator(), "median": MedianEstimator()}.get(
        case.get("estimator"), MinEstimator()
    )
    plan = SamplingPlan(case["k"], estimator)
    if case.get("tuner") == "random":
        tuner = RandomSearch(RUGGED_SPACE, batch_size=6, rng=seed)
    else:
        tuner = ParallelRankOrdering(RUGGED_SPACE)
    evaluator = FunctionEvaluator(rugged, ParetoNoise(rho=0.2))
    if case.get("substrate") == "slowdown":
        evaluator = FaultyEvaluator(evaluator, mode="slowdown", after=3, times=4)
    elif case.get("substrate") == "cluster":
        cluster = Cluster(
            6, private_sources=[PoissonArrivals(0.2, ExponentialService(0.3))],
            seed=seed,
        )
        evaluator = ClusterEvaluator(rugged, cluster)
    if reference:
        evaluator = per_wave(evaluator)
    controller = (
        AdaptiveSamplingController(k_initial=case["k"], k_max=4)
        if case["controller"] else None
    )
    return TuningSession(
        tuner, evaluator, budget=case["budget"],
        n_processors=case["n_processors"], plan=plan, controller=controller,
        parallel_sampling=case["parallel_sampling"], record_details=True,
        rng=seed,
        tracer=Tracer(label="session") if case.get("traced") else None,
    )


def _wave_record(session):
    result = session.run()
    record = {
        "step_times": [t.hex() for t in result.step_times.tolist()],
        "step_kinds": [kind.value for kind in result.step_kinds],
        "incumbent_true_costs": [
            c.hex() for c in result.incumbent_true_costs.tolist()
        ],
        "best_point": result.best_point.tolist(),
        "best_estimate": result.best_estimate.hex(),
        "best_true_cost": result.best_true_cost.hex(),
        "n_measurements": result.n_measurements,
        "n_evaluations": result.n_evaluations,
        "converged_at": result.converged_at,
        "step_details": list(result.step_details),
        "rng_state": session.rng.bit_generator.state,
    }
    if session.tracer is not None:
        record["events"] = canonical_events(session.tracer.drain())
    return record


def test_session_waves_snapshot(golden_text):
    digests, records = {}, {}
    for seed, (name, case) in enumerate(sorted(_wave_cases().items()), 100):
        fast = _wave_record(_wave_session(case, seed, reference=False))
        reference = _wave_record(_wave_session(case, seed, reference=True))
        assert fast == reference, f"{name}: fast path diverged from the reference"
        canonical = json.dumps(fast, sort_keys=True)
        digests[name] = hashlib.sha256(canonical.encode()).hexdigest()
        if name in _WAVE_FULL:
            records[name] = fast
    text = json.dumps({"sha256": digests, "records": records}, indent=1, sort_keys=True)
    golden_text("session_waves.json", text + "\n")


# -- serialized server state, byte for byte ------------------------------------------
#
# WAL snapshots, checkpoints and migration all ship ``state_dict()`` /
# ``op_checkpoint()`` JSON, and logs written by one build are replayed by
# the next.  The scripted session below touches every kind of state a
# session serializes: two clients, K = 2, a reply cache small enough to
# evict, fetch / report / stale / incumbent replies on the JSON face,
# ``points`` / ``ack`` replies on the array face, a batch part-way
# through its samples, and an unstamped re-report of a logged
# (step, client) cell (last write wins).

_STATE_SPACE = [
    {"type": "int", "name": "a", "lower": -10, "upper": 10, "step": 1},
    {"type": "int", "name": "b", "lower": -10, "upper": 10, "step": 1},
]


def _state_cost(point):
    a, b = point
    return 1.0 + 0.25 * (a - 3) ** 2 + 0.5 * (b + 2) ** 2


def _state_server(wal_dir=None):
    """A server for the scripted session (recovered from *wal_dir* if given)."""
    from repro.core.sampling import MinEstimator
    from repro.experiments.common import tuner_factory
    from repro.harmony.server import TuningServer
    from repro.harmony.wal import recover_server

    factory, plan = tuner_factory("pro", rng=0), SamplingPlan(1, MinEstimator())
    if wal_dir is None:
        return TuningServer(factory, plan=plan, reply_cache_size=4)
    return recover_server(factory, wal_dir, plan=plan, reply_cache_size=4)


def _script_session(server):
    name = "g"
    server.handle({"op": "open_session", "session": name, "k": 2, "estimator": "min"})
    ids = [
        server.handle({
            "op": "register", "session": name, "params": _STATE_SPACE,
            "nonce": f"n{i}",
        })["client_id"]
        for i in range(2)
    ]
    cseq = [0, 0]

    def stamp(client):
        cseq[client] += 1
        return cseq[client]

    for step in range(10):
        order = ids if step % 2 == 0 else ids[::-1]
        fetched = {
            c: server.handle({
                "op": "fetch", "session": name, "client_id": c, "cseq": stamp(c),
            })
            for c in order
        }
        for c in reversed(order):
            reply = fetched[c]
            server.handle({
                "op": "report", "session": name, "client_id": c,
                "token": reply["token"],
                "time": _state_cost(reply["point"]) + 0.125 * c + 0.0625 * step,
                "step": step, "cseq": stamp(c),
            })
    session = server.session(name)
    points, tokens = session.fetch_many_arrays(3, client_id=1, cseq=stamp(1))
    times = np.array([_state_cost(p) for p in points]) + 0.5
    session.report_many_arrays(tokens, times, client_id=1, step=10, cseq=stamp(1))
    server.handle({
        "op": "report", "session": name, "client_id": 0, "token": -1,
        "time": 7.75, "step": 3,
    })
    # fetches left in flight until one falls through to the incumbent;
    # the first of them is then reported, so the batch holds a sample
    in_flight = []
    for _ in range(12):
        reply = server.handle({
            "op": "fetch", "session": name, "client_id": 0, "cseq": stamp(0),
        })
        if reply["token"] < 0:
            break
        in_flight.append(reply)
    server.handle({
        "op": "report", "session": name, "client_id": 0,
        "token": in_flight[0]["token"],
        "time": _state_cost(in_flight[0]["point"]), "step": 11, "cseq": stamp(0),
    })
    server.handle({
        "op": "report", "session": name, "client_id": 0, "token": 99,
        "time": 2.5, "step": 12, "cseq": stamp(0),
    })
    # a retried report: answered from the cache, mutates nothing
    retry = server.handle({
        "op": "report", "session": name, "client_id": 0, "token": 99,
        "time": 2.5, "step": 12, "cseq": cseq[0],
    })
    assert retry == {"ok": True, "stale": True}


def _state_text(server):
    checkpoint = server.handle({"op": "checkpoint", "session": "g"})
    assert checkpoint["ok"]
    return json.dumps(
        {"state_dict": server.state_dict(), "checkpoint": checkpoint["snapshot"]},
        indent=1,
    ) + "\n"


def test_server_state_bytes_snapshot(golden_text, tmp_path):
    """``state_dict()`` and ``op_checkpoint()`` are pinned byte for byte,
    and WAL replay, snapshot recovery and migration reproduce them."""
    from repro.harmony.wal import WalWriter

    wal_dir = tmp_path / "wal"
    server = _state_server()
    server.attach_wal(WalWriter(wal_dir))
    _script_session(server)
    server.commit_wal()
    text = _state_text(server)
    golden_text("server_session_state.json", text)
    server.close_wal()

    replayed = _state_server(wal_dir=wal_dir)
    assert _state_text(replayed) == text
    assert replayed.snapshot_wal()
    replayed.close_wal()
    from_snapshot = _state_server(wal_dir=wal_dir)
    assert _state_text(from_snapshot) == text
    from_snapshot.close_wal()

    before = json.dumps(from_snapshot.session("g").state_dict())
    exported = from_snapshot.handle({"op": "export_session", "session": "g"})
    target = _state_server()
    adopted = target.handle({
        "op": "adopt_session", "session": "g",
        "state": json.loads(json.dumps(exported["state"])),
    })
    assert adopted["ok"]
    assert json.dumps(target.session("g").state_dict()) == before


# -- the simulated cluster, on both kernels ------------------------------------------
#
# Per run, the SHA-256 of every iteration time, every barrier time and each
# node's final (clock, backlog, p1_service_done), as little-endian float64
# bytes.  The batched kernel and the scalar heap oracle (``tests/oracles.py``)
# must both reproduce them, so a change to either that moves one float
# operation moves a digest.
# Runs: the Fig. 3 sources on 32 nodes wave by wave (the ClusterEvaluator
# pattern) and as one long run, each machine-level bit-identity case on a
# small cluster, heterogeneous speeds, callable costs, and integer daemon
# lattices whose ties recur under a fast Poisson stream.


def _fig03_sources():
    return {
        "private_sources": [PoissonArrivals(0.15, ParetoService(1.3, 0.15))],
        "shared_sources": [
            PoissonArrivals(0.007, ParetoService(1.25, 2.5)),
            PeriodicDaemon(30.0, FixedService(0.12)),
        ],
    }


def _tie_sources():
    return [
        PeriodicDaemon(3.0, ExponentialService(0.03), phase=2.0),
        PeriodicDaemon(5.0, ExponentialService(0.03), phase=1.0),
        PeriodicDaemon(4.0, ExponentialService(0.03), phase=1.0),
        PoissonArrivals(100.0, ExponentialService(0.0005)),
    ]


def _waves(n_nodes, n_waves, low, high, seed):
    """*n_waves* one-iteration runs, per-node costs uniform in [low, high)."""
    costs = np.random.default_rng(seed).uniform(low, high, (n_waves, n_nodes))
    return [(row, 1) for row in costs]


def _cluster_cases():
    """``{name: (cluster kwargs, [(costs, n_iterations), ...])}``."""
    cases = {
        "fig03-200-waves": (
            dict(n_nodes=32, seed=7, **_fig03_sources()),
            _waves(32, 200, 2.0, 12.0, seed=8),
        ),
        "fig03-one-run": (
            dict(n_nodes=32, seed=7, **_fig03_sources()),
            [(np.random.default_rng(8).uniform(2.0, 12.0, 32), 200)],
        ),
        "speed-factors": (
            dict(
                n_nodes=6,
                private_sources=[
                    PoissonArrivals(2.0, ExponentialService(0.05)),
                    PeriodicDaemon(0.5, FixedService(0.02)),
                ],
                shared_sources=[PeriodicDaemon(1.0, ExponentialService(0.1))],
                speed_factors=[1.0, 0.5, 0.8, 1.25, 0.7, 2.0],
                seed=3,
            ),
            _waves(6, 40, 0.5, 1.5, seed=4) + [(1.0, 40)],
        ),
        "callable-costs": (
            dict(
                n_nodes=5,
                private_sources=[PoissonArrivals(3.0, ParetoService(1.8, 0.01))],
                shared_sources=[PoissonArrivals(0.2, ExponentialService(0.3))],
                seed=5,
            ),
            [(lambda p, k: 0.25 + 0.1 * ((3 * p + k) % 7), 100)] * 2,
        ),
        "ties": (
            dict(n_nodes=4, private_sources=_tie_sources(), seed=917),
            _waves(4, 150, 0.01, 0.6, seed=917) + [(0.3, 150)],
        ),
    }
    for name, make_sources in sorted(MACHINE_CASES.items()):
        if not make_sources():
            continue  # a stream-less node's times are its work: nothing to pin
        cases[f"machine-{name}"] = (
            dict(n_nodes=4, private_sources=make_sources(), seed=11),
            _waves(4, 60, 0.01, 0.5, seed=12) + [(0.25, 60)],
        )
    return cases


def _sha256(values):
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def _cluster_record(cluster_class, kwargs, schedule):
    cluster = cluster_class(**kwargs)
    traces = [cluster.run(costs, n) for costs, n in schedule]
    states = [(n.clock, n.backlog, n.p1_service_done) for n in cluster.nodes]
    return {
        "iterations": sum(n for _, n in schedule),
        "times": _sha256(np.hstack([t.times for t in traces])),
        "barrier_times": _sha256(np.concatenate([t.barrier_times for t in traces])),
        "node_states": _sha256(states),
    }


@pytest.mark.parametrize(
    "cluster_class", [HeapCluster, Cluster], ids=["scalar", "batched"]
)
def test_cluster_traces_snapshot(golden_text, cluster_class):
    records = {
        name: _cluster_record(cluster_class, kwargs, schedule)
        for name, (kwargs, schedule) in _cluster_cases().items()
    }
    text = json.dumps(records, indent=1, sort_keys=True) + "\n"
    golden_text("cluster_traces.json", text)
