"""Command-line interface: tune, serve, trace, surface, figures.

Examples::

    python -m repro tune --tuner pro --rho 0.25 --k 3 --budget 300
    python -m repro tune --trials 10 --json results.json
    python -m repro tune --trials 10 --trace run.jsonl
    python -m repro serve --port 7077 --k 3 --estimator min
    python -m repro trace run.jsonl
    python -m repro trace --nodes 16 --iterations 400
    python -m repro surface --fixed nodes=32
    python -m repro figures fig10 --trials 40

Everything runs against the built-in GS2 surrogate/database workload (the
paper's evaluation subject); the library API is the route for custom
objectives.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.apps.database import PerformanceDatabase
from repro.apps.gs2 import GS2Surrogate
from repro.core.sampling import (
    MeanEstimator,
    MedianEstimator,
    MinEstimator,
    SamplingPlan,
)
from repro.experiments import _fmt
from repro.experiments.common import TUNER_NAMES, tuner_factory
from repro.experiments.parallel import EXECUTOR_NAMES, FAILURE_POLICIES
from repro.experiments.runner import run_sweep
from repro.harmony.session import TuningSession
from repro.report.ascii import heatmap, histogram, line_plot, sparkline
from repro.variability.heavytail import tail_report, truncate
from repro.variability.models import NoNoise, ParetoNoise

__all__ = ["main", "build_parser"]

_ESTIMATORS = {
    "min": MinEstimator,
    "mean": MeanEstimator,
    "median": MedianEstimator,
}


class _TuneCell:
    """Picklable session factory for ``tune --trials N`` sweeps.

    Process-pool execution pickles the factory with each task chunk, so
    this must be a module-level class rather than a closure over argparse
    state.
    """

    def __init__(self, tuner_name, space, db, noise, plan, budget):
        self.tuner_name = tuner_name
        self.space = space
        self.db = db
        self.noise = noise
        self.plan = plan
        self.budget = budget

    def __call__(self, seed: int) -> TuningSession:
        tuner = tuner_factory(self.tuner_name, rng=seed)(self.space)
        return TuningSession(
            tuner, self.db, noise=self.noise, plan=self.plan,
            budget=self.budget, rng=seed,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online parameter tuning with Parallel Rank Ordering "
        "(SC'05 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="tune a built-in workload online")
    p_tune.add_argument("--workload", choices=["gs2", "stencil"], default="gs2")
    p_tune.add_argument("--tuner", choices=TUNER_NAMES, default="pro")
    p_tune.add_argument("--rho", type=float, default=0.2,
                        help="idle throughput of the Pareto noise (0 = none)")
    p_tune.add_argument("--alpha", type=float, default=1.7,
                        help="Pareto tail index of the noise")
    p_tune.add_argument("--k", type=int, default=1, help="samples per evaluation")
    p_tune.add_argument("--estimator", choices=sorted(_ESTIMATORS), default="min")
    p_tune.add_argument("--budget", type=int, default=300,
                        help="application time steps")
    p_tune.add_argument("--db-fraction", type=float, default=1.0,
                        help="lattice coverage of the performance database")
    p_tune.add_argument("--trials", type=int, default=1)
    _add_executor_options(p_tune)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--json", type=Path, default=None,
                        help="write the sweep result as JSON")
    p_tune.add_argument("--plot", action="store_true",
                        help="render the step-time series (single trial only)")
    p_tune.add_argument(
        "--cache-stats", action="store_true",
        help="report the performance database's memo/lookup counters after "
        "the run (a multi-trial sweep needs the serial executor: process "
        "workers query their own copies of the database)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="host the online tuning service on a TCP socket",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7077,
                         help="TCP port (0 = let the OS pick a free one)")
    _add_service_options(p_serve)
    p_serve.add_argument("--workload", choices=["none", "gs2", "stencil", "bench"],
                         default="none",
                         help="preset the parameter space from a built-in "
                         "workload so clients can register bare")
    p_serve.add_argument("--duration", type=float, default=None,
                         metavar="SECONDS",
                         help="serve this long, then drain and exit "
                         "(default: until Ctrl-C)")
    p_serve.add_argument("--port-file", type=Path, default=None,
                         help="write the bound port here once listening "
                         "(lets scripts wait for readiness)")
    p_serve.add_argument("--trace", type=Path, default=None,
                         help="record server.request/server.batch events "
                         "to a JSONL trace on shutdown")
    p_serve.add_argument("--wal-dir", type=Path, default=None,
                         help="make the service durable: append every state "
                         "mutation to a write-ahead log in this directory; "
                         "if it already holds segments, recover the server "
                         "from them by replay before listening")
    p_serve.add_argument("--sync", choices=["always", "batch", "off"],
                         default="batch",
                         help="WAL durability mode: fsync per append, group "
                         "commit per request chunk (default), or OS page "
                         "cache only (kill-safe, not power-fail-safe)")
    p_serve.add_argument("--wal-snapshot-bytes", type=int, default=64 << 20,
                         help="snapshot+truncate the WAL once it grows past "
                         "this many bytes")
    p_serve.add_argument("--crash-at", default=None, metavar="KIND:N",
                         help="fault injection for the crash-recovery tests: "
                         "SIGKILL this process at the Nth WAL event; KIND is "
                         "append, commit, torn, or snapshot")
    p_serve.add_argument("--reply-cache", type=int, default=None,
                         metavar="N",
                         help="per-client exactly-once reply cache size "
                         "(default 64); retries older than the cache window "
                         "get an explicit evicted error")
    p_serve.add_argument("--coordinator", default=None, metavar="HOST:PORT",
                         help="join a tuning fleet: register this server as "
                         "a shard with the coordinator, renew its lease via "
                         "heartbeats, and exit when the lease is revoked")
    p_serve.add_argument("--shard-id", type=int, default=None,
                         help="fixed shard id to register under (default: "
                         "coordinator-assigned)")
    p_serve.add_argument("--service-delay-us", type=int, default=0,
                         metavar="US",
                         help="model this many microseconds of CPU-bound "
                         "service time per wire frame (benchmarking aid: "
                         "makes per-process throughput delay-bound so fleet "
                         "scaling is measurable on one box)")
    p_serve.add_argument("--max-session-pending", type=int, default=None,
                         metavar="N",
                         help="additionally cap any one session's in-flight "
                         "work at N units (requires --max-pending)")
    p_serve.add_argument("--shed-policy", choices=["reject", "fair", "rate"],
                         default="reject",
                         help="how --max-pending sheds: 'reject' refuses "
                         "everything past the global budget; 'fair' also "
                         "splits the budget evenly across active sessions "
                         "so one hot session cannot starve the rest; "
                         "'rate' is a token bucket (capacity --max-pending, "
                         "refilled at --refill-rate) bounding sustained "
                         "throughput instead of instantaneous depth")
    p_serve.add_argument("--refill-rate", type=float, default=None,
                         metavar="UNITS_PER_S",
                         help="token-bucket refill rate in message units "
                         "per second (required with --shed-policy rate)")
    p_serve.add_argument("--retry-after-ms", type=float, default=50.0,
                         metavar="MS",
                         help="base backoff hint sent with 'busy' errors; "
                         "scaled up with queue depth (default: 50)")

    p_fleet = sub.add_parser(
        "fleet",
        help="launch a tuning fleet: coordinator + N shard servers, then "
        "run a sweep of sessions across them",
    )
    p_fleet.add_argument("--shards", type=int, default=2,
                         help="number of shard server processes")
    p_fleet.add_argument("--sessions", type=int, default=None,
                         help="tuning sessions to sweep across the fleet "
                         "(default: 2 per shard)")
    p_fleet.add_argument("--steps", type=int, default=8,
                         help="lock-step tuning iterations per session")
    p_fleet.add_argument("--dir", type=Path, default=None, metavar="DIR",
                         help="fleet state directory: per-shard WALs, the "
                         "coordinator registry WAL, logs, port files "
                         "(default: a temporary directory)")
    _add_service_options(p_fleet)
    p_fleet.add_argument("--lease-s", type=float, default=2.0,
                         help="shard lease duration; heartbeats renew at a "
                         "third of this")
    p_fleet.add_argument("--no-wal", action="store_true",
                         help="run shards without write-ahead logs (faster, "
                         "but a killed shard's sessions re-home fresh "
                         "instead of bit-identically)")
    p_fleet.add_argument("--kill-shard", type=int, default=None,
                         metavar="SHARD",
                         help="demo: SIGKILL this shard midway through the "
                         "sweep and let the fleet re-home its sessions")
    p_fleet.add_argument("--baseline-check", action="store_true",
                         help="re-run the sweep on one in-process server "
                         "and verify the fleet matched it bit-identically")
    p_fleet.add_argument("--rebalance", action="store_true",
                         help="enable proactive load-aware rebalancing: the "
                         "coordinator watches heartbeat load reports and "
                         "live-migrates hot sessions onto quiet shards")
    p_fleet.add_argument("--skew", choices=["none", "uniform", "zipf",
                                            "pareto"],
                         default="none",
                         help="shape the per-session sweep load (zipf/pareto "
                         "concentrate work on the first sessions — the "
                         "workload --rebalance is built to spread out)")
    p_fleet.add_argument("--join", action="append", default=None,
                         metavar="HOST:PORT",
                         help="attach an externally started 'repro serve "
                         "--coordinator' shard instead of spawning localhost "
                         "subprocesses (repeatable; with --join, --shards is "
                         "ignored and start blocks until every listed shard "
                         "registers)")
    p_fleet.add_argument("--coordinator-port", type=int, default=0,
                         metavar="PORT",
                         help="fixed coordinator listen port (default: "
                         "ephemeral; pick one so --join shards know where "
                         "to register)")

    p_load = sub.add_parser(
        "loadgen",
        help="drive a live tuning server with reproducible open- or "
        "closed-loop load and report latency percentiles against an SLO",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True,
                        help="port of a running 'repro serve' or the fleet "
                        "coordinator")
    p_load.add_argument("--mode", choices=["closed", "open"],
                        default="closed",
                        help="closed: each session blocks on the server "
                        "(concurrency-driven); open: requests arrive on a "
                        "schedule regardless of server speed (rate-driven)")
    _add_wire_option(p_load)
    p_load.add_argument("--sessions", default="8", metavar="N[,N...]",
                        help="session-count ramp: one load point per "
                        "comma-separated value (default: 8)")
    p_load.add_argument("--steps", type=int, default=4,
                        help="closed loop: fetch/report rounds per session")
    p_load.add_argument("--duration", type=float, default=5.0, metavar="S",
                        help="open loop: seconds of offered load per point")
    p_load.add_argument("--rate", type=float, default=100.0,
                        help="open loop: mean arrivals per second")
    p_load.add_argument("--arrival",
                        choices=["uniform", "poisson", "pareto"],
                        default="poisson",
                        help="open loop: interarrival process (pareto is "
                        "heavy-tailed: bursts at the same mean rate)")
    p_load.add_argument("--tail-alpha", type=float, default=1.5,
                        help="pareto arrivals: tail index, must be > 1")
    p_load.add_argument("--connections", type=int, default=4,
                        help="sockets (and host threads); sessions are "
                        "multiplexed over them")
    p_load.add_argument("--batch", type=int, default=1,
                        help="configurations per fetch (batched protocol "
                        "when > 1)")
    p_load.add_argument("--busy-retries", type=int, default=16,
                        help="closed loop: busy sheds absorbed per request "
                        "before counting it against the error budget")
    p_load.add_argument("--slo-ms", type=float, default=100.0,
                        help="SLO: p99 latency bound in milliseconds")
    p_load.add_argument("--error-budget", type=float, default=0.01,
                        help="SLO: max fraction of requests shed or failed")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="also write the per-point reports as JSON")

    p_trace = sub.add_parser(
        "trace",
        help="summarize a recorded JSONL trace, or simulate a cluster trace",
    )
    p_trace.add_argument(
        "path", type=Path, nargs="?", default=None,
        help="JSONL trace recorded with --trace; omit to simulate a "
        "fixed-config cluster trace instead",
    )
    p_trace.add_argument("--nodes", type=int, default=16)
    p_trace.add_argument("--iterations", type=int, default=400)
    p_trace.add_argument("--seed", type=int, default=11)
    p_trace.add_argument("--show", type=int, default=4,
                         help="processors to render as sparklines")

    p_surface = sub.add_parser("surface", help="render a GS2 surface slice")
    p_surface.add_argument("--x", dest="x_name", default="ntheta")
    p_surface.add_argument("--y", dest="y_name", default="negrid")
    p_surface.add_argument("--fixed", default="nodes=32",
                           help="remaining parameter, e.g. nodes=32")

    p_fig = sub.add_parser("figures", help="regenerate a paper figure's data")
    p_fig.add_argument("figure", choices=["fig01", "fig08", "fig09", "fig10"])
    p_fig.add_argument("--trials", type=int, default=None)
    _add_executor_options(p_fig)
    return parser


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    """Tuner, wire, metrics and admission flags shared by `serve` and
    `fleet`."""
    parser.add_argument("--tuner", choices=TUNER_NAMES, default="pro")
    parser.add_argument("--k", type=int, default=1,
                        help="samples per candidate (multi-sampling)")
    parser.add_argument("--estimator", choices=sorted(_ESTIMATORS),
                        default="min")
    parser.add_argument("--seed", type=int, default=0)
    _add_wire_option(parser)
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve Prometheus text-format scrapes at "
                        "GET /metrics on this port (0 = ephemeral); a "
                        "fleet serves its coordinator's")
    parser.add_argument("--max-pending", type=int, default=None, metavar="N",
                        help="admission control: bound a server's in-flight "
                        "work to N message units; excess requests are shed "
                        "with a 'busy' error and a retry-after hint "
                        "(default: unbounded, no admission control); a "
                        "fleet gives every shard this budget")


def _add_wire_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wire", choices=["binary", "json"], default="binary",
                        help="'binary' carries fetch/report groups as binary "
                        "frames, negotiated at register (a server sniffs "
                        "JSON lines and binary frames per frame); 'json' "
                        "uses JSON lines only")


def _add_executor_options(parser: argparse.ArgumentParser) -> None:
    """Sweep-parallelism and fault-tolerance flags shared by the
    experiment subcommands."""
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker count for parallel sweep execution "
        "(implies --executor process unless one is given)",
    )
    parser.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None,
        help="sweep execution backend (default: serial; "
        "results are identical across executors for the same seed)",
    )
    parser.add_argument(
        "--failure-policy", choices=FAILURE_POLICIES, default="raise",
        help="what to do with a failed trial: abort the sweep (raise, "
        "default), drop it from the aggregates (skip), or re-dispatch it "
        "with its original seed before dropping (retry)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock allowance; an over-budget trial is "
        "abandoned and handled per --failure-policy",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="recovery rounds for failed trials "
        "(default: 2 under --failure-policy retry, else 0)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and print the top-25 "
        "cumulative-time entries",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="record a structured JSONL event trace of the run; inspect "
        "it later with `repro trace PATH`",
    )


def _resolve_executor(args: argparse.Namespace) -> tuple[str, int | None]:
    """Fold --jobs/--executor into (executor, jobs) with serial defaults."""
    executor = args.executor
    jobs = args.jobs
    if executor is None:
        # Bare `-j N` means "give me N-way parallelism": processes are the
        # safe default for the CPU-bound simulation sweeps.
        executor = "serial" if jobs in (None, 1) else "process"
    if executor == "serial":
        jobs = None
    return executor, jobs


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    """The run_sweep execution/fault kwargs encoded in the shared flags."""
    executor, jobs = _resolve_executor(args)
    return {
        "executor": executor,
        "jobs": jobs,
        "failure_policy": args.failure_policy,
        "retries": args.retries,
        "task_timeout": args.task_timeout,
        "trace": getattr(args, "trace", None),
    }


def _print_cache_stats(stats: dict) -> None:
    """One summary line of database memo/lookup effectiveness."""
    queries = stats.get("n_exact", 0) + stats.get("n_interpolated", 0)
    hits = stats.get("n_memo_hits", 0)
    rate = hits / queries if queries else 0.0
    print(
        f"db cache          : {queries} queries, {hits} memo hits "
        f"({rate:.1%}), {stats.get('n_exact', 0)} exact / "
        f"{stats.get('n_interpolated', 0)} interpolated, "
        f"memo_len={stats.get('memo_len', 0)}"
    )


# -- command handlers ------------------------------------------------------------


def _cmd_tune(args: argparse.Namespace) -> int:
    if getattr(args, "workload", "gs2") == "stencil":
        from repro.apps.stencil import StencilSurrogate

        surrogate = StencilSurrogate()
    else:
        surrogate = GS2Surrogate()
    space = surrogate.space()
    db = PerformanceDatabase.from_function(
        surrogate, space, fraction=args.db_fraction, rng=args.seed
    )
    noise = (
        ParetoNoise(rho=args.rho, alpha=args.alpha) if args.rho > 0 else NoNoise()
    )
    plan = SamplingPlan(args.k, _ESTIMATORS[args.estimator]())

    if args.trials == 1:
        from repro.obs import trace as obs_trace

        tracer = obs_trace.Tracer(label="session") if args.trace else None
        tuner = tuner_factory(args.tuner, rng=args.seed)(space)
        result = TuningSession(
            tuner, db, noise=noise, plan=plan, budget=args.budget,
            rng=args.seed, tracer=tracer,
        ).run()
        if tracer is not None:
            events = obs_trace.canonical_events(tracer.drain(), strip=False)
            obs_trace.write_jsonl(events, args.trace)
            print(f"wrote {args.trace} ({len(events)} events)")
        print(f"tuner            : {args.tuner}")
        print(f"best config      : {space.as_dict(result.best_point)}")
        print(f"noise-free cost  : {result.best_true_cost:.4f} s/iteration")
        print(f"Total_Time       : {result.total_time():.2f} s")
        print(f"NTT (Eq. 23)     : {result.normalized_total_time():.2f} s")
        print(f"converged at     : {result.converged_at}")
        if args.plot:
            print()
            print(
                line_plot(
                    {"T_k": (None, result.step_times)},
                    title="per-step barrier time",
                    height=12,
                )
            )
        if args.cache_stats:
            _print_cache_stats(db.cache_stats())
        if args.json:
            args.json.write_text(result.to_json() + "\n")
            print(f"wrote {args.json}")
        return 0

    if args.cache_stats and _resolve_executor(args)[0] != "serial":
        print("error: --cache-stats needs the serial executor (process "
              "workers query their own copies of the database)",
              file=sys.stderr)
        return 2
    cell = _TuneCell(args.tuner, space, db, noise, plan, args.budget)
    sweep = run_sweep(
        {args.tuner: cell}, trials=args.trials, rng=args.seed,
        cache_stats=db if args.cache_stats else None,
        **_sweep_kwargs(args),
    )
    print(
        _fmt.format_table(
            ["tuner", "mean NTT", "std NTT", "mean final cost", "converged"],
            sweep.rows(),
        )
    )
    if sweep.failures:
        print(f"failed trials     : {len(sweep.failures)} "
              f"(policy {args.failure_policy})")
    if args.cache_stats:
        _print_cache_stats(sweep.meta.get("db_cache", {}))
    if args.json:
        args.json.write_text(json.dumps(sweep.to_dict()) + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.harmony.aio import AsyncTcpServerTransport
    from repro.harmony.server import TuningServer
    from repro.obs import MetricsRegistry
    from repro.obs import trace as obs_trace

    space = None
    if args.workload == "gs2":
        space = GS2Surrogate().space()
    elif args.workload == "stencil":
        from repro.apps.stencil import StencilSurrogate

        space = StencilSurrogate().space()
    elif args.workload == "bench":
        # The throughput benchmark's space: tiny and integer, so serving
        # overhead (framing, dispatch) dominates and the wire is what gets
        # measured.
        from repro.space import IntParameter, ParameterSpace

        space = ParameterSpace(
            [IntParameter("a", -10, 10), IntParameter("b", -10, 10)]
        )
    if args.reply_cache is not None and args.reply_cache < 1:
        print(f"error: reply_cache_size must be >= 1, got {args.reply_cache}",
              file=sys.stderr)
        return 2
    plan = SamplingPlan(args.k, _ESTIMATORS[args.estimator]())
    metrics = MetricsRegistry(max_samples=4096)
    tracer = obs_trace.Tracer(label="server") if args.trace else None
    if args.wal_dir is not None:
        from repro.harmony.wal import recover_server

        # recover_server handles the empty-directory case too: no segments
        # means nothing to replay, and a fresh WalWriter is attached either
        # way, so first boot and restart share one code path.
        server = recover_server(
            tuner_factory(args.tuner, rng=args.seed),
            args.wal_dir,
            space=space, plan=plan, metrics=metrics, tracer=tracer,
            binproto=args.wire == "binary",
            reply_cache_size=args.reply_cache,
            service_delay_s=args.service_delay_us / 1e6,
            sync=args.sync,
            snapshot_bytes=args.wal_snapshot_bytes,
            crash_at=args.crash_at,
        )
    else:
        server = TuningServer(
            tuner_factory(args.tuner, rng=args.seed),
            space=space, plan=plan, metrics=metrics, tracer=tracer,
            binproto=args.wire == "binary",
            reply_cache_size=args.reply_cache,
            service_delay_s=args.service_delay_us / 1e6,
        )
    if args.max_session_pending is not None and args.max_pending is None:
        print("error: --max-session-pending requires --max-pending",
              file=sys.stderr)
        return 2
    if args.shed_policy == "rate" and (
        args.max_pending is None or args.refill_rate is None
    ):
        print("error: --shed-policy rate requires --max-pending and "
              "--refill-rate", file=sys.stderr)
        return 2
    if args.refill_rate is not None and args.shed_policy != "rate":
        print("error: --refill-rate only applies to --shed-policy rate",
              file=sys.stderr)
        return 2
    if args.max_pending is not None:
        from repro.harmony.admission import AdmissionController

        # Attached post-construction so WAL recovery and fresh boot share
        # the code path; the transport picks it up via the server handle.
        server.admission = AdmissionController(
            args.max_pending,
            max_session_pending=args.max_session_pending,
            policy=args.shed_policy,
            retry_after_s=args.retry_after_ms / 1e3,
            refill_rate=args.refill_rate,
        )
    with AsyncTcpServerTransport(
        server, host=args.host, port=args.port, wire=args.wire
    ) as transport:
        print(f"tuning service (wire={args.wire}) "
              f"listening on {args.host}:{transport.port}")
        print(f"tuner {args.tuner}, K={args.k} ({args.estimator}), "
              f"workload preset: {args.workload}")
        endpoint = None
        if args.metrics_port is not None:
            from repro.obs.prom import MetricsEndpoint

            endpoint = MetricsEndpoint(
                metrics, host=args.host, port=args.metrics_port
            ).start()
            print(f"metrics scrapeable at "
                  f"http://{args.host}:{endpoint.port}/metrics")
        agent = None
        if args.coordinator is not None:
            from repro.fleet.shard import ShardAgent

            chost, _, cport = args.coordinator.rpartition(":")
            agent = ShardAgent(
                (chost or "127.0.0.1", int(cport)),
                host=args.host, port=transport.port,
                wal_dir=args.wal_dir, shard_id=args.shard_id,
                metrics=metrics, tracer=tracer,
                load_fn=server.load_report,
            )
            shard = agent.start()
            print(f"joined fleet at {args.coordinator} as shard {shard} "
                  f"(lease {agent.lease_s:g}s)")
        if args.port_file is not None:
            args.port_file.write_text(f"{transport.port}\n")
        deadline = (
            _time.monotonic() + args.duration
            if args.duration is not None else None
        )
        try:
            while deadline is None or _time.monotonic() < deadline:
                if agent is not None and agent.revoked.is_set():
                    print("lease revoked by coordinator; draining...")
                    break
                _time.sleep(
                    0.1 if deadline is None
                    else min(0.1, max(0.0, deadline - _time.monotonic()))
                )
        except KeyboardInterrupt:
            print("\ndraining...")
        if agent is not None:
            agent.stop()
        if endpoint is not None:
            endpoint.stop()
    server.close_wal()
    snapshot = metrics.snapshot()
    counters = snapshot["counters"]
    print(f"requests handled  : {counters.get('server.requests', 0)} "
          f"({counters.get('server.errors', 0)} errors)")
    print(f"batch frames      : {counters.get('server.batch_frames', 0)} "
          f"({counters.get('server.batch_msgs', 0)} messages)")
    print(f"binary frames     : {counters.get('server.bin_frames', 0)} "
          f"({counters.get('server.bin_msgs', 0)} messages)")
    if args.max_pending is not None:
        print(f"load shed         : {counters.get('server.shed_msgs', 0)} "
              f"messages ({counters.get('server.shed_events', 0)} events), "
              f"peak pending {server.admission.peak_pending}/"
              f"{args.max_pending}")
    if args.wal_dir is not None:
        print(f"wal               : {counters.get('wal.appends', 0)} appends, "
              f"{counters.get('wal.snapshots', 0)} snapshots, "
              f"{counters.get('wal.replayed_records', 0)} replayed")
    print(f"sessions          : {', '.join(server.session_names())}")
    handle = snapshot["histograms"].get("server.handle_s")
    if handle and "p50" in handle:
        print(f"handle latency    : p50 {handle['p50'] * 1e6:.0f} us, "
              f"p99 {handle['p99'] * 1e6:.0f} us")
    if tracer is not None:
        events = obs_trace.canonical_events(tracer.drain(), strip=False)
        obs_trace.write_jsonl(events, args.trace)
        print(f"wrote {args.trace} ({len(events)} events)")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import tempfile

    from repro.fleet.launch import (
        FleetSupervisor,
        bench_space,
        session_workload,
        single_server_baseline,
        sweep_results,
    )

    n_shards = args.shards
    join = None
    if args.join:
        join = []
        for spec in args.join:
            host, _, port = spec.rpartition(":")
            join.append((host or "127.0.0.1", int(port)))
        n_shards = len(join)
    n_sessions = (
        args.sessions if args.sessions is not None else 2 * n_shards
    )
    sessions = [f"sweep-{i}" for i in range(n_sessions)]
    steps = [args.steps] * n_sessions
    if args.skew != "none":
        if args.baseline_check:
            print("error: --skew reshapes per-session work, so there is no "
                  "matching single-server baseline; drop --baseline-check",
                  file=sys.stderr)
            return 2
        from repro.loadgen import session_weights

        weights = session_weights(n_sessions, dist=args.skew)
        steps = [max(2, round(args.steps * w * n_sessions)) for w in weights]
        print(f"skewed sweep ({args.skew}): per-session steps {steps}")
    stack = contextlib.ExitStack()
    with stack:
        base = (
            args.dir if args.dir is not None
            else Path(stack.enter_context(tempfile.TemporaryDirectory(
                prefix="repro-fleet-"
            )))
        )
        fleet = stack.enter_context(FleetSupervisor(
            n_shards, base_dir=base,
            tuner=args.tuner, seed=args.seed, k=args.k,
            estimator=args.estimator,
            wire=args.wire,
            lease_s=args.lease_s, wal=not args.no_wal,
            max_pending=args.max_pending,
            rebalance=args.rebalance,
            join=join,
            coordinator_port=args.coordinator_port,
        ))
        print(f"fleet up: coordinator at {fleet.host}:{fleet.coordinator_port}, "
              f"{n_shards} shard(s){' (joined)' if join else ''}, "
              f"state under {base}")
        endpoint = None
        if args.metrics_port is not None:
            from repro.obs.prom import MetricsEndpoint

            endpoint = MetricsEndpoint(
                fleet.metrics, host=fleet.host, port=args.metrics_port
            ).start()
            stack.callback(endpoint.stop)
            print(f"coordinator metrics at "
                  f"http://{fleet.host}:{endpoint.port}/metrics")

        results: dict = {}
        killed = False
        for idx, name in enumerate(sessions):
            if (args.kill_shard is not None and not killed
                    and idx >= n_sessions // 2):
                print(f"kill-a-shard demo: SIGKILL shard {args.kill_shard}")
                fleet.kill_shard(args.kill_shard)
                killed = True
            client = fleet.client(name)
            client.open_session(name, k=args.k, estimator=args.estimator)
            client.register(bench_space())
            session_workload(client, idx, steps=steps[idx], seed=args.seed)
            results[name] = sweep_results(client)
            client.transport.close()
            print(f"  {name}: best {results[name]['best_cost']:.4f} "
                  f"(ready={results[name]['ready']})")
        status = fleet.fleet_status()
        alive = sum(1 for s in status["shards"].values() if s["alive"])
        print(f"fleet status: {alive}/{len(status['shards'])} shards alive, "
              f"{len(status['sessions'])} sessions placed")
        counters = fleet.metrics.snapshot()["counters"]
        for key in ("fleet.locates", "fleet.heartbeats",
                    "fleet.expired_shards", "fleet.rehomed_sessions",
                    "fleet.migrations", "fleet.migration_failures"):
            if counters.get(key):
                print(f"  {key:24s}: {counters[key]}")
        if args.rebalance and "rebalance" in status:
            reb = status["rebalance"]
            print(f"  rebalance: tick {reb['tick']}, "
                  f"hot shard {reb['hot_shard']}, "
                  f"{len(reb['inflight'])} migration(s) in flight")
        if args.baseline_check:
            baseline = single_server_baseline(
                sessions, tuner=args.tuner, seed=args.seed,
                k=args.k, estimator=args.estimator, steps=args.steps,
            )
            if baseline == results:
                print("baseline check: fleet results bit-identical to "
                      "single-server")
            else:
                mismatched = [n for n in sessions if baseline[n] != results[n]]
                print(f"baseline check FAILED: {len(mismatched)} session(s) "
                      f"diverged: {', '.join(mismatched)}")
                return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import LoadGenerator, LoadgenConfig, SloPolicy

    try:
        ramp = [int(s) for s in str(args.sessions).split(",") if s.strip()]
    except ValueError:
        print(f"error: --sessions must be comma-separated integers, "
              f"got {args.sessions!r}", file=sys.stderr)
        return 2
    if not ramp or any(n < 1 for n in ramp):
        print(f"error: session counts must be >= 1, got {args.sessions!r}",
              file=sys.stderr)
        return 2
    slo = SloPolicy(latency_s=args.slo_ms / 1e3, error_budget=args.error_budget)
    print(f"loadgen: {args.mode} loop, wire={args.wire}, "
          f"{args.connections} connection(s), SLO p99<{args.slo_ms:g}ms "
          f"budget {args.error_budget:g}")
    reports = []
    rows = []
    for point, sessions in enumerate(ramp):
        config = LoadgenConfig(
            mode=args.mode, sessions=sessions, steps=args.steps,
            duration_s=args.duration, rate=args.rate, arrival=args.arrival,
            tail_alpha=args.tail_alpha, connections=args.connections,
            wire=args.wire, batch=args.batch,
            busy_retries=args.busy_retries, slo=slo, seed=args.seed,
            session_prefix=f"lg{point}",
        )
        report = LoadGenerator(args.host, args.port, config).run()
        d = report.to_dict()
        reports.append(d)
        rows.append([
            str(sessions), f"{d['rps']:.0f}",
            f"{d.get('p50_ms', float('nan')):.2f}",
            f"{d.get('p99_ms', float('nan')):.2f}",
            str(d["busy"] + d["error"]), str(d["busy_retried"]),
            "ok" if d["slo_ok"] else "VIOLATED",
        ])
    print(_fmt.format_table(
        ["sessions", "rps", "p50 ms", "p99 ms", "shed", "retried", "slo"],
        rows,
    ))
    for d in reports:
        for violation in d["violations"]:
            print(f"  {d['sessions']} sessions: {violation}")
    if args.json is not None:
        args.json.write_text(json.dumps(reports, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0 if all(d["slo_ok"] for d in reports) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.path is not None:
        from repro.obs import read_trace, summarize_trace

        if not args.path.exists():
            print(f"error: no such trace file: {args.path}", file=sys.stderr)
            return 2
        print(summarize_trace(read_trace(args.path)))
        return 0
    from repro.experiments.fig03_trace import simulate_gs2_trace

    trace = simulate_gs2_trace(
        n_nodes=args.nodes, n_iterations=args.iterations, seed=args.seed
    )
    for key, value in trace.summary().items():
        print(f"{key:24s}: {value}")
    print()
    for p in range(min(args.show, trace.n_processors)):
        print(f"p{p:02d} |{sparkline(trace.processor_series(p))}|")
    data = trace.flatten()
    print()
    print(histogram(data, bins=16, title="pooled iteration times", log_counts=True))
    print()
    rep = tail_report(data)
    print("\n".join(rep.lines()))
    med = float(np.median(data))
    rep_t = tail_report(truncate(data, 5 * med))
    print(f"\ntruncated at 5 x median ({5*med:.2f}):")
    print("\n".join(rep_t.lines()))
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    from repro.experiments.fig08_surface import run_surface_slice

    name, _, value = args.fixed.partition("=")
    if not value:
        print(f"error: --fixed must look like name=value, got {args.fixed!r}",
              file=sys.stderr)
        return 2
    s = run_surface_slice(
        x_name=args.x_name, y_name=args.y_name, fixed={name: float(value)}
    )
    print(_fmt.format_table(["property", "value"], s.rows()))
    print()
    print(
        heatmap(
            s.costs,
            row_labels=[f"{v:g}" for v in s.x_values],
            col_labels=[f"{v:g}" for v in s.y_values],
            title=f"cost({s.x_name} x {s.y_name}) @ {s.fixed_name}={s.fixed_value:g}",
        )
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    sweep_kwargs = _sweep_kwargs(args)
    executor = sweep_kwargs["executor"]
    if executor != "serial" and args.figure in ("fig01", "fig08"):
        print(f"note: {args.figure} does not sweep trials; "
              "--jobs/--executor ignored", file=sys.stderr)
    if args.figure == "fig01":
        from repro.experiments.fig01_metrics import run_metric_comparison

        mc = run_metric_comparison()
        print(_fmt.format_table(
            ["algorithm", "tail mean T_k", "Total_Time", "final cost"], mc.rows()
        ))
        print(f"\nwinner by tail : {mc.winner_by_tail()}")
        print(f"winner by total: {mc.winner_by_total()}")
        print(
            line_plot(
                {
                    name: (None, cum)
                    for name, cum in zip(mc.names, mc.cumulative_series)
                },
                title="cumulative Total_Time (Fig. 1b)",
                height=12,
            )
        )
        return 0
    if args.figure == "fig08":
        return _cmd_surface(argparse.Namespace(
            x_name="ntheta", y_name="negrid", fixed="nodes=32"
        ))
    if args.figure == "fig09":
        from repro.experiments.fig09_simplex import run_initial_simplex_study

        study = run_initial_simplex_study(
            trials=args.trials or 12, **sweep_kwargs
        )
        print(_fmt.format_table(
            ["shape", "r", "mean NTT", "std NTT"], study.rows()
        ))
        print(f"\naxial beats minimal: {study.axial_beats_minimal()}")
        return 0
    if args.figure == "fig10":
        from repro.experiments.fig10_sampling import run_sampling_study

        study = run_sampling_study(
            trials=args.trials or 40, **sweep_kwargs
        )
        print(_fmt.format_table(
            ["rho", "K", "mean NTT", "std NTT"], study.rows()
        ))
        print(
            line_plot(
                {
                    f"rho={rho:g}": (list(study.k_values), study.mean_ntt[i])
                    for i, rho in enumerate(study.rho_values)
                },
                title="Average NTT vs K (Fig. 10)",
                height=14,
            )
        )
        return 0
    raise AssertionError(args.figure)  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """Entry point (returns a process exit code)."""
    args = build_parser().parse_args(argv)
    handlers = {
        "tune": _cmd_tune,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "loadgen": _cmd_loadgen,
        "trace": _cmd_trace,
        "surface": _cmd_surface,
        "figures": _cmd_figures,
    }
    handler = handlers[args.command]
    if getattr(args, "profile", False):
        # Profile the whole command so hot-path hunts see the real mix
        # (argument handling is negligible next to the sweep itself).
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        code = profiler.runcall(handler, args)
        print()
        pstats.Stats(profiler, stream=sys.stdout).sort_stats(
            "cumulative"
        ).print_stats(25)
        return code
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
