"""The sweep workloads: the paper's experiments as batch computations.

* ``fig10_sweep`` — a reduced Fig. 10 grid through the process pool:
  parallel engine, shared-memory database broadcast, ``evaluate_batch``
  and the noise models; no wire.
* ``cluster_sweep`` — ``run_sweep`` of PRO sessions on a 32-node
  simulated cluster with the Fig. 3 disruption sources: the
  ``repro.cluster`` queue kernels; no database or wire.  Its trials run
  in the process pool (jobs=2) rather than serially: a serial run rides
  one vCPU's speed phases, and its 10-seed trial p50 spread 0.52 of the
  median, where a pooled run averages both vCPUs.  The sweep result is
  bit-identical across executors, which the oracle checks.

A run repeats the fixed grid until its time is up, each repetition with
its own seed derived from the run's seed.  The first grid warms the
process up (lazy imports, first calls) and is not timed; at least
``min_timed`` grids follow it.  The unit of work is one trial, a whole
tuning session, timed at ``run_trial`` in the pool workers:
``latency_p50_ms`` and ``latency_p90_ms`` are the median and p90 of all
timed trials (on the same ten cluster runs, the pooled median spread
0.077 of its median where the trimmed mean of per-grid medians spread
0.109), ``steps_per_s`` tuning time steps per second of the trimmed
mean grid wall time, and
``ntt`` summarizes the first ``ntt_grids`` grids, so it depends on the
seed only, not on how many grids fit.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import harness
import layers
import oracle

SETUPS = 3

FIG10 = {
    "rho_values": (0.0, 0.15, 0.3),
    "k_values": (1, 3, 5),
    "trials": 16,
    "budget": 400,
    "executor": "process",
    "jobs": 2,
}

CLUSTER = {
    "k_values": (1, 2, 4),
    "trials": 16,
    "budget": 200,
    "nodes": 32,
    "executor": "process",
    "jobs": 2,
    "private": "PoissonArrivals(0.15, ParetoService(1.3, 0.15))",
    "shared": "PoissonArrivals(0.007, ParetoService(1.25, 2.5)), "
              "PeriodicDaemon(30, FixedService(0.12))",
}


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep])


# -- fig10_sweep ------------------------------------------------------------------


def fig10_grid(rng, **overrides):
    """The grid's study and its NTT: the mean over cells of the cell means."""
    from repro.experiments.fig10_sampling import run_sampling_study

    kwargs = {k: v for k, v in FIG10.items()}
    kwargs.update(overrides)
    study = run_sampling_study(rng=rng, **kwargs)
    return study, [float(study.mean_ntt.mean())]


def fig10_check(study, seed: int, rep: int) -> list[str]:
    """Serial in-process rerun of one cell (chosen by seed) of one grid."""
    cells = [(r, k) for r in FIG10["rho_values"] for k in FIG10["k_values"]]
    rho, k = cells[seed % len(cells)]
    rerun, _ = fig10_grid(
        rep_rng(seed, rep), rho_values=(rho,), k_values=(k,), executor="serial",
        jobs=None,
    )
    return oracle.check_study(study, rerun, (rho, k))


# -- cluster_sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class ClusterCell:
    """Picklable session factory: PRO on a fresh seeded 32-node cluster."""

    k: int
    budget: int
    nodes: int

    def __call__(self, seed: int):
        from repro.apps.gs2 import GS2Surrogate
        from repro.core.pro import ParallelRankOrdering
        from repro.core.sampling import MinEstimator, SamplingPlan
        from repro.harmony.evaluator import ClusterEvaluator
        from repro.harmony.session import TuningSession

        surrogate = GS2Surrogate()
        return TuningSession(
            ParallelRankOrdering(surrogate.space(), r=0.2),
            ClusterEvaluator(surrogate, build_cluster(self.nodes, seed)),
            budget=self.budget,
            plan=SamplingPlan(self.k, MinEstimator()),
            rng=seed,
        )


def build_cluster(nodes: int, seed):
    from repro.cluster import Cluster
    from repro.cluster.workload import (
        FixedService,
        ParetoService,
        PeriodicDaemon,
        PoissonArrivals,
    )

    # The Fig. 3 disruption sources (repro.experiments.fig03_trace).
    return Cluster(
        nodes,
        private_sources=[PoissonArrivals(0.15, ParetoService(1.3, 0.15))],
        shared_sources=[
            PoissonArrivals(0.007, ParetoService(1.25, 2.5)),
            PeriodicDaemon(30.0, FixedService(0.12)),
        ],
        seed=seed,
    )


def cluster_grid(rng, k_values=CLUSTER["k_values"], executor=CLUSTER["executor"]):
    """The grid's sweep and every trial's NTT."""
    from repro.experiments.runner import run_sweep

    cells = [
        (f"K={k}", ClusterCell(k, CLUSTER["budget"], CLUSTER["nodes"]))
        for k in k_values
    ]
    ntts: list[float] = []
    sweep = run_sweep(
        cells, trials=CLUSTER["trials"], rng=rng, executor=executor,
        jobs=CLUSTER["jobs"] if executor != "serial" else None,
        collect=lambda result: ntts.append(result.normalized_total_time()),
    )
    return sweep, ntts


def cluster_check(sweep, seed: int, rep: int) -> list[str]:
    """A serial in-process rerun of one cell (chosen by seed) from the
    same seed must match the pooled grid."""
    k = CLUSTER["k_values"][seed % len(CLUSTER["k_values"])]
    rerun, _ = cluster_grid(rep_rng(seed, rep), k_values=(k,), executor="serial")
    return oracle.check_reproducible(
        asdict(sweep[f"K={k}"]), asdict(rerun[f"K={k}"]), f"cluster K={k}"
    )


@dataclass(frozen=True)
class Spec:
    grid: object
    check: object
    params: dict
    jobs: int
    #: timed grids per run at least: enough for ten trials beyond the p90
    min_timed: int
    #: ``ntt`` summarizes the NTTs of the first ``ntt_grids`` grids
    ntt_grids: int
    ntt_stat: object

    @property
    def trials_per_grid(self) -> int:
        return self.params["trials"] * len(self.params["k_values"]) * len(
            self.params.get("rho_values", (None,))
        )


SPECS = {
    "fig10_sweep": Spec(fig10_grid, fig10_check, FIG10, FIG10["jobs"], 1, 2, np.mean),
    # The shared bursts are Pareto(1.25): infinite variance, so the trial
    # NTTs are summarized by their median, not their mean.
    "cluster_sweep": Spec(cluster_grid, cluster_check, CLUSTER, CLUSTER["jobs"], 3, 3,
                          np.median),
}


def _setup_probes(name: str, owner: harness.Owner, tmp: Path) -> dict:
    """Fresh-process set-up (imports plus database or cluster build)."""
    walls, imports, builds = [], [], []
    script = Path(__file__).with_name("probe.py")
    for i in range(SETUPS):
        out = tmp / f"probe{i}.json"
        t0 = time.perf_counter()
        proc = owner.spawn([sys.executable, str(script), name, str(out)])
        code = proc.wait(timeout=120)
        walls.append(time.perf_counter() - t0)
        owner.stop(proc)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        probe = json.loads(out.read_text())
        imports.append(probe["import_s"])
        builds.append(probe["build_s"])
    return {"walls": walls, "import_s": imports, "build_s": builds}


def _reps(spec, seed, seconds, rec, tmp, *, check=True):
    """Repeat the grid for *seconds* (the warm-up grid and at least
    ``spec.min_timed`` more, and at least ``spec.ntt_grids``).

    Trial times are harvested after every grid, before the oracle's
    in-process rerun, so they hold the measured grid's trials only.
    """
    walls, ntts, mismatches, snaps = [], [], [], []
    deadline = time.perf_counter() + seconds
    min_reps = max(1 + spec.min_timed, spec.ntt_grids)
    rep = 0
    while rep < min_reps or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result, grid_ntts = spec.grid(rep_rng(seed, rep))
        walls.append(time.perf_counter() - t0)
        snaps.append(layers.harvest(rec, tmp))
        ntts.append(grid_ntts)
        if check and rep == 0:
            mismatches += spec.check(result, seed, rep)
            layers.harvest(rec, tmp)  # drop the rerun's trials
        rep += 1
    return {
        "walls": walls, "ntts": ntts, "mismatches": mismatches,
        "reps": rep, "layers": layers.merge(snaps),
        "grid_trials_s": [
            snap["stats"].get("runner.trial", [0, 0, 0, []])[3] for snap in snaps
        ],
    }


def run(name: str, seed: int, seconds: float, trace: bool, owner: harness.Owner) -> dict:
    spec = SPECS[name]
    tmp = harness.OUT / f"tmp-{name}-{seed}-{int(trace)}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rec = layers.Recorder()
    try:
        probes = _setup_probes(name, owner, tmp)
        layers.install_sweep(rec, tmp, all_layers=False)
        with harness.RssSampler() as sampler:
            main = _reps(spec, seed, seconds, rec, tmp)
        # Each grid runs its own pool of `jobs` workers, one pool at a time.
        workers = list(sampler.peaks.values())
        peak = harness.peak_rss_mb() + (
            spec.jobs * harness.median(workers) if workers else 0.0
        )
        traced = None
        if trace:
            layers.install_sweep(rec, tmp, all_layers=True)
            # The same grids again (each builds its own database, so no
            # memo is warm), for a like-for-like tracing overhead.
            traced = _reps(spec, seed, seconds / 2, rec, tmp, check=False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for trials in main["grid_trials_s"]:
        if len(trials) != spec.trials_per_grid:
            raise RuntimeError(
                f"timed {len(trials)} trials of a grid, expected {spec.trials_per_grid}"
            )
    timed = main["grid_trials_s"][1:]  # grid 0 is the warm-up
    trial_ms = np.concatenate(timed) * 1e3
    sweep_s = harness.trimmed_mean(main["walls"][1:])
    end_to_end = {
        "setup_s": harness.median(probes["walls"]),
        "latency_p50_ms": harness.median(trial_ms),
        "latency_p90_ms": harness.percentile(trial_ms, 90.0),
        "steps_per_s": spec.trials_per_grid * spec.params["budget"] / sweep_s,
        "ntt": float(spec.ntt_stat(np.concatenate(main["ntts"][:spec.ntt_grids]))),
        "peak_rss_mb": peak,
    }
    per_layer = detail = None
    if traced is not None:
        n_trials = traced["reps"] * spec.trials_per_grid
        per_layer = layer_metrics(traced, main, probes, spec.jobs, n_trials)
        detail = {"sweep": harness.layer_table(traced["layers"], n_trials)}
    return {
        "params": dict(spec.params, grids_per_run=main["reps"], warmup_grids=1,
                       trials_per_grid=spec.trials_per_grid,
                       unit="one trial (a tuning session of `budget` steps)",
                       setups=SETUPS),
        "attempted": main["reps"] * spec.trials_per_grid,
        "failed": 0,
        "errors": [],
        "mismatches": main["mismatches"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "extra": {"sweep_s": sweep_s,
                  "sweep_walls_s": main["walls"],
                  "trial_p95_ms": harness.percentile(trial_ms, 95.0)
                  if (harness.tail_percentile(trial_ms.size) or 0) >= 95.0 else None,
                  "grid_ntt_means": [float(np.mean(n)) for n in main["ntts"]],
                  "setup_samples_s": probes["walls"]},
        "layer_detail": detail,
    }


def layer_metrics(traced, main, probes, jobs, n_trials) -> dict:
    snap = traced["layers"]
    stats, counters = snap["stats"], snap["counters"]

    def total(key, field=1):
        entry = stats.get(key)
        return entry[field] if entry else 0.0

    per = 1e3 / n_trials
    wall = sum(traced["walls"])
    paired = min(traced["reps"], main["reps"])  # grids run both ways
    busy = sum(v[2] for v in stats.values())
    queries = counters.get("database.queries", 0)
    return {
        "runner.trial_ms": total("runner.trial") * per,
        "parallel.busy_frac": total("runner.trial") / (jobs * wall),
        "parallel.shm_export_ms": total("parallel.shm_export") * 1e3 / traced["reps"],
        "database.evaluate_ms": total("database.evaluate") * per,
        "database.cache_hit_frac": counters.get("database.memo_hits", 0) / queries
        if queries else 0.0,
        "noise.sample_ms": total("noise.sample") * per,
        "pro.ask_ms": total("pro.ask") * per,
        "pro.tell_ms": total("pro.tell") * per,
        "cluster.run_ms": total("cluster.run") * per,
        "cluster.runs": total("cluster.run", 0) / n_trials,
        "setup.import_s": harness.median(probes["import_s"]),
        "setup.db_build_s": harness.median(probes["build_s"]),
        "coverage": busy / (jobs * wall),
        "trace_overhead_frac": sum(traced["walls"][1:paired])
        / sum(main["walls"][1:paired]) - 1.0,
    }
