"""Ablation studies for the design choices DESIGN.md calls out.

Five studies, each exercising one deliberate choice in the paper's design:

* :func:`run_variant_comparison` — PRO's acceptance/expansion rules and its
  parallel structure, against SRO, Nelder–Mead and the §2 baselines
  (the "alternative parallel variants" of §3.2);
* :func:`run_estimator_comparison` — min vs mean vs median under heavy- and
  light-tailed noise (the §5.1 argument for the min operator);
* :func:`run_adaptive_k_study` — fixed-K sampling vs the adaptive-K
  controller (§5.2's stated future work);
* :func:`run_parallel_sampling_study` — K samples taken in subsequent time
  steps vs in one parallel wave (§5.2's "no additional cost" remark);
* :func:`run_warmstart_study` — PRO cold-started vs warm-started from
  prior-run databases (the SC'04 lineage).

Every study is a paired-seed :func:`~repro.experiments.runner.run_sweep`
over picklable :class:`_AblationCell` factories, so each runs on the serial
and the process executor with bit-identical tables.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro._util import as_generator
from repro.apps.database import PerformanceDatabase
from repro.apps.gs2 import GS2Surrogate
from repro.core.adaptive import AdaptiveSamplingController
from repro.core.sampling import (
    Estimator,
    MeanEstimator,
    MedianEstimator,
    MinEstimator,
    SamplingPlan,
)
from repro.experiments.common import gs2_problem, tuner_factory
from repro.experiments.runner import run_sweep
from repro.harmony.session import TuningSession
from repro.harmony.warmstart import warm_started_pro
from repro.space import ParameterSpace
from repro.variability.models import GaussianNoise, NoiseModel, ParetoNoise

__all__ = [
    "AblationTable",
    "run_variant_comparison",
    "run_estimator_comparison",
    "run_adaptive_k_study",
    "run_parallel_sampling_study",
    "run_warmstart_study",
]


@dataclass(frozen=True)
class AblationTable:
    """Generic named-row result: mean NTT and mean final true cost."""

    row_names: tuple[str, ...]
    mean_ntt: np.ndarray
    mean_final_cost: np.ndarray
    std_ntt: np.ndarray
    trials: int
    meta: dict = field(default_factory=dict)

    def best_by_ntt(self) -> str:
        return self.row_names[int(np.argmin(self.mean_ntt))]

    def ntt_of(self, name: str) -> float:
        return float(self.mean_ntt[self.row_names.index(name)])

    def final_cost_of(self, name: str) -> float:
        return float(self.mean_final_cost[self.row_names.index(name)])

    def rows(self) -> list[list[object]]:
        return [
            [name, float(ntt), float(std), float(cost)]
            for name, ntt, std, cost in zip(
                self.row_names, self.mean_ntt, self.std_ntt, self.mean_final_cost
            )
        ]


@dataclass(frozen=True)
class _AblationCell:
    """Picklable session factory for one ablation row on the GS2 database.

    The trial seed seeds the session's stream, and its first spawned child
    seeds the tuner (only the stochastic baselines draw from it).
    """

    db: PerformanceDatabase
    space: ParameterSpace
    budget: int
    tuner: str = "pro"
    noise: NoiseModel | None = None
    plan: SamplingPlan = SamplingPlan()
    #: builds a fresh (stateful) controller for every session
    controller: Callable[[], AdaptiveSamplingController] | None = None
    n_processors: int | None = None
    parallel_sampling: bool = False
    #: prior-run measurements that seed PRO's initial simplex (warm start)
    prior: PerformanceDatabase | None = None

    def __call__(self, trial_seed: int) -> TuningSession:
        seed = np.random.default_rng(trial_seed)
        if self.prior is not None:
            tuner = warm_started_pro(self.space, self.prior)
        else:
            tuner = tuner_factory(self.tuner, rng=seed.spawn(1)[0])(self.space)
        return TuningSession(
            tuner,
            self.db,
            noise=self.noise,
            budget=self.budget,
            plan=self.plan,
            controller=self.controller() if self.controller else None,
            n_processors=self.n_processors,
            parallel_sampling=self.parallel_sampling,
            rng=seed,
        )


def _run_cells(
    configs: list[tuple[str, dict]],
    *,
    trials: int,
    budget: int,
    rng: int | np.random.Generator | None,
    executor: str = "serial",
    jobs: int | None = None,
) -> AblationTable:
    """Run one session per (config, trial) via the paired-seed sweep runner.

    Each config dict holds :class:`_AblationCell` fields, except that a
    ``prior`` is given as ``(surrogate, fraction)``: it is sampled into a
    database from the next spawned child of the master stream, in row
    order.  ``executor`` and ``jobs`` pass through to
    :func:`~repro.experiments.runner.run_sweep` unchanged.
    """
    master = as_generator(rng)
    surrogate, db = gs2_problem(rng=master)
    space = surrogate.space()
    cells = []
    for name, cfg in configs:
        if "prior" in cfg:
            source, fraction = cfg["prior"]
            cfg = {
                **cfg,
                "prior": PerformanceDatabase.from_function(
                    source, space, fraction=fraction, rng=master.spawn(1)[0]
                ),
            }
        cells.append((name, _AblationCell(db, space, budget, **cfg)))
    sweep = run_sweep(
        cells,
        trials=trials,
        rng=master,
        executor=executor,
        jobs=jobs,
    )
    return AblationTable(
        row_names=sweep.names,
        mean_ntt=np.asarray([c.ntt_mean for c in sweep.cells]),
        std_ntt=np.asarray([c.ntt_std for c in sweep.cells]),
        mean_final_cost=np.asarray([c.final_cost_mean for c in sweep.cells]),
        trials=trials,
        meta={"budget": budget},
    )


def _split(table: AblationTable, metas: dict, rows: list[str]) -> dict:
    """Cut a table run as ``label/row`` cells, label-major with the same
    *rows* under every label, into one table per label of *metas*, each
    with that label's entries added to its meta."""
    n = len(rows)
    return {
        label: AblationTable(
            row_names=tuple(rows),
            mean_ntt=table.mean_ntt[i * n : (i + 1) * n],
            std_ntt=table.std_ntt[i * n : (i + 1) * n],
            mean_final_cost=table.mean_final_cost[i * n : (i + 1) * n],
            trials=table.trials,
            meta={**table.meta, **meta},
        )
        for i, (label, meta) in enumerate(metas.items())
    }


def run_variant_comparison(
    *,
    trials: int = 30,
    budget: int = 150,
    rho: float = 0.1,
    rng: int | np.random.Generator | None = 13,
    executor: str = "serial",
    jobs: int | None = None,
) -> AblationTable:
    """PRO vs its ablated variants vs the sequential baselines."""
    noise = ParetoNoise(rho=rho) if rho > 0 else None
    plan = SamplingPlan(1, MinEstimator())
    configs = [
        (name, {"tuner": name, "noise": noise, "plan": plan})
        for name in (
            "pro",
            "pro_greedy",
            "pro_eager",
            "pro_minimal",
            "pro_auto",
            "sro",
            "neldermead",
            "coordinate",
            "annealing",
            "genetic",
            "random",
        )
    ]
    table = _run_cells(
        configs, trials=trials, budget=budget, rng=rng,
        executor=executor, jobs=jobs,
    )
    table.meta.update({"rho": rho})
    return table


def run_estimator_comparison(
    *,
    trials: int = 30,
    budget: int = 150,
    k: int = 3,
    rho: float = 0.2,
    rng: int | np.random.Generator | None = 17,
    executor: str = "serial",
    jobs: int | None = None,
) -> dict[str, AblationTable]:
    """Min vs mean vs median, under Pareto (heavy) and Gaussian (light) noise.

    The §5.1 prediction: under heavy tails the min operator dominates the
    mean; under light (finite-variance) noise the gap closes or reverses.
    All four tables run as one sweep, so they share the database, the pool
    and the trial seeds.
    """
    from repro.variability.models import ExponentialNoise, TruncatedParetoNoise

    estimators: list[Estimator] = [MinEstimator(), MeanEstimator(), MedianEstimator()]
    noises = {
        "pareto": ParetoNoise(rho=rho),
        # cap low enough to actually bind (a genuinely light-tailed control;
        # a high cap would almost never trigger and replay the Pareto rows).
        "truncated-pareto": TruncatedParetoNoise(rho=rho, cap_factor=0.5),
        "exponential": ExponentialNoise(rho=rho),
        "gaussian": GaussianNoise(rho=rho),
    }
    configs = [
        (
            f"{label}/{est.name}",
            {"tuner": "pro", "noise": noise, "plan": SamplingPlan(k, est)},
        )
        for label, noise in noises.items()
        for est in estimators
    ]
    table = _run_cells(
        configs, trials=trials, budget=budget, rng=rng,
        executor=executor, jobs=jobs,
    )
    metas = {label: {"noise": label, "rho": rho, "k": k} for label in noises}
    return _split(table, metas, [est.name for est in estimators])


def run_adaptive_k_study(
    *,
    trials: int = 30,
    budget: int = 150,
    rho_values: tuple[float, ...] = (0.0, 0.1, 0.3),
    rng: int | np.random.Generator | None = 19,
    executor: str = "serial",
    jobs: int | None = None,
) -> dict[float, AblationTable]:
    """Adaptive-K controller vs fixed K ∈ {1, 3, 5}, across noise levels.

    A good adaptive controller should track the best fixed K for each ρ
    without knowing ρ — small K when quiet, larger K when noisy.  Every ρ's
    table runs in one sweep, as in :func:`run_estimator_comparison`.
    """
    plans: list[tuple[str, dict]] = [
        (f"fixed K={k}", {"plan": SamplingPlan(k)}) for k in (1, 3, 5)
    ]
    plans.append(
        (
            "adaptive",
            {
                "plan": SamplingPlan(1),
                "controller": partial(
                    AdaptiveSamplingController, k_initial=1, k_max=6
                ),
            },
        )
    )
    configs = []
    for rho in rho_values:
        noise: NoiseModel | None = ParetoNoise(rho=rho) if rho > 0 else None
        configs += [
            (f"rho={float(rho)!r}/{name}", {"tuner": "pro", "noise": noise, **cfg})
            for name, cfg in plans
        ]
    table = _run_cells(
        configs, trials=trials, budget=budget, rng=rng,
        executor=executor, jobs=jobs,
    )
    metas = {float(rho): {"rho": rho} for rho in rho_values}
    return _split(table, metas, [name for name, _ in plans])


def run_parallel_sampling_study(
    *,
    trials: int = 30,
    budget: int = 200,
    rho: float = 0.3,
    rng: int | np.random.Generator | None = 29,
    executor: str = "serial",
    jobs: int | None = None,
) -> AblationTable:
    """Sequential vs parallel K-sampling on a 64-processor machine (§5.2).

    The paper charges the K samples to subsequent time steps (the worst
    case) and notes that a parallel machine can take them in one wave.  A
    parallel wave's barrier is the max over n·K heavy-tailed draws, so
    parallel sampling still pays an order-statistics premium over K=1.
    """
    noise = ParetoNoise(rho=rho)
    configs = [
        (
            name,
            {
                "noise": noise,
                "plan": SamplingPlan(k, MinEstimator()),
                "n_processors": 64,
                "parallel_sampling": parallel,
            },
        )
        for name, k, parallel in (
            ("K=1", 1, False),
            ("K=5 sequential", 5, False),
            ("K=5 parallel", 5, True),
            ("K=10 parallel", 10, True),
        )
    ]
    table = _run_cells(
        configs, trials=trials, budget=budget, rng=rng,
        executor=executor, jobs=jobs,
    )
    table.meta.update({"rho": rho})
    return table


def run_warmstart_study(
    *,
    trials: int = 30,
    budget: int = 120,
    rho: float = 0.1,
    rng: int | np.random.Generator | None = 31,
    executor: str = "serial",
    jobs: int | None = None,
) -> AblationTable:
    """Cold-started PRO vs PRO warm-started from prior-run histories.

    The histories differ in quality: a rich one (30% of the lattice), a
    sparse one (0.5%) and a stale one, measured on a machine whose
    communication behaves differently, so that its optimum has moved.
    """
    noise = ParetoNoise(rho=rho)
    plan = SamplingPlan(1, MinEstimator())
    old_machine = GS2Surrogate(comm_scale=8e-3, comm_exponent=1.2)
    configs = [
        (name, {"noise": noise, "plan": plan, **prior})
        for name, prior in (
            ("cold start", {}),
            ("warm (rich prior)", {"prior": (GS2Surrogate(), 0.3)}),
            ("warm (sparse prior)", {"prior": (GS2Surrogate(), 0.005)}),
            ("warm (stale prior)", {"prior": (old_machine, 0.3)}),
        )
    ]
    table = _run_cells(
        configs, trials=trials, budget=budget, rng=rng,
        executor=executor, jobs=jobs,
    )
    table.meta.update({"rho": rho})
    return table
