"""repro — reproduction of *Parallel Parameter Tuning for Applications with
Performance Variability* (Tabatabaee, Tiwari, Hollingsworth; SC 2005).

The package provides:

* the **Parallel Rank Ordering (PRO)** online tuner and its sequential
  sibling (:mod:`repro.core`), plus baseline strategies (:mod:`repro.search`);
* the **min-operator multi-sampling** machinery for heavy-tail-resilient
  performance estimation (:mod:`repro.core.sampling`,
  :mod:`repro.variability`);
* an **event-driven two-priority-queue cluster simulator**
  (:mod:`repro.cluster`) and analytic noise models;
* an **Active Harmony-style online tuning substrate**
  (:mod:`repro.harmony`): sessions with the paper's Total_Time accounting,
  plus a client/server tuning service;
* workloads (:mod:`repro.apps`) including the GS2 performance surrogate and
  the paper's interpolating performance database;
* one module per paper figure under :mod:`repro.experiments`.

Quickstart::

    import repro

    problem = repro.quadratic_problem(n=3)
    tuner = repro.ParallelRankOrdering(problem.space)
    session = repro.TuningSession(tuner, problem.objective, budget=200, rng=0)
    result = session.run()
    print(result.best_point, result.best_true_cost)
"""

from repro.space import (
    FloatParameter,
    IntParameter,
    OrdinalParameter,
    Parameter,
    ParameterSpace,
)
from repro.core import (
    AdaptiveSamplingController,
    BatchTuner,
    KPlanner,
    MeanEstimator,
    MedianEstimator,
    MinEstimator,
    ParallelRankOrdering,
    SamplingPlan,
    SequentialRankOrdering,
    Simplex,
    Vertex,
    axial_simplex,
    identify_noise,
    minimal_simplex,
    required_samples,
)
from repro.search import (
    CoordinateDescent,
    GeneticAlgorithm,
    NelderMead,
    RandomSearch,
    SimulatedAnnealing,
)
from repro.variability import (
    ExponentialNoise,
    MarkovModulatedNoise,
    GaussianNoise,
    NoNoise,
    ParetoDistribution,
    ParetoNoise,
    SpikeMixtureNoise,
    TruncatedParetoNoise,
    TwoJobModel,
)
from repro.cluster import Cluster, ClusterTrace, PriorityMachine
from repro.faults import (
    FaultPlan,
    FaultyEvaluator,
    InjectedFault,
)
from repro.harmony import (
    AsyncTcpServerTransport,
    ClusterEvaluator,
    DatabaseEvaluator,
    FunctionEvaluator,
    InProcessTransport,
    SessionResult,
    TcpClientTransport,
    TuningClient,
    TuningServer,
    TuningSession,
)
from repro.apps import (
    GS2Surrogate,
    StencilSurrogate,
    PerformanceDatabase,
    plateau_problem,
    quadratic_problem,
    rastrigin_problem,
    rosenbrock_problem,
)

__version__ = "1.0.0"

__all__ = [
    # space
    "Parameter",
    "IntParameter",
    "FloatParameter",
    "OrdinalParameter",
    "ParameterSpace",
    # core tuners
    "BatchTuner",
    "ParallelRankOrdering",
    "SequentialRankOrdering",
    "Simplex",
    "Vertex",
    "axial_simplex",
    "minimal_simplex",
    # sampling
    "SamplingPlan",
    "MinEstimator",
    "MeanEstimator",
    "MedianEstimator",
    "AdaptiveSamplingController",
    "KPlanner",
    "identify_noise",
    "required_samples",
    # baselines
    "NelderMead",
    "SimulatedAnnealing",
    "GeneticAlgorithm",
    "RandomSearch",
    "CoordinateDescent",
    # variability
    "ParetoDistribution",
    "TwoJobModel",
    "NoNoise",
    "ParetoNoise",
    "TruncatedParetoNoise",
    "GaussianNoise",
    "ExponentialNoise",
    "SpikeMixtureNoise",
    "MarkovModulatedNoise",
    # cluster
    "Cluster",
    "ClusterTrace",
    "PriorityMachine",
    # faults
    "FaultPlan",
    "FaultyEvaluator",
    "InjectedFault",
    # harmony
    "TuningSession",
    "SessionResult",
    "FunctionEvaluator",
    "DatabaseEvaluator",
    "ClusterEvaluator",
    "TuningServer",
    "TuningClient",
    "InProcessTransport",
    "TcpClientTransport",
    "AsyncTcpServerTransport",
    # apps
    "GS2Surrogate",
    "StencilSurrogate",
    "PerformanceDatabase",
    "quadratic_problem",
    "rosenbrock_problem",
    "rastrigin_problem",
    "plateau_problem",
    "__version__",
]
