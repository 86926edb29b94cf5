"""Bit-identity of the session's batched-evaluation fast path.

``batched_eval=True`` (the default) routes probe batches through
``observe_precomputed`` whenever the evaluator supports it; ``False`` is the
per-wave ``observe_wave`` reference.  The two must produce bitwise
identical :class:`SessionResult` records — the fast path is an optimization,
never a semantic change — and fault-injecting wrappers must transparently
turn it off.
"""

import numpy as np
import pytest

from repro.apps.database import PerformanceDatabase
from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.faults.inject import FaultyEvaluator
from repro.harmony.evaluator import Evaluator, FunctionEvaluator
from repro.harmony.session import TuningSession
from repro.space import IntParameter, ParameterSpace
from repro.variability import ParetoNoise

SPACE = ParameterSpace([IntParameter(f"x{i}", -8, 8) for i in range(4)])


def rugged(point) -> float:
    x = np.asarray(point, dtype=float)
    return float(1.0 + np.sum(x * x + 10.0 * (1.0 - np.cos(np.pi * x / 2.0))))


def make_session(evaluator, seed, batched):
    # Evaluator instances carry their own noise model; bare callables get one.
    noise = None if isinstance(evaluator, Evaluator) else ParetoNoise(rho=0.2)
    return TuningSession(
        ParallelRankOrdering(SPACE), evaluator, noise=noise,
        budget=40, plan=SamplingPlan(2), batched_eval=batched,
        rng=seed,
    )


def assert_records_identical(a, b):
    assert a.step_times.tobytes() == b.step_times.tobytes()
    assert a.step_kinds == b.step_kinds
    assert a.best_point.tobytes() == b.best_point.tobytes()
    assert a.best_true_cost == b.best_true_cost
    assert a.n_measurements == b.n_measurements
    assert a.n_evaluations == b.n_evaluations
    assert a.converged_at == b.converged_at


class TestBatchedEvalEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_function_evaluator_fast_path_bit_identical(self, seed):
        fast = make_session(rugged, seed, batched=True).run()
        scalar = make_session(rugged, seed, batched=False).run()
        assert_records_identical(fast, scalar)

    @pytest.mark.parametrize("seed", [3, 41])
    def test_database_evaluate_batch_bit_identical(self, seed):
        # Fresh databases per arm: memo state must not be able to leak
        # between them (it cannot change values, but keep the arms honest).
        def db():
            return PerformanceDatabase.from_function(rugged, SPACE, fraction=0.3, rng=1)

        fast = make_session(db(), seed, batched=True).run()
        scalar = make_session(db(), seed, batched=False).run()
        assert_records_identical(fast, scalar)

    def test_faulty_evaluator_opts_out_of_fast_path(self):
        # FaultyEvaluator injects by intercepting observe_wave, so it must
        # keep the fast path off even when batched_eval is left at True —
        # otherwise a scheduled fault would silently never fire.
        assert FaultyEvaluator.supports_precomputed is False

        def faulty():
            return FaultyEvaluator(
                FunctionEvaluator(rugged, ParetoNoise(rho=0.2)),
                mode="slowdown", after=2, times=3,
            )

        default = make_session(faulty(), 5, batched=True).run()
        forced_scalar = make_session(faulty(), 5, batched=False).run()
        assert_records_identical(default, forced_scalar)
        # the slowdown window actually fired: some steps cost more than the
        # same session observes without injection
        clean = make_session(
            FunctionEvaluator(rugged, ParetoNoise(rho=0.2)), 5, batched=False
        ).run()
        assert default.step_times.sum() > clean.step_times.sum()
