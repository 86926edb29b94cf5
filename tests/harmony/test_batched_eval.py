"""Bit-identity of the session's batched-evaluation fast path.

A session observes each batch's whole wave schedule in one
``observe_waves`` call whenever the evaluator advertises
``supports_precomputed``; ``tests/oracles.per_wave`` hides that, which
leaves the per-wave ``observe_wave`` reference.  The two must produce
bitwise identical :class:`SessionResult` records — the fast path is an
optimization, never a semantic change — the fast path must keep every
validation check, and fault-injecting wrappers must transparently turn it
off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.database import PerformanceDatabase
from repro.core.adaptive import AdaptiveSamplingController
from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.faults.inject import FaultyEvaluator
from repro.harmony.evaluator import Evaluator, FunctionEvaluator
from repro.harmony.session import TuningSession
from repro.search.random_search import RandomSearch
from repro.space import IntParameter, ParameterSpace
from repro.variability import (
    ExponentialNoise,
    GaussianNoise,
    MarkovModulatedNoise,
    NoNoise,
    ParetoNoise,
    SpikeMixtureNoise,
    TruncatedParetoNoise,
)
from tests.oracles import per_wave

SPACE = ParameterSpace([IntParameter(f"x{i}", -8, 8) for i in range(4)])


def rugged(point) -> float:
    x = np.asarray(point, dtype=float)
    return float(1.0 + np.sum(x * x + 10.0 * (1.0 - np.cos(np.pi * x / 2.0))))


def make_session(evaluator, seed, batched):
    # Evaluator instances carry their own noise model; bare callables get one.
    if not isinstance(evaluator, Evaluator):
        evaluator = FunctionEvaluator(evaluator, ParetoNoise(rho=0.2))
    return TuningSession(
        ParallelRankOrdering(SPACE), evaluator if batched else per_wave(evaluator),
        budget=40, plan=SamplingPlan(2), rng=seed,
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
        # keep the fast path off on its own — otherwise a scheduled fault
        # would silently never fire.
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


# -- the batch path against the per-wave reference ------------------------------

SMALL = ParameterSpace([IntParameter(f"y{i}", -8, 8) for i in range(2)])

NOISES = {
    "none": NoNoise,
    "pareto": lambda: ParetoNoise(rho=0.2),
    "truncated": lambda: TruncatedParetoNoise(rho=0.2, cap_factor=0.5),
    "gaussian": lambda: GaussianNoise(rho=0.2),
    "exponential": lambda: ExponentialNoise(rho=0.2),
    "spike": SpikeMixtureNoise,
    "markov": MarkovModulatedNoise,
}


@st.composite
def batch_cases(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6))
    p = draw(st.one_of(st.none(), st.integers(1, n * k + 1)))
    parallel = draw(st.booleans())
    # Waves of a probe-free batch; a budget of whole batches plus a part
    # of one cuts the batch mid-schedule.
    if parallel:
        waves = 1 if p is None else -(-n * k // p)
    else:
        waves = k if p is None else k * -(-n // p)
    budget = waves * draw(st.integers(0, 3)) + draw(st.integers(1, waves))
    return dict(
        n=n, k=k, p=p, parallel=parallel, budget=budget,
        controller=draw(st.booleans()),
        noise=draw(st.sampled_from(sorted(NOISES))),
        tuner=draw(st.sampled_from(["random", "pro"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def case_record(case, batched):
    if case["tuner"] == "random":
        tuner = RandomSearch(SMALL, batch_size=case["n"], rng=case["seed"])
    else:
        tuner = ParallelRankOrdering(SMALL)
    controller = (
        AdaptiveSamplingController(k_initial=case["k"], k_max=6)
        if case["controller"] else None
    )
    evaluator = FunctionEvaluator(rugged, NOISES[case["noise"]]())
    session = TuningSession(
        tuner, evaluator if batched else per_wave(evaluator),
        budget=case["budget"], n_processors=case["p"],
        plan=SamplingPlan(case["k"]), controller=controller,
        parallel_sampling=case["parallel"], record_details=True,
        rng=case["seed"],
    )
    result = session.run()
    return {
        "step_times": [t.hex() for t in result.step_times.tolist()],
        "step_kinds": result.step_kinds,
        "incumbent_true_costs": [c.hex() for c in result.incumbent_true_costs.tolist()],
        "n_measurements": result.n_measurements,
        "best_point": result.best_point.tobytes(),
        "best_estimate": result.best_estimate.hex(),
        "step_details": result.step_details,
        "rng_state": session.rng.bit_generator.state,
    }


@given(batch_cases())
@settings(max_examples=150, deadline=None)
def test_batch_path_matches_the_per_wave_reference(case):
    assert case_record(case, batched=True) == case_record(case, batched=False)


# -- the batch path keeps every check ---------------------------------------------


class BrokenWaves(FunctionEvaluator):
    """Answers ``observe_waves`` with one kind of invalid result."""

    def __init__(self, mode):
        super().__init__(rugged, ParetoNoise(rho=0.2))
        self.mode = mode

    def observe_waves(self, f, starts, rng):
        times, t_steps = super().observe_waves(f, starts, rng)
        times, t_steps = times.copy(), t_steps.copy()
        if self.mode == "nan":
            times[0] = np.nan
        elif self.mode == "negative":
            times[-1] = -1.0
        elif self.mode == "wrong_shape":
            times = times[:-1]
        elif self.mode == "wrong_step_count":
            t_steps = t_steps[:-1]
        elif self.mode == "bad_barrier":
            t_steps[-1] = times[starts[-1]:].max() / 2
        elif self.mode == "inf_barrier":
            t_steps[0] = np.inf
        return times, t_steps


@pytest.mark.parametrize(
    "mode",
    ["nan", "negative", "wrong_shape", "wrong_step_count", "bad_barrier", "inf_barrier"],
)
@pytest.mark.parametrize("parallel", [False, True])
def test_invalid_batch_observations_raise(mode, parallel):
    session = TuningSession(
        ParallelRankOrdering(SPACE), BrokenWaves(mode), budget=40,
        plan=SamplingPlan(3), n_processors=4, parallel_sampling=parallel, rng=0,
    )
    with pytest.raises(RuntimeError, match="evaluator returned"):
        session.run()


# -- one call, one draw and no probe pricing per batch ----------------------------


def test_each_batch_makes_one_observe_waves_call(monkeypatch):
    calls, draws, per_batch = [], [], []
    observe_waves = FunctionEvaluator.observe_waves
    sample_noise = ParetoNoise.sample_noise
    evaluate = TuningSession._evaluate

    def counting_observe(self, f, starts, rng):
        calls.append(starts.size)
        return observe_waves(self, f, starts, rng)

    def counting_draw(self, f, rng):
        draws.append(f.size)
        return sample_noise(self, f, rng)

    def counting_evaluate(self, *args):
        before = len(calls)
        measured = evaluate(self, *args)
        per_batch.append(len(calls) - before)
        return measured

    monkeypatch.setattr(FunctionEvaluator, "observe_waves", counting_observe)
    monkeypatch.setattr(ParetoNoise, "sample_noise", counting_draw)
    monkeypatch.setattr(TuningSession, "_evaluate", counting_evaluate)
    result = TuningSession(
        ParallelRankOrdering(SPACE), rugged, noise=ParetoNoise(rho=0.2),
        budget=200, plan=SamplingPlan(5), rng=11,
    ).run()
    assert len(per_batch) > 5 and per_batch == [1] * len(per_batch)
    # one noise draw per call, and every step goes through one
    assert len(draws) == len(calls)
    assert sum(calls) == result.step_times.size == 200


class PricingCounter(FunctionEvaluator):
    """Records every configuration priced one at a time."""

    def __init__(self):
        super().__init__(rugged, ParetoNoise(rho=0.2))
        self.priced = []

    def true_cost(self, point):
        self.priced.append(np.asarray(point, dtype=float).tobytes())
        return super().true_cost(point)

    def true_cost_batch(self, points):
        return np.array([rugged(p) for p in points])


@pytest.mark.parametrize(
    "parallel, p",
    # sequential n >= P and parallel n*K >= P: no wave has a spare
    # processor; P=None: every wave carries the probe
    [(False, 2), (True, 4), (False, None), (True, None)],
)
def test_the_probe_is_priced_from_the_incumbent_cache(parallel, p):
    evaluator = PricingCounter()
    session = TuningSession(
        ParallelRankOrdering(SPACE), evaluator, budget=120, n_processors=p,
        plan=SamplingPlan(2), controller=AdaptiveSamplingController(k_initial=2),
        parallel_sampling=parallel, rng=4,
    )
    session.run()
    # Each incumbent is priced once, for the step record; only the final
    # best cost prices one again.
    before_last = evaluator.priced[:-1]
    assert len(before_last) > 1
    assert len(set(before_last)) == len(before_last)
