"""The converged tail: every remaining step observed in one call.

Once the tuner has converged on an evaluator that takes precomputed costs,
the session observes the incumbent for all remaining steps with one
``observe_repeated`` call.  Against the per-step loop (``batched_eval=
False``) the record, the trace and the generator's final state must be
identical, with and without a tracer and ``record_details``.  Models whose
draws interleave (spike mixture) or carry state (Markov-modulated) stay on
the base method's per-step loop and must match too.
"""

import numpy as np
import pytest

from repro.apps.database import PerformanceDatabase
from repro.apps.gs2 import GS2Surrogate
from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.harmony.evaluator import FunctionEvaluator
from repro.harmony.session import TuningSession
from repro.obs.trace import Tracer, canonical_events
from repro.variability import (
    ExponentialNoise,
    GaussianNoise,
    MarkovModulatedNoise,
    NoiseModel,
    NoNoise,
    ParetoNoise,
    SpikeMixtureNoise,
    TruncatedParetoNoise,
)

SURROGATE = GS2Surrogate()
SPACE = SURROGATE.space()
BUDGET = 160

NOISES = {
    "none": NoNoise,
    "pareto": lambda: ParetoNoise(rho=0.3),
    "truncated": lambda: TruncatedParetoNoise(rho=0.3, cap_factor=0.5),
    "spike": SpikeMixtureNoise,
    "markov": MarkovModulatedNoise,
}
#: models that answer the tail with one vectorized draw
VECTORIZED = ("none", "pareto", "truncated")


def run_session(noise, seed, *, batched, traced=False, details=False):
    db = PerformanceDatabase.from_function(SURROGATE, SPACE, fraction=0.3, rng=1)
    tracer = Tracer(label="session") if traced else None
    session = TuningSession(
        ParallelRankOrdering(SPACE, r=0.2),
        FunctionEvaluator(db, NOISES[noise]()),
        budget=BUDGET,
        plan=SamplingPlan(2),
        record_details=details,
        batched_eval=batched,
        rng=seed,
        tracer=tracer,
    )
    result = session.run()
    events = canonical_events(tracer.drain()) if traced else None
    return result, session.rng.bit_generator.state, events


def assert_identical(fast, loop):
    (a, state_a, events_a), (b, state_b, events_b) = fast, loop
    assert a.step_times.tobytes() == b.step_times.tobytes()
    assert a.step_kinds == b.step_kinds
    assert a.incumbent_true_costs.tobytes() == b.incumbent_true_costs.tobytes()
    assert a.n_measurements == b.n_measurements
    assert a.converged_at == b.converged_at
    assert a.best_point.tobytes() == b.best_point.tobytes()
    assert a.best_true_cost == b.best_true_cost
    assert a.step_details == b.step_details
    assert state_a == state_b
    assert events_a == events_b


@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("seed", [0, 5])
def test_tail_matches_the_per_step_loop(noise, seed):
    fast = run_session(noise, seed, batched=True)
    assert fast[0].converged_at is not None and fast[0].converged_at < BUDGET
    assert_identical(fast, run_session(noise, seed, batched=False))


@pytest.mark.parametrize("noise", sorted(NOISES))
def test_tail_matches_with_tracer_and_details(noise):
    fast = run_session(noise, 3, batched=True, traced=True, details=True)
    loop = run_session(noise, 3, batched=False, traced=True, details=True)
    assert_identical(fast, loop)
    steps = [e for e in fast[2] if e["kind"] == "session.step"]
    assert [e["t"] for e in steps] == list(range(BUDGET))
    assert len(fast[0].step_details) == BUDGET


@pytest.mark.parametrize("noise", sorted(NOISES))
def test_converged_session_observes_the_tail_once(noise, monkeypatch):
    calls = []
    real = FunctionEvaluator.observe_repeated

    def counting(self, f, n, rng):
        calls.append(n)
        return real(self, f, n, rng)

    monkeypatch.setattr(FunctionEvaluator, "observe_repeated", counting)
    result, _, _ = run_session(noise, 0, batched=True)
    # One call covers every step from the first exploit after convergence.
    assert len(calls) == 1
    assert calls[0] == BUDGET - result.converged_at
    assert result.step_times.size == BUDGET


class TestNoiseModelContract:
    """``observe_repeated`` equals one-element ``observe_batch`` calls."""

    MODELS = {
        **NOISES,
        "gaussian": lambda: GaussianNoise(rho=0.2),
        "exponential": lambda: ExponentialNoise(rho=0.2),
        "pareto_rho0": lambda: ParetoNoise(rho=0.0),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("n", [1, 2, 37, 400])
    def test_bitwise_equal_to_the_loop(self, model, n):
        f = 2.718281828
        block_model, loop_model = self.MODELS[model](), self.MODELS[model]()
        gen, gen_loop = np.random.default_rng(n), np.random.default_rng(n)
        block = block_model.observe_repeated(f, n, gen)
        loop = np.array(
            [loop_model.observe_batch(np.array([f]), gen_loop)[0] for _ in range(n)]
        )
        assert block.shape == (n,)
        assert block.tobytes() == loop.tobytes()
        assert gen.bit_generator.state == gen_loop.bit_generator.state

    def test_only_concatenable_models_override(self):
        base = NoiseModel.observe_repeated
        for name in VECTORIZED:
            assert type(NOISES[name]()).observe_repeated is not base
        # draws interleave across streams / carry regime state
        assert SpikeMixtureNoise.observe_repeated is base
        assert MarkovModulatedNoise.observe_repeated is base
