"""FaultyEvaluator behavior at its injection layer."""

import numpy as np
import pytest

from repro.core.pro import ParallelRankOrdering
from repro.faults import FaultyEvaluator
from repro.harmony.evaluator import DelegatingEvaluator, FunctionEvaluator
from repro.harmony.session import TuningSession
from repro.variability.models import ParetoNoise


def unit_cost(point) -> float:
    return 1.0


def quad_cost(point) -> float:
    return 1.0 + float(np.sum(np.asarray(point, dtype=float) ** 2))


class TestFaultyEvaluator:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultyEvaluator(unit_cost, mode="explode")
        with pytest.raises(ValueError):
            FaultyEvaluator(unit_cost, mode="nan", after=-1)
        with pytest.raises(ValueError):
            FaultyEvaluator(unit_cost, mode="nan", times=0)
        with pytest.raises(ValueError):
            FaultyEvaluator(unit_cost, mode="slowdown", factor=0)

    def test_delegates_identity_queries(self):
        inner = FunctionEvaluator(quad_cost, ParetoNoise(rho=0.25))
        faulty = FaultyEvaluator(inner, mode="nan")
        assert faulty.rho == inner.rho
        assert faulty.max_wave_size is None
        assert faulty.true_cost(np.zeros(2)) == quad_cost(np.zeros(2))
        assert isinstance(faulty, DelegatingEvaluator)

    @pytest.mark.parametrize(
        "mode,check",
        [
            ("nan", lambda y, t: np.isnan(y).all()),
            ("negative", lambda y, t: (y < 0).all()),
            ("wrong_shape", lambda y, t: y.shape == (5,)),
            ("bad_barrier", lambda y, t: t < float(np.max(y))),
        ],
    )
    def test_invalid_observation_modes(self, mode, check, rng):
        faulty = FaultyEvaluator(unit_cost, mode=mode)
        y, t = faulty.observe_wave([np.zeros(2)] * 2, rng)
        assert check(np.asarray(y), t)

    def test_raises_mode(self, rng):
        faulty = FaultyEvaluator(unit_cost, mode="raises", message="node 12 died")
        with pytest.raises(OSError, match="node 12 died"):
            faulty.observe_wave([np.zeros(2)], rng)

    def test_slowdown_scales_times_and_barrier(self, rng):
        clean = FunctionEvaluator(quad_cost)
        slow = FaultyEvaluator(FunctionEvaluator(quad_cost), mode="slowdown", factor=3.0)
        pts = [np.array([1.0, 2.0]), np.array([0.0, 0.0])]
        y0, t0 = clean.observe_wave(pts, np.random.default_rng(0))
        y1, t1 = slow.observe_wave(pts, np.random.default_rng(0))
        np.testing.assert_allclose(y1, 3.0 * y0)
        assert t1 == pytest.approx(3.0 * t0)

    def test_window_delays_and_bounds_misbehavior(self, rng):
        faulty = FaultyEvaluator(unit_cost, mode="nan", after=2, times=1)
        waves = [faulty.observe_wave([np.zeros(2)], rng)[0] for _ in range(4)]
        assert not np.isnan(waves[0]).any()
        assert not np.isnan(waves[1]).any()
        assert np.isnan(waves[2]).all()
        assert not np.isnan(waves[3]).any()

    def test_session_rejects_injected_nan(self, quad3):
        session = TuningSession(
            ParallelRankOrdering(quad3.space),
            FaultyEvaluator(quad3.objective, mode="nan"),
            budget=10,
            rng=0,
        )
        with pytest.raises(RuntimeError, match="evaluator returned"):
            session.run()
