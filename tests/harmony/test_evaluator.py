"""Unit tests for the evaluation substrates."""

import numpy as np
import pytest

from repro.apps.database import PerformanceDatabase
from repro.cluster import Cluster, ExponentialService, PoissonArrivals
from repro.harmony.evaluator import (
    ClusterEvaluator,
    DatabaseEvaluator,
    FunctionEvaluator,
)
from repro.space import IntParameter, ParameterSpace
from repro.variability import NoNoise, ParetoNoise


def cost_fn(p):
    return 1.0 + float(p[0])


class TestFunctionEvaluator:
    def test_noiseless_wave(self, rng):
        ev = FunctionEvaluator(cost_fn)
        pts = [np.array([0.0]), np.array([2.0])]
        times, t_step = ev.observe_wave(pts, rng)
        assert list(times) == [1.0, 3.0]
        assert t_step == 3.0  # barrier max (Eq. 1)

    def test_true_cost(self):
        ev = FunctionEvaluator(cost_fn)
        assert ev.true_cost(np.array([4.0])) == 5.0

    def test_noise_inflates_times(self, rng):
        ev = FunctionEvaluator(cost_fn, ParetoNoise(rho=0.3))
        pts = [np.array([1.0])] * 5
        times, t_step = ev.observe_wave(pts, rng)
        assert np.all(times > 2.0)  # f + beta floor
        assert t_step == times.max()

    def test_rho_forwarded(self):
        assert FunctionEvaluator(cost_fn, ParetoNoise(rho=0.25)).rho == 0.25
        assert FunctionEvaluator(cost_fn).rho == 0.0

    def test_empty_wave_rejected(self, rng):
        with pytest.raises(ValueError):
            FunctionEvaluator(cost_fn).observe_wave([], rng)


class TestDatabaseEvaluator:
    def test_wraps_database(self, rng):
        space = ParameterSpace([IntParameter("a", 0, 4)])
        db = PerformanceDatabase.from_function(cost_fn, space)
        ev = DatabaseEvaluator(db)
        times, _ = ev.observe_wave([np.array([3.0])], rng)
        assert times[0] == 4.0


class TestClusterEvaluator:
    def _make(self, n_nodes=4):
        cluster = Cluster(
            n_nodes,
            private_sources=[PoissonArrivals(0.2, ExponentialService(0.3))],
            seed=0,
        )
        return ClusterEvaluator(cost_fn, cluster)

    def test_wave_size_cap(self, rng):
        ev = self._make(2)
        assert ev.max_wave_size == 2
        with pytest.raises(ValueError):
            ev.observe_wave([np.zeros(1)] * 3, rng)

    def test_times_at_least_cost(self, rng):
        ev = self._make(4)
        pts = [np.array([1.0]), np.array([2.0])]
        times, t_step = ev.observe_wave(pts, rng)
        assert times[0] >= 2.0 - 1e-9
        assert times[1] >= 3.0 - 1e-9
        assert t_step >= times.max()

    def test_barrier_includes_fill_nodes(self, rng):
        """Idle nodes run the fill point and can set the barrier."""
        ev = self._make(4)
        ev.set_fill_point(np.array([9.0]))  # cost 10, huge
        times, t_step = ev.observe_wave([np.array([0.0])], rng)
        assert t_step >= 10.0 - 1e-9
        assert times.shape == (1,)

    def test_rho_from_cluster(self):
        ev = self._make(2)
        assert ev.rho == pytest.approx(0.06)

    def test_successive_waves_report_wave_durations(self, rng):
        ev = ClusterEvaluator(cost_fn, Cluster(3, seed=0))
        steps = [ev.observe_wave([np.array([1.0])], rng)[1] for _ in range(4)]
        assert steps == [2.0] * 4

    def test_fill_point_priced_once(self, rng):
        calls = []

        def counted(p):
            calls.append(float(p[0]))
            return cost_fn(p)

        ev = ClusterEvaluator(counted, self._make(4).cluster)
        ev.set_fill_point(np.array([5.0]))
        times, t_step = ev.observe_wave([np.array([0.0]), np.array([2.0])], rng)
        assert calls == [0.0, 2.0, 5.0]
        # same observation as a per-node cost vector on an identical cluster
        trace = self._make(4).cluster.run([1.0, 3.0, 6.0, 6.0], 1)
        assert times.tobytes() == trace.times[:2, 0].tobytes()
        assert t_step == float(trace.times[:, 0].max())
