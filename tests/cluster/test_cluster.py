"""Unit tests for the barrier-synchronized cluster."""

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


class TestNoiselessCluster:
    def test_constant_costs_exact_barriers(self):
        c = Cluster(4, seed=0)
        trace = c.run(2.0, 5)
        assert np.allclose(trace.times, 2.0)
        assert np.allclose(trace.barrier_times, 2.0 * np.arange(1, 6))
        assert trace.total_time() == pytest.approx(10.0)

    def test_per_node_costs(self):
        c = Cluster(3, seed=0)
        trace = c.run([1.0, 2.0, 3.0], 4)
        # Barrier is set by the slowest node each iteration.
        assert np.allclose(trace.iteration_maxima(), 3.0)
        # Fast nodes' recorded durations include no wait (duration measured
        # from barrier to own finish).
        assert np.allclose(trace.times[0], 1.0)

    def test_callable_costs(self):
        c = Cluster(2, seed=0)
        trace = c.run(lambda p, k: 1.0 + k, 3)
        assert np.allclose(trace.iteration_maxima(), [1.0, 2.0, 3.0])

    def test_rejects_bad_shape(self):
        c = Cluster(2, seed=0)
        with pytest.raises(ValueError):
            c.run([1.0, 2.0, 3.0], 2)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            Cluster(2, seed=0).run(1.0, 0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestSharedVsPrivateSources:
    def test_shared_events_hit_all_nodes_identically(self):
        shared = [PeriodicDaemon(5.0, FixedService(1.0))]
        c = Cluster(4, shared_sources=shared, seed=1)
        trace = c.run(1.0, 30)
        # Every node sees the same daemon at the same instants: identical rows.
        for p in range(1, 4):
            assert np.allclose(trace.times[p], trace.times[0])
        assert trace.mean_cross_correlation() == pytest.approx(1.0)

    def test_private_sources_are_independent(self):
        private = [PoissonArrivals(0.3, ExponentialService(0.5))]
        c = Cluster(4, private_sources=private, seed=2)
        trace = c.run(1.0, 400)
        corr = trace.mean_cross_correlation()
        assert abs(corr) < 0.2  # no systematic correlation

    def test_shared_plus_private_intermediate_correlation(self):
        c = Cluster(
            6,
            private_sources=[PoissonArrivals(0.2, ParetoService(1.5, 0.2))],
            shared_sources=[PoissonArrivals(0.02, ParetoService(1.3, 2.0))],
            seed=3,
        )
        trace = c.run(1.0, 500)
        corr = trace.mean_cross_correlation()
        assert 0.1 < corr < 1.0

    def test_rho_includes_both_kinds(self):
        c = Cluster(
            2,
            private_sources=[PoissonArrivals(0.5, FixedService(0.2))],
            shared_sources=[PeriodicDaemon(10.0, FixedService(1.0))],
            seed=4,
        )
        assert c.rho == pytest.approx(0.1 + 0.1)


class TestReproducibility:
    def test_same_seed_same_trace(self):
        def build():
            return Cluster(
                3,
                private_sources=[PoissonArrivals(0.3, ExponentialService(0.3))],
                seed=42,
            )

        t1 = build().run(1.0, 50)
        t2 = build().run(1.0, 50)
        assert np.array_equal(t1.times, t2.times)

    def test_different_seeds_differ(self):
        def build(seed):
            return Cluster(
                3,
                private_sources=[PoissonArrivals(0.3, ExponentialService(0.3))],
                seed=seed,
            )

        t1 = build(1).run(1.0, 50)
        t2 = build(2).run(1.0, 50)
        assert not np.array_equal(t1.times, t2.times)


class TestBarrierSemantics:
    def test_iteration_times_at_least_cost(self):
        c = Cluster(
            4,
            private_sources=[PoissonArrivals(0.2, ExponentialService(0.5))],
            seed=5,
        )
        trace = c.run(1.5, 100)
        assert np.all(trace.times >= 1.5 - 1e-12)

    def test_barrier_is_cumulative_max(self):
        c = Cluster(
            4,
            private_sources=[PoissonArrivals(0.2, ExponentialService(0.5))],
            seed=6,
        )
        trace = c.run(1.0, 50)
        assert np.allclose(
            trace.barrier_times, np.cumsum(trace.iteration_maxima()), rtol=1e-9
        )

    def test_mean_slowdown_exceeds_single_node(self):
        """With P nodes, E[T_k] = E[max of P] > E[single y] (Eq. 1 bites)."""
        private = [PoissonArrivals(0.3, ParetoService(1.6, 0.3))]
        solo = Cluster(1, private_sources=private, seed=7).run(1.0, 2000)
        many = Cluster(16, private_sources=private, seed=7).run(1.0, 2000)
        assert many.iteration_maxima().mean() > solo.iteration_maxima().mean()


class TestSuccessiveRuns:
    """A run continues from the barrier the previous run left."""

    @staticmethod
    def make():
        return Cluster(
            6,
            private_sources=[PoissonArrivals(0.2, ParetoService(1.5, 0.3))],
            shared_sources=[PeriodicDaemon(2.5, FixedService(0.2))],
            seed=11,
        )

    def test_two_single_runs_equal_one_double_run(self):
        costs = np.linspace(1.0, 2.0, 6)
        split, joint = self.make(), self.make()
        first, second = split.run(costs, 1), split.run(costs, 1)
        both = joint.run(costs, 2)
        assert np.hstack([first.times, second.times]).tobytes() == both.times.tobytes()
        assert (
            np.concatenate([first.barrier_times, second.barrier_times]).tobytes()
            == both.barrier_times.tobytes()
        )
        assert split.barrier == joint.barrier == both.barrier_times[-1]

    def test_noiseless_runs_report_durations_not_the_clock(self):
        c = Cluster(3, seed=0)
        steps = [c.run(2.0, 1).iteration_maxima()[0] for _ in range(5)]
        assert steps == [2.0] * 5
        assert c.barrier == 10.0


class TestRejectedCostsLeaveTheClusterUntouched:
    """A bad cost raises before any node serves: no node runs ahead of the
    barrier, so the next run starts from the same state."""

    def make(self):
        return Cluster(
            4,
            private_sources=[PoissonArrivals(0.2, ExponentialService(0.5))],
            seed=5,
        )

    @staticmethod
    def state(cluster):
        return [
            (n.clock, n.backlog, n.p1_service_done) for n in cluster.nodes
        ], cluster.barrier

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_bad_callable_cost_raises_before_any_node_moves(self, bad):
        cluster = self.make()
        cluster.run(2.0, 3)
        before = self.state(cluster)
        with pytest.raises(ValueError, match="work must be a finite non-negative"):
            cluster.run(lambda p, k: bad if (p, k) == (2, 1) else 2.0, 2)
        assert self.state(cluster) == before
        # the next run continues exactly as if the rejected one never ran
        reference = self.make()
        reference.run(2.0, 3)
        assert np.array_equal(cluster.run(2.0, 2).times, reference.run(2.0, 2).times)

    def test_bad_static_cost_raises_before_any_node_moves(self):
        cluster = self.make()
        cluster.run(2.0, 1)
        before = self.state(cluster)
        with pytest.raises(ValueError, match="got nan"):
            cluster.run([2.0, 2.0, float("nan"), 2.0], 1)
        assert self.state(cluster) == before
