"""Unit tests for the strict-priority node simulator.

The key validation: the machine reproduces the two-job model's closed
forms — ``E[y] = f/(1-ρ)`` (Eq. 6) — from pure queueing dynamics.
"""

import math
import re

import numpy as np
import pytest

from repro.cluster import (
    ExponentialService,
    FixedService,
    ParetoService,
    PoissonArrivals,
    PriorityMachine,
)
from tests.oracles import HeapMachine

#: both kernels, under the ids the tests have always carried
KERNELS = pytest.mark.parametrize(
    "machine", [HeapMachine, PriorityMachine], ids=["scalar", "batched"]
)


class TestNoWorkload:
    def test_app_time_is_exact(self):
        m = PriorityMachine()
        assert m.serve_application(2.5) == 2.5
        assert m.serve_application(1.0) == 3.5

    def test_advance_to_moves_clock(self):
        m = PriorityMachine()
        m.advance_to(10.0)
        assert m.clock == 10.0

    def test_advance_backwards_rejected(self):
        m = PriorityMachine()
        m.advance_to(5.0)
        with pytest.raises(ValueError):
            m.advance_to(4.0)

    @KERNELS
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_advance_rejected(self, machine, t):
        # NaN compares false to the backwards check, and a wait until
        # infinity never ends on an unbounded stream.
        m = machine()
        with pytest.raises(ValueError, match="non-finite"):
            m.advance_to(t)
        assert m.clock == 0.0

    def test_zero_work(self):
        m = PriorityMachine()
        assert m.serve_application(0.0) == 0.0

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            PriorityMachine().serve_application(-1.0)


class TestDeterministicPreemption:
    """A single daemon job with known arrival/service: exact finish times."""

    def _machine_with_one_job(self, arrival, service):
        def stream():
            yield (arrival, service)

        return PriorityMachine(shared_streams=[stream()])

    def test_job_arriving_mid_iteration_delays_it(self):
        m = self._machine_with_one_job(arrival=1.0, service=0.5)
        # App needs 2s; daemon takes 0.5s at t=1 -> finish at 2.5.
        assert m.serve_application(2.0) == pytest.approx(2.5)

    def test_job_arriving_after_finish_no_effect(self):
        m = self._machine_with_one_job(arrival=5.0, service=0.5)
        assert m.serve_application(2.0) == pytest.approx(2.0)

    def test_job_at_start_runs_first(self):
        m = self._machine_with_one_job(arrival=0.0, service=1.0)
        assert m.serve_application(2.0) == pytest.approx(3.0)

    def test_backlog_drains_during_barrier_wait(self):
        m = self._machine_with_one_job(arrival=0.5, service=2.0)
        finish = m.serve_application(1.0)  # 1s work + 2s preemption = 3.0
        assert finish == pytest.approx(3.0)
        m.advance_to(10.0)
        assert m.backlog == 0.0
        # Next iteration sees a clean machine.
        assert m.serve_application(1.0) == pytest.approx(11.0)

    def test_backlog_carries_into_next_iteration(self):
        m = self._machine_with_one_job(arrival=0.5, service=2.0)
        m.serve_application(1.0)
        # No barrier wait: backlog is empty (served inside the iteration).
        assert m.backlog == pytest.approx(0.0)

    def test_multiple_jobs_same_instant(self):
        def stream():
            yield (1.0, 0.3)
            yield (1.0, 0.2)

        m = PriorityMachine(shared_streams=[stream()])
        assert m.serve_application(2.0) == pytest.approx(2.5)


class TestLoadAccounting:
    def test_rho_sums_sources(self):
        m = PriorityMachine(
            [PoissonArrivals(0.5, FixedService(0.2)),
             PoissonArrivals(0.25, FixedService(0.4))],
            rng=0,
        )
        assert m.rho == pytest.approx(0.2)

    def test_saturation_rejected(self):
        with pytest.raises(ValueError):
            PriorityMachine(
                [PoissonArrivals(0.9, FixedService(0.6)),
                 PoissonArrivals(0.9, FixedService(0.6))],
                rng=0,
            )

    def test_p1_service_accounting(self):
        src = PoissonArrivals(0.5, ExponentialService(0.4))
        m = PriorityMachine([src], rng=1)
        for _ in range(2000):
            m.serve_application(1.0)
        # Fraction of wall time spent on P1 work approximates rho.
        assert m.p1_service_done / m.clock == pytest.approx(src.load, abs=0.03)


class TestTwoJobModelValidation:
    """The headline check: the queue reproduces Eq. 6 quantitatively."""

    @pytest.mark.parametrize(
        "service",
        [ExponentialService(0.5), ParetoService(1.8, 0.2), FixedService(0.5)],
        ids=["exponential", "pareto", "fixed"],
    )
    def test_mean_observed_time_matches_eq6(self, service):
        src = PoissonArrivals(0.4, service)
        m = PriorityMachine([src], rng=0)
        n, f = 15_000, 1.0
        prev = 0.0
        total = 0.0
        for _ in range(n):
            fin = m.serve_application(f)
            total += fin - prev
            prev = fin
        rho = src.load
        assert total / n == pytest.approx(f / (1.0 - rho), rel=0.03)

    def test_observed_time_never_below_f(self):
        m = PriorityMachine([PoissonArrivals(0.4, ExponentialService(0.5))], rng=2)
        prev = 0.0
        for _ in range(1000):
            fin = m.serve_application(1.0)
            assert fin - prev >= 1.0 - 1e-12
            prev = fin


class TestFloatRobustness:
    def test_denormal_backlog_does_not_livelock(self):
        """Regression: backlog below the clock's ulp must drain, not spin."""
        m = PriorityMachine()
        m.clock = 1e9
        m.backlog = 1e-18
        m.advance_to(1e9 + 1.0)  # must terminate
        assert m.backlog == 0.0

    def test_denormal_backlog_in_serve(self):
        m = PriorityMachine()
        m.clock = 1e9
        m.backlog = 1e-18
        assert m.serve_application(1.0) == pytest.approx(1e9 + 1.0)


class TestBadEvents:
    """The kernel and its heap oracle reject an event whose arrival time
    is not finite or whose service demand is negative or not finite,
    naming its stream.

    The streams are finite, so a kernel that let such an event through
    would run to the end and fail the assertion instead of hanging.
    """

    @KERNELS
    @pytest.mark.parametrize(
        "event, message",
        [
            ((1.0, math.nan), "non-finite service demand nan from stream 1"),
            ((1.0, math.inf), "non-finite service demand inf from stream 1"),
            ((1.0, -0.1), "negative service demand -0.1 from stream 1"),
            ((math.nan, 0.1), "non-finite arrival time nan from stream 1"),
            ((math.inf, 0.1), "non-finite arrival time inf from stream 1"),
        ],
        ids=["nan-service", "inf-service", "negative-service", "nan-time", "inf-time"],
    )
    def test_rejected_with_its_stream(self, machine, event, message):
        m = machine(
            shared_streams=[iter([(0.5, 0.1), (2.0, 0.1)]), iter([(0.25, 0.05), event])],
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            m.serve_application(5.0)
            m.advance_to(10.0)

    def test_decreasing_block_rejected(self):
        def blocks():
            yield np.array([1.0, 0.5]), np.array([0.1, 0.1])

        m = PriorityMachine(shared_streams=[blocks()])
        with pytest.raises(ValueError, match="stream 0 produced decreasing"):
            m.serve_application(1.0)
