"""FaultPlan contract: deterministic, order-independent, retry-aware."""

import pytest

from repro.faults import FAULT_KINDS, FaultPlan


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, crash=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, nan=1.5)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, hang=float("nan"))

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, crash=0.5, hang=0.3, nan=0.3)
        FaultPlan(seed=0, crash=0.5, hang=0.3, nan=0.2)  # exactly 1 is fine

    def test_severity_knobs_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, max_faulty_attempts=-1)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, hang_seconds=0.0)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, slowdown_factor=-2.0)


class TestSchedule:
    def test_replays_bit_identically(self):
        plan = FaultPlan(seed=99, crash=0.3, hang=0.2, nan=0.2, slowdown=0.2)
        grid = [
            [plan.fault_for(c, t, a) for a in range(3)]
            for c in range(4)
            for t in range(6)
        ]
        replay = FaultPlan(seed=99, crash=0.3, hang=0.2, nan=0.2, slowdown=0.2)
        assert grid == [
            [replay.fault_for(c, t, a) for a in range(3)]
            for c in range(4)
            for t in range(6)
        ]

    def test_query_order_is_irrelevant(self):
        plan = FaultPlan(seed=5, crash=0.5)
        forward = [plan.fault_for(0, t) for t in range(10)]
        backward = [plan.fault_for(0, t) for t in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_distinct_tasks_draw_independently(self):
        # With a 50% crash rate, 64 tasks drawing identically would mean
        # the task identity is being ignored.
        plan = FaultPlan(seed=3, crash=0.5)
        draws = {plan.fault_for(c, t) for c in range(8) for t in range(8)}
        assert draws == {None, "crash"}

    def test_seed_changes_schedule(self):
        kw = dict(crash=0.25, hang=0.25, nan=0.25, slowdown=0.25)
        a = [FaultPlan(seed=1, **kw).fault_for(0, t) for t in range(32)]
        b = [FaultPlan(seed=2, **kw).fault_for(0, t) for t in range(32)]
        assert a != b

    def test_kinds_drawn_match_configured_rates(self):
        plan = FaultPlan(seed=11, crash=0.25, hang=0.25, nan=0.25, slowdown=0.25)
        kinds = {
            plan.fault_for(c, t) for c in range(16) for t in range(16)
        } - {None}
        assert kinds == set(FAULT_KINDS)
        only_nan = FaultPlan(seed=11, nan=0.5)
        kinds = {
            only_nan.fault_for(c, t) for c in range(16) for t in range(16)
        } - {None}
        assert kinds == {"nan"}

    def test_rates_are_respected_marginally(self):
        plan = FaultPlan(seed=17, crash=0.2)
        n = 2000
        hits = sum(plan.fault_for(0, t) == "crash" for t in range(n))
        assert abs(hits / n - 0.2) < 0.04

    def test_attempts_beyond_max_are_clean(self):
        plan = FaultPlan(seed=23, crash=1.0, max_faulty_attempts=2)
        assert plan.fault_for(0, 0, attempt=0) == "crash"
        assert plan.fault_for(0, 0, attempt=1) == "crash"
        assert plan.fault_for(0, 0, attempt=2) is None
        assert plan.fault_for(0, 0, attempt=7) is None

    def test_zero_max_faulty_attempts_disables_injection(self):
        plan = FaultPlan(seed=23, crash=1.0, max_faulty_attempts=0)
        assert all(plan.fault_for(c, t) is None for c in range(4) for t in range(4))

    def test_expected_fault_rate(self):
        plan = FaultPlan(seed=0, crash=0.1, hang=0.2, nan=0.05)
        assert plan.expected_fault_rate() == pytest.approx(0.35)

    def test_plan_pickles(self):
        import pickle

        plan = FaultPlan(seed=7, crash=0.3, hang=0.1)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert [clone.fault_for(1, t) for t in range(16)] == [
            plan.fault_for(1, t) for t in range(16)
        ]
