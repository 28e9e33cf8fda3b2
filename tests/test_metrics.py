"""Fitness arithmetic, person-delay, Welch/Cohen statistics, cost
accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosignal.metrics import (
    CostLedger,
    MissingMetric,
    cost_ledger,
    event_fitness,
    person_delay,
    routine_fitness,
    welch_and_cohen,
)


@dataclass
class FakeMetrics:
    avg_delay: float = 0.0
    avg_queue: float = 0.0
    throughput: int = 0
    emergency_delay: float | None = None
    bus_person_delay: float | None = None
    normal_delay: float = 0.0
    incident_window_delay: float | None = None


@dataclass
class FakeVehicle:
    occupancy: float
    delay: float


class TestRoutineFitness:
    def test_direct_substitution(self):
        m = FakeMetrics(avg_delay=10, avg_queue=5, throughput=20)
        assert routine_fitness(m, 0.0) == pytest.approx(-2.0)

    def test_constant_shifts_without_reordering(self):
        m1 = FakeMetrics(avg_delay=10, avg_queue=5, throughput=20)
        m2 = FakeMetrics(avg_delay=12, avg_queue=4, throughput=30)
        for c in (0.0, 17.0, -3.5):
            f1, f2 = routine_fitness(m1, c), routine_fitness(m2, c)
            base = 0.0
            assert f1 - routine_fitness(m1, base) == pytest.approx(c)
            assert (f1 > f2) == (routine_fitness(m1, base) > routine_fitness(m2, base))

    def test_all_zero_metrics_give_constant(self):
        assert routine_fitness(FakeMetrics(), 7.25) == 7.25


class TestEventFitness:
    def test_emergency_weights(self):
        m = FakeMetrics(avg_queue=4, emergency_delay=5, normal_delay=8)
        f = event_fitness(m, "emergency", 10.0)
        assert f == pytest.approx(10 - (0.6 * 5 + 0.25 * 8 + 0.15 * 4))
        assert f == pytest.approx(4.4)

    def test_transit_weights(self):
        m = FakeMetrics(avg_queue=4, bus_person_delay=5, normal_delay=8)
        f = event_fitness(m, "transit", 10.0)
        assert f == pytest.approx(10 - (0.5 * 5 + 0.35 * 8 + 0.15 * 4))

    def test_incident_uses_window_delay(self):
        m = FakeMetrics(avg_delay=6, avg_queue=4, incident_window_delay=9)
        f = event_fitness(m, "incident", 10.0)
        assert f == pytest.approx(10 - (0.6 * 9 + 0.25 * 6 + 0.15 * 4))

    def test_missing_metric_raises(self):
        with pytest.raises(MissingMetric):
            event_fitness(FakeMetrics(), "emergency", 10.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_fitness(FakeMetrics(), "mystery", 0.0)


class TestPersonDelay:
    def test_bus_dominates_weighting(self):
        log = [FakeVehicle(30.0, 10.0), FakeVehicle(1.5, 4.0), FakeVehicle(1.5, 4.0)]
        expected = (30 * 10 + 1.5 * 4 * 2) / (30 + 3)
        assert person_delay(log) == pytest.approx(expected)
        assert person_delay(log) == pytest.approx(9.454545454545455)

    def test_constant_delay_is_identity(self):
        log = [FakeVehicle(30.0, 6.5), FakeVehicle(1.5, 6.5), FakeVehicle(1.5, 6.5)]
        assert person_delay(log) == pytest.approx(6.5)

    def test_uniform_weights_reduce_to_mean(self):
        log = [FakeVehicle(1.5, 2.0), FakeVehicle(1.5, 4.0), FakeVehicle(1.5, 9.0)]
        assert person_delay(log) == pytest.approx((2 + 4 + 9) / 3)

    @given(st.lists(st.tuples(st.floats(1, 40), st.floats(0, 100)), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_extremes(self, pairs):
        log = [FakeVehicle(occ, delay) for occ, delay in pairs]
        value = person_delay(log)
        delays = [v.delay for v in log]
        assert min(delays) - 1e-9 <= value <= max(delays) + 1e-9

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            person_delay([])


class TestWelchAndCohen:
    def test_identical_samples(self):
        r = welch_and_cohen([1, 2, 3], [1, 2, 3])
        assert r.t == 0.0 and r.p == 1.0 and r.d == 0.0

    def test_degenerate_equal_constants(self):
        r = welch_and_cohen([2, 2, 2], [2, 2, 2])
        assert r.t == 0.0 and r.p == 1.0 and r.d == 0.0

    def test_zero_variance_separation(self):
        r = welch_and_cohen([0, 0, 0, 0, 0], [1, 1, 1, 1, 1])
        assert math.isinf(r.t) and r.t < 0
        assert r.p == 0.0
        assert math.isinf(r.d)

    def test_five_vs_five_hand_computed(self):
        # a: mean 11, var 2.5; b: mean 21, var 2.5
        # t = -10 exactly; dof = 8 exactly; p and d frozen from an
        # independent high-precision computation (regularized incomplete
        # beta at 30 digits).
        r = welch_and_cohen([10, 12, 11, 13, 9], [20, 22, 21, 19, 23])
        assert r.t == pytest.approx(-10.0, rel=1e-12)
        assert r.dof == pytest.approx(8.0, rel=1e-12)
        assert r.p == pytest.approx(8.488181527628492e-06, rel=1e-9)
        assert r.d == pytest.approx(-6.324555320336759, rel=1e-12)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        st.lists(st.floats(-50, 50), min_size=2, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, a, b):
        forward = welch_and_cohen(a, b)
        backward = welch_and_cohen(b, a)
        if math.isinf(forward.t):
            assert backward.t == -forward.t
        else:
            assert backward.t == pytest.approx(-forward.t, rel=1e-12, abs=1e-12)
            assert backward.d == pytest.approx(-forward.d, rel=1e-12, abs=1e-12)
            assert backward.p == pytest.approx(forward.p, rel=1e-12, abs=1e-15)

    def test_too_small_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_and_cohen([1], [2, 3])


def fake_events(generations, candidates, scenarios, retries=0):
    events = []
    for g in range(generations):
        for c in range(candidates):
            events.append({"event": "generated", "generation": g, "candidate": c, "attempt": 0})
            for s in range(scenarios):
                events.append({"event": "evaluated", "generation": g, "scenario": f"S{s}"})
    for r in range(retries):
        events.append({"event": "generated", "generation": 0, "candidate": 0, "attempt": r + 1})
    return events


class TestCostLedger:
    def test_paper_scale_arithmetic(self):
        ledger = cost_ledger(fake_events(30, 8, 3))
        assert ledger.llm_calls == 240
        assert ledger.sim_runs == 720

    def test_empty_run(self):
        assert cost_ledger([]) == CostLedger(0, 0, 0.0)

    def test_retries_add_calls(self):
        ledger = cost_ledger(fake_events(1, 4, 2, retries=2))
        assert ledger.llm_calls == 4 + 2
        assert ledger.sim_runs == 8
