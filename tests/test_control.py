"""Phase scoring, baselines, and the signal discipline around them."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from evosignal.control import (
    ControllerSpec,
    FixedTimePlan,
    drive,
    max_pressure,
    score_phases,
)
from evosignal.sim import make_scenario
from evosignal.sim.engine import LaneObservation, run_episode
from evosignal.skills import LIBRARY, SEED_SKILL, Skill


def lane(num=0, waiting=0, dist=300.0):
    return LaneObservation(num_vehicle=num, num_waiting_vehicle=waiting, vehicle_dist=dist)


def observations(per_phase):
    """Build a 4-phase observation set from a list of lane-link specs
    per phase: each spec is (inlane, outlane)."""
    return [list(phase) for phase in per_phase]


EMPTY = observations([[(lane(), lane())] for _ in range(4)])


class TestScorePhases:
    def test_seed_sums_waiting_counts(self):
        obs = observations(
            [
                [(lane(waiting=3), lane()), (lane(waiting=2), lane())],
                [(lane(), lane())],
                [(lane(), lane())],
                [(lane(), lane())],
            ]
        )
        result = score_phases(SEED_SKILL, obs)
        assert result.scores[0] == 5.0
        assert result.chosen == 0

    def test_all_zero_ties_break_to_lowest_index(self):
        result = score_phases(SEED_SKILL, EMPTY)
        assert len(set(result.scores)) == 1
        assert result.chosen == 0

    def test_emergency_context_dominates_its_phase(self):
        skill = LIBRARY["preempt-approach"]
        obs = observations([[(lane(waiting=1), lane())] for _ in range(4)])
        ctx = {"emergency_distance": 100.0, "emergency_phase": 2.0}
        result = score_phases(skill, obs, ctx)
        assert result.chosen == 2
        # (200 - 100) * 10 per lane-link on the matching phase
        assert result.scores[2] >= 1000.0

    def test_event_variables_default_to_zero(self):
        skill = LIBRARY["preempt-approach"]
        obs = observations([[(lane(waiting=2), lane())] for _ in range(4)])
        result = score_phases(skill, obs)
        # no emergency: falls to the waiting * 3 branch everywhere
        assert all(s == result.scores[0] for s in result.scores)

    @given(scale=st.floats(0.1, 50.0), w=st.integers(0, 12), n=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_argmax_invariant_under_positive_scaling(self, scale, w, n):
        base = Skill(id="b", description="", guidance="",
                     inlane_code="value[0] += num_waiting_vehicle * 2 + num_vehicle",
                     outlane_code="value[0] -= num_vehicle * 0.5")
        scaled = Skill(id="s", description="", guidance="",
                       inlane_code=f"value[0] += (num_waiting_vehicle * 2 + num_vehicle) * {scale!r}",
                       outlane_code=f"value[0] -= num_vehicle * 0.5 * {scale!r}")
        obs = observations(
            [
                [(lane(num=n, waiting=w), lane(num=1))],
                [(lane(num=w, waiting=n % 7), lane())],
                [(lane(num=3, waiting=1), lane(num=n, waiting=2))],
                [(lane(), lane())],
            ]
        )
        assert score_phases(base, obs).chosen == score_phases(scaled, obs).chosen

    def test_chosen_is_lowest_index_of_max(self):
        obs = observations(
            [
                [(lane(waiting=4), lane())],
                [(lane(waiting=7), lane())],
                [(lane(waiting=7), lane())],
                [(lane(waiting=2), lane())],
            ]
        )
        result = score_phases(SEED_SKILL, obs)
        assert result.scores[1] == result.scores[2]
        assert result.chosen == 1


class TestMaxPressure:
    def test_pressure_differential(self):
        obs = observations(
            [
                [(lane(waiting=5), lane(waiting=1)), (lane(waiting=3), lane(waiting=2))],
                [(lane(), lane())],
                [(lane(), lane())],
                [(lane(), lane())],
            ]
        )
        result = max_pressure(obs)
        assert result.scores[0] == 5.0
        assert result.chosen == 0

    def test_symmetric_queues_tie_to_phase_zero(self):
        obs = observations([[(lane(waiting=4), lane(waiting=4))] for _ in range(4)])
        assert max_pressure(obs).chosen == 0

    def test_event_blind_signature(self):
        # the baseline consumes only queue observations; identical
        # observations with any event overlay produce the same output
        obs = observations([[(lane(waiting=2), lane())] for _ in range(4)])
        assert max_pressure(obs) == max_pressure([list(p) for p in obs])


class TestFixedTime:
    def test_green_windows_and_cycle(self):
        plan = FixedTimePlan()
        assert plan.cycle() == 72
        assert [plan.target_at(t) for t in (0, 24)] == [0, 0]
        assert plan.target_at(25) == 1  # switch request: yellow 25..27
        assert plan.target_at(32) == 1
        assert plan.target_at(33) == 2
        assert plan.target_at(60) == 2
        assert plan.target_at(61) == 3
        assert plan.target_at(68) == 3
        assert plan.target_at(69) == 0  # trailing yellow wraps the cycle
        assert plan.target_at(72) == 0

    def test_open_loop_ignores_observations(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=150, demand_scale=0.0)
        result = drive(ControllerSpec("fixed_time"), scenario, seed=1, collect_step_log=True)
        phases = [r for r in result.step_log if r["kind"] == "step"]
        active = {r["time"]: r["phase"] for r in phases}
        yellow = {r["time"]: r["yellow"] for r in phases}
        assert active[10] == 0 and yellow[10] == 0
        assert yellow[25] > 0  # transition starts on request
        assert active[28] == 1 and yellow[28] == 0
        assert active[36] == 2
        assert active[64] == 3
        assert active[72 + 10] == 0  # next cycle

    def test_synchronized_across_intersections(self):
        scenario = make_scenario("T1", rows=2, cols=1, duration=80, demand_scale=0.0)
        result = drive(ControllerSpec("fixed_time"), scenario, seed=1, collect_step_log=True)
        by_time: dict[int, set[int]] = {}
        for record in result.step_log:
            if record["kind"] == "step":
                by_time.setdefault(record["time"], set()).add(record["phase"])
        assert all(len(phases) == 1 for phases in by_time.values())


class AlternatingController:
    """Requests a different phase every step; exists to provoke min-green."""

    def __init__(self):
        self.k = 0

    def decide(self, ctx):
        self.k += 1
        from evosignal.sim.engine import PhaseDecision

        return PhaseDecision(self.k % 4)


class TestDrive:
    def test_min_green_enforced(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=120, demand_scale=0.0)
        result = run_episode(scenario, AlternatingController(), seed=1, collect_step_log=True)
        changes = []
        last_phase = 0
        for record in result.step_log:
            if record["kind"] == "step" and record["phase"] != last_phase:
                changes.append(record["time"])
                last_phase = record["phase"]
        assert changes
        gaps = [b - a for a, b in zip(changes, changes[1:])]
        assert all(gap >= 5 for gap in gaps)

    def test_skill_on_zero_demand(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=60, demand_scale=0.0)
        result = drive(ControllerSpec("skill", skill=SEED_SKILL), scenario, seed=1)
        assert result.metrics.avg_delay == 0.0

    def test_drive_deterministic(self):
        scenario = make_scenario("T2", rows=2, cols=2, duration=150, demand_scale=0.9)
        a = drive(ControllerSpec("skill", skill=LIBRARY["distance-weighted"]), scenario, seed=4)
        b = drive(ControllerSpec("skill", skill=LIBRARY["distance-weighted"]), scenario, seed=4)
        assert a.metrics == b.metrics

    def test_faulting_skill_holds_and_counts(self):
        bad = Skill(
            id="bad",
            description="",
            guidance="",
            inlane_code="value[0] += 1 / num_waiting_vehicle",
            outlane_code="value[0] += 0",
        )
        scenario = make_scenario("T1", rows=1, cols=1, duration=30, demand_scale=0.0)
        result = drive(ControllerSpec("skill", skill=bad), scenario, seed=1)
        assert result.controller_faults > 0
        assert result.metrics.avg_delay == 0.0  # episode still completes

    def test_handcrafted_preempts_immediately(self):
        scenario = make_scenario("E2", rows=2, cols=2, duration=400, demand_scale=0.8, seed=2)
        handcrafted = drive(ControllerSpec("handcrafted_preemption"), scenario, seed=2)
        blind = drive(ControllerSpec("max_pressure"), scenario, seed=2)
        assert handcrafted.metrics.emergency_delay is not None
        assert handcrafted.metrics.emergency_delay < blind.metrics.emergency_delay
