"""Phase scoring, baselines, and the signal discipline around them."""

from __future__ import annotations

import ast
import random
from concurrent import futures
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosignal.control import (
    ControllerSpec,
    FixedTimeController,
    FixedTimePlan,
    HandcraftedPreemptionController,
    MaxPressureController,
    drive,
    episode_pool,
    max_pressure,
    pressure_scores,
    run_episodes,
    score_phases,
)
from evosignal.dsl import EvalError, parse
from evosignal.generator import scripted_mutate
from evosignal.sim import make_scenario
from evosignal.sim.engine import PHASE_DECISIONS, Arrivals, Episode, run_episode
from evosignal.skills import LIBRARY, SEED_SKILL, Skill

from ._reference import LaneObservation, reference_max_pressure, reference_observe, reference_score_phases
from .test_events import place_running
from .test_sim import queue_vehicle, zero_demand


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

    # A power of two scales every score exactly, so ties stay ties; an
    # arbitrary factor can round two equal sums apart.
    @given(k=st.integers(-3, 5), w=st.integers(0, 12), n=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_argmax_invariant_under_positive_scaling(self, k, w, n):
        scale = 2.0**k
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


def _scoring_bodies() -> list[str]:
    """Library bodies, scripted mutations of them (routine and event),
    and bodies that fault or leave the finite reals."""
    bodies = [code for skill in (SEED_SKILL, *LIBRARY.values())
              for code in (skill.inlane_code, skill.outlane_code)]
    elites = [SEED_SKILL, LIBRARY["saturation-branch"], LIBRARY["preempt-approach"],
              LIBRARY["bus-priority"], LIBRARY["incident-diversion"]]
    kinds = [None, None, "emergency", "transit", "incident"]
    for i in range(60):
        draft = scripted_mutate(elites[i % 5], {}, random.Random(i), event_kind=kinds[i % 5])
        bodies += [draft["inlane_code"], draft["outlane_code"]]
    return bodies + [
        "value[0] += 1e308\nvalue[0] += 1e308 * num_vehicle",
        "value[0] += num_waiting_vehicle / (num_vehicle - num_vehicle)",
        "value[0] += (index - 2) ** 0.5",
        "value[0] += sum(range(num_vehicle)) - len(range(vehicle_dist)) * congestion_level",
        "value[0] += len(range(vehicle_dist)) ** len(range(num_vehicle))",
        "value[0] += vehicle_dist % (bus_count - index)",
    ]


SCORING_BODIES = _scoring_bodies()

lane_pairs = st.tuples(
    *[st.builds(LaneObservation, st.integers(0, 40), st.integers(0, 40),
                st.floats(0.0, 600.0, allow_nan=False)) for _ in range(2)]
)


class TestScoreOracle:
    """score_phases against per-binding tree walking, with the same
    summation order and the same first fault."""

    @staticmethod
    def outcome(score):
        try:
            return score()
        except EvalError as exc:
            return ("EvalError", str(exc))

    @given(
        inlane=st.sampled_from(SCORING_BODIES),
        outlane=st.sampled_from(SCORING_BODIES),
        obs=st.lists(st.lists(lane_pairs, min_size=1, max_size=3), min_size=4, max_size=4),
        context=st.fixed_dictionaries({}, optional={
            name: st.sampled_from([0.0, 1.0, 2.0, 37.5, 150.0])
            for name in ("emergency_distance", "emergency_phase", "bus_count",
                         "bus_delay", "incident_blocked", "congestion_level")
        }),
    )
    @settings(max_examples=400, deadline=None)
    def test_scores_match_reference(self, inlane, outlane, obs, context):
        skill = Skill(id="h", description="", guidance="", inlane_code=inlane, outlane_code=outlane)
        ours = self.outcome(lambda: list(score_phases(skill, obs, context).scores))
        theirs = self.outcome(lambda: reference_score_phases(parse(inlane), parse(outlane), obs, context))
        assert ours == theirs

    def test_inlane_fault_is_reported_before_the_outlane_runs(self):
        skill = Skill(id="f", description="", guidance="",
                      inlane_code="value[0] += 1e308\nvalue[0] += 1e308",
                      outlane_code="value[0] += num_vehicle / 0")
        obs = observations([[(lane(), lane())] for _ in range(4)])
        with pytest.raises(EvalError, match="non-finite result: inf"):
            score_phases(skill, obs)
        with pytest.raises(EvalError, match="non-finite result: inf"):
            reference_score_phases(parse(skill.inlane_code), parse(skill.outlane_code), obs)


def centre_junction(waiting=None, exit_waiting=None, vclass="normal"):
    """A still 3x3 grid and the record of its centre, x1_1, with
    ``waiting[(side, movement)]`` vehicles queued on the approaches and
    ``exit_waiting[heading]`` on the exit links, all of ``vclass``."""
    episode = Episode(zero_demand(rows=3, cols=3))
    node = episode.network.intersections["x1_1"]
    for (side, movement), count in (waiting or {}).items():
        for _ in range(count):
            queue_vehicle(episode, node.approaches[side], movement, vclass)
    for heading, count in (exit_waiting or {}).items():
        for _ in range(count):
            queue_vehicle(episode, node.exits[heading], "s", vclass)
    return episode, episode.junctions["x1_1"]


def reference_pressure(episode, node_id="x1_1"):
    return reference_max_pressure(reference_observe(episode, node_id))


class TestMaxPressure:
    def test_pressure_differential(self):
        # phase 0: (N, s) 5 queued into the S exit (1 waiting), and
        # (S, s) 3 queued into the N exit (2 waiting)
        episode, junction = centre_junction({("N", "s"): 5, ("S", "s"): 3}, {"S": 1, "N": 2})
        scores = pressure_scores(junction)
        assert scores[0] == 5
        assert scores == reference_pressure(episode)
        assert max_pressure(junction) == 0

    def test_symmetric_queues_tie_to_phase_zero(self):
        lanes = {(side, movement): 4 for side in "NESW" for movement in "lsr"}
        episode, junction = centre_junction(lanes, dict.fromkeys("NESW", 4))
        assert pressure_scores(junction) == [0, 0, 0, 0] == reference_pressure(episode)
        assert max_pressure(junction) == 0

    def test_event_blind_signature(self):
        # the baseline consumes only queue counts; the same queues made
        # of emergency vehicles or buses, with an emergency vehicle
        # running up to the stop line, produce the same output
        lanes = {("N", "s"): 2, ("E", "l"): 3, ("W", "r"): 1}
        exits = {"S": 1, "E": 2}
        _, plain = centre_junction(lanes, exits)
        want = pressure_scores(plain)
        for vclass in ("emergency", "bus"):
            episode, junction = centre_junction(lanes, exits, vclass)
            place_running(episode, episode.network.intersections["x1_1"].approaches["E"], 20.0, "emergency")
            assert pressure_scores(junction) == want
            assert max_pressure(junction) == max_pressure(plain)


class CheckedPressure:
    """Wraps a max-pressure or handcrafted-preemption controller and, at
    every decision, compares the scores and the choice with the
    view-based reference on observations from sorted distance lists."""

    def __init__(self, inner):
        self.inner = inner
        self.checked = 0
        self.overrides = 0

    def decide(self, ctx):
        want = reference_pressure(ctx.episode, ctx.intersection_id)
        decision = self.inner.decide(ctx)
        assert pressure_scores(ctx.junction) == want
        if decision.override_min_green:
            self.overrides += 1
        else:
            assert decision is PHASE_DECISIONS[want.index(max(want))]
        self.checked += 1
        return decision


class TestPressureOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("family", ["T1", "I1", "E2"])
    @pytest.mark.parametrize("controller", [MaxPressureController, HandcraftedPreemptionController])
    def test_every_decision_matches_the_reference(self, controller, family, size, seed):
        # I1 blocks from 600 s; run into the blockage.
        duration = 700 if family == "I1" else 400
        scenario = make_scenario(family, rows=size, cols=size, duration=duration, seed=seed)
        checked = CheckedPressure(controller())
        result = run_episode(scenario, checked, seed)
        assert checked.checked > duration
        assert result.metrics.vehicles_entered > 0
        if family == "E2" and controller is HandcraftedPreemptionController:
            assert checked.overrides > 0


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

    def test_one_target_per_step(self, monkeypatch):
        targets = []
        target_at = FixedTimePlan.target_at

        def counted(plan, t):
            targets.append(t)
            return target_at(plan, t)

        monkeypatch.setattr(FixedTimePlan, "target_at", counted)
        controller = FixedTimeController()
        decided = []

        class Logged:
            def decide(self, ctx):
                decision = controller.decide(ctx)
                decided.append((ctx.t, decision))
                return decision

        scenario = make_scenario("T1", rows=3, cols=2, duration=200, seed=1)
        run_episode(scenario, Logged())
        assert len(decided) == 6 * len(targets) > 0
        assert targets == sorted({t for t, _ in decided})
        assert all(decision is PHASE_DECISIONS[target_at(controller.plan, t)] for t, decision in decided)

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


class TestEpisodePool:
    def test_src_constructs_a_process_pool_in_one_place(self):
        source = Path(__file__).resolve().parents[1] / "src" / "evosignal"
        sites = []
        for path in sorted(source.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "ProcessPoolExecutor":
                        sites.append(path.name)
        assert sites == ["control.py"]

    @pytest.mark.parametrize("jobs, largest_batch", [(1, 8), (4, 1), (0, 3)])
    def test_one_worker_runs_in_this_process(self, jobs, largest_batch):
        with episode_pool(jobs, largest_batch) as pool:
            assert pool is None

    def test_the_pool_has_at_most_one_worker_per_task_and_is_shut_down_on_an_error(self):
        with pytest.raises(KeyError):
            with episode_pool(8, 3) as pool:
                assert pool._max_workers == 3
                raise KeyError("stop")
        with pytest.raises(RuntimeError, match="after shutdown"):
            pool.submit(int)

    def test_a_pool_and_shared_arrivals_do_not_change_a_result(self):
        scenario = make_scenario("E2", rows=2, cols=2, duration=200, seed=1)
        arrivals = {seed: Arrivals(scenario, seed) for seed in (3, 4)}
        specs = [ControllerSpec("max_pressure"), ControllerSpec("skill", skill=SEED_SKILL)]
        fresh = [(spec, scenario, seed, None) for spec in specs for seed in (3, 4)]
        shared = [(spec, scenario, seed, arrivals[seed]) for spec in specs for seed in (3, 4)]
        want = run_episodes(fresh)
        with episode_pool(2, len(shared)) as pool:
            assert run_episodes(shared, pool) == want
            # the tasks were drawn here before they went to the workers
            assert all(len(a._steps) == scenario.duration for a in arrivals.values())
            assert run_episodes(fresh, pool) == want
        assert run_episodes(shared) == want
