"""Phase scoring, baselines, and the signal discipline around them."""

from __future__ import annotations

import ast
import random
import time
from collections import Counter
from concurrent import futures
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosignal import control
from evosignal.control import (
    ControllerSpec,
    FIXED_TIME_CYCLE,
    FixedTimeController,
    HandcraftedPreemptionController,
    MaxPressureController,
    SkillController,
    _argmax_lowest,
    drive,
    episode_pool,
    fixed_time_target,
    max_pressure,
    run_episodes,
    score_phases,
    scorer,
)
from evosignal.dsl import EVENT_NAMES, EvalError, compile_body, complexity, parse, sandbox_check, validate
from evosignal.dsl.validator import MAX_BODY_NODES, MAX_BRANCH_DEPTH
from evosignal.generator import scripted_mutate
from evosignal.sim import make_scenario
from evosignal.sim.engine import PHASE_DECISIONS, Arrivals, Episode, run_episode
from evosignal.skills import LIBRARY, SEED_SKILL, Skill

from ._reference import (
    StandInLane,
    StandInLink,
    reference_max_pressure,
    reference_observe,
    reference_score_phases,
)
from .test_events import place_running
from .test_sim import queue_vehicle, zero_demand


lane, link = StandInLane, StandInLink


def observations(per_phase):
    """Build a 4-phase observation set from a list of lane-link specs
    per phase: each spec is (inlane, outlane)."""
    return [list(phase) for phase in per_phase]


EMPTY = observations([[(lane(), link())] for _ in range(4)])


def skill_scores(skill, views, context=None):
    """The phase scores of ``skill`` on stand-in ``views``, whose span
    ignores the step."""
    return score_phases(scorer(skill.inlane_code, skill.outlane_code), views, 0, context)


class TestScorePhases:
    def test_seed_sums_waiting_counts(self):
        obs = observations(
            [
                [(lane(queued=3), link()), (lane(queued=2), link())],
                [(lane(), link())],
                [(lane(), link())],
                [(lane(), link())],
            ]
        )
        scores = skill_scores(SEED_SKILL, obs)
        assert scores[0] == 5.0
        assert _argmax_lowest(scores) == 0

    def test_all_zero_ties_break_to_lowest_index(self):
        scores = skill_scores(SEED_SKILL, EMPTY)
        assert len(set(scores)) == 1
        assert _argmax_lowest(scores) == 0

    def test_emergency_context_dominates_its_phase(self):
        skill = LIBRARY["preempt-approach"]
        obs = observations([[(lane(queued=1), link())] for _ in range(4)])
        ctx = {"emergency_distance": 100.0, "emergency_phase": 2.0}
        scores = skill_scores(skill, obs, ctx)
        assert _argmax_lowest(scores) == 2
        # (200 - 100) * 10 per lane-link on the matching phase
        assert scores[2] >= 1000.0

    def test_event_variables_default_to_zero(self):
        skill = LIBRARY["preempt-approach"]
        obs = observations([[(lane(queued=2), link())] for _ in range(4)])
        scores = skill_scores(skill, obs)
        # no emergency: falls to the waiting * 3 branch everywhere
        assert all(s == scores[0] for s in scores)

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
                [(lane(queued=w, running=n), link(lane(running=1)))],
                [(lane(queued=n % 7, running=w), link())],
                [(lane(queued=1, running=2), link(lane(queued=2, running=n)))],
                [(lane(), link())],
            ]
        )
        assert _argmax_lowest(skill_scores(base, obs)) == _argmax_lowest(skill_scores(scaled, obs))

    def test_chosen_is_lowest_index_of_max(self):
        obs = observations(
            [
                [(lane(queued=4), link())],
                [(lane(queued=7), link())],
                [(lane(queued=7), link())],
                [(lane(queued=2), link())],
            ]
        )
        scores = skill_scores(SEED_SKILL, obs)
        assert scores[1] == scores[2]
        assert _argmax_lowest(scores) == 1


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

stand_in_lanes = st.builds(
    lambda queued, running, blocked, ends, length: StandInLane(queued, running, blocked, *sorted(ends), length),
    st.integers(0, 40),
    st.integers(0, 40),
    st.booleans(),
    st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 600.0)),
    st.sampled_from([300.0, 37.5, 601.3]),
)
stand_in_links = st.lists(stand_in_lanes, min_size=1, max_size=3).map(lambda lanes: StandInLink(*lanes))


@st.composite
def stand_in_views(draw):
    """Four phases of one to three lane-links each, whose outlanes are
    drawn from a pool of up to four links, so lane-links share them as
    they share an exit link."""
    exits = draw(st.lists(stand_in_links, min_size=1, max_size=4))
    pick = st.integers(0, len(exits) - 1)
    return [
        [(draw(stand_in_lanes), exits[draw(pick)]) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(4)
    ]


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
        obs=stand_in_views(),
        context=st.fixed_dictionaries({}, optional={
            name: st.sampled_from([0.0, 1.0, 2.0, 37.5, 150.0])
            for name in ("emergency_distance", "emergency_phase", "bus_count",
                         "bus_delay", "incident_blocked", "congestion_level")
        }),
    )
    @settings(max_examples=400, deadline=None)
    def test_scores_match_reference(self, inlane, outlane, obs, context):
        skill = Skill(id="h", description="", guidance="", inlane_code=inlane, outlane_code=outlane)
        ours = self.outcome(lambda: skill_scores(skill, obs, context))
        theirs = self.outcome(lambda: reference_score_phases(parse(inlane), parse(outlane), obs, context))
        assert ours == theirs

    def test_inlane_fault_is_reported_before_the_outlane_runs(self):
        skill = Skill(id="f", description="", guidance="",
                      inlane_code="value[0] += 1e308\nvalue[0] += 1e308",
                      outlane_code="value[0] += num_vehicle / 0")
        obs = observations([[(lane(), link())] for _ in range(4)])
        with pytest.raises(EvalError, match="non-finite result: inf"):
            skill_scores(skill, obs)
        with pytest.raises(EvalError, match="non-finite result: inf"):
            reference_score_phases(parse(skill.inlane_code), parse(skill.outlane_code), obs)


def counted_skill(inlane, outlane, calls, monkeypatch):
    """The generated scorer of two bodies, the inlane one calling ``max``
    and the outlane one ``abs`` once per run: the calls it makes to each
    are counted in ``calls["inlane"]`` and ``calls["outlane"]``. (A body
    is folded to a constant when it is compiled, through the body
    globals, which are not counted.)"""
    score = scorer(inlane, outlane)
    scorer_globals = score.__globals__
    for name, key in (("max", "inlane"), ("abs", "outlane")):
        def counted(*args, builtin=scorer_globals[name], key=key):
            calls[key] += 1
            return builtin(*args)

        monkeypatch.setitem(scorer_globals, name, counted)
    return score


def engine_decisions(family="T1", duration=240, seed=6):
    """Yield (episode, intersection id) for every intersection, in its
    yellow transition or not, before each step of a 2x2 max-pressure
    episode; the views are live, so read them before resuming."""
    episode = Episode(Arrivals(make_scenario(family, rows=2, cols=2, duration=duration), seed))
    controller = MaxPressureController()
    for _ in range(duration):
        for node_id in episode.junctions:
            yield episode, node_id
        episode.step(controller)


# (inlane, outlane, inlane runs, outlane runs) per decision; each
# inlane body calls max once per run and each outlane body abs.
BODY_RUNS = [
    ("value[0] += max(num_waiting_vehicle, 0)", "value[0] += abs(0)", 12, 0),
    ("value[0] += max(1, 0)", "value[0] += abs(2.5 * 4 - 3)", 0, 0),
    ("value[0] += max(1, 0)", "value[0] += abs(num_vehicle * 2 - vehicle_dist / 100)", 0, 4),
    ("value[0] += max(index, 0)", "value[0] += abs(outlane_1_num_vehicle * (1 + emergency_distance))", 12, 4),
    ("value[0] += max(vehicle_dist, 0)", "value[0] += abs(index * num_vehicle - vehicle_dist)", 12, 12),
]


class ReadCounted:
    """Counts each read of a public attribute of the record (a property
    or a method included) in ``reads[(id(record), name)]`` while
    ``reads`` is set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None and not name.startswith("_"):
            reads[id(self), name] += 1
        return object.__getattribute__(self, name)


class ReadCountedLane(ReadCounted, StandInLane):
    pass


class ReadCountedLink(ReadCounted, StandInLink):
    pass


def junction_like_views():
    """Views shaped like a junction's: four phases of three lane-links,
    each with an inlane of its own, leaving by four exit links that
    three lane-links share each. Every lane holds two queued and two
    running vehicles, so a gap is always read through ``span``."""
    def full_lane():
        return ReadCountedLane(queued=2, running=2, near=7.5, far=120.0)

    exits = [ReadCountedLink(full_lane(), full_lane(), full_lane()) for _ in range(4)]
    views = [[(full_lane(), exits[(k + j) % 4]) for j in range(3)] for k in range(4)]
    return views, exits


class TestBodyCalls:
    """How often one decision runs each body, and which figures it reads
    for them: a body naming no parameter never runs, an outlane body
    that does not name index once per exit link (4), any other body
    once per lane-link (12); and only the figures a body names are read,
    each shared outlane's once per decision."""

    @pytest.mark.parametrize(("inlane", "outlane", "inlane_calls", "outlane_calls"), BODY_RUNS)
    def test_calls_per_decision(self, inlane, outlane, inlane_calls, outlane_calls, monkeypatch):
        calls = Counter()
        score = counted_skill(inlane, outlane, calls, monkeypatch)
        decisions = 0
        for episode, node_id in engine_decisions():
            calls.clear()
            score_phases(score, episode.observe(node_id), episode.t)
            assert (calls["inlane"], calls["outlane"]) == (inlane_calls, outlane_calls)
            decisions += 1
        assert decisions == 240 * 4

    @pytest.mark.parametrize(("inlane", "outlane", "inlane_calls", "outlane_calls"), BODY_RUNS)
    def test_reads_per_decision(self, inlane, outlane, inlane_calls, outlane_calls, monkeypatch):
        score = scorer(inlane, outlane)
        views, exits = junction_like_views()
        reads = Counter()
        monkeypatch.setattr(ReadCounted, "reads", reads)
        score_phases(score, views, 0)
        monkeypatch.setattr(ReadCounted, "reads", None)
        # Each record attribute, and which figure's reading it shows: a
        # lane's running list its count or gap, a lane's blockage its
        # waiting count, a link's kept count its count or gap, a link's
        # queue lists its waiting count, and a span call a gap.
        shows = {"running": (0, 2), "blocked": (1,), "span": (2,), "count": (0, 2), "queues": (1,), "lanes": (2,)}
        names = {"inlane": compile_body(parse(inlane)).reads, "outlane": compile_body(parse(outlane)).reads}
        runs = {"inlane": inlane_calls // 12, "outlane": outlane_calls // 4}
        records = {
            "inlane": [inlane for phase in views for inlane, _ in phase],
            "outlane": exits,
            "exit lane": [part for state in exits for part in state.lanes.values()],
        }
        for side, attributes in (("inlane", ("running", "blocked", "span")), ("outlane", ("count", "queues", "lanes")),
                                 ("exit lane", ("span",))):
            body = "inlane" if side == "inlane" else "outlane"
            for attribute in attributes:
                named = any(names[body][figure] for figure in shows[attribute])
                want = runs[body] if named else 0
                got = {reads[id(record), attribute] for record in records[side]}
                assert got == {want}, (side, attribute)
        # nothing else of an exit link's, and no figure property, is read
        for record in records["inlane"] + records["outlane"] + records["exit lane"]:
            for figure in ("num_vehicle", "num_waiting_vehicle", "vehicle_dist"):
                assert reads[id(record), figure] == 0

    def test_only_a_body_that_names_nothing_and_runs_is_folded(self):
        assert compile_body(parse("value[0] += 0")).constant == 0.0
        assert compile_body(parse("value[0] += 2 ** 3\nvalue[0] /= 4")).constant == 2.0
        assert compile_body(parse("value[0] += index")).constant is None
        for faulting in ("value[0] += 1 / 0", "value[0] += 1e308 * 10", "value[0] += sum(range(1e9))"):
            assert compile_body(parse(faulting)).constant is None
        assert compile_body(parse("value[0] += index * 2")).names_index
        assert not compile_body(parse("value[0] += outlane_3_vehicle_dist")).names_index

    @pytest.mark.parametrize(
        ("inlane", "outlane", "runs"),
        [
            ("value[0] += max(zed, 0)", "value[0] += abs(num_vehicle)", (0, 0)),
            ("value[0] += max(num_vehicle, 0)", "value[0] += abs(zed)", (1, 0)),
        ],
    )
    def test_an_unbound_name_faults_where_its_body_would_start(self, inlane, outlane, runs, monkeypatch):
        calls = Counter()
        score = counted_skill(inlane, outlane, calls, monkeypatch)
        for episode, node_id in engine_decisions(duration=3):
            calls.clear()
            with pytest.raises(EvalError, match="^variable 'zed' is unbound in this context$"):
                score_phases(score, episode.observe(node_id), episode.t)
            assert (calls["inlane"], calls["outlane"]) == runs

    def test_a_faulting_constant_body_is_called_and_faults_in_order(self, monkeypatch):
        calls = Counter()
        score = counted_skill("value[0] += max(1, 0)", "value[0] += abs(1) / 0", calls, monkeypatch)
        for episode, node_id in engine_decisions(duration=3):
            calls.clear()
            with pytest.raises(EvalError, match="division by zero"):
                score_phases(score, episode.observe(node_id), episode.t)
            assert (calls["inlane"], calls["outlane"]) == (0, 1)


class TestScorerCache:
    def test_an_equal_pair_gets_the_same_scorer_and_the_cache_stays_bounded(self):
        scorer.cache_clear()
        pair = ("value[0] += num_vehicle", "value[0] += 0")
        first = scorer(*pair)
        assert scorer(*pair) is first
        assert SkillController(Skill(id="a", description="", guidance="", inlane_code=pair[0],
                                     outlane_code=pair[1])).score is first
        # a different pair, even with the same bodies swapped, is another scorer
        assert scorer(*reversed(pair)) is not first
        sizes = set()
        for i in range(4200):
            scorer(pair[0], f"value[0] += {i + 1}")
            sizes.add(scorer.cache_info().currsize)
        # it fills up to its bound and never passes it
        assert max(sizes) == 4096
        scorer.cache_clear()

    @pytest.mark.parametrize(
        ("spec", "first_parses"),
        [(ControllerSpec("skill", skill=LIBRARY["saturation-branch"]), 2), (ControllerSpec("dispatcher"), 10)],
        ids=["skill", "dispatcher"],
    )
    def test_building_a_controller_again_parses_nothing(self, spec, first_parses, monkeypatch):
        scorer.cache_clear()
        parsed = []

        def counted(code):
            parsed.append(code)
            return parse(code)

        monkeypatch.setattr(control, "parse", counted)
        spec.build()
        assert len(parsed) == first_parses
        parsed.clear()
        spec.build()
        assert parsed == []
        scorer.cache_clear()


# Bodies that fault on some figures only, and bodies that name index.
PARTIAL_INLANES = (
    "value[0] += num_waiting_vehicle",
    "value[0] += num_vehicle / (num_waiting_vehicle - 1)",
    "value[0] += 2",
    "value[0] += index * vehicle_dist - num_vehicle",
)
PARTIAL_OUTLANES = (
    "value[0] += 0",
    "value[0] += 10 / (num_vehicle - 3)",
    "value[0] += 1 / (num_vehicle - index - 2)",
    "value[0] -= vehicle_dist ** 0.5 * num_vehicle + bus_count",
    "value[0] += 1e308 * num_waiting_vehicle * 2",
)


class ReferenceSkillController:
    """Scores with the tree-walking reference, which evaluates both
    bodies at every lane-link in turn and reads every figure each time."""

    def __init__(self, skill):
        self.inlane, self.outlane = parse(skill.inlane_code), parse(skill.outlane_code)

    def decide(self, episode, junction):
        try:
            scores = reference_score_phases(self.inlane, self.outlane, reference_observe(episode, junction.id))
        except EvalError as exc:
            episode.record_fault(junction, str(exc))
            return None
        return PHASE_DECISIONS[scores.index(max(scores))]


class TestScoreOracleOnEngineViews:
    """score_phases against the reference on live engine views, for
    bodies that share outlane results, name index or fault on some
    figures only: the same scores, or the same first fault."""

    def test_scores_and_first_faults_match_the_reference(self):
        pairs = [(i, o) for i in PARTIAL_INLANES for o in PARTIAL_OUTLANES]
        scores = [scorer(i, o) for i, o in pairs]
        parsed = [(parse(i), parse(o)) for i, o in pairs]
        contexts = (None, {"emergency_distance": 40.0, "emergency_phase": 2.0, "bus_count": 3.0})
        faults = Counter()
        for n, (episode, node_id) in enumerate(engine_decisions("E2", duration=200)):
            views = episode.observe(node_id)
            observed = reference_observe(episode, node_id)
            context = contexts[n % 2]
            for pair, score, (inlane, outlane) in zip(pairs, scores, parsed):
                ours = TestScoreOracle.outcome(lambda: score_phases(score, views, episode.t, context))
                theirs = TestScoreOracle.outcome(lambda: reference_score_phases(inlane, outlane, observed, context))
                assert ours == theirs, (pair, episode.t, node_id)
                faults[pair, ours[0] == "EvalError"] += 1
        for inlane, outlane in pairs:
            partial = inlane == PARTIAL_INLANES[1] or outlane not in (PARTIAL_OUTLANES[0], PARTIAL_OUTLANES[3])
            assert (faults[(inlane, outlane), True] > 0) == partial
            assert faults[(inlane, outlane), False] > 0

    @pytest.mark.parametrize(
        ("inlane", "outlane"),
        [(0, 1), (3, 2), (1, 4)],
    )
    def test_controller_fault_log_matches_the_reference_order(self, inlane, outlane):
        skill = Skill(id="p", description="", guidance="",
                      inlane_code=PARTIAL_INLANES[inlane], outlane_code=PARTIAL_OUTLANES[outlane])
        scenario = make_scenario("T2", rows=2, cols=2, duration=300)
        ours = run_episode(Arrivals(scenario, 8), SkillController(skill), collect_step_log=True)
        theirs = run_episode(Arrivals(scenario, 8), ReferenceSkillController(skill), collect_step_log=True)
        assert ours.step_log == theirs.step_log
        assert ours.metrics == theirs.metrics
        # a fault holds the phase, so faults at every decision would be 1200
        assert 0 < ours.controller_faults < 300 * 4


def worst_body() -> str:
    """A body at both size bounds that names every parameter: nested
    conditionals MAX_BRANCH_DEPTH deep, every test true, around
    statements that read every parameter through ``abs`` calls, to
    exactly MAX_BODY_NODES nodes."""
    lines = [
        "    " * depth + f"if {EVENT_NAMES[depth % len(EVENT_NAMES)]} >= 0:"
        for depth in range(MAX_BRANCH_DEPTH)
    ]
    budget = MAX_BODY_NODES - 2 * MAX_BRANCH_DEPTH  # each test: compare + name
    named = 0
    while budget:
        k = min(10, (budget - 2) // 3)  # statement + target + k abs calls and names + k - 1 adds + 1 product
        terms = " + ".join(f"abs({EVENT_NAMES[(named + j) % len(EVENT_NAMES)]})" for j in range(k))
        lines.append("    " * MAX_BRANCH_DEPTH + f"value[0] += ({terms}) * 0.001")
        budget -= 3 * k + 2
        named += k
    return "\n".join(lines)


class TestWorstBody:
    def test_the_largest_admitted_body_runs_an_episode_within_a_bound(self):
        code = worst_body()
        ast = parse(code)
        assert complexity(ast) == (MAX_BODY_NODES, MAX_BRANCH_DEPTH)
        assert validate(ast, EVENT_NAMES).ok
        worst = Skill(id="w", description="", guidance="", inlane_code=code, outlane_code=code)
        assert sandbox_check(worst, EVENT_NAMES).ok
        scenario = make_scenario("T1", rows=2, cols=2, duration=600)
        arrivals = Arrivals(scenario, 1)
        arrivals.draw_until(scenario.duration)

        def timed(skill):
            start = time.perf_counter()
            result = run_episode(arrivals, ControllerSpec("skill", skill=skill).build())
            return time.perf_counter() - start, result

        # The reference reads figures through bodies that do not fold to
        # a constant; the seed skill folds its outlane and reads one
        # figure, so its episode is too cheap to bound anything by.
        reference = LIBRARY["saturation-branch"]
        reference_s = sorted(timed(reference)[0] for _ in range(3))[1]
        runs = [timed(worst) for _ in range(3)]
        worst_s = sorted(elapsed for elapsed, _ in runs)[1]
        assert all(result.controller_faults == 0 for _, result in runs)
        # 4-8x on a 2-vCPU host; the bound leaves room for a noisy one
        assert worst_s < 20 * reference_s, (worst_s, reference_s)


def centre_junction(waiting=None, exit_waiting=None, vclass="normal"):
    """A still 3x3 grid and the record of its centre, x1_1, with
    ``waiting[(side, movement)]`` vehicles queued on the approaches and
    ``exit_waiting[heading]`` on the exit links, all of ``vclass``."""
    episode = Episode(Arrivals(zero_demand(rows=3, cols=3), 0))
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
        scores = junction.pressures
        assert scores[0] == 5
        assert scores == reference_pressure(episode)
        assert max_pressure(junction) == 0

    def test_symmetric_queues_tie_to_phase_zero(self):
        lanes = {(side, movement): 4 for side in "NESW" for movement in "lsr"}
        episode, junction = centre_junction(lanes, dict.fromkeys("NESW", 4))
        assert junction.pressures == [0, 0, 0, 0] == reference_pressure(episode)
        assert max_pressure(junction) == 0

    def test_event_blind_signature(self):
        # the baseline consumes only queue counts; the same queues made
        # of emergency vehicles or buses, with an emergency vehicle
        # running up to the stop line, produce the same output
        lanes = {("N", "s"): 2, ("E", "l"): 3, ("W", "r"): 1}
        exits = {"S": 1, "E": 2}
        _, plain = centre_junction(lanes, exits)
        want = list(plain.pressures)
        for vclass in ("emergency", "bus"):
            episode, junction = centre_junction(lanes, exits, vclass)
            place_running(episode, episode.network.intersections["x1_1"].approaches["E"], 20.0, "emergency")
            assert junction.pressures == want
            assert max_pressure(junction) == max_pressure(plain)


class CheckedPressure:
    """Wraps a max-pressure or handcrafted-preemption controller and, at
    every decision, compares the scores and the choice with the
    view-based reference on observations from sorted distance lists."""

    def __init__(self, inner):
        self.inner = inner
        self.checked = 0
        self.overrides = 0

    def decide(self, episode, junction):
        want = reference_pressure(episode, junction.id)
        decision = self.inner.decide(episode, junction)
        assert junction.pressures == want
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
        scenario = make_scenario(family, rows=size, cols=size, duration=duration)
        checked = CheckedPressure(controller())
        result = run_episode(Arrivals(scenario, seed), checked)
        assert checked.checked > duration
        assert result.metrics.vehicles_entered > 0
        if family == "E2" and controller is HandcraftedPreemptionController:
            assert checked.overrides > 0


class TestFixedTime:
    def test_green_windows_and_cycle(self):
        assert FIXED_TIME_CYCLE == 72
        assert [fixed_time_target(t) for t in (0, 24)] == [0, 0]
        assert fixed_time_target(25) == 1  # switch request: yellow 25..27
        assert fixed_time_target(32) == 1
        assert fixed_time_target(33) == 2
        assert fixed_time_target(60) == 2
        assert fixed_time_target(61) == 3
        assert fixed_time_target(68) == 3
        assert fixed_time_target(69) == 0  # trailing yellow wraps the cycle
        assert fixed_time_target(72) == 0

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
        from evosignal import control

        targets = []

        def counted(t):
            targets.append(t)
            return fixed_time_target(t)

        monkeypatch.setattr(control, "fixed_time_target", counted)
        controller = FixedTimeController()
        decided = []

        class Logged:
            def decide(self, episode, junction):
                decision = controller.decide(episode, junction)
                decided.append((episode.t, decision))
                return decision

        scenario = make_scenario("T1", rows=3, cols=2, duration=200)
        run_episode(Arrivals(scenario, 1), Logged())
        assert len(decided) == 6 * len(targets) > 0
        assert targets == sorted({t for t, _ in decided})
        assert all(decision is PHASE_DECISIONS[fixed_time_target(t)] for t, decision in decided)

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

    def decide(self, episode, junction):
        self.k += 1
        from evosignal.sim.engine import PhaseDecision

        return PhaseDecision(self.k % 4)


class TestDrive:
    def test_min_green_enforced(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=120, demand_scale=0.0)
        result = run_episode(Arrivals(scenario, 1), AlternatingController(), collect_step_log=True)
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
        scenario = make_scenario("E2", rows=2, cols=2, duration=400, demand_scale=0.8)
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
        scenario = make_scenario("E2", rows=2, cols=2, duration=200)
        specs = [ControllerSpec("max_pressure"), ControllerSpec("skill", skill=SEED_SKILL)]

        def fresh():
            """Tasks that each hold an Arrivals of their own."""
            return [(spec, Arrivals(scenario, seed)) for spec in specs for seed in (3, 4)]

        arrivals = {seed: Arrivals(scenario, seed) for seed in (3, 4)}
        shared = [(spec, arrivals[seed]) for spec in specs for seed in (3, 4)]
        want = run_episodes(fresh())
        assert all(result.controller_faults == 0 and result.step_log == () for result in want)
        with episode_pool(2, len(shared)) as pool:
            assert run_episodes(shared, pool) == want
            # the shared arrivals were drawn here, once, before they
            # went to the workers
            assert all(len(a._steps) == scenario.duration for a in arrivals.values())
            own = fresh()
            assert run_episodes(own, pool) == want
            # a task's own arrivals went undrawn, to be drawn in its worker
            assert all(a._steps == [] for _, a in own)
        assert run_episodes(shared) == want
