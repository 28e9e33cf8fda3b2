"""Event detection, priority dispatch, and the event context a skill sees."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosignal.events import BANK_KINDS, EMERGENCY_RADIUS, TrafficEvent, detect, dispatch
from evosignal.control import ControllerSpec, DispatcherController, drive, score_phases, scorer
from evosignal.sim import make_scenario
from evosignal.sim.engine import Arrivals, Episode
from evosignal.skills import DEFAULT_BANK, LIBRARY, Skill

from ._reference import HOLD, ReferenceAccrual, StandInLane, StandInLink, brute_force_percentile, reference_detect
from .test_sim import straight_vehicle, zero_demand


def place_running(episode, link_id, distance_from_stopline, vclass="normal"):
    """A vehicle running straight on ``link_id``, held at a distance from
    the stop line: off any position table, as the blocker is, so it
    counts in the lane's ``odd``."""
    state = episode.links[link_id]
    vehicle = straight_vehicle(episode, link_id, vclass)
    vehicle.table = None
    vehicle.pos = state.link.length - distance_from_stopline
    lane = state.lanes["s"]
    lane.running.append(vehicle)
    lane.odd += 1
    state.count += 1
    return vehicle


def detect_with_history(history):
    """detect() at x0_0 of a fresh episode whose junction has ``history``
    as its queue history."""
    episode = Episode(Arrivals(zero_demand(), 0))
    junction = episode.junctions["x0_0"]
    junction.history.extend(history)
    return detect(episode, junction)


class TestDetect:
    def setup_method(self):
        self.episode = Episode(Arrivals(zero_demand(), 0))
        self.node = self.episode.network.intersections["x0_0"]
        self.junction = self.episode.junctions["x0_0"]

    def test_emergency_inside_radius(self):
        place_running(self.episode, self.node.approaches["N"], 150.0, vclass="emergency")
        events = detect(self.episode, self.junction)
        kinds = {e.kind for e in events}
        assert "emergency" in kinds
        event = next(e for e in events if e.kind == "emergency")
        assert event.context["emergency_distance"] == 150.0
        assert event.context["emergency_phase"] == 0.0  # (N, s) is phase 0

    def test_emergency_beyond_radius(self):
        place_running(self.episode, self.node.approaches["N"], 250.0, vclass="emergency")
        assert not detect(self.episode, self.junction)

    def test_nearest_emergency_wins(self):
        place_running(self.episode, self.node.approaches["N"], 180.0, vclass="emergency")
        place_running(self.episode, self.node.approaches["E"], 60.0, vclass="emergency")
        event = next(e for e in detect(self.episode, self.junction) if e.kind == "emergency")
        assert event.context["emergency_distance"] == 60.0

    def test_radius_boundary(self):
        # at exactly the 200 m radius it counts; just beyond it does not
        assert EMERGENCY_RADIUS == 200.0
        place_running(self.episode, self.node.approaches["N"], 200.0, vclass="emergency")
        event = next(e for e in detect(self.episode, self.junction) if e.kind == "emergency")
        assert event.context["emergency_distance"] == 200.0
        beyond = Episode(Arrivals(zero_demand(), 0))
        place_running(beyond, self.node.approaches["N"], 200.5, vclass="emergency")
        assert not detect(beyond, beyond.junctions["x0_0"])

    def test_bus_detection_counts_and_delay(self):
        bus1 = place_running(self.episode, self.node.approaches["W"], 90.0, vclass="bus")
        bus2 = place_running(self.episode, self.node.approaches["E"], 40.0, vclass="bus")
        bus1.cumulative_wait = 25.0
        bus2.cumulative_wait = 12.0
        event = next(e for e in detect(self.episode, self.junction) if e.kind == "transit")
        assert event.context["bus_count"] == 2.0
        assert event.context["bus_delay"] == 37.0

    def test_signal_wait_is_not_an_incident(self):
        # two vehicles stopped 130 s at the stop line of a red movement
        from .test_sim import queue_vehicle

        self.episode.t = 200
        # queued in the live list, the one detect reads
        for _ in range(2):
            queue_vehicle(self.episode, self.node.approaches["E"], movement="s").stopped_since = 70
        # (E, s) is phase 2; active phase is 0, so the line is red
        assert self.episode.junctions["x0_0"].signal.active == 0
        assert not any(e.kind == "incident" for e in detect(self.episode, self.junction))

    def test_mid_link_stall_is_an_incident(self):
        self.episode.t = 200
        vehicle = place_running(self.episode, self.node.approaches["N"], 150.0)
        vehicle.frozen = True
        vehicle.stopped_since = 60  # stopped 140 s, far from the stop line
        events = detect(self.episode, self.junction)
        event = next(e for e in events if e.kind == "incident")
        assert event.context["incident_blocked"] == 1.0

    def test_green_stop_near_line_is_an_incident(self):
        # stopped long, near the line, but its movement is green: a
        # signal wait cannot explain it
        self.episode.t = 200
        vehicle = place_running(self.episode, self.node.approaches["N"], 20.0)
        vehicle.frozen = True
        vehicle.stopped_since = 60
        assert self.episode.junctions["x0_0"].signal.active == 0  # (N, s) green
        assert any(e.kind == "incident" for e in detect(self.episode, self.junction))

    def test_congestion_cold_start_is_silent(self):
        history = [50] * 100  # shorter than the 300 s window
        assert not detect_with_history(history)

    def test_congestion_fires_above_p90(self):
        history = list(range(300))  # current = 299, far above P90
        event = next(e for e in detect_with_history(history) if e.kind == "congestion")
        assert event.context["congestion_level"] == 3.0

    def test_congestion_level_bins(self):
        # trailing window: mostly tens plus the current reading; P90 is
        # 10, the window max is the current value, so the band width is
        # (current - 10) / 4 and the level tracks how far current sits
        # above the threshold.
        for current, expected in ((12.0, 3.0), (50.0, 3.0)):
            history = [10.0] * 299 + [current]
            event = next(e for e in detect_with_history(history) if e.kind == "congestion")
            assert event.context["congestion_level"] == expected
        # wider historical spread: threshold 10, window max 30, band 5;
        # current 12 sits in the lowest band
        history = [10.0] * 294 + [30.0] * 5 + [12.0]
        event = next(e for e in detect_with_history(history) if e.kind == "congestion")
        assert event.context["congestion_level"] == 0.0

    @given(
        st.lists(st.integers(0, 60), min_size=300, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_congestion_threshold_matches_brute_force(self, history):
        threshold = brute_force_percentile(history, 90)
        fired = any(e.kind == "congestion" for e in detect_with_history(history))
        assert fired == (history[-1] > threshold)


class TestDetectOracle:
    """detect() at every intersection and step of dispatcher episodes,
    against a reference built from full vehicle lists, per-second waits
    and a queue history that it sorts itself."""

    @pytest.mark.parametrize(
        "family, expected",
        [("M1", {"emergency", "incident", "congestion"}), ("E2", {"emergency", "congestion"}),
         ("B2", {"transit", "congestion"})],
    )
    def test_detect_matches_reference(self, family, expected):
        scenario = make_scenario(family, rows=2, cols=2, duration=900)
        episode = Episode(Arrivals(scenario, 2))
        accrual = ReferenceAccrual(episode)
        controller = DispatcherController(DEFAULT_BANK)
        kinds = set()
        for _ in range(scenario.duration):
            for node_id, junction in episode.junctions.items():
                events = detect(episode, junction)
                assert [(e.kind, e.context) for e in events] == reference_detect(
                    episode, node_id, accrual
                )
                kinds.update(e.kind for e in events)
            episode.step(controller)
            accrual.after_step()
        assert expected <= kinds


# The dispatch order, written here apart from events.PRIORITY_CHAIN.
PRIORITY = {"emergency": 0, "incident": 1, "transit": 2, "congestion": 3}


class TestDispatch:
    def test_every_subset_in_every_order(self):
        lists = [kinds for size in range(5) for kinds in itertools.permutations(PRIORITY, size)]
        assert len(lists) == 65
        for kinds in lists:
            events = [TrafficEvent(kind, {}) for kind in kinds]
            winner = dispatch(events)
            if kinds:
                assert winner is events[kinds.index(min(kinds, key=PRIORITY.get))]
            else:
                assert winner is None

    def test_priority_examples(self):
        emergency = TrafficEvent("emergency", {})
        incident = TrafficEvent("incident", {})
        transit = TrafficEvent("transit", {})
        congestion = TrafficEvent("congestion", {})
        assert dispatch([incident, emergency]) is emergency
        assert dispatch([congestion, transit]) is transit
        assert dispatch([]) is None

    def test_the_first_event_of_the_winning_kind_wins(self):
        first, second = TrafficEvent("transit", {"bus_count": 1.0}), TrafficEvent("transit", {"bus_count": 2.0})
        assert dispatch([TrafficEvent("congestion", {}), first, second]) is first

    def test_bank_requires_all_kinds(self):
        DispatcherController(dict.fromkeys(BANK_KINDS, LIBRARY["bus-priority"]))  # fine
        for kind in BANK_KINDS:
            with pytest.raises(KeyError, match=kind):
                DispatcherController({k: skill for k, skill in DEFAULT_BANK.items() if k != kind})


def context_scores(context):
    """The phase scores of a skill that reads each event variable at its
    own decimal digit, on a junction with one empty lane-link per phase;
    the dispatcher passes the active event's context as given."""
    skill = Skill(
        id="digits", description="", guidance="",
        inlane_code="value[0] += emergency_distance + emergency_phase * 10 + bus_count * 100"
                    " + bus_delay * 1000 + incident_blocked * 10000 + congestion_level * 100000",
        outlane_code="value[0] += 0",
    )
    return score_phases(scorer(skill.inlane_code, skill.outlane_code), [[(StandInLane(), StandInLink())]] * 4, 0,
                        context)


class TestInjectContext:
    """The scorer binds an event's context and 0.0 to every event
    variable the context lacks."""

    def test_emergency_context(self):
        event = TrafficEvent("emergency", {"emergency_distance": 5.0, "emergency_phase": 2.0})
        assert context_scores(event.context) == [25.0] * 4

    def test_no_event_gives_all_zeros(self):
        assert context_scores(None) == [0.0] * 4
        assert context_scores({}) == [0.0] * 4

    def test_transit_sets_two_others_zero(self):
        event = TrafficEvent("transit", {"bus_count": 2.0, "bus_delay": 3.0})
        assert context_scores(event.context) == [3200.0] * 4


class TestDetectorInEpisode:
    def test_emergencies_traverse_and_complete(self):
        scenario = make_scenario("E2", rows=2, cols=2, duration=900, demand_scale=0.6)
        episode = Episode(Arrivals(scenario, 2))
        controller = ControllerSpec("dispatcher").build()
        for _ in range(scenario.duration):
            episode.step(controller)
        ambulances = [v for v in episode.vehicles if v.vclass == "emergency"]
        assert len(ambulances) == 7  # one per 120 s over 900 s
        assert any(v.exit_time is not None for v in ambulances)

    def test_mixed_scenario_dispatches_incident_skill_in_window(self):
        scenario = make_scenario("M1", rows=2, cols=2, duration=1000, demand_scale=0.5)
        result = drive(ControllerSpec("dispatcher"), scenario, seed=4, collect_step_log=True)
        incident_node = None
        for record in result.step_log:
            if record["kind"] == "incident_start":
                incident_node = scenario.incident.link
        assert incident_node is not None
        window_activations = {
            r["skill_kind"]
            for r in result.step_log
            if r["kind"] == "activation" and 720 <= r["time"] <= 900
        }
        assert "incident" in window_activations

    def test_incident_scenario_produces_incident_events(self):
        scenario = make_scenario("I1", rows=2, cols=2, duration=800, demand_scale=0.4)
        scenario = replace(
            scenario, incident=replace(scenario.incident, start=100.0, duration=400.0)
        )
        episode = Episode(Arrivals(scenario, 7))
        saw_incident = False
        for _ in range(scenario.duration):
            episode.step(HOLD)
            if episode.t == 100 + 130:  # threshold passed well inside the window
                node_id = episode.network.links[scenario.incident.link].dst
                events = detect(episode, episode.junctions[node_id])
                saw_incident = any(e.kind == "incident" for e in events)
                break
        assert saw_incident
