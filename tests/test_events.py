"""Event detection, priority dispatch, and the event context a skill sees."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosignal.events import (
    BANK_KINDS,
    EMERGENCY_RADIUS,
    SkillBank,
    TrafficEvent,
    default_bank,
    detect,
    dispatch,
)
from evosignal.control import CompiledSkill, ControllerSpec, DispatcherController, drive, score_phases
from evosignal.sim import make_scenario
from evosignal.sim.engine import Arrivals, Episode
from evosignal.skills import LIBRARY, Skill

from ._reference import LaneObservation, ReferenceAccrual, brute_force_percentile, reference_detect
from .test_sim import decisions_of, straight_vehicle, zero_demand


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
    episode.junctions["x0_0"].history.extend(history)
    return detect(episode, "x0_0")


class TestDetect:
    def setup_method(self):
        self.episode = Episode(Arrivals(zero_demand(), 0))
        self.node = self.episode.network.intersections["x0_0"]

    def test_emergency_inside_radius(self):
        place_running(self.episode, self.node.approaches["N"], 150.0, vclass="emergency")
        events = detect(self.episode, "x0_0")
        kinds = {e.kind for e in events}
        assert "emergency" in kinds
        event = next(e for e in events if e.kind == "emergency")
        assert event.context["emergency_distance"] == 150.0
        assert event.context["emergency_phase"] == 0.0  # (N, s) is phase 0

    def test_emergency_beyond_radius(self):
        place_running(self.episode, self.node.approaches["N"], 250.0, vclass="emergency")
        assert not detect(self.episode, "x0_0")

    def test_nearest_emergency_wins(self):
        place_running(self.episode, self.node.approaches["N"], 180.0, vclass="emergency")
        place_running(self.episode, self.node.approaches["E"], 60.0, vclass="emergency")
        event = next(e for e in detect(self.episode, "x0_0") if e.kind == "emergency")
        assert event.context["emergency_distance"] == 60.0

    def test_radius_boundary(self):
        # at exactly the 200 m radius it counts; just beyond it does not
        assert EMERGENCY_RADIUS == 200.0
        place_running(self.episode, self.node.approaches["N"], 200.0, vclass="emergency")
        event = next(e for e in detect(self.episode, "x0_0") if e.kind == "emergency")
        assert event.context["emergency_distance"] == 200.0
        beyond = Episode(Arrivals(zero_demand(), 0))
        place_running(beyond, self.node.approaches["N"], 200.5, vclass="emergency")
        assert not detect(beyond, "x0_0")

    def test_bus_detection_counts_and_delay(self):
        bus1 = place_running(self.episode, self.node.approaches["W"], 90.0, vclass="bus")
        bus2 = place_running(self.episode, self.node.approaches["E"], 40.0, vclass="bus")
        bus1.cumulative_wait = 25.0
        bus2.cumulative_wait = 12.0
        event = next(e for e in detect(self.episode, "x0_0") if e.kind == "transit")
        assert event.context["bus_count"] == 2.0
        assert event.context["bus_delay"] == 37.0

    def test_signal_wait_is_not_an_incident(self):
        # two vehicles stopped 130 s at the stop line of a red movement
        from .test_sim import queue_vehicle

        self.episode.clock.t = 200
        # queued in the live list, the one detect reads
        for _ in range(2):
            queue_vehicle(self.episode, self.node.approaches["E"], movement="s").stopped_since = 70
        # (E, s) is phase 2; active phase is 0, so the line is red
        assert self.episode.junctions["x0_0"].signal.active == 0
        assert not any(e.kind == "incident" for e in detect(self.episode, "x0_0"))

    def test_mid_link_stall_is_an_incident(self):
        self.episode.clock.t = 200
        vehicle = place_running(self.episode, self.node.approaches["N"], 150.0)
        vehicle.frozen = True
        vehicle.stopped_since = 60  # stopped 140 s, far from the stop line
        events = detect(self.episode, "x0_0")
        event = next(e for e in events if e.kind == "incident")
        assert event.context["incident_blocked"] == 1.0

    def test_green_stop_near_line_is_an_incident(self):
        # stopped long, near the line, but its movement is green: a
        # signal wait cannot explain it
        self.episode.clock.t = 200
        vehicle = place_running(self.episode, self.node.approaches["N"], 20.0)
        vehicle.frozen = True
        vehicle.stopped_since = 60
        assert self.episode.junctions["x0_0"].signal.active == 0  # (N, s) green
        assert any(e.kind == "incident" for e in detect(self.episode, "x0_0"))

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
        controller = DispatcherController(default_bank())
        kinds = set()
        for _ in range(scenario.duration):
            decisions = {}
            for node_id, junction in episode.junctions.items():
                events = detect(episode, node_id)
                assert [(e.kind, e.context) for e in events] == reference_detect(
                    episode, node_id, accrual
                )
                kinds.update(e.kind for e in events)
                if not junction.signal.in_transition:
                    decisions[node_id] = controller.decide(episode, junction)
            episode.step(decisions)
            accrual.after_step()
        assert expected <= kinds


class TestDispatch:
    def test_all_sixteen_subsets(self):
        bank = default_bank()
        kinds = ("emergency", "incident", "transit", "congestion")
        for mask in itertools.product((False, True), repeat=4):
            present = [k for k, on in zip(kinds, mask) if on]
            events = [TrafficEvent(kind=k, intersection="x0_0", context={}) for k in present]
            active, skill = dispatch(events, bank)
            if not present:
                assert active == "normal"
            else:
                assert active == min(present, key=lambda k: TrafficEvent(k, "x", {}).priority)
            assert skill is bank[active]

    def test_priority_examples(self):
        bank = default_bank()
        emergency = TrafficEvent("emergency", "x", {})
        incident = TrafficEvent("incident", "x", {})
        transit = TrafficEvent("transit", "x", {})
        congestion = TrafficEvent("congestion", "x", {})
        assert dispatch([emergency, incident], bank)[0] == "emergency"
        assert dispatch([transit, congestion], bank)[0] == "transit"
        assert dispatch([], bank)[0] == "normal"

    def test_bank_requires_all_kinds(self):
        skills = {kind: LIBRARY["bus-priority"] for kind in BANK_KINDS}
        SkillBank(skills)  # fine
        del skills["incident"]
        with pytest.raises(ValueError):
            SkillBank(skills)

    def test_bank_replaced_is_a_copy(self):
        bank = default_bank()
        other = bank.replaced("transit", LIBRARY["saturation-response"])
        assert bank["transit"] is not other["transit"]
        assert bank["normal"] is other["normal"]


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
    empty = LaneObservation(num_vehicle=0, num_waiting_vehicle=0, vehicle_dist=300.0)
    return score_phases(CompiledSkill(skill), [[(empty, empty)]] * 4, context)


class TestInjectContext:
    """The scorer binds an event's context and 0.0 to every event
    variable the context lacks."""

    def test_emergency_context(self):
        event = TrafficEvent("emergency", "x0_0", {"emergency_distance": 5.0, "emergency_phase": 2.0})
        assert context_scores(event.context) == [25.0] * 4

    def test_no_event_gives_all_zeros(self):
        assert context_scores(None) == [0.0] * 4
        assert context_scores({}) == [0.0] * 4

    def test_transit_sets_two_others_zero(self):
        event = TrafficEvent("transit", "x0_0", {"bus_count": 2.0, "bus_delay": 3.0})
        assert context_scores(event.context) == [3200.0] * 4

    def test_event_context_rejects_lane_variables(self):
        # event context is its own namespace, disjoint from lane variables
        with pytest.raises(ValueError):
            TrafficEvent("transit", "x0_0", {"num_vehicle": 9.0})


class TestDetectorInEpisode:
    def test_emergencies_traverse_and_complete(self):
        scenario = make_scenario("E2", rows=2, cols=2, duration=900, demand_scale=0.6)
        episode = Episode(Arrivals(scenario, 2))
        controller = ControllerSpec("dispatcher").build()
        for _ in range(scenario.duration):
            episode.step(decisions_of(episode, controller))
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
            episode.step({})
            if episode.t == 100 + 130:  # threshold passed well inside the window
                node_id = episode.network.links[scenario.incident.link].dst
                events = detect(episode, node_id)
                saw_incident = any(e.kind == "incident" for e in events)
                break
        assert saw_incident
