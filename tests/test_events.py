"""Event detection, priority dispatch, and context injection."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosignal.events import (
    BANK_KINDS,
    DetectorConfig,
    SkillBank,
    TrafficEvent,
    default_bank,
    detect,
    dispatch,
    event_bindings,
)
from evosignal.sim import make_scenario
from evosignal.sim.engine import Episode, Vehicle
from evosignal.skills import LIBRARY

from ._reference import brute_force_percentile
from .test_sim import zero_demand


def place_running(episode, link_id, distance_from_stopline, vclass="normal"):
    state = episode.links[link_id]
    route = episode._straight_route_from(link_id)
    vehicle = Vehicle(episode._next_vehicle_id, vclass, route, episode.t)
    episode._next_vehicle_id += 1
    episode.vehicles.append(vehicle)
    vehicle.movement = "s"
    vehicle.pos = state.link.length - distance_from_stopline
    state.running.append(vehicle)
    return vehicle


class TestDetect:
    def setup_method(self):
        self.episode = Episode(zero_demand())
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

    def test_radius_monotonicity(self):
        place_running(self.episode, self.node.approaches["N"], 120.0, vclass="emergency")
        wide = detect(self.episode, "x0_0", config=DetectorConfig(emergency_radius=200))
        narrow = detect(self.episode, "x0_0", config=DetectorConfig(emergency_radius=100))
        assert any(e.kind == "emergency" for e in wide)
        assert not any(e.kind == "emergency" for e in narrow)

    def test_bus_detection_counts_and_delay(self):
        bus1 = place_running(self.episode, self.node.approaches["W"], 90.0, vclass="bus")
        bus2 = place_running(self.episode, self.node.approaches["E"], 40.0, vclass="bus")
        bus1.cumulative_wait = 25.0
        bus2.cumulative_wait = 12.0
        event = next(e for e in detect(self.episode, "x0_0") if e.kind == "transit")
        assert event.context["bus_count"] == 2.0
        assert event.context["bus_delay"] == 37.0

    def test_signal_wait_is_not_an_incident(self):
        # stopped 130 s, 15 m from the stop line, on a red movement
        from .test_sim import queue_vehicle

        self.episode.t = 200
        vehicle = queue_vehicle(self.episode, self.node.approaches["E"], movement="s")
        state = self.episode.links[self.node.approaches["E"]]
        state.queues["s"] = [Vehicle(90 + i, "normal", vehicle.route, 0) for i in range(2)]
        for v in state.queues["s"]:
            v.movement = "s"
            v.queued = True
            v.stopped_since = 70  # stopped 130 s
        # (E, s) is phase 2; active phase is 0, so the line is red
        assert self.episode.signals["x0_0"].active == 0
        assert not any(e.kind == "incident" for e in detect(self.episode, "x0_0"))

    def test_mid_link_stall_is_an_incident(self):
        self.episode.t = 200
        vehicle = place_running(self.episode, self.node.approaches["N"], 150.0)
        vehicle.frozen = True
        vehicle.stopped_since = 60  # stopped 140 s, far from the stop line
        events = detect(self.episode, "x0_0")
        event = next(e for e in events if e.kind == "incident")
        assert event.context["incident_blocked"] == 1.0

    def test_green_stop_near_line_is_an_incident(self):
        # stopped long, near the line, but its movement is green: a
        # signal wait cannot explain it
        self.episode.t = 200
        vehicle = place_running(self.episode, self.node.approaches["N"], 20.0)
        vehicle.frozen = True
        vehicle.stopped_since = 60
        assert self.episode.signals["x0_0"].active == 0  # (N, s) green
        assert any(e.kind == "incident" for e in detect(self.episode, "x0_0"))

    def test_congestion_cold_start_is_silent(self):
        history = [50] * 100  # shorter than the 300 s window
        assert not detect(self.episode, "x0_0", queue_history=history)

    def test_congestion_fires_above_p90(self):
        history = list(range(300))  # current = 299, far above P90
        events = detect(self.episode, "x0_0", queue_history=history)
        event = next(e for e in events if e.kind == "congestion")
        assert event.context["congestion_level"] == 3.0

    def test_congestion_level_bins(self):
        # trailing window: mostly tens plus the current reading; P90 is
        # 10, the window max is the current value, so the band width is
        # (current - 10) / 4 and the level tracks how far current sits
        # above the threshold.
        for current, expected in ((12.0, 3.0), (50.0, 3.0)):
            history = [10.0] * 299 + [current]
            events = detect(self.episode, "x0_0", queue_history=history)
            event = next(e for e in events if e.kind == "congestion")
            assert event.context["congestion_level"] == expected
        # wider historical spread: threshold 10, window max 30, band 5;
        # current 12 sits in the lowest band
        history = [10.0] * 294 + [30.0] * 5 + [12.0]
        events = detect(self.episode, "x0_0", queue_history=history)
        event = next(e for e in events if e.kind == "congestion")
        assert event.context["congestion_level"] == 0.0

    @given(
        st.lists(st.integers(0, 60), min_size=300, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_congestion_threshold_matches_brute_force(self, history):
        events = detect(self.episode, "x0_0", queue_history=history)
        threshold = brute_force_percentile(history, 90)
        fired = any(e.kind == "congestion" for e in events)
        assert fired == (history[-1] > threshold)


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


class TestInjectContext:
    def test_emergency_context(self):
        event = TrafficEvent(
            "emergency", "x0_0", {"emergency_distance": 150.0, "emergency_phase": 2.0}
        )
        merged = event_bindings(event)
        assert merged["emergency_distance"] == 150.0
        assert merged["emergency_phase"] == 2.0
        assert merged["bus_count"] == 0.0

    def test_no_event_gives_all_zeros(self):
        merged = event_bindings(None)
        assert sorted(merged) == sorted(
            ["emergency_distance", "emergency_phase", "bus_count", "bus_delay",
             "incident_blocked", "congestion_level"]
        )
        assert all(v == 0.0 for v in merged.values())

    def test_transit_sets_two_others_zero(self):
        event = TrafficEvent("transit", "x0_0", {"bus_count": 2.0, "bus_delay": 37.0})
        merged = event_bindings(event)
        assert merged["bus_count"] == 2.0
        assert merged["bus_delay"] == 37.0
        assert merged["emergency_distance"] == 0.0
        assert merged["incident_blocked"] == 0.0

    def test_event_context_rejects_lane_variables(self):
        # event context is its own namespace, disjoint from lane variables
        with pytest.raises(ValueError):
            TrafficEvent("transit", "x0_0", {"num_vehicle": 9.0})


class TestDetectorInEpisode:
    def test_emergencies_traverse_and_complete(self):
        from evosignal.control import ControllerSpec, drive

        scenario = make_scenario("E2", rows=2, cols=2, duration=900, demand_scale=0.6, seed=2)
        result = drive(ControllerSpec("dispatcher"), scenario, seed=2)
        ambulances = [r for r in result.vehicle_log if r.vclass == "emergency"]
        assert len(ambulances) == 7  # one per 120 s over 900 s
        assert any(r.exit_time is not None for r in ambulances)

    def test_mixed_scenario_dispatches_incident_skill_in_window(self):
        from evosignal.control import ControllerSpec, drive

        scenario = make_scenario("M1", rows=2, cols=2, duration=1000, demand_scale=0.5, seed=4)
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
        scenario = make_scenario("I1", rows=2, cols=2, duration=800, demand_scale=0.4, seed=7)
        scenario = replace(
            scenario, incident=replace(scenario.incident, start=100.0, duration=400.0)
        )
        episode = Episode(scenario)
        saw_incident = False
        for _ in range(scenario.duration):
            episode.step({})
            if episode.t == 100 + 130:  # threshold passed well inside the window
                node_id = episode.network.links[scenario.incident.link].dst
                events = detect(episode, node_id)
                saw_incident = any(e.kind == "incident" for e in events)
                break
        assert saw_incident
