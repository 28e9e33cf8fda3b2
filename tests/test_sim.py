"""Network construction, scenario families, and engine dynamics."""

from __future__ import annotations

import ast
import gc
import math
import pickle
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evosignal import control as control_module
from evosignal.control import (
    ControllerSpec,
    FixedTimeController,
    HandcraftedPreemptionController,
    MaxPressureController,
    SkillController,
)
from evosignal.sim import make_scenario
from evosignal.sim import network as network_module
from evosignal.sim import scenario as scenario_module
from evosignal.sim.engine import (
    Arrivals,
    Episode,
    HISTORY_WINDOW,
    JAM_SPACING,
    Junction,
    Lane,
    LinkState,
    PhaseDecision,
    Vehicle,
    mean_gap,
    position,
    run_episode,
)
from evosignal.sim.network import (
    GRID_MEMO_SIZE,
    MOVEMENTS,
    ConfigError,
    Network,
    NUM_PHASES,
    PHASE_TABLE,
    build_network,
    canonical_route,
    grid_routes,
    reachable_exits,
    route_movements,
)
from evosignal.sim.scenario import (
    FAMILIES,
    MAX_BUS_LINES,
    MAX_DURATION,
    MAX_GRID_SIDE,
    MAX_RATE,
    MIN_INTERVAL,
    ScenarioConfig,
    load_scenario,
    scheduled_emergencies,
)
from evosignal.skills import LIBRARY, SEED_SKILL

from ._reference import (
    ReferenceAccrual,
    ReferenceStepper,
    in_network_count,
    recount_link,
    reference_arrivals,
    reference_observe,
    running_vehicles,
)


class HoldController:
    def decide(self, episode, junction):
        return None


def held_episode(scenario, seed):
    """An episode of ``scenario`` run to its end with every signal held."""
    episode = Episode(Arrivals(scenario, seed))
    for _ in range(scenario.duration):
        episode.step({})
    return episode


def vehicle_records(episode):
    return [(v.id, v.vclass, v.occupancy, v.entry_time, v.exit_time, episode.delay_of(v)) for v in episode.vehicles]


class TestNetwork:
    def test_four_by_four_grid(self):
        net = build_network(4, 4, 300)
        assert len(net.intersections) == 16
        assert NUM_PHASES == 4
        for node in net.intersections.values():
            assert set(node.approaches) == {"N", "E", "S", "W"}
            assert set(node.exits) == {"N", "E", "S", "W"}

    def test_minimal_grid(self):
        net = build_network(1, 1, 300)
        assert len(net.intersections) == 1
        assert len(net.intersections["x0_0"].approaches) == 4
        assert len(net.entry_links) == 4
        assert len(net.exit_links) == 4

    def test_two_by_two_link_counts(self):
        net = build_network(2, 2, 200)
        assert len(net.intersections) == 4
        kinds = {"interior": 0, "entry": 0, "exit": 0}
        for link in net.links.values():
            kinds[link.kind] += 1
        assert kinds == {"interior": 8, "entry": 8, "exit": 8}
        assert all(link.length == 200 for link in net.links.values())

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            build_network(0, 3)
        with pytest.raises(ConfigError):
            build_network(2, 2, -5)

    def test_phase_table_partitions_lane_links(self):
        seen = set()
        for lane_links in PHASE_TABLE:
            assert not (seen & lane_links)
            seen |= lane_links
        assert len(seen) == 12

    def test_canonical_routes_avoid_u_turns(self):
        net = build_network(3, 3)
        for entry in net.entry_links:
            exits = reachable_exits(net, entry)
            assert exits, entry
            for exit_id in exits:
                route = canonical_route(net, entry, exit_id)
                assert route[0] == entry and route[-1] == exit_id
                # consecutive links connect head to tail
                for a, b in zip(route, route[1:]):
                    assert net.links[a].dst == net.links[b].src


class TestScenarios:
    def test_emergency_schedule_counts(self):
        e2 = make_scenario("E2")
        assert len(scheduled_emergencies(e2)) == 30
        e1 = make_scenario("E1")
        assert len(scheduled_emergencies(e1)) == 12

    def test_validation_families_perturb_demand(self):
        t1 = make_scenario("T1")
        v1 = make_scenario("V1")
        factors = []
        for link_id in sorted(t1.demand):
            base = t1.demand[link_id][0][1]
            shifted = v1.demand[link_id][0][1]
            factors.append(round(shifted / base, 4))
        assert set(factors) == {1.15, 0.85}

    def test_bus_line_counts(self):
        b1 = make_scenario("B1")
        assert len(b1.bus_lines) == 2
        assert b1.bus_lines[0].headway == 180.0
        b2 = make_scenario("B2")
        assert len(b2.bus_lines) == 4

    def test_mixed_combines_emergency_and_incident(self):
        m1 = make_scenario("M1")
        assert m1.emergency is not None and m1.emergency.period == 300.0
        assert m1.incident is not None and m1.incident.start == 600.0
        assert m1.incident.end == 900.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            make_scenario("Z9")

    def test_custom_yaml_round_trip(self, tmp_path):
        path = tmp_path / "custom.yaml"
        path.write_text(
            "name: desk\n"
            "grid: {rows: 2, cols: 2, link_length: 250}\n"
            "duration: 600\n"
            "demand:\n"
            "  default_rate: 0.02\n"
        )
        scenario = load_scenario(str(path))
        assert scenario.name == "desk"
        assert scenario.duration == 600
        assert scenario.emergency is None and scenario.bus_lines == () and scenario.incident is None
        result = run_episode(Arrivals(scenario, 9), HoldController())
        assert result.metrics.vehicles_entered > 0

    def test_time_varying_profile(self):
        t3 = make_scenario("T3", duration=900)
        ew_entries = [l for l in t3.demand if l[1] in ("E", "W")]
        link = ew_entries[0]
        assert t3.rate_at(link, 0) < t3.rate_at(link, 450)
        assert t3.rate_at(link, 450) > t3.rate_at(link, 899)


def scenario_files():
    """Mappings shaped like scenario files, with any field that may be
    missing, mistyped or out of range, or the whole file junk."""
    junk = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text("ab1 :-[]{}>", max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abk", max_size=3), inner, max_size=3),
        max_leaves=6,
    )

    def mostly(shaped):
        """``shaped`` nine draws in ten, junk otherwise, so that most
        draws reach the deeper fields."""
        return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else shaped)

    number = mostly(st.one_of(
        st.integers(1, 40),
        st.floats(0.0, 200.0),
        st.sampled_from([-1, 0, 0.5, 1.0, 10.0, 10.5, 64, 86_401, 1e12, -1e12, math.inf, -math.inf, math.nan]),
    ))

    def mapping(**fields):
        return mostly(st.fixed_dictionaries({}, optional=fields))

    link = st.sampled_from(["tN_0_0>x0_0", "tW_1_0>x1_0", "x0_0>x0_1", "x0_0>tN_0_0", "nowhere"]) | junk
    source = mapping(link=link, profile=st.lists(st.lists(number, max_size=3), max_size=3) | junk)
    shaped = st.fixed_dictionaries(
        {"name": st.text("ab", max_size=3)},
        optional={
            "grid": mapping(rows=number, cols=number, link_length=number),
            "duration": number,
            "fitness_constant": number,
            "demand": mapping(default_rate=number, sources=st.lists(source, max_size=3) | junk),
            "events": mapping(
                emergency=mapping(period=number),
                bus_lines=mapping(count=number, headway=number),
                incident=mapping(start=number, duration=number),
            ),
        },
    )
    return mostly(shaped)


class TestScenarioRanges:
    """A scenario file either loads within the documented bounds or is
    refused with a one-line ConfigError; nothing here runs an episode."""

    @given(raw=scenario_files())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_file_loads_within_bounds_or_is_refused_in_one_line(self, raw, tmp_path):
        path = tmp_path / "fuzzed.yaml"
        path.write_text(yaml.safe_dump(raw))
        try:
            scenario = load_scenario(str(path))
        except ConfigError as exc:
            assert len(str(exc).splitlines()) == 1
            return
        assert isinstance(scenario, ScenarioConfig)
        assert_within_bounds(scenario)
        assert 1 <= scenario.rows <= MAX_GRID_SIDE and 1 <= scenario.cols <= MAX_GRID_SIDE
        assert 1 <= scenario.duration <= MAX_DURATION
        assert len(scenario.bus_lines) <= MAX_BUS_LINES
        if scenario.incident is not None:
            assert 0 <= scenario.incident.start <= MAX_DURATION
            assert 0 <= scenario.incident.duration <= MAX_DURATION

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_is_within_bounds(self, family):
        assert_within_bounds(make_scenario(family, rows=8, cols=8, duration=3600))

    @pytest.mark.parametrize("scale", [1e12, 79.0, -1.0, math.nan])
    def test_a_demand_scale_past_the_rate_bound_is_refused(self, scale):
        # T2's north-south sources run at 1.5 x 0.085 veh/s per unit of scale
        with pytest.raises(ConfigError, match="at demand scale"):
            make_scenario("T2", demand_scale=scale)
        assert_within_bounds(make_scenario("T2", demand_scale=78.0))

    @pytest.mark.parametrize(
        "events, message",
        [
            ("demand: {default_rate: 10.5}", "default_rate must be a number from 0 to 10"),
            ("demand: {default_rate: 1e12}", "default_rate must be a number from 0 to 10"),
            ("events: {emergency: {period: 0.5}}", "at least 1 s"),
            ("events: {bus_lines: {count: 1, headway: 0.999}}", "at least 1 s"),
            ("events: {bus_lines: {count: 1000000000, headway: 60}}", "count must be a number from 0 to 64"),
            ("grid: {rows: 100000}", "rows must be a number from 1 to 32"),
            ("duration: 1000000000000", "duration must be a number from 1 to 86400"),
            ("events: {emergency: {}}", "events 'emergency' needs a 'period'"),
            ("demand: {sources: [{link: [1]}]}", "is not an entry link"),
            ("events: {incident: {start: .inf, duration: 10}}", "incident start"),
        ],
    )
    def test_out_of_range_fields_are_refused(self, events, message, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(f"name: x\n{events}\n")
        with pytest.raises(ConfigError, match=message):
            load_scenario(str(path))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("seed: 9", r"scenario file \S+ has an unknown key 'seed'"),
            ("durration: 600", r"scenario file \S+ has an unknown key 'durration'"),
            ("grid: {rows: 2, colz: 3}", "grid has an unknown key 'colz'"),
            ("demand: {default_rat: 0.1}", "demand has an unknown key 'default_rat'"),
            ("demand: {sources: [{link: tN_0_0>x0_0, profile: [], rate: 1}]}",
             "a demand source has an unknown key 'rate'"),
            ("events: {emergancy: {period: 30}}", "events has an unknown key 'emergancy'"),
            ("events: {emergency: {period: 30, offset: 5}}", "events 'emergency' has an unknown key 'offset'"),
            ("events: {bus_lines: {count: 1, headway: 60, first: 0}}",
             "events 'bus_lines' has an unknown key 'first'"),
            ("events: {incident: {start: 5, duration: 10, link: x}}", "events 'incident' has an unknown key 'link'"),
        ],
        ids=["seed", "file", "grid", "demand", "source", "events", "emergency", "bus_lines", "incident"],
    )
    def test_an_unknown_key_is_refused_in_one_line(self, field, message, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text(f"name: x\n{field}\n")
        with pytest.raises(ConfigError, match=message) as refused:
            load_scenario(str(path))
        assert len(str(refused.value).splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"duration": 0}, "duration must be a number from 1 to 86400, got 0"),
            ({"duration": -5}, "duration must be a number from 1 to 86400, got -5"),
            ({"duration": MAX_DURATION + 1}, "duration must be a number from 1 to 86400"),
            ({"rows": MAX_GRID_SIDE + 1}, "grid rows must be a number from 1 to 32, got 33"),
            ({"cols": 0}, "grid cols must be a number from 1 to 32, got 0"),
        ],
    )
    def test_a_family_out_of_bounds_is_refused_before_its_network(self, overrides, message, monkeypatch):
        def refuse(*args):
            raise AssertionError("a network was built for an out-of-bounds scenario")

        monkeypatch.setattr(scenario_module, "build_network", refuse)
        with pytest.raises(ConfigError, match=message):
            make_scenario("T1", **overrides)

    def test_the_bounds_admit_their_edges(self, tmp_path):
        path = tmp_path / "edge.yaml"
        path.write_text(
            "name: edge\ngrid: {rows: 32, cols: 1}\nduration: 86400\ndemand: {default_rate: 10}\n"
            "events: {emergency: {period: 1}, bus_lines: {count: 64, headway: 1}}\n"
        )
        scenario = load_scenario(str(path))
        assert scenario.rows == MAX_GRID_SIDE and len(scenario.bus_lines) == MAX_BUS_LINES
        assert_within_bounds(scenario)


def assert_within_bounds(scenario):
    assert all(0 <= rate <= MAX_RATE for profile in scenario.demand.values() for _, rate in profile)
    if scenario.emergency is not None:
        assert scenario.emergency.period >= MIN_INTERVAL
    assert all(line.headway >= MIN_INTERVAL for line in scenario.bus_lines)


def zero_demand(rows=1, cols=1, duration=60, **kw):
    scenario = make_scenario("T1", rows=rows, cols=cols, duration=duration, **kw)
    return replace(scenario, demand={})


def straight_vehicle(episode, link_id, vclass="normal"):
    """A new vehicle of the episode on the straight route from
    ``link_id``, in no lane or queue yet."""
    route = episode._straight_route_from(link_id)
    vehicle = Vehicle(episode._next_vehicle_id, vclass, route, route_movements(episode.network, route), episode.t)
    episode._next_vehicle_id += 1
    episode.vehicles.append(vehicle)
    vehicle.table = episode._tables[vehicle.cruise]
    return vehicle


def queue_vehicle(episode, link_id, movement="s", vclass="normal"):
    state = episode.links[link_id]
    vehicle = straight_vehicle(episode, link_id, vclass)
    vehicle.movement = movement
    vehicle.queued = True
    vehicle.stopped_since = episode.t
    state.queues[movement].append(vehicle)
    state.count += 1
    episode.junctions[state.link.dst].queued += 1
    for pressures, k, term in state.lanes[movement].terms:
        pressures[k] += term
    return vehicle


class TestEngine:
    def test_zero_demand_is_inert(self):
        result = run_episode(Arrivals(zero_demand(), 1), HoldController())
        assert result.metrics.avg_delay == 0.0
        assert result.metrics.throughput == 0
        assert result.metrics.vehicles_entered == 0

    def test_clock_advances_per_step(self):
        episode = Episode(Arrivals(zero_demand(), 0))
        episode.step({})
        episode.step({"x0_0": PhaseDecision(2)})
        assert episode.t == 2

    def test_queued_vehicle_departs_in_two_green_steps(self):
        episode = Episode(Arrivals(zero_demand(), 0))
        node = episode.network.intersections["x0_0"]
        approach = node.approaches["N"]
        queue_vehicle(episode, approach, movement="s")
        # N-straight belongs to phase 0, already active; saturation flow
        # 0.5 veh/s means the head leaves on the second green step.
        episode.step({})
        assert len(episode.links[approach].queues["s"]) == 1
        episode.step({})
        assert len(episode.links[approach].queues["s"]) == 0

    def test_phase_change_takes_three_yellow_steps(self):
        episode = Episode(Arrivals(zero_demand(), 0))
        signal = episode.junctions["x0_0"].signal
        for _ in range(6):  # satisfy min green
            episode.step({})
        episode.step({"x0_0": PhaseDecision(2)})
        assert signal.yellow == 3 and signal.active == 0
        episode.step({})
        episode.step({})
        assert signal.yellow == 1 and signal.active == 0
        episode.step({})
        assert signal.yellow == 0 and signal.active == 2

    def test_min_green_blocks_early_change(self):
        episode = Episode(Arrivals(zero_demand(), 0))
        signal = episode.junctions["x0_0"].signal
        episode.step({"x0_0": PhaseDecision(2)})  # green_elapsed too small
        assert signal.yellow == 0 and signal.active == 0

    def test_invalid_decision_clamps_and_logs(self):
        episode = Episode(Arrivals(zero_demand(), 0), collect_step_log=True)
        for _ in range(6):
            episode.step({})
        episode.step({"x0_0": PhaseDecision(17)})
        assert episode.junctions["x0_0"].signal.active == 0
        assert any(r["kind"] == "invalid_decision" for r in episode._step_log)

    def test_observation_of_empty_lane(self):
        episode = Episode(Arrivals(zero_demand(), 0))
        obs = episode.observe("x0_0")
        inlane, outlane = obs[0][0]
        assert inlane.num_vehicle == 0
        assert inlane.num_waiting_vehicle == 0
        assert inlane.vehicle_dist == episode.network.link_length

    def test_observation_of_jam_spaced_queue(self):
        episode = Episode(Arrivals(zero_demand(), 0))
        node = episode.network.intersections["x0_0"]
        approach = node.approaches["N"]
        for _ in range(3):
            queue_vehicle(episode, approach, movement="s")
        obs = episode.observe("x0_0")
        # (N, s) is in phase 0; find its observation
        index = sorted(PHASE_TABLE[0]).index(("N", "s"))
        inlane, _ = obs[0][index]
        assert inlane.num_vehicle == 3
        assert inlane.num_waiting_vehicle == 3
        assert inlane.vehicle_dist == JAM_SPACING

    def test_moving_vehicle_is_not_waiting(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=30, demand_scale=0.5)
        episode = Episode(Arrivals(scenario, 4))
        episode.step({})
        episode.step({})
        moving = [
            v
            for state in episode.links.values()
            for v in running_vehicles(state)
        ]
        assert moving
        assert all(not (v.queued or v.frozen) for v in moving)

    def test_determinism_same_seed(self):
        scenario = make_scenario("T1", rows=2, cols=2, duration=150, demand_scale=1.0)
        a = run_episode(Arrivals(scenario, 6), HoldController())
        b = run_episode(Arrivals(scenario, 6), HoldController())
        assert a.metrics == b.metrics
        assert vehicle_records(held_episode(scenario, 6)) == vehicle_records(held_episode(scenario, 6))

    def test_distinct_seeds_differ(self):
        scenario = make_scenario("T1", rows=2, cols=2, duration=150, demand_scale=1.0)
        a = run_episode(Arrivals(scenario, 1), HoldController())
        b = run_episode(Arrivals(scenario, 2), HoldController())
        assert a.metrics != b.metrics

    def test_vehicle_conservation_every_step(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=120, demand_scale=1.5)
        episode = Episode(Arrivals(scenario, 8))
        for _ in range(scenario.duration):
            episode.step({})
            assert len(episode.vehicles) == in_network_count(episode) + episode.completed

    def test_waiting_monotonicity(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=120, demand_scale=1.5)
        episode = Episode(Arrivals(scenario, 8))
        last: dict[int, float] = {}
        for _ in range(scenario.duration):
            episode.step({})
            for vehicle in episode.vehicles:
                assert episode.delay_of(vehicle) >= last.get(vehicle.id, 0.0)
                last[vehicle.id] = episode.delay_of(vehicle)

    def test_incident_blocks_service_then_recovers(self):
        scenario = make_scenario("I1", rows=2, cols=2, duration=30, demand_scale=0.0)
        incident = replace(scenario.incident, start=5.0, duration=10.0)
        scenario = replace(scenario, incident=incident, demand={})
        episode = Episode(Arrivals(scenario, 3))
        link = episode.links[scenario.incident.link]
        node_id = episode.network.links[scenario.incident.link].dst
        serve_blocked_lane = {node_id: PhaseDecision(2)}  # (W, s) sits in phase 2
        for _ in range(5):
            episode.step(serve_blocked_lane)
        assert not link.blocked
        episode.step(serve_blocked_lane)
        assert "s" in link.blocked
        blocker = episode._incident_vehicle
        assert blocker is not None and blocker.frozen
        # queued vehicles behind the blockage are not served while blocked,
        # even under green
        queue_vehicle(episode, scenario.incident.link, movement="s")
        for _ in range(8):
            episode.step(serve_blocked_lane)
        assert episode.junctions[node_id].signal.active == 2
        assert len(link.queues["s"]) == 1  # still stuck
        for _ in range(4):
            episode.step(serve_blocked_lane)
        assert not link.blocked
        assert not blocker.frozen
        for _ in range(12):
            episode.step(serve_blocked_lane)
        assert len(link.queues["s"]) == 0  # served after recovery

    @pytest.mark.parametrize("family", ["T1", "I1", "E2"])
    def test_a_lane_keeps_its_running_vehicles_in_entry_order(self, family):
        # A lane's running list is one list all episode, changed in
        # place; vehicles of one speed that entered a link earlier stay
        # ahead of those that entered later, and ``odd`` counts the
        # vehicles off the common table.
        scenario = make_scenario(family, rows=2, cols=2, duration=700)
        episode = Episode(Arrivals(scenario, 2))
        controller = MaxPressureController()
        lists = {(link_id, m): lane.running for link_id, state in episode.links.items() for m, lane in state.lanes.items()}
        common = episode._common_table
        odd_steps = 0
        for _ in range(scenario.duration):
            episode.step(decisions_of(episode, controller))
            for (link_id, m), running in lists.items():
                lane = episode.links[link_id].lanes[m]
                assert lane.running is running
                assert lane.odd == sum(1 for v in running if v.table is not common)
                odd_steps += lane.odd > 0
                entered = [v.entered for v in running if v.table is common]
                assert entered == sorted(entered), (episode.t, link_id, m)
                positions = [position(v, episode.t) for v in running if v.cruise == 13.9 and not v.frozen]
                assert positions == sorted(positions, reverse=True), (episode.t, link_id, m)
        assert odd_steps > 0 if family != "T1" else odd_steps == 0

    def test_a_queue_behind_a_blockage_forms_behind_the_blocker(self):
        scenario = make_scenario("I1", rows=2, cols=2, duration=120, demand_scale=0.0)
        incident = replace(scenario.incident, start=1.0, duration=100.0)
        scenario = replace(scenario, incident=incident, demand={})
        episode = Episode(Arrivals(scenario, 3))
        link = episode.links[incident.link]
        queue = link.queues[incident.movement]
        for _ in range(2):
            episode.step({})
        head = link.blocked[incident.movement]
        for _ in range(3):
            route = episode._straight_route_from(incident.link)
            episode._new_vehicle("normal", route, route_movements(episode.network, route))
            for _ in range(4):
                episode.step({})
        for _ in range(30):
            episode.step({})
        assert len(queue) == 3 and link.blocked
        for i, vehicle in enumerate(queue):
            # joined at (head - JAM_SPACING) - (i + 1) * JAM_SPACING or later,
            # and one step of travel never carries it past the blocker
            assert head - (i + 2) * JAM_SPACING <= position(vehicle, episode.t) < head

    def test_bus_person_delay_matches_brute_force(self):
        scenario = make_scenario("B1", rows=2, cols=2, duration=300, demand_scale=0.6)
        episode = held_episode(scenario, 5)
        vehicles = episode.vehicles
        assert any(v.vclass == "bus" for v in vehicles)
        expected = sum(v.occupancy * episode.delay_of(v) for v in vehicles) / sum(v.occupancy for v in vehicles)
        assert episode.finish().metrics.bus_person_delay == pytest.approx(expected, rel=1e-12)

    def test_mean_gap_conventions(self):
        # (n, nearest, farthest, link length)
        assert mean_gap(0, math.inf, -math.inf, 300.0) == 300.0
        assert mean_gap(1, 40.0, 40.0, 300.0) == 150.0
        assert mean_gap(3, 0.0, 15.0, 300.0) == 7.5


def assert_same_observations(got, want):
    assert len(got) == len(want) == NUM_PHASES
    for phase_got, phase_want in zip(got, want):
        assert len(phase_got) == len(phase_want)
        for pair_got, pair_want in zip(phase_got, phase_want):
            for lane_got, lane_want in zip(pair_got, pair_want):
                assert lane_got.num_vehicle == lane_want.num_vehicle
                assert lane_got.num_waiting_vehicle == lane_want.num_waiting_vehicle
                assert lane_got.vehicle_dist == lane_want.vehicle_dist


def overtaken_in_lane(link_state, t) -> bool:
    """True when a lane's running order (entry order) differs from its
    position order, as it does once a faster vehicle passes a slower
    one of the same movement."""
    for lane in link_state.lanes.values():
        positions = [position(v, t) for v in lane.running]
        if positions != sorted(positions, reverse=True):
            return True
    return False


def overtaken_on_link(link_state, t) -> bool:
    """True when a running vehicle stands ahead of one that entered the
    link at an earlier step, whatever their lanes: once a faster vehicle
    passes a slower one, or once the incident blocker moves on ahead of
    vehicles that entered before it restarted."""
    running = [v for v in running_vehicles(link_state) if v.entered is not None]
    running.sort(key=lambda v: (v.entered, -position(v, t)))
    positions = [position(v, t) for v in running]
    return positions != sorted(positions, reverse=True)


class TestObservationOracle:
    """Episode.observe against sorted distance lists, at every
    intersection, every 5 s of max-pressure episodes and at every step
    with a queue behind a blockage, an overtaken vehicle or a lane that
    holds a vehicle off the common position table (whose gap is scanned,
    not read from the lane's two ends)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("family", ["T1", "I1", "E2", "B2"])
    def test_observe_matches_sorted_distances(self, family, size, seed):
        # I1's blockage runs from 600 s to 900 s; check during and after it.
        duration = 1000 if family == "I1" else 400
        scenario = make_scenario(family, rows=size, cols=size, duration=duration)
        episode = Episode(Arrivals(scenario, seed))
        controller = MaxPressureController()
        seen = set()
        for _ in range(duration):
            notable = set()
            for state in episode.links.values():
                if any(state.queues[m] for m in state.blocked):
                    notable.add("queue behind blockage")
                if overtaken_on_link(state, episode.t):
                    notable.add("overtaken")
                if any(lane.odd for lane in state.lanes.values()):
                    notable.add("off the common table")
            if notable or episode.t % 5 == 0:
                for node_id in episode.network.intersection_ids:
                    assert_same_observations(episode.observe(node_id), reference_observe(episode, node_id))
            seen |= notable
            episode.step(decisions_of(episode, controller))
        if family == "I1":
            assert "queue behind blockage" in seen
        if family == "E2":
            assert "overtaken" in seen


class DecisionLog:
    """Wraps a controller and records which (t, intersection) decided."""

    def __init__(self, inner):
        self.inner = inner
        self.decided = []

    def decide(self, episode, junction):
        self.decided.append((episode.t, junction.id))
        return self.inner.decide(episode, junction)


FIGURES = ("num_vehicle", "num_waiting_vehicle", "vehicle_dist")


class TestLiveViews:
    @pytest.fixture()
    def reads(self, monkeypatch):
        """Count every figure read from a lane or link record as (record
        class, figure), and list every exit-link figure read as
        (decision, record, figure), a decision being one
        ``score_phases`` call."""
        counts = Counter()
        exit_reads: list[tuple[int, int, str]] = []
        decision = {"n": 0}
        for cls in (Lane, LinkState):
            for figure in FIGURES:
                fget = vars(cls)[figure].fget

                def counted(view, fget=fget, cls=cls, figure=figure):
                    counts[cls.__name__, figure] += 1
                    if cls is LinkState:
                        exit_reads.append((decision["n"], id(view), figure))
                    return fget(view)

                monkeypatch.setattr(cls, figure, property(counted))
        score = control_module.score_phases

        def counted_score(*args, **kwargs):
            decision["n"] += 1
            return score(*args, **kwargs)

        monkeypatch.setattr(control_module, "score_phases", counted_score)
        return counts, exit_reads

    def arrivals(self, family="T1"):
        return Arrivals(make_scenario(family, rows=2, cols=2, duration=300), 4)

    def test_fixed_time_reads_no_figure(self, reads):
        counts, _ = reads
        controller = DecisionLog(FixedTimeController())
        run_episode(self.arrivals(), controller)
        assert controller.decided
        assert sum(counts.values()) == 0

    @pytest.mark.parametrize("controller", [MaxPressureController, HandcraftedPreemptionController])
    def test_max_pressure_reads_no_view(self, reads, monkeypatch, controller):
        # it counts the junction's queue lists instead
        counts, _ = reads
        observed = []
        observe = Episode.observe

        def counted(episode, node_id):
            observed.append(node_id)
            return observe(episode, node_id)

        monkeypatch.setattr(Episode, "observe", counted)
        controller = DecisionLog(controller())
        result = run_episode(self.arrivals("E2"), controller)
        assert controller.decided and result.metrics.vehicles_entered > 0
        assert observed == [] and sum(counts.values()) == 0

    def test_seed_skill_reads_neither_count_nor_gap(self, reads):
        counts, _ = reads
        result = run_episode(self.arrivals(), SkillController(SEED_SKILL))
        assert result.controller_faults == 0
        assert set(counts) == {("Lane", "num_waiting_vehicle")}

    @pytest.mark.parametrize(
        "outlane", [None, "value[0] += index * outlane_0_num_vehicle - vehicle_dist"], ids=["library", "index"]
    )
    @pytest.mark.parametrize("name", ["saturation-branch", "bus-priority"])
    def test_each_exits_figures_are_read_at_most_once_per_decision(self, reads, name, outlane):
        # with the library outlane (which does not name index) and with
        # one that names index, so its body runs once per lane-link
        skill = LIBRARY[name] if outlane is None else replace(LIBRARY[name], outlane_code=outlane)
        counts, exit_reads = reads
        result = run_episode(self.arrivals(), SkillController(skill))
        assert result.controller_faults == 0
        assert counts[("LinkState", "vehicle_dist")] > 0
        # each of these outlane bodies names the count and the gap only
        assert {figure for _, _, figure in exit_reads} == {"num_vehicle", "vehicle_dist"}
        assert len(exit_reads) == len(set(exit_reads))
        assert len({view for _, view, _ in exit_reads}) > 4

    @pytest.mark.parametrize("family", ["T1", "I1", "E2"])
    def test_views_read_after_a_step_see_the_new_state(self, family):
        # I1's blockage runs from 600 s to 900 s; hold views across it.
        scenario = make_scenario(family, rows=2, cols=2, duration=700)
        episode = Episode(Arrivals(scenario, 1))
        controller = MaxPressureController()
        views = {node_id: episode.observe(node_id) for node_id in episode.network.intersection_ids}
        for _ in range(scenario.duration):
            episode.step(decisions_of(episode, controller))
            if episode.t % 7 == 0 or 595 <= episode.t <= 610:
                for node_id, held in views.items():
                    assert episode.observe(node_id) is held
                    assert_same_observations(held, reference_observe(episode, node_id))

    def test_a_finished_episode_is_freed_without_the_cycle_collector(self):
        scenario = make_scenario("B2", rows=2, cols=2, duration=120)
        controller = SkillController(LIBRARY["bus-priority"])
        gc.collect()
        gc.disable()
        try:
            episode = Episode(Arrivals(scenario, 2))
            while True:
                decisions = {
                    node_id: controller.decide(episode, junction)
                    for node_id, junction in episode.junctions.items()
                }
                if episode.t == scenario.duration:
                    break
                episode.step(decisions)
            episode.finish()
            ref = weakref.ref(episode)
            del episode
            assert ref() is None
            # nor does any of its records (lanes, link states, junctions)
            # wait for the collector in a reference cycle
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_episodes_leave_no_cyclic_garbage(self):
        # A lane refers to no link state or junction, so no record of an
        # episode is in a reference cycle: each is freed by reference
        # counting when the episode is dropped, under every controller
        # kind and in the middle of a blockage, and none waits for a
        # full collection.
        # The controllers are built first: compiling a body leaves the
        # standard library's ast.fix_missing_locations closure behind.
        runs = (
            ("I1", ControllerSpec("max_pressure").build()),
            ("M1", ControllerSpec("dispatcher").build()),
            ("E2", ControllerSpec("skill", skill=LIBRARY["saturation-branch"]).build()),
        )
        blocked = make_scenario("I1", rows=3, cols=3, duration=950)
        gc.collect()
        gc.disable()
        try:
            for family, controller in runs:
                scenario = make_scenario(family, rows=3, cols=3, duration=950)
                assert run_episode(Arrivals(scenario, 2), controller).metrics.vehicles_entered > 0
            episode = Episode(Arrivals(blocked, 2))
            for _ in range(int(blocked.incident.start) + 1):
                episode.step({})
            assert episode.links[blocked.incident.link].blocked
            del episode
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestKeptCounts:
    """The link counts the engine keeps as vehicles enter and leave,
    against a recount of the link's lists after every step."""

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("family", ["T1", "I1", "I1-left", "E2", "B2", "M1"])
    def test_kept_counts_match_a_recount(self, family, size):
        # I1 and M1 block from 600 s to 900 s; I1-left blocks the left
        # turn, so the blocker's movement is changed when it is placed.
        duration = 950 if family.startswith(("I1", "M1")) else 400
        scenario = make_scenario(family[:2], rows=size, cols=size, duration=duration)
        if family == "I1-left":
            scenario = replace(scenario, incident=replace(scenario.incident, movement="l"))
        episode = Episode(Arrivals(scenario, 3))
        controller = MaxPressureController()
        views = [episode.observe(node_id) for node_id in episode.network.intersection_ids]
        blocked_steps = 0
        for _ in range(scenario.duration):
            episode.step(decisions_of(episode, controller))
            blocked_steps += episode._incident_vehicle is not None
            for state in episode.links.values():
                assert state.count == recount_link(state)
            for phases in views:
                for lane_links in phases:
                    for _, outlane in lane_links:
                        assert outlane.num_vehicle == recount_link(outlane)
        assert in_network_count(episode) == len(episode.vehicles) - episode.completed > 0
        assert blocked_steps == (300 if scenario.incident else 0)


def stepped_against_reference(arrivals, controller):
    """Step an episode on ``arrivals`` under ``controller`` beside a
    ``ReferenceStepper``, comparing the two after every step; returns
    the episode and the notable states seen on the way."""
    episode = Episode(arrivals)
    stepper = ReferenceStepper(episode)
    seen = set()
    for _ in range(episode.scenario.duration):
        episode.step(decisions_of(episode, controller))
        stepper.after_step()
        assert stepper.mismatches() == [], episode.t
        for state in episode.links.values():
            if any(state.queues[m] for m in state.blocked):
                seen.add("queue behind blockage")
            if any(lane.odd for lane in state.lanes.values()):
                seen.add("off the common table")
            if overtaken_in_lane(state, episode.t):
                seen.add("overtaken in lane")
        if any(v.exit_time == episode.t - 1 for v in episode.vehicles):
            seen.add("exit")
    return episode, seen


class TestReferenceStepper:
    """Positions from tables, lanes worked only at their wake steps, and
    kept pressures, against the per-second stepper and the counted
    pressures at every step: every vehicle's position, ``queued`` and
    ``exit_time``, every queue's order, every junction's pressures."""

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("family", ["T1", "I1", "I1-left", "E2", "B2", "M1"])
    def test_every_step_matches_the_reference(self, family, size):
        # I1 and M1 block from 600 s to 900 s; I1-left blocks the left turn.
        duration = 950 if family.startswith(("I1", "M1")) else 500
        scenario = make_scenario(family[:2], rows=size, cols=size, duration=duration)
        if family == "I1-left":
            scenario = replace(scenario, incident=replace(scenario.incident, movement="l"))
        episode, seen = stepped_against_reference(Arrivals(scenario, 3), MaxPressureController())
        assert episode.completed > 0 and "exit" in seen
        if scenario.incident is not None:
            assert "queue behind blockage" in seen
        if scenario.emergency is not None:
            assert "off the common table" in seen

    def test_an_emergency_vehicle_passes_a_car_in_its_lane(self):
        # The north approach of a 1x1 grid, straight ahead, held red
        # until 100 s. The emergency vehicle entering 3 s behind the
        # second car passes it, so once the first car has queued the
        # lane wakes for the emergency vehicle, not for the car at the
        # head of its running list, and the join test skips the car to
        # reach it. The second emergency vehicle queues behind the third
        # car and, released 2 s after it, passes it and the second car
        # on the exit link and leaves the network ahead of both.
        scenario = zero_demand(duration=160)
        arrivals = Arrivals(scenario, 0)
        node = arrivals.network.intersections["x0_0"]
        entry = node.approaches["N"]
        route = arrivals.grid.routes[(entry, node.exits[arrivals.network.links[entry].direction])]
        entering = {0: "normal", 10: "normal", 13: "emergency", 40: "normal", 55: "emergency"}
        arrivals._steps = [
            ((entering[t], route),) if t in entering else () for t in range(scenario.duration)
        ]
        queue = []

        class RedUntil100:
            def decide(self, episode, junction):
                queue[:] = max(queue, [v.id for v in episode.links[entry].queues["s"]], key=len)
                return PhaseDecision(0 if episode.t >= 100 else 1)

        episode, seen = stepped_against_reference(arrivals, RedUntil100())
        assert "overtaken in lane" in seen
        assert queue == [0, 2, 1, 3, 4]
        _, second_car, _, third_car, second_emergency = episode.vehicles
        assert second_emergency.exit_time < second_car.exit_time < third_car.exit_time
        assert episode.completed == 5

    def test_fixed_time_keeps_the_pressures_too(self):
        scenario = make_scenario("M1", rows=2, cols=2, duration=950)
        stepped_against_reference(Arrivals(scenario, 5), FixedTimeController())

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        family=st.sampled_from(["T1", "T3", "I1", "E2", "B2", "M1"]),
        rows=st.integers(1, 3),
        cols=st.integers(1, 3),
        seed=st.integers(0, 2**31),
        link_length=st.sampled_from([60.0, 137.5, 300.0, 412.3]),
        demand_scale=st.floats(0.3, 2.5),
        incident=st.tuples(st.integers(0, 150), st.integers(1, 150), st.sampled_from(MOVEMENTS),
                           st.floats(0.0, 500.0)),
    )
    def test_a_sweep_of_grids_and_seeds_matches_the_reference(
        self, family, rows, cols, seed, link_length, demand_scale, incident
    ):
        scenario = make_scenario(family, rows=rows, cols=cols, duration=200,
                                 link_length=link_length, demand_scale=demand_scale)
        if scenario.incident is not None:
            start, length, movement, from_stopline = incident
            scenario = replace(scenario, incident=replace(
                scenario.incident, start=float(start), duration=float(length), movement=movement,
                position_from_stopline=from_stopline,
            ))
        controller = HandcraftedPreemptionController() if seed % 2 else MaxPressureController()
        stepped_against_reference(Arrivals(scenario, seed), controller)


def decisions_of(episode, controller):
    """What ``controller`` decides for every junction not in a yellow
    transition, as ``run_episode`` asks it."""
    return {
        node_id: controller.decide(episode, junction)
        for node_id, junction in episode.junctions.items()
        if not junction.signal.in_transition
    }


class TestAccrualOracle:
    """Waits banked when they end, against the per-second loops."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", ["T1", "I1", "B2", "M1"])
    def test_banked_waits_match_per_second_accrual(self, family, seed):
        # I1 and M1 block from 600 s to 900 s, and the window runs 300 s
        # past that; stop inside the tail so finish sees a cut window.
        duration = 1150 if family in ("I1", "M1") else 400
        scenario = make_scenario(family, rows=2, cols=2, duration=duration)
        episode = Episode(Arrivals(scenario, seed))
        reference = ReferenceAccrual(episode)
        controller = MaxPressureController()
        for _ in range(duration):
            episode.step(decisions_of(episode, controller))
            reference.after_step()
            for vehicle in episode.vehicles:
                assert episode.delay_of(vehicle) == reference.delay(vehicle), vehicle.id
            if episode.t % 50 == 0 or episode.t == duration:
                metrics = episode.finish().metrics
                histories = {node_id: junction.history for node_id, junction in episode.junctions.items()}
                assert histories == reference.queue_history
                assert metrics.avg_delay == reference.avg_delay()
                if scenario.incident is not None:
                    assert metrics.incident_window_delay == reference.incident_window_delay()
        episode.finish()
        waits = [episode.delay_of(v) for v in episode.vehicles]
        assert waits == [reference.delay(v) for v in episode.vehicles]
        assert any(wait > 0 for wait in waits)
        if scenario.incident is not None:
            assert reference.window_wait > 0

    def test_finish_does_not_change_the_episode(self):
        scenario = make_scenario("I1", rows=2, cols=2, duration=700)
        episode = Episode(Arrivals(scenario, 0))
        controller = MaxPressureController()
        for _ in range(650):
            episode.step(decisions_of(episode, controller))
        first = episode.finish()
        assert episode.finish() == first
        for _ in range(50):
            episode.step(decisions_of(episode, controller))
        fresh = run_episode(Arrivals(scenario, 0), MaxPressureController())
        assert episode.finish() == fresh

    def test_only_the_incident_freezes_a_vehicle(self):
        # The waiting count adds the blocker only while the incident
        # holds it, so nothing else in the engine may set `frozen`.
        source = Path(__file__).resolve().parents[1] / "src" / "evosignal"
        writers = set()
        for path in sorted(source.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
                for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                    for node in ast.walk(fn):
                        targets = node.targets if isinstance(node, ast.Assign) else (
                            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
                        if any(isinstance(t, ast.Attribute) and t.attr == "frozen" for t in targets):
                            writers.add(f"{cls.name}.{fn.name}")
        assert writers == {"Vehicle.__init__", "Episode._update_incident"}


class TestSortedHistory:
    # Both episodes run past HISTORY_WINDOW = 300 steps, so values leave
    # the window as well as enter it.
    def test_window_matches_a_fresh_sort_every_step(self):
        scenario = make_scenario("T1", rows=2, cols=2, duration=500)
        episode = Episode(Arrivals(scenario, 3))
        controller = MaxPressureController()
        for _ in range(scenario.duration):
            episode.step(decisions_of(episode, controller))
            for junction in episode.junctions.values():
                assert junction.sorted_history() == sorted(junction.history[-HISTORY_WINDOW:])
        assert len(set(episode.junctions["x0_0"].history[-HISTORY_WINDOW:])) > 1

    def test_catches_up_after_skipped_steps(self):
        scenario = make_scenario("T1", rows=2, cols=2, duration=400)
        episode = Episode(Arrivals(scenario, 5))
        junction = episode.junctions["x1_0"]
        for _ in range(400):
            episode.step({})
            if episode.t % 97 == 0:
                assert junction.sorted_history() == sorted(junction.history[-HISTORY_WINDOW:])
        assert junction.sorted_history() == sorted(junction.history[-HISTORY_WINDOW:])


def vehicles_under(controller, arrivals):
    """(id, vclass, entry_time, route) of every vehicle of one episode,
    and its metrics."""
    episode = Episode(arrivals)
    for _ in range(episode.scenario.duration):
        episode.step(decisions_of(episode, controller))
    vehicles = [(v.id, v.vclass, v.entry_time, v.route) for v in episode.vehicles]
    return vehicles, episode.finish().metrics


class TestArrivals:
    @pytest.mark.parametrize("family, seed", [("T3", 0), ("V1", 3), ("E2", 1), ("B2", 2), ("M1", 4)])
    def test_draws_the_stream_of_the_reference(self, family, seed):
        scenario = make_scenario(family, rows=2, cols=3, duration=900)
        arrivals = Arrivals(scenario, seed)
        assert [arrivals.at(t) for t in range(900)] == reference_arrivals(scenario, seed, 900)

    def test_rates_follow_unsorted_and_fractional_profile_starts(self):
        # rate_at takes the last piece before the first one that starts
        # later than t, so an out-of-order piece matters only once every
        # start before it has passed
        scenario = make_scenario("T1", rows=2, cols=2, duration=600)
        entries = sorted(scenario.demand)
        profiles = [((0.0, 0.2), (150.5, 0.0), (100.0, 0.4), (400.0, 0.1)),
                    ((-5.0, 0.3), (250.25, 0.6), (math.nan, 0.9)),
                    ((300.0, 0.5),)]
        scenario = replace(scenario, demand=dict(zip(entries, profiles)))
        arrivals = Arrivals(scenario, 3)
        assert [arrivals.at(t) for t in range(600)] == reference_arrivals(scenario, 3, 600)

    @pytest.mark.parametrize("family", ["T3", "E2", "B2", "M1"])
    def test_fixed_time_and_max_pressure_see_the_same_vehicles(self, family):
        scenario = make_scenario(family, rows=2, cols=2, duration=900)
        fixed, fixed_metrics = vehicles_under(FixedTimeController(), Arrivals(scenario, 4))
        pressure, pressure_metrics = vehicles_under(MaxPressureController(), Arrivals(scenario, 4))
        assert fixed == pressure
        assert fixed_metrics != pressure_metrics  # the signals did differ
        scheduled = {"E2": "emergency", "B2": "bus", "M1": "emergency"}.get(family, "normal")
        assert {"normal", scheduled} <= {vclass for _, vclass, _, _ in fixed}

    @pytest.mark.parametrize("family", ["E2", "B2"])
    def test_a_pickled_partly_drawn_copy_continues_the_stream(self, family):
        scenario = make_scenario(family, rows=2, cols=2, duration=600)
        fresh = Arrivals(scenario, 8)
        partly = Arrivals(scenario, 8)
        partly.draw_until(250)
        copy = pickle.loads(pickle.dumps(partly))
        want = [fresh.at(t) for t in range(700)]
        assert [copy.at(t) for t in range(699, -1, -1)][::-1] == want
        assert [partly.at(t) for t in range(700)] == want
        assert sum(map(len, want[250:])) > 0

    def test_a_shared_arrivals_gives_the_episodes_of_a_fresh_one(self):
        scenario = make_scenario("M1", rows=2, cols=2, duration=900)
        shared = Arrivals(scenario, 5)
        for controller in (MaxPressureController(), FixedTimeController(), SkillController(SEED_SKILL)):
            assert run_episode(shared, controller) == run_episode(Arrivals(scenario, 5), controller)

    def test_only_arrivals_calls_the_generator(self):
        """Every draw happens in Arrivals, so nothing a controller does
        can change the vehicles that enter."""
        source = Path(__file__).resolve().parents[1] / "src" / "evosignal"
        users = set()
        for path in sorted(source.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for top in tree.body:
                for node in ast.walk(top):
                    generator = isinstance(node, ast.Attribute) and (
                        node.attr in ("_rng", "rng", "PCG64", "Generator", "default_rng")
                        or (node.attr == "random" and isinstance(node.value, ast.Name)
                            and node.value.id in ("np", "numpy"))
                    )
                    if generator:
                        users.add(f"{path.name}:{getattr(top, 'name', type(top).__name__)}")
        assert users == {"engine.py:Arrivals"}

    def test_a_second_arrivals_of_the_grid_searches_no_route(self, monkeypatch):
        searched = []
        search = network_module.canonical_route

        def counted(network, entry, exit_):
            searched.append((entry, exit_))
            return search(network, entry, exit_)

        monkeypatch.setattr(network_module, "canonical_route", counted)
        grid_routes.cache_clear()
        first = make_scenario("T3", rows=3, cols=2, duration=300)
        Arrivals(first, 1).draw_until(300)
        # a 3x2 grid has 10 entry and 10 exit links: each pair once
        assert len(searched) == len(set(searched)) == 100
        searched.clear()
        drawn = {}
        for family, seed in (("E2", 2), ("B2", 3), ("T3", 1)):
            scenario = make_scenario(family, rows=3, cols=2, duration=300)
            arrivals = Arrivals(scenario, seed)
            drawn[family, seed] = [arrivals.at(t) for t in range(300)]
        copy = pickle.loads(pickle.dumps(Arrivals(first, 4)))
        grid_routes.cache_clear()
        copy.draw_until(300)  # a pickled copy carries its routes
        assert searched == []
        for (family, seed), steps in drawn.items():
            scenario = make_scenario(family, rows=3, cols=2, duration=300)
            assert steps == reference_arrivals(scenario, seed, 300)

    def test_the_route_memo_keeps_at_most_its_bound(self):
        grid_routes.cache_clear()
        grids = [(1, 2, 100.0 + i) for i in range(GRID_MEMO_SIZE + 3)]
        tables = [grid_routes(*grid) for grid in grids]
        info = grid_routes.cache_info()
        assert info.maxsize == GRID_MEMO_SIZE and info.currsize == GRID_MEMO_SIZE
        assert grid_routes(*grids[-1]) is tables[-1]  # the grids used last are kept
        assert grid_routes(*grids[0]) is not tables[0]  # the oldest were dropped
        assert grid_routes.cache_info().currsize == GRID_MEMO_SIZE


class TestHotLoops:
    """Per-episode work stays per episode: nothing in the step loop
    sorts the intersection ids or builds an intersection's record."""

    def test_ids_are_sorted_and_records_built_a_constant_number_of_times(self, monkeypatch):
        sorts, records = [], []

        def counted_ids(network):
            sorts.append(network)
            return tuple(sorted(network.intersections))

        build = Junction.__init__

        def counted_build(junction, node, links):
            records.append(node.id)
            build(junction, node, links)

        monkeypatch.setattr(Network, "intersection_ids", property(counted_ids))
        monkeypatch.setattr(Junction, "__init__", counted_build)
        per_duration = []
        for duration in (60, 600):
            sorts.clear()
            records.clear()
            scenario = make_scenario("E2", rows=2, cols=3, duration=duration)
            for controller in (FixedTimeController(), MaxPressureController(), SkillController(SEED_SKILL)):
                run_episode(Arrivals(scenario, 1), controller)
            per_duration.append((len(sorts), sorted(records)))
        assert per_duration[0] == per_duration[1]
        sort_count, built = per_duration[0]
        assert sort_count <= 3
        assert built == sorted(["x0_0", "x0_1", "x0_2", "x1_0", "x1_1", "x1_2"] * 3)
