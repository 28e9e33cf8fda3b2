"""Network construction, scenario families, and engine dynamics."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from evosignal.control import FixedTimeController, MaxPressureController
from evosignal.sim import make_scenario
from evosignal.sim.engine import (
    Episode,
    JAM_SPACING,
    LinkState,
    PhaseDecision,
    StepContext,
    Vehicle,
    mean_gap,
    run_episode,
)
from evosignal.sim.network import (
    ConfigError,
    NUM_PHASES,
    PHASE_TABLE,
    build_network,
    canonical_route,
    reachable_exits,
)
from evosignal.sim.scenario import load_scenario, scheduled_emergencies

from ._reference import reference_observe


class HoldController:
    def decide(self, ctx):
        return None


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
            "seed: 9\n"
            "demand:\n"
            "  default_rate: 0.02\n"
        )
        scenario = load_scenario(str(path))
        assert scenario.name == "desk"
        assert scenario.duration == 600
        assert not scenario.has_events()
        result = run_episode(scenario, HoldController(), seed=9)
        assert result.metrics.vehicles_entered > 0

    def test_time_varying_profile(self):
        t3 = make_scenario("T3", duration=900)
        ew_entries = [l for l in t3.demand if l[1] in ("E", "W")]
        link = ew_entries[0]
        assert t3.rate_at(link, 0) < t3.rate_at(link, 450)
        assert t3.rate_at(link, 450) > t3.rate_at(link, 899)


def zero_demand(rows=1, cols=1, duration=60, **kw):
    scenario = make_scenario("T1", rows=rows, cols=cols, duration=duration, **kw)
    return replace(scenario, demand={})


def queue_vehicle(episode, link_id, movement="s", vclass="normal"):
    state = episode.links[link_id]
    route = episode._straight_route_from(link_id)
    vehicle = Vehicle(episode._next_vehicle_id, vclass, route, episode.t)
    episode._next_vehicle_id += 1
    episode.vehicles.append(vehicle)
    vehicle.movement = movement
    vehicle.queued = True
    vehicle.stopped_since = episode.t
    state.queues[movement].append(vehicle)
    return vehicle


class TestEngine:
    def test_zero_demand_is_inert(self):
        result = run_episode(zero_demand(), HoldController(), seed=1)
        assert result.metrics.avg_delay == 0.0
        assert result.metrics.throughput == 0
        assert result.metrics.vehicles_entered == 0

    def test_clock_advances_per_step(self):
        episode = Episode(zero_demand())
        episode.step({})
        episode.step({"x0_0": PhaseDecision(2)})
        assert episode.t == 2

    def test_queued_vehicle_departs_in_two_green_steps(self):
        episode = Episode(zero_demand())
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
        episode = Episode(zero_demand())
        signal = episode.signals["x0_0"]
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
        episode = Episode(zero_demand())
        signal = episode.signals["x0_0"]
        episode.step({"x0_0": PhaseDecision(2)})  # green_elapsed too small
        assert signal.yellow == 0 and signal.active == 0

    def test_invalid_decision_clamps_and_logs(self):
        episode = Episode(zero_demand(), collect_step_log=True)
        for _ in range(6):
            episode.step({})
        episode.step({"x0_0": PhaseDecision(17)})
        assert episode.signals["x0_0"].active == 0
        assert any(r["kind"] == "invalid_decision" for r in episode._step_log)

    def test_observation_of_empty_lane(self):
        episode = Episode(zero_demand())
        obs = episode.observe("x0_0")
        inlane, outlane = obs[0][0]
        assert inlane.num_vehicle == 0
        assert inlane.num_waiting_vehicle == 0
        assert inlane.vehicle_dist == episode.network.link_length

    def test_observation_of_jam_spaced_queue(self):
        episode = Episode(zero_demand())
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
        scenario = make_scenario("T1", rows=1, cols=1, duration=30, demand_scale=0.5, seed=4)
        episode = Episode(scenario)
        episode.step({})
        episode.step({})
        moving = [
            v
            for state in episode.links.values()
            for v in state.running
        ]
        assert moving
        assert all(not v.waiting for v in moving)

    def test_determinism_same_seed(self):
        scenario = make_scenario("T1", rows=2, cols=2, duration=150, demand_scale=1.0, seed=6)
        a = run_episode(scenario, HoldController(), seed=6)
        b = run_episode(scenario, HoldController(), seed=6)
        assert a.metrics == b.metrics
        assert a.vehicle_log == b.vehicle_log

    def test_distinct_seeds_differ(self):
        scenario = make_scenario("T1", rows=2, cols=2, duration=150, demand_scale=1.0)
        a = run_episode(scenario, HoldController(), seed=1)
        b = run_episode(scenario, HoldController(), seed=2)
        assert a.metrics != b.metrics

    def test_vehicle_conservation_every_step(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=120, demand_scale=1.5, seed=8)
        episode = Episode(scenario)
        for _ in range(scenario.duration):
            episode.step({})
            assert len(episode.vehicles) == episode.in_network_count() + episode.completed

    def test_waiting_monotonicity(self):
        scenario = make_scenario("T1", rows=1, cols=1, duration=120, demand_scale=1.5, seed=8)
        episode = Episode(scenario)
        last: dict[int, float] = {}
        for _ in range(scenario.duration):
            episode.step({})
            for vehicle in episode.vehicles:
                assert vehicle.cumulative_wait >= last.get(vehicle.id, 0.0)
                last[vehicle.id] = vehicle.cumulative_wait

    def test_incident_blocks_service_then_recovers(self):
        scenario = make_scenario("I1", rows=2, cols=2, duration=30, demand_scale=0.0, seed=3)
        incident = replace(scenario.incident, start=5.0, duration=10.0)
        scenario = replace(scenario, incident=incident, demand={})
        episode = Episode(scenario)
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
        assert episode.signals[node_id].active == 2
        assert len(link.queues["s"]) == 1  # still stuck
        for _ in range(4):
            episode.step(serve_blocked_lane)
        assert not link.blocked
        assert not blocker.frozen
        for _ in range(12):
            episode.step(serve_blocked_lane)
        assert len(link.queues["s"]) == 0  # served after recovery

    def test_bus_person_delay_matches_brute_force(self):
        scenario = make_scenario("B1", rows=2, cols=2, duration=300, demand_scale=0.6, seed=5)
        result = run_episode(scenario, HoldController(), seed=5)
        log = result.vehicle_log
        assert any(r.vclass == "bus" for r in log)
        expected = sum(r.occupancy * r.delay for r in log) / sum(r.occupancy for r in log)
        assert result.metrics.bus_person_delay == pytest.approx(expected, rel=1e-12)

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


def overtaken(link_state) -> bool:
    """True when running order (entry order) differs from position
    order, as it does once a faster vehicle passes a slower one."""
    positions = [v.pos for v in link_state.running]
    return positions != sorted(positions, reverse=True)


class TestObservationOracle:
    """Episode.observe against sorted distance lists, at every
    intersection, every 5 s of max-pressure episodes and at every step
    with a queue behind a blockage or an overtaken vehicle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("family", ["T1", "I1", "E2", "B2"])
    def test_observe_matches_sorted_distances(self, family, size, seed):
        # I1's blockage runs from 600 s to 900 s; check during and after it.
        duration = 1000 if family == "I1" else 400
        scenario = make_scenario(family, rows=size, cols=size, duration=duration, seed=seed)
        episode = Episode(scenario)
        controller = MaxPressureController()
        seen = set()
        for _ in range(duration):
            notable = set()
            for state in episode.links.values():
                if any(state.queues[m] for m in state.blocked_head_pos):
                    notable.add("queue behind blockage")
                if overtaken(state):
                    notable.add("overtaken")
            if notable or episode.t % 5 == 0:
                for node_id in episode.network.intersection_ids:
                    assert_same_observations(episode.observe(node_id), reference_observe(episode, node_id))
            seen |= notable
            episode.step({
                node_id: controller.decide(StepContext(episode.t, node_id, episode))
                for node_id in episode.network.intersection_ids
                if not episode.signals[node_id].in_transition
            })
        if family == "I1":
            assert "queue behind blockage" in seen
        if family == "E2":
            assert "overtaken" in seen


class DecisionLog:
    """Wraps a controller and records which (t, intersection) decided."""

    def __init__(self, inner):
        self.inner = inner
        self.decided = []

    def decide(self, ctx):
        self.decided.append((ctx.t, ctx.intersection_id))
        return self.inner.decide(ctx)


class TestLazyObservation:
    @pytest.fixture()
    def observed(self, monkeypatch):
        """Record Episode.observe calls as (t, intersection), and
        LinkState.observe calls as link ids with a None at each step."""
        calls = {"episode": [], "link": []}
        episode_observe, link_observe, step = Episode.observe, LinkState.observe, Episode.step

        def count_episode(episode, node_id):
            calls["episode"].append((episode.t, node_id))
            return episode_observe(episode, node_id)

        def count_link(state):
            calls["link"].append(state.link.id)
            return link_observe(state)

        def mark_step(episode, decisions):
            calls["link"].append(None)
            return step(episode, decisions)

        monkeypatch.setattr(Episode, "observe", count_episode)
        monkeypatch.setattr(LinkState, "observe", count_link)
        monkeypatch.setattr(Episode, "step", mark_step)
        return calls

    def scenario(self):
        return make_scenario("T1", rows=2, cols=2, duration=300, seed=4)

    def test_fixed_time_never_observes(self, observed):
        controller = DecisionLog(FixedTimeController())
        run_episode(self.scenario(), controller)
        assert controller.decided
        assert observed["episode"] == []
        assert all(link_id is None for link_id in observed["link"])

    def test_max_pressure_observes_once_per_decision(self, observed):
        controller = DecisionLog(MaxPressureController())
        run_episode(self.scenario(), controller)
        assert observed["episode"] == controller.decided
        # each link is observed at most once between two steps
        per_step: list[str] = []
        for link_id in observed["link"] + [None]:
            if link_id is None:
                assert len(per_step) == len(set(per_step))
                per_step = []
            else:
                per_step.append(link_id)
