"""Point-queue microscopic simulation of the signalized grid.

Vehicles traverse links at cruise speed and stack in vertical queues,
one FIFO queue per lane-link (approach link x movement). Green lane-links
serve their queue head at saturation flow; a phase change inserts a 3 s
all-red transition, and a new phase must hold green for at least 5 s
before the next change (the handcrafted preemption override is the one
exception). An episode is fully determined by (scenario, controller,
seed): arrivals are Poisson draws and routes are choices from a single
seeded generator consumed in a fixed order.

Model constants follow common microsimulation practice: 7.5 m jam
spacing, 0.5 veh/s/lane saturation flow, 13.9 m/s free-flow speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import (
    MOVEMENTS,
    NUM_PHASES,
    PHASE_TABLE,
    Link,
    canonical_route,
    heading_after,
    opposite,
    reachable_exits,
    turn_movement,
)
from .scenario import ScenarioConfig, scheduled_bus_departures, scheduled_emergencies

JAM_SPACING = 7.5  # m between queued vehicles
SATURATION_FLOW = 0.5  # veh/s per lane-link under green
YELLOW_STEPS = 3
MIN_GREEN_STEPS = 5
WAITING_SPEED = 0.1  # m/s; below this a vehicle counts as waiting
INCIDENT_TAIL = 300.0  # s after blockage end still charged to the incident window

# Lane-links of each phase in a fixed evaluation order.
SORTED_PHASE_TABLE = tuple(tuple(sorted(p)) for p in PHASE_TABLE)

VCLASS_OCCUPANCY = {"normal": 1.5, "bus": 30.0, "emergency": 1.5}
VCLASS_SPEED = {"normal": 13.9, "bus": 13.9, "emergency": 20.0}


@dataclass(frozen=True)
class LaneObservation:
    """What a skill sees for one lane of one lane-link."""

    num_vehicle: int
    num_waiting_vehicle: int
    vehicle_dist: float


@dataclass(frozen=True)
class PhaseDecision:
    phase: int
    override_min_green: bool = False


@dataclass(frozen=True)
class VehicleRecord:
    id: int
    vclass: str
    occupancy: float
    entry_time: int
    exit_time: int | None
    delay: float


@dataclass(frozen=True)
class SimulationMetrics:
    """Episode-level aggregates. Event-specific fields are present only
    when the scenario injected that vehicle class / disturbance."""

    avg_delay: float
    avg_queue: float
    throughput: int
    emergency_delay: float | None
    bus_person_delay: float | None
    normal_delay: float
    incident_window_delay: float | None
    per_step_queues: tuple[float, ...]
    per_step_delays: tuple[float, ...]
    vehicles_entered: int

    def as_dict(self) -> dict[str, float | int | None]:
        return {
            "avg_delay": self.avg_delay,
            "avg_queue": self.avg_queue,
            "throughput": self.throughput,
            "emergency_delay": self.emergency_delay,
            "bus_person_delay": self.bus_person_delay,
            "normal_delay": self.normal_delay,
            "incident_window_delay": self.incident_window_delay,
            "vehicles_entered": self.vehicles_entered,
        }


@dataclass(frozen=True)
class EpisodeResult:
    metrics: SimulationMetrics
    vehicle_log: tuple[VehicleRecord, ...]
    step_log: tuple[dict, ...]
    controller_faults: int


class Vehicle:
    __slots__ = (
        "id",
        "vclass",
        "occupancy",
        "cruise",
        "route",
        "leg",
        "pos",
        "movement",
        "queued",
        "frozen",
        "entry_time",
        "exit_time",
        "cumulative_wait",
        "stopped_since",
    )

    def __init__(self, vid: int, vclass: str, route: tuple[str, ...], entry_time: int):
        self.id = vid
        self.vclass = vclass
        self.occupancy = VCLASS_OCCUPANCY[vclass]
        self.cruise = VCLASS_SPEED[vclass]
        self.route = route
        self.leg = 0
        self.pos = 0.0
        self.movement: str | None = None
        self.queued = False
        self.frozen = False
        self.entry_time = entry_time
        self.exit_time: int | None = None
        self.cumulative_wait = 0.0
        self.stopped_since: int | None = None

    @property
    def waiting(self) -> bool:
        return self.queued or self.frozen

    def record(self) -> VehicleRecord:
        return VehicleRecord(
            id=self.id,
            vclass=self.vclass,
            occupancy=self.occupancy,
            entry_time=self.entry_time,
            exit_time=self.exit_time,
            delay=self.cumulative_wait,
        )


class LinkState:
    __slots__ = ("link", "running", "queues", "credit", "blocked", "blocked_head_pos")

    def __init__(self, link: Link):
        self.link = link
        self.running: list[Vehicle] = []
        self.queues: dict[str, list[Vehicle]] = {m: [] for m in MOVEMENTS}
        self.credit: dict[str, float] = {m: 0.0 for m in MOVEMENTS}
        self.blocked: set[str] = set()
        # Position (m from link start) of a mid-link blockage, per movement.
        self.blocked_head_pos: dict[str, float] = {}

    def queue_anchor(self, movement: str) -> float:
        """Distance from the stop line at which this movement's queue
        starts (0 normally; behind the blockage while one is active)."""
        head = self.blocked_head_pos.get(movement)
        if head is None:
            return 0.0
        return (self.link.length - head) + JAM_SPACING

    def waiting_count(self) -> int:
        queued = sum(len(q) for q in self.queues.values())
        frozen = sum(1 for v in self.running if v.frozen)
        return queued + frozen

    def vehicle_count(self) -> int:
        return len(self.running) + sum(len(q) for q in self.queues.values())

    def distances(self, movement: str | None = None) -> list[float]:
        """Distances to the stop line for this link's vehicles, either
        for one movement's lane or (movement=None) the whole link."""
        out: list[float] = []
        length = self.link.length
        movements = MOVEMENTS if movement is None else (movement,)
        for m in movements:
            anchor = self.queue_anchor(m)
            for i, _ in enumerate(self.queues[m]):
                out.append(anchor + i * JAM_SPACING)
        for vehicle in self.running:
            if movement is None or vehicle.movement == movement:
                out.append(length - vehicle.pos)
        return out


def mean_gap(distances: list[float], link_length: float) -> float:
    """Mean inter-vehicle gap; for <=1 vehicle, length/(n+1) keeps the
    figure bounded and monotone in occupancy."""
    n = len(distances)
    if n <= 1:
        return link_length / (n + 1)
    ordered = sorted(distances)
    return (ordered[-1] - ordered[0]) / (n - 1)


class SignalState:
    __slots__ = ("active", "pending", "yellow", "green_elapsed")

    def __init__(self):
        self.active = 0
        self.pending: int | None = None
        self.yellow = 0
        self.green_elapsed = 0

    @property
    def in_transition(self) -> bool:
        return self.yellow > 0


@dataclass
class StepContext:
    """Everything a controller may look at when deciding one
    intersection's phase for one step."""

    t: int
    intersection_id: str
    observations: list[list[tuple[LaneObservation, LaneObservation]]]
    episode: "Episode"

    def log(self, record: dict) -> None:
        self.episode.log_record(record)

    def record_fault(self, message: str) -> None:
        self.episode.controller_faults += 1
        self.episode.log_record(
            {
                "kind": "controller_fault",
                "time": self.t,
                "intersection": self.intersection_id,
                "message": message,
            }
        )


class Episode:
    """Mutable state of one simulation run. Confine an instance to a
    single thread; run several instances concurrently instead."""

    def __init__(self, scenario: ScenarioConfig, seed: int | None = None, collect_step_log: bool = False):
        self.scenario = scenario
        self.network = scenario.build_network()
        self.seed = scenario.seed if seed is None else seed
        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.t = 0
        self.links: dict[str, LinkState] = {
            link_id: LinkState(link) for link_id, link in sorted(self.network.links.items())
        }
        self.signals: dict[str, SignalState] = {
            node: SignalState() for node in self.network.intersection_ids
        }
        self.queue_history: dict[str, list[int]] = {
            node: [] for node in self.network.intersection_ids
        }
        self.vehicles: list[Vehicle] = []
        self.completed = 0
        self.controller_faults = 0
        self._collect_step_log = collect_step_log
        self._step_log: list[dict] = []
        self._next_vehicle_id = 0
        self._per_step_queues: list[float] = []
        self._per_step_delays: list[float] = []
        self._total_wait = 0.0
        self._incident_vehicle: Vehicle | None = None
        self._emergency_times = list(scheduled_emergencies(scenario))
        self._bus_times = [
            (line, list(scheduled_bus_departures(scenario, line))) for line in scenario.bus_lines
        ]
        self._window_wait = 0.0
        self._window_vehicles: set[int] = set()
        self._reachable_cache: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # spawning

    def _new_vehicle(self, vclass: str, route: tuple[str, ...]) -> Vehicle:
        vehicle = Vehicle(self._next_vehicle_id, vclass, route, self.t)
        self._next_vehicle_id += 1
        self.vehicles.append(vehicle)
        link_state = self.links[route[0]]
        vehicle.movement = self._movement_on(route, 0)
        link_state.running.append(vehicle)
        return vehicle

    def _movement_on(self, route: tuple[str, ...], leg: int) -> str | None:
        link = self.network.links[route[leg]]
        if leg + 1 >= len(route):
            return None
        nxt = self.network.links[route[leg + 1]]
        return turn_movement(link.direction, nxt.direction)

    def _sample_route(self, entry_link: str) -> tuple[str, ...]:
        exits = self._reachable_cache.get(entry_link)
        if exits is None:
            exits = reachable_exits(self.network, entry_link)
            self._reachable_cache[entry_link] = exits
        choice = exits[int(self.rng.integers(len(exits)))]
        return tuple(canonical_route(self.network, entry_link, choice))

    def _spawn_arrivals(self) -> None:
        for entry_link in self.network.entry_links:
            rate = self.scenario.rate_at(entry_link, self.t)
            if rate <= 0:
                continue
            for _ in range(int(self.rng.poisson(rate))):
                self._new_vehicle("normal", self._sample_route(entry_link))

    def _spawn_scheduled(self) -> None:
        while self._emergency_times and self._emergency_times[0] <= self.t:
            self._emergency_times.pop(0)
            entry = self.network.entry_links[int(self.rng.integers(len(self.network.entry_links)))]
            self._new_vehicle("emergency", self._sample_route(entry))
        for line, times in self._bus_times:
            while times and times[0] <= self.t:
                times.pop(0)
                route = canonical_route(self.network, line.entry_link, line.exit_link)
                if route is not None:
                    self._new_vehicle("bus", tuple(route))

    def _straight_route_from(self, link_id: str) -> tuple[str, ...]:
        """Continue straight from a link until the network boundary."""
        route = [link_id]
        link = self.network.links[link_id]
        while link.kind != "exit":
            node = self.network.intersections[link.dst]
            link = self.network.links[node.exits[link.direction]]
            route.append(link.id)
        return tuple(route)

    def _update_incident(self) -> None:
        incident = self.scenario.incident
        if incident is None:
            return
        if self.t == int(incident.start):
            link_state = self.links[incident.link]
            pos = max(0.0, link_state.link.length - incident.position_from_stopline)
            vehicle = self._new_vehicle("normal", self._straight_route_from(incident.link))
            vehicle.pos = pos
            vehicle.frozen = True
            vehicle.stopped_since = self.t
            vehicle.movement = incident.movement
            link_state.blocked.add(incident.movement)
            link_state.blocked_head_pos[incident.movement] = pos
            self._incident_vehicle = vehicle
            self.log_record(
                {"kind": "incident_start", "time": self.t, "link": incident.link}
            )
        elif self.t == int(incident.end) and self._incident_vehicle is not None:
            link_state = self.links[incident.link]
            link_state.blocked.discard(incident.movement)
            link_state.blocked_head_pos.pop(incident.movement, None)
            vehicle = self._incident_vehicle
            vehicle.frozen = False
            vehicle.stopped_since = None
            self._incident_vehicle = None
            self.log_record({"kind": "incident_end", "time": self.t, "link": incident.link})

    # ------------------------------------------------------------------
    # observation

    def observe(self, intersection_id: str) -> list[list[tuple[LaneObservation, LaneObservation]]]:
        """Per-phase, per-lane-link (inlane, outlane) observations."""
        node = self.network.intersections[intersection_id]
        out: list[list[tuple[LaneObservation, LaneObservation]]] = []
        for k in range(NUM_PHASES):
            phase_obs: list[tuple[LaneObservation, LaneObservation]] = []
            for side, movement in SORTED_PHASE_TABLE[k]:
                in_state = self.links[node.approaches[side]]
                in_dists = in_state.distances(movement)
                in_wait = len(in_state.queues[movement]) + sum(
                    1 for v in in_state.running if v.frozen and v.movement == movement
                )
                inlane = LaneObservation(
                    num_vehicle=len(in_dists),
                    num_waiting_vehicle=in_wait,
                    vehicle_dist=mean_gap(in_dists, in_state.link.length),
                )
                heading = heading_after(opposite(side), movement)
                out_state = self.links[node.exits[heading]]
                out_dists = out_state.distances(None)
                outlane = LaneObservation(
                    num_vehicle=len(out_dists),
                    num_waiting_vehicle=out_state.waiting_count(),
                    vehicle_dist=mean_gap(out_dists, out_state.link.length),
                )
                phase_obs.append((inlane, outlane))
            out.append(phase_obs)
        return out

    # ------------------------------------------------------------------
    # dynamics

    def step(self, decisions: dict[str, PhaseDecision | None]) -> None:
        """Advance one second. ``decisions`` maps intersection id to the
        requested phase (None or current phase holds)."""
        self._spawn_arrivals()
        self._spawn_scheduled()
        self._update_incident()
        self._apply_decisions(decisions)
        self._serve_green()
        self._advance_vehicles()
        self._accrue()
        self.t += 1

    def _apply_decisions(self, decisions: dict[str, PhaseDecision | None]) -> None:
        for node_id in self.network.intersection_ids:
            signal = self.signals[node_id]
            if signal.yellow > 0:
                signal.yellow -= 1
                if signal.yellow == 0 and signal.pending is not None:
                    signal.active = signal.pending
                    signal.pending = None
                    signal.green_elapsed = 0
                continue
            signal.green_elapsed += 1
            decision = decisions.get(node_id)
            if decision is None:
                continue
            target = decision.phase
            if not 0 <= target < NUM_PHASES:
                self.log_record(
                    {
                        "kind": "invalid_decision",
                        "time": self.t,
                        "intersection": node_id,
                        "phase": target,
                    }
                )
                continue
            if target == signal.active:
                continue
            if signal.green_elapsed < MIN_GREEN_STEPS and not decision.override_min_green:
                continue
            signal.pending = target
            signal.yellow = YELLOW_STEPS

    def _serve_green(self) -> None:
        for node_id in self.network.intersection_ids:
            signal = self.signals[node_id]
            node = self.network.intersections[node_id]
            if signal.yellow > 0:
                continue
            for side, movement in SORTED_PHASE_TABLE[signal.active]:
                link_state = self.links[node.approaches[side]]
                if movement in link_state.blocked:
                    continue
                queue = link_state.queues[movement]
                if not queue:
                    link_state.credit[movement] = 0.0
                    continue
                link_state.credit[movement] += SATURATION_FLOW
                while link_state.credit[movement] >= 1.0 and queue:
                    link_state.credit[movement] -= 1.0
                    self._release(queue.pop(0))

    def _release(self, vehicle: Vehicle) -> None:
        vehicle.queued = False
        vehicle.stopped_since = None
        vehicle.leg += 1
        vehicle.pos = 0.0
        vehicle.movement = self._movement_on(vehicle.route, vehicle.leg)
        self.links[vehicle.route[vehicle.leg]].running.append(vehicle)

    def _advance_vehicles(self) -> None:
        for link_id in self.links:
            link_state = self.links[link_id]
            if not link_state.running:
                continue
            link = link_state.link
            still_running: list[Vehicle] = []
            for vehicle in link_state.running:
                if vehicle.frozen:
                    still_running.append(vehicle)
                    continue
                vehicle.pos += vehicle.cruise
                if link.kind == "exit":
                    if vehicle.pos >= link.length:
                        vehicle.exit_time = self.t
                        self.completed += 1
                    else:
                        still_running.append(vehicle)
                    continue
                movement = vehicle.movement or "s"
                queue = link_state.queues[movement]
                threshold = (
                    link.length
                    - link_state.queue_anchor(movement)
                    - (len(queue) + 1) * JAM_SPACING
                )
                if vehicle.pos >= threshold:
                    vehicle.queued = True
                    vehicle.stopped_since = self.t
                    queue.append(vehicle)
                else:
                    still_running.append(vehicle)
            link_state.running = still_running

    def _accrue(self) -> None:
        incident = self.scenario.incident
        in_window = incident is not None and incident.start <= self.t <= incident.end + INCIDENT_TAIL
        total_waiting = 0
        per_node_waiting: dict[str, int] = {}
        for node_id in self.network.intersection_ids:
            node = self.network.intersections[node_id]
            count = sum(self.links[node.approaches[side]].waiting_count() for side in node.approaches)
            per_node_waiting[node_id] = count
            self.queue_history[node_id].append(count)
            total_waiting += count
        for link_state in self.links.values():
            for queue in link_state.queues.values():
                for vehicle in queue:
                    vehicle.cumulative_wait += 1.0
            for vehicle in link_state.running:
                if vehicle.frozen:
                    vehicle.cumulative_wait += 1.0
                if in_window:
                    self._window_vehicles.add(vehicle.id)
                    if vehicle.frozen:
                        self._window_wait += 1.0
            if in_window:
                for queue in link_state.queues.values():
                    for vehicle in queue:
                        self._window_vehicles.add(vehicle.id)
                        self._window_wait += 1.0
        self._total_wait += total_waiting
        n_nodes = len(self.network.intersections)
        self._per_step_queues.append(total_waiting / n_nodes)
        entered = max(1, len(self.vehicles))
        self._per_step_delays.append(self._total_wait / entered)
        if self._collect_step_log:
            for node_id in self.network.intersection_ids:
                signal = self.signals[node_id]
                self._step_log.append(
                    {
                        "kind": "step",
                        "time": self.t,
                        "intersection": node_id,
                        "phase": signal.active,
                        "yellow": signal.yellow,
                        "queue": per_node_waiting[node_id],
                    }
                )

    # ------------------------------------------------------------------
    # logging / results

    def log_record(self, record: dict) -> None:
        if self._collect_step_log:
            self._step_log.append(record)

    def finish(self) -> EpisodeResult:
        waits = [v.cumulative_wait for v in self.vehicles]
        avg_delay = float(np.mean(waits)) if waits else 0.0
        avg_queue = float(np.mean(self._per_step_queues)) if self._per_step_queues else 0.0

        emergency_waits = [v.cumulative_wait for v in self.vehicles if v.vclass == "emergency"]
        normal_waits = [v.cumulative_wait for v in self.vehicles if v.vclass == "normal"]
        has_bus = any(v.vclass == "bus" for v in self.vehicles)
        bus_person_delay = None
        if has_bus:
            weights = sum(v.occupancy for v in self.vehicles)
            bus_person_delay = float(
                sum(v.occupancy * v.cumulative_wait for v in self.vehicles) / weights
            )
        incident_delay = None
        if self.scenario.incident is not None:
            incident_delay = self._window_wait / max(1, len(self._window_vehicles))

        metrics = SimulationMetrics(
            avg_delay=avg_delay,
            avg_queue=avg_queue,
            throughput=self.completed,
            emergency_delay=float(np.mean(emergency_waits)) if emergency_waits else None,
            bus_person_delay=bus_person_delay,
            normal_delay=float(np.mean(normal_waits)) if normal_waits else 0.0,
            incident_window_delay=incident_delay,
            per_step_queues=tuple(self._per_step_queues),
            per_step_delays=tuple(self._per_step_delays),
            vehicles_entered=len(self.vehicles),
        )
        return EpisodeResult(
            metrics=metrics,
            vehicle_log=tuple(v.record() for v in self.vehicles),
            step_log=tuple(self._step_log),
            controller_faults=self.controller_faults,
        )

    def in_network_count(self) -> int:
        return sum(state.vehicle_count() for state in self.links.values())


def run_episode(
    scenario: ScenarioConfig,
    controller,
    seed: int | None = None,
    *,
    collect_step_log: bool = False,
) -> EpisodeResult:
    """Run a full episode under a controller.

    The controller must provide ``decide(ctx: StepContext) ->
    PhaseDecision | None`` and may provide ``reset(network)``. Identical
    (scenario, controller, seed) triples produce bit-identical results.
    """
    episode = Episode(scenario, seed=seed, collect_step_log=collect_step_log)
    if hasattr(controller, "reset"):
        controller.reset(episode.network)
    for _ in range(scenario.duration):
        decisions: dict[str, PhaseDecision | None] = {}
        for node_id in episode.network.intersection_ids:
            if episode.signals[node_id].in_transition:
                continue
            ctx = StepContext(
                t=episode.t,
                intersection_id=node_id,
                observations=episode.observe(node_id),
                episode=episode,
            )
            decisions[node_id] = controller.decide(ctx)
        episode.step(decisions)
    return episode.finish()
