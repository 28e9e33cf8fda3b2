"""Point-queue microscopic simulation of the signalized grid.

Vehicles traverse links at cruise speed and stack in vertical queues,
one FIFO queue per lane-link (approach link x movement). Green lane-links
serve their queue head at saturation flow; a phase change inserts a 3 s
all-red transition, and a new phase must hold green for at least 5 s
before the next change (the handcrafted preemption override is the one
exception). An episode is fully determined by (scenario, controller,
seed): arrivals are Poisson draws and routes are choices from a single
seeded generator consumed in a fixed order. No signal decision reaches
that generator, so the vehicles entering at each step are a function of
(scenario, seed) alone: ``Arrivals`` holds them, and every episode of
one (scenario, seed) may spawn from the same ``Arrivals``.

Model constants follow common microsimulation practice: 7.5 m jam
spacing, 0.5 veh/s/lane saturation flow, 13.9 m/s free-flow speed.

Each intersection has one ``Junction`` record, built once per episode
and holding everything of that intersection: its signal, its
queued-vehicle count and history with a rolling sorted window of the
history, its approach links, each phase's lane-links, a max-pressure
table of queue lists and ``blocked`` sets, and the live views that
controllers observe. The step loop, ``Episode.step``'s per-intersection
passes, the controllers and the event detector iterate these records
instead of looking up signals, nodes and links by id every step.

A view is a ``LaneView`` per approach lane-link or a ``LinkView`` per
exit link. It stores no figure; each of ``num_vehicle``,
``num_waiting_vehicle`` and ``vehicle_dist`` is read from the link state
when it is asked for, so a controller pays only for the figures it
reads, and a read after ``Episode.step`` sees the new state. Vehicle
counts are kept by the link state as vehicles enter and leave it, so
reading one is O(1).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .network import (
    MOVEMENTS,
    NUM_PHASES,
    PHASE_TABLE,
    Intersection,
    Link,
    grid_routes,
    heading_after,
    opposite,
    turn_movement,
)
from .scenario import ScenarioConfig, scheduled_bus_departures, scheduled_emergencies

JAM_SPACING = 7.5  # m between queued vehicles
SATURATION_FLOW = 0.5  # veh/s per lane-link under green
YELLOW_STEPS = 3
MIN_GREEN_STEPS = 5
HISTORY_WINDOW = 300  # steps of queue history a junction keeps sorted
WAITING_SPEED = 0.1  # m/s; below this a vehicle counts as waiting
INCIDENT_TAIL = 300.0  # s after blockage end still charged to the incident window

# Lane-links of each phase in a fixed evaluation order.
SORTED_PHASE_TABLE = tuple(tuple(sorted(p)) for p in PHASE_TABLE)

VCLASS_OCCUPANCY = {"normal": 1.5, "bus": 30.0, "emergency": 1.5}
VCLASS_SPEED = {"normal": 13.9, "bus": 13.9, "emergency": 20.0}


@dataclass(frozen=True)
class PhaseDecision:
    phase: int
    override_min_green: bool = False


# One shared decision per phase; a decision is immutable, so controllers
# return these rather than build one per intersection and step.
PHASE_DECISIONS = tuple(PhaseDecision(k) for k in range(NUM_PHASES))


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


@dataclass(frozen=True)
class EpisodeResult:
    metrics: SimulationMetrics
    vehicle_log: tuple[VehicleRecord, ...]
    step_log: tuple[dict, ...]
    controller_faults: int


class Vehicle:
    """One vehicle. ``cumulative_wait`` holds the seconds of its finished
    waits; while it waits (queued, or frozen as an incident blocker)
    ``stopped_since`` is the time the open wait began, and
    ``Episode.delay_of`` adds that open interval."""

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


class LinkState:
    """Vehicles on one link. The queue lists, the ``blocked`` set and
    ``lane_counts`` are created once and only ever changed in place, so
    views and records may hold them; ``running`` is replaced when a
    vehicle leaves it.

    ``count`` is the number of vehicles on the link (running and
    queued), and ``lane_counts[m]`` the number whose movement is ``m``
    (None on an exit link): those in ``queues[m]`` plus the running ones.
    The episode changes them only where a vehicle enters the link, leaves
    it or is given another movement."""

    __slots__ = ("link", "running", "queues", "count", "lane_counts", "credit", "blocked", "blocked_head_pos")

    def __init__(self, link: Link):
        self.link = link
        self.running: list[Vehicle] = []
        self.queues: dict[str, list[Vehicle]] = {m: [] for m in MOVEMENTS}
        self.count = 0
        self.lane_counts: dict[str | None, int] = dict.fromkeys((*MOVEMENTS, None), 0)
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


class LaneView:
    """Live figures of one movement's lane of a link: what a skill sees
    as the inlane of a lane-link. A queued vehicle stands ``anchor + i *
    JAM_SPACING`` from the stop line and a running one ``length - pos``.
    The one frozen vehicle, the incident blocker, is counted as waiting
    through ``blocked``: ``_update_incident`` sets both together."""

    __slots__ = ("_state", "_movement", "_queue", "_blocked", "_counts")

    def __init__(self, state: LinkState, movement: str):
        self._state = state
        self._movement = movement
        self._queue = state.queues[movement]
        self._blocked = state.blocked
        self._counts = state.lane_counts

    @property
    def num_waiting_vehicle(self) -> int:
        return len(self._queue) + (self._movement in self._blocked)

    @property
    def num_vehicle(self) -> int:
        return self._counts[self._movement]

    @property
    def vehicle_dist(self) -> float:
        state, movement = self._state, self._movement
        length = state.link.length
        n = len(self._queue)
        if n:
            lo = state.queue_anchor(movement)
            hi = lo + (n - 1) * JAM_SPACING
        else:
            lo, hi = math.inf, -math.inf
        for vehicle in state.running:
            if vehicle.movement == movement:
                n += 1
                dist = length - vehicle.pos
                if dist < lo:
                    lo = dist
                if dist > hi:
                    hi = dist
        return mean_gap(n, lo, hi, length)


class LinkView:
    """Live figures of a whole link: what a skill sees as the outlane of
    a lane-link. Up to three lane-links of an intersection share one exit
    link; ``control.score_phases`` reads each exit's figures once per
    decision."""

    __slots__ = ("_state", "_queues", "_blocked")

    def __init__(self, state: LinkState):
        self._state = state
        self._queues = tuple(state.queues.values())
        self._blocked = state.blocked

    @property
    def num_waiting_vehicle(self) -> int:
        left, straight, right = self._queues
        return len(left) + len(straight) + len(right) + len(self._blocked)

    @property
    def num_vehicle(self) -> int:
        return self._state.count

    @property
    def vehicle_dist(self) -> float:
        state = self._state
        length = state.link.length
        n = 0
        lo, hi = math.inf, -math.inf
        for movement, queue in state.queues.items():
            k = len(queue)
            if k:
                n += k
                anchor = state.queue_anchor(movement)
                if anchor < lo:
                    lo = anchor
                far = anchor + (k - 1) * JAM_SPACING
                if far > hi:
                    hi = far
        for vehicle in state.running:
            n += 1
            dist = length - vehicle.pos
            if dist < lo:
                lo = dist
            if dist > hi:
                hi = dist
        return mean_gap(n, lo, hi, length)


# Per phase, the (inlane, outlane) views of its lane-links.
PhaseViews = tuple[tuple[tuple[LaneView, LinkView], ...], ...]


def mean_gap(n: int, lo: float, hi: float, link_length: float) -> float:
    """Mean inter-vehicle gap of ``n`` vehicles whose distances to the
    stop line span ``[lo, hi]``; for <=1 vehicle, length/(n+1) keeps the
    figure bounded and monotone in occupancy."""
    if n <= 1:
        return link_length / (n + 1)
    return (hi - lo) / (n - 1)


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


class Junction:
    """One intersection's record, built once per episode, so that the
    per-step loops, the controllers and the event detector index tables
    instead of looking up signals, nodes and links by id:

    - ``signal``, its ``SignalState``;
    - ``queued``, the vehicles queued on its approaches now, and
      ``history``, that count per step, whose trailing
      ``HISTORY_WINDOW`` values ``sorted_history`` reads in ascending
      order;
    - ``approaches``, its (side, approach ``LinkState``) pairs, sides in
      sorted order;
    - ``lanes``, per phase, each lane-link's (approach ``LinkState``,
      movement, queue list) in evaluation order;
    - ``views``, per phase, each lane-link's (inlane ``LaneView``,
      outlane ``LinkView``) in the same order; the lane-links that
      leave by one exit link share its one ``LinkView``;
    - the max-pressure table: ``exits``, the (left, straight, right)
      queue lists and the ``blocked`` set of each of its four exit
      links, and ``pressure``, per phase, each lane-link's (queue list,
      approach ``blocked`` set, movement, index into ``exits``).

    The lists and sets are the link states' own, changed only in place,
    so the record stays valid for the whole episode."""

    __slots__ = ("id", "signal", "queued", "history", "approaches", "lanes", "views", "exits", "pressure",
                 "_sorted", "_consumed")

    def __init__(self, node: Intersection, links: dict[str, LinkState]):
        self.id = node.id
        self.signal = SignalState()
        self.queued = 0
        self.history: list[int] = []
        self.approaches = tuple((side, links[node.approaches[side]]) for side in sorted(node.approaches))
        headings = tuple(sorted(node.exits))
        exit_states = [links[node.exits[heading]] for heading in headings]
        self.exits = tuple((*state.queues.values(), state.blocked) for state in exit_states)
        exit_views = [LinkView(state) for state in exit_states]
        lanes = []
        views = []
        pressure = []
        for lane_links in SORTED_PHASE_TABLE:
            phase_lanes = []
            phase_views = []
            phase_pressure = []
            for side, movement in lane_links:
                state = links[node.approaches[side]]
                queue = state.queues[movement]
                exit_index = headings.index(heading_after(opposite(side), movement))
                phase_lanes.append((state, movement, queue))
                phase_views.append((LaneView(state, movement), exit_views[exit_index]))
                phase_pressure.append((queue, state.blocked, movement, exit_index))
            lanes.append(tuple(phase_lanes))
            views.append(tuple(phase_views))
            pressure.append(tuple(phase_pressure))
        self.lanes = tuple(lanes)
        self.views: PhaseViews = tuple(views)
        self.pressure = tuple(pressure)
        # the ascending trailing window, and the history length it has consumed
        self._sorted: list[int] = []
        self._consumed = 0

    def sorted_history(self) -> list[int]:
        """The trailing ``HISTORY_WINDOW`` values of ``history`` in
        ascending order, caught up by index: each value enters once
        (insort) and leaves once (bisect + del). The list is the
        junction's own; do not modify it."""
        data = self._sorted
        history = self.history
        for i in range(self._consumed, len(history)):
            insort(data, history[i])
            if i >= HISTORY_WINDOW:
                del data[bisect_left(data, history[i - HISTORY_WINDOW])]
        self._consumed = len(history)
        return data


class StepContext:
    """Everything a controller may look at when deciding one
    intersection's phase for one step: ``junction`` is the
    intersection's record. ``observations`` are its live views
    (``Episode.observe``), fetched on first read; each figure is
    computed only when read, so a controller pays for none it does not
    read. They are valid until the next step."""

    __slots__ = ("t", "intersection_id", "episode", "junction", "_observations")

    def __init__(self, t: int, episode: "Episode", junction: Junction):
        self.t = t
        self.intersection_id = junction.id
        self.episode = episode
        self.junction = junction
        self._observations: PhaseViews | None = None

    @property
    def observations(self) -> PhaseViews:
        if self._observations is None:
            self._observations = self.episode.observe(self.intersection_id)
        return self._observations

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


# The vehicles entering at one step, as (vclass, route) pairs.
StepArrivals = tuple[tuple[str, tuple[str, ...]], ...]


class Arrivals:
    """The vehicles that enter the episodes of one (scenario, seed). For
    each step: the Poisson arrivals of every entry link in link order,
    then the emergency vehicles and buses scheduled by then, each as a
    (vclass, route) pair. Steps are drawn from the seeded generator on
    first request and kept, so episodes sharing an ``Arrivals`` draw each
    step once. This is the only user of the generator. The network and
    the routes are the grid's shared ``GridRoutes``. A pickled copy
    carries them, the generator's state and the steps drawn so far, and
    draws the same stream past them."""

    def __init__(self, scenario: ScenarioConfig, seed: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.grid = grid_routes(scenario.rows, scenario.cols, scenario.link_length)
        self.network = self.grid.network
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        # The rate of an entry link changes only where a step reaches the
        # start of a profile piece; ``_rates`` holds the (entry link,
        # rate) pairs with a positive rate, in link order, until then.
        self._rate_changes = sorted(
            {start for profile in scenario.demand.values() for start, _ in profile if start > 0}
        )
        self._next_change = 0
        self._rates = self._rates_at(0)
        self._emergency_times = scheduled_emergencies(scenario)
        self._next_emergency = 0
        # Per bus line: its route (None if it has none) and departures.
        self._bus_times = tuple(
            (self.grid.routes.get((line.entry_link, line.exit_link)), scheduled_bus_departures(scenario, line))
            for line in scenario.bus_lines
        )
        self._next_bus = [0] * len(self._bus_times)
        self._steps: list[StepArrivals] = []

    def at(self, t: int) -> StepArrivals:
        """The vehicles entering at step ``t``."""
        if t >= len(self._steps):
            self.draw_until(t + 1)
        return self._steps[t]

    def draw_until(self, end: int) -> None:
        """Draw every step before ``end`` that is not drawn yet."""
        steps = self._steps
        while len(steps) < end:
            steps.append(self._draw(len(steps)))

    def _rates_at(self, t: int) -> tuple[tuple[str, float], ...]:
        rates = []
        for entry_link in self.network.entry_links:
            rate = self.scenario.rate_at(entry_link, t)
            if not rate <= 0:
                rates.append((entry_link, rate))
        return tuple(rates)

    def _sample_route(self, entry_link: str) -> tuple[str, ...]:
        routes = self.grid.choices[entry_link]
        return routes[int(self._rng.integers(len(routes)))]

    def _draw(self, t: int) -> StepArrivals:
        rng = self._rng
        changes = self._rate_changes
        if self._next_change < len(changes) and changes[self._next_change] <= t:
            self._next_change = bisect_right(changes, t)
            self._rates = self._rates_at(t)
        entering = []
        for entry_link, rate in self._rates:
            for _ in range(int(rng.poisson(rate))):
                entering.append(("normal", self._sample_route(entry_link)))
        times = self._emergency_times
        while self._next_emergency < len(times) and times[self._next_emergency] <= t:
            self._next_emergency += 1
            entry_links = self.network.entry_links
            entry_link = entry_links[int(rng.integers(len(entry_links)))]
            entering.append(("emergency", self._sample_route(entry_link)))
        for i, (route, times) in enumerate(self._bus_times):
            while self._next_bus[i] < len(times) and times[self._next_bus[i]] <= t:
                self._next_bus[i] += 1
                if route is not None:
                    entering.append(("bus", route))
        return tuple(entering)


class Episode:
    """Mutable state of one simulation run. Confine an instance to a
    single thread; run several instances concurrently instead. Vehicles
    enter from ``arrivals``, built here when none is given; one given
    must be drawn for this scenario and seed."""

    def __init__(
        self,
        scenario: ScenarioConfig,
        seed: int | None = None,
        collect_step_log: bool = False,
        arrivals: Arrivals | None = None,
    ):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        if arrivals is None:
            arrivals = Arrivals(scenario, self.seed)
        elif arrivals.seed != self.seed or (
            arrivals.scenario is not scenario and arrivals.scenario != scenario
        ):
            raise ValueError(
                f"arrivals of scenario {arrivals.scenario.name!r} seed {arrivals.seed} cannot "
                f"feed an episode of scenario {scenario.name!r} seed {self.seed}"
            )
        self.arrivals = arrivals
        self.network = arrivals.network
        self.t = 0
        self.links: dict[str, LinkState] = {
            link_id: LinkState(link) for link_id, link in sorted(self.network.links.items())
        }
        # One record per intersection, in id order; every per-step loop
        # over intersections runs over these.
        self.junctions: dict[str, Junction] = {
            node_id: Junction(self.network.intersections[node_id], self.links)
            for node_id in self.network.intersection_ids
        }
        # Links leading into an intersection, with its record, and exit
        # links: ``_advance_vehicles`` treats the two kinds apart.
        self._approach_links = tuple(
            (state, self.junctions[state.link.dst])
            for state in self.links.values()
            if state.link.kind != "exit"
        )
        self._exit_links = tuple(state for state in self.links.values() if state.link.kind == "exit")
        self.vehicles: list[Vehicle] = []
        self.completed = 0
        self.controller_faults = 0
        self.collect_step_log = collect_step_log
        self._step_log: list[dict] = []
        self._next_vehicle_id = 0
        self._per_step_queues: list[float] = []
        self._per_step_delays: list[float] = []
        self._total_wait = 0.0
        self._incident_vehicle: Vehicle | None = None
        self._window_wait = 0.0
        # The intersection the incident link (an approach) leads into.
        self._incident_junction = (
            self.junctions[self.network.links[scenario.incident.link].dst] if scenario.incident else None
        )

    # ------------------------------------------------------------------
    # spawning

    def _new_vehicle(self, vclass: str, route: tuple[str, ...]) -> Vehicle:
        vehicle = Vehicle(self._next_vehicle_id, vclass, route, self.t)
        self._next_vehicle_id += 1
        self.vehicles.append(vehicle)
        link_state = self.links[route[0]]
        vehicle.movement = movement = self._movement_on(route, 0)
        link_state.running.append(vehicle)
        link_state.count += 1
        link_state.lane_counts[movement] += 1
        return vehicle

    def _movement_on(self, route: tuple[str, ...], leg: int) -> str | None:
        link = self.network.links[route[leg]]
        if leg + 1 >= len(route):
            return None
        nxt = self.network.links[route[leg + 1]]
        return turn_movement(link.direction, nxt.direction)

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
            lane_counts = link_state.lane_counts
            lane_counts[vehicle.movement] -= 1
            lane_counts[incident.movement] += 1
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
            vehicle.cumulative_wait += self.t - vehicle.stopped_since
            vehicle.stopped_since = None
            self._incident_vehicle = None
            self.log_record({"kind": "incident_end", "time": self.t, "link": incident.link})

    # ------------------------------------------------------------------
    # observation

    def observe(self, intersection_id: str) -> PhaseViews:
        """Per-phase, per-lane-link (inlane, outlane) live views of one
        intersection, its junction's ``views``. Their figures are read
        from the current state, so they are valid until the next
        ``step()``; a read after it sees the new state."""
        return self.junctions[intersection_id].views

    # ------------------------------------------------------------------
    # dynamics

    def step(self, decisions: dict[str, PhaseDecision | None]) -> None:
        """Advance one second. ``decisions`` maps intersection id to the
        requested phase (None or current phase holds)."""
        for vclass, route in self.arrivals.at(self.t):
            self._new_vehicle(vclass, route)
        self._update_incident()
        self._apply_decisions(decisions)
        self._serve_green()
        self._advance_vehicles()
        self._accrue()
        self.t += 1

    def _apply_decisions(self, decisions: dict[str, PhaseDecision | None]) -> None:
        get = decisions.get
        for junction in self.junctions.values():
            signal = junction.signal
            if signal.yellow > 0:
                signal.yellow -= 1
                if signal.yellow == 0 and signal.pending is not None:
                    signal.active = signal.pending
                    signal.pending = None
                    signal.green_elapsed = 0
                continue
            signal.green_elapsed += 1
            decision = get(junction.id)
            if decision is None:
                continue
            target = decision.phase
            if not 0 <= target < NUM_PHASES:
                self.log_record(
                    {
                        "kind": "invalid_decision",
                        "time": self.t,
                        "intersection": junction.id,
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
        for junction in self.junctions.values():
            signal = junction.signal
            if signal.yellow > 0:
                continue
            for state, movement, queue in junction.lanes[signal.active]:
                if movement in state.blocked:
                    continue
                credit = state.credit
                if not queue:
                    credit[movement] = 0.0
                    continue
                credit[movement] += SATURATION_FLOW
                while credit[movement] >= 1.0 and queue:
                    credit[movement] -= 1.0
                    junction.queued -= 1
                    state.count -= 1
                    state.lane_counts[movement] -= 1
                    self._release(queue.pop(0))

    def _release(self, vehicle: Vehicle) -> None:
        vehicle.queued = False
        vehicle.cumulative_wait += self.t - vehicle.stopped_since
        vehicle.stopped_since = None
        vehicle.leg += 1
        vehicle.pos = 0.0
        vehicle.movement = movement = self._movement_on(vehicle.route, vehicle.leg)
        state = self.links[vehicle.route[vehicle.leg]]
        state.running.append(vehicle)
        state.count += 1
        state.lane_counts[movement] += 1

    def _advance_vehicles(self) -> None:
        """Move every running vehicle one second on. A link's ``running``
        list is replaced, in the same order, only when a vehicle left it
        for a queue or the network."""
        t = self.t
        for state in self._exit_links:
            running = state.running
            if not running:
                continue
            length = state.link.length
            exited = 0
            for vehicle in running:
                if not vehicle.frozen:
                    vehicle.pos += vehicle.cruise
                    if vehicle.pos >= length:
                        vehicle.exit_time = t
                        exited += 1
            if exited:
                self.completed += exited
                # A vehicle on an exit link has no movement.
                state.count -= exited
                state.lane_counts[None] -= exited
                state.running = [vehicle for vehicle in running if vehicle.exit_time is None]
        for state, junction in self._approach_links:
            running = state.running
            if not running:
                continue
            length = state.link.length
            queues = state.queues
            # Per movement, length - queue anchor; the anchor is 0.0
            # unless a blockage holds the queue back.
            room = None
            if state.blocked_head_pos:
                room = {m: length - state.queue_anchor(m) for m in MOVEMENTS}
            joined = 0
            for vehicle in running:
                if vehicle.frozen:
                    continue
                vehicle.pos += vehicle.cruise
                movement = vehicle.movement or "s"
                queue = queues[movement]
                free = length if room is None else room[movement]
                if vehicle.pos >= free - (len(queue) + 1) * JAM_SPACING:
                    vehicle.queued = True
                    vehicle.stopped_since = t
                    queue.append(vehicle)
                    joined += 1
            if joined:
                junction.queued += joined
                state.running = [vehicle for vehicle in running if not vehicle.queued]

    def _accrue(self) -> None:
        # An intersection's waiting vehicles are its queued ones plus, on
        # the incident node while the blocker is frozen, the blocker
        # (only _update_incident freezes a vehicle).
        total_waiting = 0
        for junction in self.junctions.values():
            count = junction.queued
            junction.history.append(count)
            total_waiting += count
        if self._incident_vehicle is not None:
            self._incident_junction.history[-1] += 1
            total_waiting += 1
        incident = self.scenario.incident
        if incident is not None and incident.start <= self.t <= incident.end + INCIDENT_TAIL:
            self._window_wait += total_waiting
        self._total_wait += total_waiting
        self._per_step_queues.append(total_waiting / len(self.junctions))
        entered = max(1, len(self.vehicles))
        self._per_step_delays.append(self._total_wait / entered)
        if self.collect_step_log:
            for junction in self.junctions.values():
                signal = junction.signal
                self._step_log.append(
                    {
                        "kind": "step",
                        "time": self.t,
                        "intersection": junction.id,
                        "phase": signal.active,
                        "yellow": signal.yellow,
                        "queue": junction.history[-1],
                    }
                )

    # ------------------------------------------------------------------
    # logging / results

    def log_record(self, record: dict) -> None:
        if self.collect_step_log:
            self._step_log.append(record)

    def delay_of(self, vehicle: Vehicle) -> float:
        """Seconds ``vehicle`` has waited so far: its finished waits plus
        the open one, if it is waiting now."""
        if vehicle.stopped_since is None:
            return vehicle.cumulative_wait
        return vehicle.cumulative_wait + (self.t - vehicle.stopped_since)

    def _window_vehicle_count(self) -> int:
        """Vehicles in the network at some incident-window step run so
        far: a vehicle is present from its entry step up to, not
        including, its exit step."""
        incident = self.scenario.incident
        first = max(0, math.ceil(incident.start))
        last = min(math.floor(incident.end + INCIDENT_TAIL), self.t - 1)
        if first > last:
            return 0
        return sum(
            1
            for v in self.vehicles
            if v.entry_time <= last and (v.exit_time is None or v.exit_time > first)
        )

    def finish(self) -> EpisodeResult:
        waits = [self.delay_of(v) for v in self.vehicles]
        avg_delay = float(np.mean(waits)) if waits else 0.0
        avg_queue = float(np.mean(self._per_step_queues)) if self._per_step_queues else 0.0

        emergency_waits = [w for v, w in zip(self.vehicles, waits) if v.vclass == "emergency"]
        normal_waits = [w for v, w in zip(self.vehicles, waits) if v.vclass == "normal"]
        has_bus = any(v.vclass == "bus" for v in self.vehicles)
        bus_person_delay = None
        if has_bus:
            weights = sum(v.occupancy for v in self.vehicles)
            bus_person_delay = float(
                sum(v.occupancy * w for v, w in zip(self.vehicles, waits)) / weights
            )
        incident_delay = None
        if self.scenario.incident is not None:
            incident_delay = self._window_wait / max(1, self._window_vehicle_count())

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
            vehicle_log=tuple(
                VehicleRecord(v.id, v.vclass, v.occupancy, v.entry_time, v.exit_time, w)
                for v, w in zip(self.vehicles, waits)
            ),
            step_log=tuple(self._step_log),
            controller_faults=self.controller_faults,
        )

    def in_network_count(self) -> int:
        return sum(state.count for state in self.links.values())


def run_episode(
    scenario: ScenarioConfig,
    controller,
    seed: int | None = None,
    *,
    collect_step_log: bool = False,
    arrivals: Arrivals | None = None,
) -> EpisodeResult:
    """Run a full episode under a controller.

    The controller must provide ``decide(ctx: StepContext) ->
    PhaseDecision | None``. Identical (scenario, controller, seed)
    triples produce bit-identical results, whether or not the episode
    spawns from a shared ``arrivals``.
    """
    episode = Episode(scenario, seed=seed, collect_step_log=collect_step_log, arrivals=arrivals)
    junctions = tuple(episode.junctions.values())
    decide = controller.decide
    for _ in range(scenario.duration):
        t = episode.t
        decisions: dict[str, PhaseDecision | None] = {}
        for junction in junctions:
            if junction.signal.yellow > 0:
                continue
            decisions[junction.id] = decide(StepContext(t, episode, junction))
        episode.step(decisions)
    return episode.finish()
