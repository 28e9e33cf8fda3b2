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
(scenario, seed) alone. ``Arrivals`` holds them, and an episode is built
from an ``Arrivals`` and nothing else: it reads the scenario and the
seed from there, and every episode of one (scenario, seed) may spawn
from the same ``Arrivals``.

Model constants follow common microsimulation practice: 7.5 m jam
spacing, 0.5 veh/s/lane saturation flow, 13.9 m/s free-flow speed.

Time advances by events, not by moving every vehicle every second (the
next-event time advance of Law and Kelton, *Simulation Modeling and
Analysis*, ch. 1):

- Positions come from a table. A vehicle that entered its link at step
  ``e`` stands at ``table[t - e]`` at step ``t``, where ``table[0] =
  0.0`` and ``table[k] = table[k - 1] + cruise``: the very float
  additions of a per-second update, so every position is the same to
  the bit. There is one table per cruise speed; the incident blocker,
  which starts mid-link, gets one of its own starting there when it
  moves on. ``position`` is the one reader.
- Each movement of a link is a ``Lane`` that keeps its running vehicles
  in the order they entered the link. An exit-link vehicle leaves the
  network at a step known when it enters, so its lane is put in the
  bucket of that step. An approach lane is put in the bucket of its
  wake step, the first step at which one of its running vehicles meets
  the queue-join test against the queue as it stands. Only a join, a
  new vehicle or a blockage change can bring that step nearer, and each
  recomputes it; a release only shortens the queue, which delays joins,
  so a stale wake step is early and never late. A lane in the bucket of
  the current step runs the per-second join test over its vehicles in
  order, as if every vehicle had moved every second.
- Each junction keeps the max-pressure score of its four phases
  (Varaiya, *Transportation Research Part C* 36, 2013) as ints, changed
  at each join, release and blockage change by the lane's ``terms``.

Each intersection has one ``Junction`` record, built once per episode
and holding everything of that intersection: its signal, its
queued-vehicle count and history with a rolling sorted window of the
history, its approach links, each phase's lane-links, its kept phase
pressures, and the records that controllers observe. The step loop,
``Episode.step``'s per-intersection passes, the controllers and the
event detector iterate these records instead of looking up signals,
nodes and links by id every step.

A skill observes the engine's own records: the approach ``Lane`` is the
inlane of a lane-link and the exit ``LinkState`` its outlane. Neither
stores a figure; each of ``num_vehicle``, ``num_waiting_vehicle`` and
``vehicle_dist`` is computed from the record's lists when it is asked
for, so a controller pays only for the figures it reads, and a read
after ``Episode.step`` sees the new state. A link's vehicle count is
kept by the link state as vehicles enter and leave it, and a lane's is
the length of its queue and running lists, so reading either is O(1);
so is a lane's nearest and farthest running vehicle while the lane
holds only vehicles on the common table, the two ends of its list.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .network import (
    DIRECTIONS,
    MOVEMENTS,
    NUM_PHASES,
    PHASE_TABLE,
    Intersection,
    Link,
    grid_routes,
    heading_after,
    opposite,
    phase_of,
    route_movements,
)
from .scenario import ScenarioConfig, scheduled_bus_departures, scheduled_emergencies

JAM_SPACING = 7.5  # m between queued vehicles
SATURATION_FLOW = 0.5  # veh/s per lane-link under green
YELLOW_STEPS = 3
MIN_GREEN_STEPS = 5
HISTORY_WINDOW = 300  # steps of queue history a junction keeps sorted
INCIDENT_TAIL = 300.0  # s after blockage end still charged to the incident window

# Lane-links of each phase in a fixed evaluation order.
SORTED_PHASE_TABLE = tuple(tuple(sorted(p)) for p in PHASE_TABLE)

# Per travel heading, the phase of each lane-link that leaves an
# intersection by the exit of that heading.
_FEEDER_PHASES = {
    heading: tuple(
        k
        for k, lane_links in enumerate(SORTED_PHASE_TABLE)
        for side, movement in lane_links
        if heading_after(opposite(side), movement) == heading
    )
    for heading in DIRECTIONS
}

VCLASS_OCCUPANCY = {"normal": 1.5, "bus": 30.0, "emergency": 1.5}
VCLASS_SPEED = {"normal": 13.9, "bus": 13.9, "emergency": 20.0}

# The wake step of a lane with no running vehicle to wake it.
NEVER = math.inf


@dataclass(frozen=True)
class PhaseDecision:
    phase: int
    override_min_green: bool = False


# One shared decision per phase; a decision is immutable, so controllers
# return these rather than build one per intersection and step.
PHASE_DECISIONS = tuple(PhaseDecision(k) for k in range(NUM_PHASES))


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
    step_log: tuple[dict, ...]
    controller_faults: int


def position_table(start: float, cruise: float, length: float) -> tuple[float, ...]:
    """Positions after 0, 1, 2, ... seconds at ``cruise`` from ``start``,
    each the one before plus ``cruise``, up to the first one at or past
    ``length`` and at least to the one after ``start`` (a blocker may
    stand at the very end of its link)."""
    table = [start]
    while table[-1] < length or len(table) < 2:
        table.append(table[-1] + cruise)
    return tuple(table)


class Vehicle:
    """One vehicle. ``movements[leg]`` is the movement it makes at the
    end of its current link (None on the exit link). While it runs,
    ``entered`` is the step at which it entered the link and ``table``
    its position table there; while it is queued or frozen, and once it
    has left the network, ``entered`` is None and ``pos`` holds its
    position (see ``position``). ``cumulative_wait`` holds the seconds
    of its finished waits; while it waits (queued, or frozen as an
    incident blocker) ``stopped_since`` is the time the open wait began,
    and ``Episode.delay_of`` adds that open interval."""

    __slots__ = (
        "id",
        "vclass",
        "occupancy",
        "cruise",
        "route",
        "movements",
        "leg",
        "table",
        "entered",
        "pos",
        "movement",
        "queued",
        "frozen",
        "entry_time",
        "exit_time",
        "cumulative_wait",
        "stopped_since",
    )

    def __init__(
        self, vid: int, vclass: str, route: tuple[str, ...], movements: tuple[str | None, ...], entry_time: int
    ):
        self.id = vid
        self.vclass = vclass
        self.occupancy = VCLASS_OCCUPANCY[vclass]
        self.cruise = VCLASS_SPEED[vclass]
        self.route = route
        self.movements = movements
        self.leg = 0
        self.table: tuple[float, ...] | None = None
        self.entered: int | None = None
        self.pos = 0.0
        self.movement = movements[0]
        self.queued = False
        self.frozen = False
        self.entry_time = entry_time
        self.exit_time: int | None = None
        self.cumulative_wait = 0.0
        self.stopped_since: int | None = None


def position(vehicle: Vehicle, t: int) -> float:
    """Metres from the start of its current link at which ``vehicle``
    stands at step ``t`` (before step ``t`` moves it on)."""
    entered = vehicle.entered
    if entered is None:
        return vehicle.pos
    return vehicle.table[t - entered]


class Clock:
    """The step an episode is at, shared with the lane and link records
    that read positions at it."""

    __slots__ = ("t",)

    def __init__(self):
        self.t = 0


class Lane:
    """The running vehicles of one movement of a link (of an exit link,
    all its vehicles, whose movement is None), in the order they entered
    the link, with what ``Episode`` needs to wake the lane:

    - ``odd``, how many of them do not run on the common table (the
      vehicles of another cruise speed, the incident blocker); while it
      is 0 the list is in position order, nearest the end first;
    - ``free``, the link length less the queue anchor (``anchor``), and
      ``wake``, the step at which the lane is next due (``NEVER`` if
      none);
    - on an approach link, ``queue``, its movement's queue list,
      ``credit``, the saturation-flow credit its green has built up, and
      ``terms``, the (pressures, phase, sign) entries a change of its
      waiting count moves: its own lane-link's phase at the junction it
      leads into and, on an interior link, the phase of each lane-link
      that feeds it at the junction upstream.

    An approach lane is what a skill sees as the inlane of its
    lane-link. A queued vehicle stands ``anchor() + i * JAM_SPACING``
    from the stop line and a running one ``length - position``. The one
    frozen vehicle, the incident blocker, is counted as waiting through
    ``blocked``, its link's dict: ``_update_incident`` sets both
    together.

    A lane refers to no link state or junction, only to its link's
    ``blocked`` dict and the episode's clock, which refer to nothing, so
    an episode's records form no reference cycle and are freed with it.
    ``running`` is changed only in place, so records may hold it."""

    __slots__ = ("movement", "queue", "running", "length", "blocked", "clock", "odd", "free", "wake", "terms",
                 "credit")

    def __init__(
        self, movement: str | None, queue: list[Vehicle] | None, length: float, blocked: dict[str, float],
        clock: Clock,
    ):
        self.movement = movement
        self.queue = queue
        self.running: list[Vehicle] = []
        self.length = length
        self.blocked = blocked
        self.clock = clock
        self.odd = 0
        self.free = length
        self.wake = NEVER
        self.terms: tuple[tuple[list[int], int, int], ...] = ()
        self.credit = 0.0

    def anchor(self) -> float:
        """Distance from the stop line at which this lane's queue starts
        (0 normally; behind the blockage while one is active)."""
        head = self.blocked.get(self.movement)
        if head is None:
            return 0.0
        return (self.length - head) + JAM_SPACING

    def span(self, t: int, lo: float, hi: float) -> tuple[float, float]:
        """``(lo, hi)`` widened by the distance to the stop line, at step
        ``t``, of this lane's queue ends and running vehicles. A lane
        whose vehicles all run on the common table needs only the two
        ends of its running list."""
        queue = self.queue
        if queue:
            anchor = self.anchor()
            if anchor < lo:
                lo = anchor
            far = anchor + (len(queue) - 1) * JAM_SPACING
            if far > hi:
                hi = far
        running = self.running
        if running:
            length = self.length
            if self.odd:
                for vehicle in running:
                    dist = length - position(vehicle, t)
                    if dist < lo:
                        lo = dist
                    if dist > hi:
                        hi = dist
            else:
                # in position order: the nearest first, the farthest last
                vehicle = running[0]
                dist = length - vehicle.table[t - vehicle.entered]
                if dist < lo:
                    lo = dist
                vehicle = running[-1]
                dist = length - vehicle.table[t - vehicle.entered]
                if dist > hi:
                    hi = dist
        return lo, hi

    @property
    def num_waiting_vehicle(self) -> int:
        return len(self.queue) + (self.movement in self.blocked)

    @property
    def num_vehicle(self) -> int:
        return len(self.queue) + len(self.running)

    @property
    def vehicle_dist(self) -> float:
        n = len(self.queue) + len(self.running)
        if n <= 1:
            return self.length / (n + 1)
        lo, hi = self.span(self.clock.t, math.inf, -math.inf)
        return mean_gap(n, lo, hi, self.length)


class LinkState:
    """Vehicles on one link. The queue lists and the ``blocked`` dict are
    created once and only ever changed in place, so records may hold
    them. ``lanes`` holds a ``Lane`` per movement (l, s, r) of an
    approach link, or the one ``Lane`` (key None) of an exit link.
    ``blocked`` maps each blocked movement to the position (m from the
    link start) of its blockage head.

    ``count`` is the number of vehicles on the link (running and
    queued); the episode changes it only where a vehicle enters the link
    or leaves it.

    A link state is what a skill sees as the outlane of a lane-link. Up
    to three lane-links of an intersection share one exit link;
    ``control.score_phases`` reads each exit's figures once per
    decision."""

    __slots__ = ("link", "lanes", "queues", "count", "blocked", "clock")

    def __init__(self, link: Link, clock: Clock):
        self.link = link
        self.clock = clock
        self.queues: dict[str, list[Vehicle]] = {m: [] for m in MOVEMENTS}
        self.blocked: dict[str, float] = {}
        self.lanes = {
            m: Lane(m, self.queues.get(m), link.length, self.blocked, clock)
            for m in ((None,) if link.kind == "exit" else MOVEMENTS)
        }
        self.count = 0

    @property
    def num_waiting_vehicle(self) -> int:
        left, straight, right = self.queues.values()
        return len(left) + len(straight) + len(right) + len(self.blocked)

    @property
    def num_vehicle(self) -> int:
        return self.count

    @property
    def vehicle_dist(self) -> float:
        length = self.link.length
        n = self.count
        if n <= 1:
            return length / (n + 1)
        t = self.clock.t
        lo, hi = math.inf, -math.inf
        for lane in self.lanes.values():
            lo, hi = lane.span(t, lo, hi)
        return mean_gap(n, lo, hi, length)


# Per phase, the (inlane, outlane) records of its lane-links.
PhaseViews = tuple[tuple[tuple[Lane, LinkState], ...], ...]


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
    - ``approaches``, per approach link, sides in sorted order: (side,
      ``LinkState``, its lanes in sorted movement order, its lanes'
      running lists in lane order);
    - ``lanes``, per phase, each lane-link's (approach ``LinkState``,
      movement, queue list, ``Lane``) in evaluation order;
    - ``views``, per phase, each lane-link's (inlane, outlane) records
      in the same order: its approach ``Lane`` and its exit link's
      ``LinkState``, which the lane-links that leave by that exit share;
    - ``pressures``, the upstream-minus-downstream queue pressure of
      each phase: over its lane-links, the approach lane's waiting
      vehicles (its queue, plus the blocker while its movement is
      blocked) less those of the lane-link's exit link (its queues and
      blocked movements). The episode keeps it through the lanes'
      ``terms``.

    The lists and records are the link states' own, changed only in
    place, so the junction stays valid for the whole episode."""

    __slots__ = ("id", "signal", "queued", "history", "approaches", "lanes", "views", "pressures",
                 "_sorted", "_consumed")

    def __init__(self, node: Intersection, links: dict[str, LinkState]):
        self.id = node.id
        self.signal = SignalState()
        self.queued = 0
        self.history: list[int] = []
        self.approaches = tuple(
            (side, state, tuple(state.lanes[m] for m in sorted(MOVEMENTS)),
             tuple(lane.running for lane in state.lanes.values()))
            for side, state in ((side, links[node.approaches[side]]) for side in sorted(node.approaches))
        )
        lanes = []
        views = []
        for lane_links in SORTED_PHASE_TABLE:
            phase_lanes = []
            phase_views = []
            for side, movement in lane_links:
                state = links[node.approaches[side]]
                lane = state.lanes[movement]
                phase_lanes.append((state, movement, lane.queue, lane))
                phase_views.append((lane, links[node.exits[heading_after(opposite(side), movement)]]))
            lanes.append(tuple(phase_lanes))
            views.append(tuple(phase_views))
        self.lanes = tuple(lanes)
        self.views: PhaseViews = tuple(views)
        self.pressures = [0] * NUM_PHASES
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

    def __init__(self, scenario: ScenarioConfig, seed: int):
        self.scenario = scenario
        self.seed = seed
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
    """Mutable state of one simulation run, whose vehicles enter from
    ``arrivals``: the scenario and the seed are the ones it was drawn
    for. Confine an instance to a single thread; run several instances
    concurrently instead."""

    def __init__(self, arrivals: Arrivals, collect_step_log: bool = False):
        self.scenario = scenario = arrivals.scenario
        self.arrivals = arrivals
        self.network = arrivals.network
        self._movements = arrivals.grid.movements
        self.clock = Clock()
        self.links: dict[str, LinkState] = {
            link_id: LinkState(link, self.clock) for link_id, link in sorted(self.network.links.items())
        }
        # One record per intersection, in id order; every per-step loop
        # over intersections runs over these.
        self.junctions: dict[str, Junction] = {
            node_id: Junction(self.network.intersections[node_id], self.links)
            for node_id in self.network.intersection_ids
        }
        # Per link id and movement, the (lane, link state, junction it
        # leads into, None on an exit link) a vehicle enters; the buckets
        # of ``_due`` hold these.
        self._lanes: dict[str, dict[str | None, tuple[Lane, LinkState, Junction | None]]] = {}
        for link_id, state in self.links.items():
            link = state.link
            junction = None
            if link.kind != "exit":
                junction = self.junctions[link.dst]
                feeders = ()
                if link.kind != "entry":
                    upstream = self.junctions[link.src].pressures
                    feeders = tuple((upstream, k, -1) for k in _FEEDER_PHASES[link.direction])
                for movement, lane in state.lanes.items():
                    lane.terms = ((junction.pressures, phase_of(link.approach_side, movement), 1), *feeders)
            self._lanes[link_id] = {movement: (lane, state, junction) for movement, lane in state.lanes.items()}
        # Every link of a grid has the network's length.
        self._tables = {
            speed: position_table(0.0, speed, self.network.link_length) for speed in set(VCLASS_SPEED.values())
        }
        self._common_table = self._tables[VCLASS_SPEED["normal"]]
        # Per step, the lanes due then: exit lanes with a vehicle leaving
        # the network, approach lanes whose wake step it is (or was).
        self._due: dict[int, list[tuple[Lane, LinkState, Junction | None]]] = {}
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

    @property
    def t(self) -> int:
        """The current step: the number of steps run so far."""
        return self.clock.t

    # ------------------------------------------------------------------
    # spawning

    def _new_vehicle(self, vclass: str, route: tuple[str, ...], movements: tuple[str | None, ...]) -> Vehicle:
        vehicle = Vehicle(self._next_vehicle_id, vclass, route, movements, self.clock.t)
        self._next_vehicle_id += 1
        self.vehicles.append(vehicle)
        vehicle.table = self._tables[vehicle.cruise]
        self._enter(vehicle, self._lanes[route[0]][movements[0]])
        return vehicle

    def _enter(self, vehicle: Vehicle, due: tuple[Lane, LinkState, Junction | None]) -> None:
        """Start ``vehicle`` running in a lane, given as its ``_lanes``
        triple, at the current step, and make the lane due no later than
        it needs to be."""
        t = self.clock.t
        vehicle.entered = t
        lane, state, _ = due
        lane.running.append(vehicle)
        state.count += 1
        table = vehicle.table
        if table is not self._common_table:
            lane.odd += 1
        if lane.queue is None:  # an exit link
            # the last entry is the first at or past the link's end
            self._put(due, t + len(table) - 2)
            return
        wake = t + bisect_left(table, lane.free - (len(lane.queue) + 1) * JAM_SPACING) - 1
        if wake < t:
            wake = t
        if wake < lane.wake:
            lane.wake = wake
            self._put(due, wake)

    def _put(self, due: tuple[Lane, LinkState, Junction | None], step: int) -> None:
        bucket = self._due.get(step)
        if bucket is None:
            self._due[step] = [due]
        else:
            bucket.append(due)

    def _rewake(self, due: tuple[Lane, LinkState, Junction | None], threshold: float, floor: int) -> None:
        """Set the lane's wake step from scratch: the first step, not
        before ``floor``, at which a running vehicle that is not frozen
        reaches ``threshold``, the join test's bound as the queue stands."""
        lane = due[0]
        running = lane.running
        wake = NEVER
        if running:
            if lane.odd:
                for vehicle in running:
                    if not vehicle.frozen:
                        step = vehicle.entered + bisect_left(vehicle.table, threshold) - 1
                        if step < wake:
                            wake = step
            else:
                head = running[0]
                wake = head.entered + bisect_left(head.table, threshold) - 1
            if wake < floor:
                wake = floor
        lane.wake = wake
        if wake is not NEVER:
            self._put(due, wake)

    def _straight_route_from(self, link_id: str) -> tuple[str, ...]:
        """Continue straight from a link until the network boundary."""
        route = [link_id]
        link = self.network.links[link_id]
        while link.kind != "exit":
            node = self.network.intersections[link.dst]
            link = self.network.links[node.exits[link.direction]]
            route.append(link.id)
        return tuple(route)

    def _blockage_changed(self, link_id: str, movement: str, sign: int) -> None:
        """Move the kept pressures by the blocker's ``sign`` and wake its
        lane again against the new queue anchor."""
        due = self._lanes[link_id][movement]
        lane = due[0]
        for pressures, k, term in lane.terms:
            pressures[k] += sign * term
        lane.free = lane.length - lane.anchor()
        self._rewake(due, lane.free - (len(lane.queue) + 1) * JAM_SPACING, self.clock.t)

    def _update_incident(self) -> None:
        incident = self.scenario.incident
        if incident is None:
            return
        t = self.clock.t
        if t == int(incident.start):
            state = self.links[incident.link]
            pos = max(0.0, state.link.length - incident.position_from_stopline)
            route = self._straight_route_from(incident.link)
            vehicle = Vehicle(self._next_vehicle_id, "normal", route, route_movements(self.network, route), t)
            self._next_vehicle_id += 1
            self.vehicles.append(vehicle)
            # It stands at pos until the blockage ends, then moves on from there.
            vehicle.table = position_table(pos, vehicle.cruise, state.link.length)
            vehicle.pos = pos
            vehicle.frozen = True
            vehicle.stopped_since = t
            vehicle.movement = movement = incident.movement
            lane = state.lanes[movement]
            lane.running.append(vehicle)
            lane.odd += 1
            state.count += 1
            state.blocked[movement] = pos
            self._incident_vehicle = vehicle
            self._blockage_changed(incident.link, movement, 1)
            self.log_record({"kind": "incident_start", "time": t, "link": incident.link})
        elif t == int(incident.end) and self._incident_vehicle is not None:
            state = self.links[incident.link]
            del state.blocked[incident.movement]
            vehicle = self._incident_vehicle
            vehicle.frozen = False
            vehicle.entered = t
            vehicle.cumulative_wait += t - vehicle.stopped_since
            vehicle.stopped_since = None
            self._incident_vehicle = None
            self._blockage_changed(incident.link, incident.movement, -1)
            self.log_record({"kind": "incident_end", "time": t, "link": incident.link})

    # ------------------------------------------------------------------
    # observation

    def observe(self, intersection_id: str) -> PhaseViews:
        """Per-phase, per-lane-link (inlane ``Lane``, outlane
        ``LinkState``) records of one intersection, its junction's
        ``views``. Their figures are computed from the current state
        when read, so a read after ``step()`` sees the new state."""
        return self.junctions[intersection_id].views

    # ------------------------------------------------------------------
    # dynamics

    def step(self, decisions: dict[str, PhaseDecision | None]) -> None:
        """Advance one second. ``decisions`` maps intersection id to the
        requested phase (None or current phase holds)."""
        movements = self._movements
        for vclass, route in self.arrivals.at(self.clock.t):
            self._new_vehicle(vclass, route, movements[route])
        self._update_incident()
        self._apply_decisions(decisions)
        self._serve_green()
        self._advance_vehicles()
        self._accrue()
        self.clock.t += 1

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
                        "time": self.clock.t,
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
            for state, movement, queue, lane in junction.lanes[signal.active]:
                if movement in state.blocked:
                    continue
                if not queue:
                    lane.credit = 0.0
                    continue
                lane.credit += SATURATION_FLOW
                while lane.credit >= 1.0 and queue:
                    lane.credit -= 1.0
                    junction.queued -= 1
                    state.count -= 1
                    for pressures, k, term in lane.terms:
                        pressures[k] -= term
                    self._release(queue.pop(0))

    def _release(self, vehicle: Vehicle) -> None:
        vehicle.queued = False
        vehicle.cumulative_wait += self.clock.t - vehicle.stopped_since
        vehicle.stopped_since = None
        vehicle.leg = leg = vehicle.leg + 1
        vehicle.movement = movement = vehicle.movements[leg]
        self._enter(vehicle, self._lanes[vehicle.route[leg]][movement])

    def _advance_vehicles(self) -> None:
        """Move the vehicles on one second, working only on the lanes due
        now: each exit lane with a vehicle reaching the end of its link,
        and each approach lane at its wake step. A lane's other vehicles
        are where their tables put them without being touched."""
        t = self.clock.t
        bucket = self._due.pop(t, None)
        if bucket is None:
            return
        for due in bucket:
            lane, state, junction = due
            if junction is None:
                self._exit(lane, state, t)
            elif lane.wake == t:
                self._join(due, t)

    def _exit(self, lane: Lane, state: LinkState, t: int) -> None:
        """Take the vehicles that reach the end of an exit link at step
        ``t`` out of the network. While the lane runs only on the common
        table they are a prefix of it."""
        running = lane.running
        exited = 0
        for vehicle in running:
            table = vehicle.table
            if vehicle.entered + len(table) - 2 == t:
                vehicle.pos = table[-1]
                vehicle.entered = None
                vehicle.exit_time = t
                exited += 1
            elif not lane.odd:
                break
        if not exited:
            return
        if lane.odd:
            running[:] = [vehicle for vehicle in running if vehicle.exit_time is None]
            lane.odd = sum(1 for vehicle in running if vehicle.table is not self._common_table)
        else:
            del running[:exited]
        self.completed += exited
        state.count -= exited

    def _join(self, due: tuple[Lane, LinkState, Junction], t: int) -> None:
        """The per-second queue-join test of one approach lane at step
        ``t``: in entry order, each running vehicle that is not frozen
        joins the queue if its new position is at or past the queue's
        tail. While the lane runs only on the common table, the vehicles
        are in position order, so the joiners are a prefix and the head
        alone sets the next wake step."""
        lane, _, junction = due
        running = lane.running
        queue = lane.queue
        free = lane.free
        threshold = free - (len(queue) + 1) * JAM_SPACING
        index = t + 1
        joined = 0
        for vehicle in running:
            if vehicle.frozen:
                continue
            pos = vehicle.table[index - vehicle.entered]
            if pos < threshold:
                if lane.odd:
                    continue
                break
            vehicle.pos = pos
            vehicle.entered = None
            vehicle.queued = True
            vehicle.stopped_since = t
            queue.append(vehicle)
            joined += 1
            threshold = free - (len(queue) + 1) * JAM_SPACING
        if joined:
            if lane.odd:
                running[:] = [vehicle for vehicle in running if not vehicle.queued]
                common = self._common_table
                for vehicle in queue[-joined:]:
                    # the blocker leaves its own table behind
                    vehicle.table = self._tables[vehicle.cruise]
                lane.odd = sum(1 for vehicle in running if vehicle.table is not common)
            else:
                del running[:joined]
            junction.queued += joined
            for pressures, k, term in lane.terms:
                pressures[k] += joined * term
        self._rewake(due, threshold, index)

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
        t = self.clock.t
        incident = self.scenario.incident
        if incident is not None and incident.start <= t <= incident.end + INCIDENT_TAIL:
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
                        "time": t,
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

    def record_fault(self, junction: Junction, message: str) -> None:
        """Count a controller's runtime fault at ``junction`` and log it."""
        self.controller_faults += 1
        self.log_record(
            {"kind": "controller_fault", "time": self.t, "intersection": junction.id, "message": message}
        )

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
            step_log=tuple(self._step_log),
            controller_faults=self.controller_faults,
        )


def run_episode(arrivals: Arrivals, controller, *, collect_step_log: bool = False) -> EpisodeResult:
    """Run a full episode under a controller, on the traffic of
    ``arrivals``.

    Each step, ``controller.decide(episode, junction) -> PhaseDecision |
    None`` is asked for every junction not in a yellow transition; it
    reports a runtime fault with ``episode.record_fault``. Identical
    (scenario, controller, seed) triples produce bit-identical results,
    whether or not other episodes spawn from the same ``arrivals``.
    """
    episode = Episode(arrivals, collect_step_log=collect_step_log)
    junctions = tuple(episode.junctions.values())
    decide = controller.decide
    for _ in range(arrivals.scenario.duration):
        decisions: dict[str, PhaseDecision | None] = {}
        for junction in junctions:
            if junction.signal.yellow > 0:
                continue
            decisions[junction.id] = decide(episode, junction)
        episode.step(decisions)
    return episode.finish()
