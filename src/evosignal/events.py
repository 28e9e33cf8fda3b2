"""Event detection and the priority dispatcher.

Four detectors watch each intersection's approaches: emergency vehicles
inside a 200 m radius, buses anywhere upstream, non-signal stops longer
than 120 s (incidents), and queues above the 90th percentile of the
trailing 300 s (congestion). ``detect`` reports each as a
``TrafficEvent``, its kind and its context. ``dispatch`` picks the one
event that handles the step by the hardcoded ``PRIORITY_CHAIN`` -
emergency before incident before transit before congestion, and no
event means normal; the dispatcher scores with the bank's skill of that
kind. The ordering is a safety constraint, not a tunable, and so are
the detector's figures, the module constants below. The dispatched
event's context binds the event variables a skill body sees; every
other one is 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sim.engine import HISTORY_WINDOW, JAM_SPACING, Episode, Junction, position
from .sim.network import phase_of
from .util import percentile_of_sorted

PRIORITY_CHAIN = ("emergency", "incident", "transit", "congestion")
BANK_KINDS = ("normal",) + PRIORITY_CHAIN

EMERGENCY_RADIUS = 200.0  # m upstream
INCIDENT_STOP_THRESHOLD = 120.0  # s stopped before it counts
SIGNAL_STOP_RADIUS = 50.0  # m; stops nearer a red line are signal waits
CONGESTION_PERCENTILE = 90.0
# s of trailing history: the window each junction keeps sorted
CONGESTION_WINDOW = HISTORY_WINDOW


@dataclass(frozen=True)
class TrafficEvent:
    """One detected event: its kind, one of ``PRIORITY_CHAIN``, and the
    values of the event variables it binds."""

    kind: str
    context: dict[str, float]


def detect(episode: Episode, junction: Junction) -> list[TrafficEvent]:
    """All currently active events at one junction of ``episode``, read
    from its record, at most one of each kind, in ``PRIORITY_CHAIN``
    order; empty when none is. The congestion check reads the junction's
    queue history through its rolling sorted window."""
    events: list[TrafficEvent] = []
    signal = junction.signal
    t = episode.t
    stop_threshold = INCIDENT_STOP_THRESHOLD

    # The vehicles that can raise an event - emergency vehicles, buses
    # and long stops - as (vehicle, side, movement, distance to the stop
    # line), by side, then each movement's queue, then each lane's
    # running vehicles. At most one emergency vehicle spawns per step,
    # and at most one vehicle is released into a link per step, so no
    # two emergency vehicles running on one link stand level: the
    # nearest, the one tie-break below, is the same in any lane order,
    # and so is the bus delay, a sum of whole seconds.
    notable = []
    for side, state, lanes, runnings in junction.approaches:
        for lane in lanes:
            queue = lane.queue
            if not queue:
                continue
            movement = lane.movement
            anchor = lane.anchor()
            for i, vehicle in enumerate(queue):
                since = vehicle.stopped_since
                if vehicle.vclass != "normal" or (since is not None and t - since > stop_threshold):
                    notable.append((vehicle, side, movement, anchor + i * JAM_SPACING))
        length = state.link.length
        for running in runnings:
            for vehicle in running:
                since = vehicle.stopped_since
                if vehicle.vclass != "normal" or (since is not None and t - since > stop_threshold):
                    notable.append((vehicle, side, vehicle.movement, length - position(vehicle, t)))

    emergency_best: tuple[float, int] | None = None
    bus_count = 0
    bus_delay = 0.0
    blocked_lanes: set[tuple[str, str]] = set()

    for vehicle, side, movement, distance in notable:
        if vehicle.vclass == "emergency" and distance <= EMERGENCY_RADIUS:
            if emergency_best is None or distance < emergency_best[0]:
                emergency_best = (distance, phase_of(side, movement))
        if vehicle.vclass == "bus":
            bus_count += 1
            bus_delay += episode.delay_of(vehicle)
        if vehicle.stopped_since is not None:
            stopped_for = t - vehicle.stopped_since
            if stopped_for > stop_threshold:
                red = signal.yellow > 0 or phase_of(side, movement) != signal.active
                if not (distance <= SIGNAL_STOP_RADIUS and red):
                    blocked_lanes.add((side, movement))

    if emergency_best is not None:
        distance, phase = emergency_best
        events.append(
            TrafficEvent("emergency", {"emergency_distance": float(distance), "emergency_phase": float(phase)})
        )
    if blocked_lanes:
        events.append(TrafficEvent("incident", {"incident_blocked": float(len(blocked_lanes))}))
    if bus_count:
        events.append(TrafficEvent("transit", {"bus_count": float(bus_count), "bus_delay": float(bus_delay)}))

    history = junction.history
    if len(history) >= CONGESTION_WINDOW:
        trailing = junction.sorted_history()
        current = history[-1]
        threshold = percentile_of_sorted(trailing, CONGESTION_PERCENTILE)
        if current > threshold:
            top = trailing[-1]
            band = (top - threshold) / 4.0
            if band > 0:
                level = min(3, int((current - threshold) / band))
            else:
                level = 3
            events.append(TrafficEvent("congestion", {"congestion_level": float(level)}))
    return events


def dispatch(events: list[TrafficEvent]) -> TrafficEvent | None:
    """The event that handles the step: the one whose kind comes first
    in ``PRIORITY_CHAIN``, the first of them among events of one kind;
    None, the normal slot, when there are no events."""
    active = None
    for event in events:
        if active is None or PRIORITY_CHAIN.index(event.kind) < PRIORITY_CHAIN.index(active.kind):
            active = event
    return active
