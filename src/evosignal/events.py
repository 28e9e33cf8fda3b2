"""Event detection, the priority dispatcher, and context injection.

Four detectors watch each intersection's approaches: emergency vehicles
inside a 200 m radius, buses anywhere upstream, non-signal stops longer
than 120 s (incidents), and queues above the rolling 90th percentile
(congestion). A hardcoded priority chain - emergency before incident
before transit before congestion before normal - picks which skill in
the bank handles the step; the ordering is a safety constraint, not a
tunable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl.whitelist import EVENT_VARIABLES
from .sim.engine import Episode, JAM_SPACING
from .sim.network import phase_of
from .skills import DEFAULT_BANK_SKILLS, LIBRARY, Skill
from .util import percentile

PRIORITY = {"emergency": 0, "incident": 1, "transit": 2, "congestion": 3}
PRIORITY_CHAIN = ("emergency", "incident", "transit", "congestion")
BANK_KINDS = ("normal",) + PRIORITY_CHAIN


@dataclass(frozen=True)
class TrafficEvent:
    kind: str
    intersection: str
    context: dict[str, float]

    def __post_init__(self):
        if self.kind not in PRIORITY:
            raise ValueError(f"unknown event kind {self.kind!r}")
        unknown = set(self.context) - set(EVENT_VARIABLES)
        if unknown:
            raise ValueError(f"context keys {sorted(unknown)} are not event variables")

    @property
    def priority(self) -> int:
        return PRIORITY[self.kind]


@dataclass(frozen=True)
class DetectorConfig:
    emergency_radius: float = 200.0  # m upstream
    incident_stop_threshold: float = 120.0  # s stopped before it counts
    signal_stop_radius: float = 50.0  # m; stops nearer a red line are signal waits
    congestion_percentile: float = 90.0
    congestion_window: int = 300  # s of trailing history

    def __post_init__(self):
        for name in ("emergency_radius", "incident_stop_threshold",
                     "signal_stop_radius", "congestion_percentile", "congestion_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SkillBank:
    """The five-slot skill bank the dispatcher draws from."""

    skills: dict[str, Skill]

    def __post_init__(self):
        missing = [kind for kind in BANK_KINDS if kind not in self.skills]
        if missing:
            raise ValueError(f"skill bank is missing kinds: {missing}")

    def __getitem__(self, kind: str) -> Skill:
        return self.skills[kind]

    def replaced(self, kind: str, skill: Skill) -> "SkillBank":
        if kind not in BANK_KINDS:
            raise ValueError(f"unknown bank kind {kind!r}")
        updated = dict(self.skills)
        updated[kind] = skill
        return SkillBank(updated)


def default_bank() -> SkillBank:
    return SkillBank({kind: LIBRARY[name] for kind, name in DEFAULT_BANK_SKILLS.items()})


def _approach_vehicles(episode: Episode, intersection_id: str):
    """Yield (vehicle, approach_side, movement, distance_to_stopline)
    for every vehicle on the intersection's four approach links."""
    node = episode.network.intersections[intersection_id]
    for side in sorted(node.approaches):
        state = episode.links[node.approaches[side]]
        length = state.link.length
        for movement, queue in sorted(state.queues.items()):
            anchor = state.queue_anchor(movement)
            for i, vehicle in enumerate(queue):
                yield vehicle, side, movement, anchor + i * JAM_SPACING
        for vehicle in state.running:
            yield vehicle, side, vehicle.movement or "s", length - vehicle.pos


def detect(
    episode: Episode,
    intersection_id: str,
    queue_history: list[int] | None = None,
    config: DetectorConfig = DetectorConfig(),
) -> list[TrafficEvent]:
    """All currently active events at one intersection."""
    events: list[TrafficEvent] = []
    signal = episode.signals[intersection_id]
    history = (
        queue_history
        if queue_history is not None
        else episode.queue_history[intersection_id]
    )

    emergency_best: tuple[float, int] | None = None
    bus_count = 0
    bus_delay = 0.0
    blocked_lanes: set[tuple[str, str]] = set()

    for vehicle, side, movement, distance in _approach_vehicles(episode, intersection_id):
        if vehicle.vclass == "emergency" and distance <= config.emergency_radius:
            if emergency_best is None or distance < emergency_best[0]:
                emergency_best = (distance, phase_of(side, movement))
        if vehicle.vclass == "bus":
            bus_count += 1
            bus_delay += vehicle.cumulative_wait
        if vehicle.stopped_since is not None:
            stopped_for = episode.t - vehicle.stopped_since
            if stopped_for > config.incident_stop_threshold:
                red = signal.in_transition or phase_of(side, movement) != signal.active
                if not (distance <= config.signal_stop_radius and red):
                    blocked_lanes.add((side, movement))

    if emergency_best is not None:
        distance, phase = emergency_best
        events.append(
            TrafficEvent(
                kind="emergency",
                intersection=intersection_id,
                context={"emergency_distance": float(distance), "emergency_phase": float(phase)},
            )
        )
    if blocked_lanes:
        events.append(
            TrafficEvent(
                kind="incident",
                intersection=intersection_id,
                context={"incident_blocked": float(len(blocked_lanes))},
            )
        )
    if bus_count:
        events.append(
            TrafficEvent(
                kind="transit",
                intersection=intersection_id,
                context={"bus_count": float(bus_count), "bus_delay": float(bus_delay)},
            )
        )

    window = config.congestion_window
    if len(history) >= window:
        trailing = history[-window:]
        current = trailing[-1]
        threshold = percentile(trailing, config.congestion_percentile)
        if current > threshold:
            top = max(trailing)
            band = (top - threshold) / 4.0
            if band > 0:
                level = min(3, int((current - threshold) / band))
            else:
                level = 3
            events.append(
                TrafficEvent(
                    kind="congestion",
                    intersection=intersection_id,
                    context={"congestion_level": float(level)},
                )
            )
    return events


def dispatch(events, bank: SkillBank) -> tuple[str, Skill]:
    """Highest-priority active event wins; no events means normal."""
    active = None
    for event in events:
        if active is None or event.priority < active.priority:
            active = event
    kind = active.kind if active is not None else "normal"
    return kind, bank[kind]


def event_bindings(event: TrafficEvent | None) -> dict[str, float]:
    """The six event-context bindings: the active event's values, zeros
    for everything else (so event skills see neutral values during quiet
    periods)."""
    bindings = {name: 0.0 for name in EVENT_VARIABLES}
    if event is not None:
        bindings.update(event.context)
    return bindings


def active_event(events, kind: str) -> TrafficEvent | None:
    for event in events:
        if event.kind == kind:
            return event
    return None
