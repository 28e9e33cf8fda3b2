"""Scenario configurations: demand schedules, event injections, families.

Twelve stock families: three routine training patterns (T1 balanced,
T2 north-south heavy, T3 east-west with a mid-episode peak), their
demand-perturbed validation variants (V1-V3), emergency injections
(E1 sparse, E2 dense), bus lines (B1, B2), a lane-blocking incident
(I1), and the mixed emergency+incident scenario (M1). Families accept
overrides (grid size, duration, demand scale) so the same configuration
logic drives both full-size and desk-scale runs. A scenario holds no
seed: the traffic of an episode is drawn for a (scenario, seed) pair.

Demand patterns are synthetic, so absolute delay figures are
implementation-specific; cross-method orderings are what carries
meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import ConfigError, Network, build_network

FAMILIES = ("T1", "T2", "T3", "V1", "V2", "V3", "E1", "E2", "B1", "B2", "I1", "M1")

DEFAULT_DURATION = 3600

# Base per-source arrival rates (veh/s), before per-family shaping.
ROUTINE_BASE_RATE = 0.085
EVENT_BASE_RATE = 0.055

# Validation variants (V1-V3) move alternate sources' demand up and
# down by this fraction.
VALIDATION_SWING = 0.15

ROUTINE_FITNESS_CONSTANT = 0.0
EVENT_FITNESS_CONSTANT = 60.0

# What a scenario file may ask for (see load_scenario). The stock
# families stay far inside: rates up to 0.15 veh/s at demand scale 1,
# intervals of 120 s or more, four bus lines.
MAX_RATE = 10.0  # veh/s per entry link
MIN_INTERVAL = 1.0  # s between emergency vehicles, and between a line's buses
MAX_GRID_SIDE = 32
MAX_DURATION = 86_400  # s
MAX_BUS_LINES = 64

# Metres from the stop line at which an incident's blocker stands (at the
# link start on a shorter link).
INCIDENT_FROM_STOPLINE = 150.0

RateProfile = tuple[tuple[float, float], ...]  # (start_time, rate) pieces


@dataclass(frozen=True)
class BusLine:
    """A fixed-route transit line with a uniform headway; its first bus
    departs at 0 s."""

    name: str
    entry_link: str
    exit_link: str
    headway: float

    def __post_init__(self):
        # a zero headway would schedule departures forever
        _require_interval(self.headway, f"bus line {self.name} headway")


@dataclass(frozen=True)
class EmergencyInjection:
    period: float  # one ambulance every `period` seconds, from t=0

    def __post_init__(self):
        _require_interval(self.period, "emergency period")


def _require_interval(value: float, what: str) -> None:
    if not (math.isfinite(value) and value >= MIN_INTERVAL):
        raise ConfigError(f"{what} must be a finite number of at least {MIN_INTERVAL:g} s, got {value}")


def _number(value, what: str, kind: type = float):
    """``value`` as a ``kind`` (float or int); ConfigError if it is not one."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _bounded(value, what: str, low: float, high: float, kind: type = float):
    """``value`` as a ``kind`` in ``[low, high]``; ConfigError if not."""
    number = _number(value, what, kind)
    if not low <= number <= high:
        span = f"of at least {low:g}" if high == math.inf else f"from {low:g} to {high:g}"
        raise ConfigError(f"{what} must be a number {span}, got {value!r}")
    return number


def _rate(value, what: str) -> float:
    """An arrival rate in veh/s, from 0 to MAX_RATE."""
    return _bounded(value, what, 0.0, MAX_RATE)


def _checked_shape(rows, cols, duration) -> tuple[int, int, int]:
    """Grid rows and cols and duration as ints within the bounds of
    ``load_scenario``, checked before either factory builds a network."""
    return (
        _bounded(rows, "grid rows", 1, MAX_GRID_SIDE, int),
        _bounded(cols, "grid cols", 1, MAX_GRID_SIDE, int),
        _bounded(duration, "duration", 1, MAX_DURATION, int),
    )


def _field(mapping: dict, key: str, what: str):
    if key not in mapping:
        raise ConfigError(f"{what} needs a '{key}'")
    return mapping[key]


def _known_keys(mapping: dict, keys, what: str) -> dict:
    """``mapping``, once every key of it is one of ``keys``; ConfigError
    naming the first that is not."""
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"{what} has an unknown key {key!r} (known: {', '.join(keys)})")
    return mapping


# The fields of each event a scenario file may inject (see load_scenario).
EVENT_FIELDS = {"emergency": ("period",), "bus_lines": ("count", "headway"), "incident": ("start", "duration")}


def _require_type(value, kind: type, what: str):
    if not isinstance(value, kind):
        name = "a list" if kind is list else "a mapping"
        raise ConfigError(f"{what} must be {name}, got {value!r}")
    return value


@dataclass(frozen=True)
class IncidentInjection:
    start: float
    duration: float
    link: str  # approach link carrying the blockage
    movement: str = "s"

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    rows: int
    cols: int
    link_length: float
    duration: int
    demand: dict[str, RateProfile]  # entry link id -> piecewise-constant rates
    emergency: EmergencyInjection | None = None
    bus_lines: tuple[BusLine, ...] = ()
    incident: IncidentInjection | None = None
    fitness_constant: float = 0.0

    def rate_at(self, entry_link: str, t: float) -> float:
        profile = self.demand.get(entry_link, ())
        rate = 0.0
        for start, value in profile:
            if t >= start:
                rate = value
            else:
                break
        return rate


def _flat(rate: float) -> RateProfile:
    return ((0.0, rate),)


def _entry_side(link_id: str) -> str:
    # entry ids look like "tN_0_1>x0_1"
    return link_id[1]


def _routine_demand(network: Network, pattern: str, duration: int, scale: float) -> dict[str, RateProfile]:
    base = ROUTINE_BASE_RATE * scale
    demand: dict[str, RateProfile] = {}
    third = duration / 3.0
    for link_id in network.entry_links:
        side = _entry_side(link_id)
        ns = side in ("N", "S")
        if pattern == "balanced":
            demand[link_id] = _flat(base)
        elif pattern == "ns-heavy":
            demand[link_id] = _flat(base * (1.5 if ns else 0.6))
        elif pattern == "ew-peaked":
            if ns:
                demand[link_id] = _flat(base * 0.8)
            else:
                demand[link_id] = (
                    (0.0, base * 0.7),
                    (third, base * 1.4),
                    (2 * third, base * 0.7),
                )
        else:
            raise ConfigError(f"unknown demand pattern {pattern!r}")
    return demand


def _perturb(demand: dict[str, RateProfile]) -> dict[str, RateProfile]:
    """Deterministic +/- demand shift: alternate sources up and down."""
    out: dict[str, RateProfile] = {}
    for i, link_id in enumerate(sorted(demand)):
        factor = 1.0 + VALIDATION_SWING if i % 2 == 0 else 1.0 - VALIDATION_SWING
        out[link_id] = tuple((start, rate * factor) for start, rate in demand[link_id])
    return out


def _stock_bus_lines(network: Network, count: int, headway: float) -> tuple[BusLine, ...]:
    """Straight crosstown lines: even-numbered lines run a row eastbound,
    odd-numbered lines run a column southbound."""
    lines = []
    for i in range(count):
        if i % 2 == 0:
            row = (1 + i // 2) % network.rows
            entry = network.intersections[f"x{row}_0"].approaches["W"]
            exit_ = network.intersections[f"x{row}_{network.cols - 1}"].exits["E"]
        else:
            col = (1 + i // 2) % network.cols
            entry = network.intersections[f"x0_{col}"].approaches["N"]
            exit_ = network.intersections[f"x{network.rows - 1}_{col}"].exits["S"]
        lines.append(
            BusLine(name=f"line{i}", entry_link=entry, exit_link=exit_, headway=headway)
        )
    return tuple(lines)


def _stock_incident(network: Network, start: float, duration: float) -> IncidentInjection:
    """Blockage on the east-west arterial feeding the central intersection."""
    node = network.intersections[f"x{network.rows // 2}_{network.cols // 2}"]
    return IncidentInjection(start=start, duration=duration, link=node.approaches["W"])


def make_scenario(
    family: str,
    *,
    rows: int = 4,
    cols: int = 4,
    link_length: float = 300.0,
    duration: int = DEFAULT_DURATION,
    demand_scale: float = 1.0,
) -> ScenarioConfig:
    """Instantiate a stock scenario family with optional overrides."""
    family = family.upper()
    if family not in FAMILIES:
        raise ConfigError(f"unknown scenario family {family!r} (expected one of {FAMILIES})")
    rows, cols, duration = _checked_shape(rows, cols, duration)
    network = build_network(rows, cols, link_length)

    emergency = None
    bus_lines: tuple[BusLine, ...] = ()
    incident = None

    if family in ("T1", "V1"):
        demand = _routine_demand(network, "balanced", duration, demand_scale)
        constant = ROUTINE_FITNESS_CONSTANT
    elif family in ("T2", "V2"):
        demand = _routine_demand(network, "ns-heavy", duration, demand_scale)
        constant = ROUTINE_FITNESS_CONSTANT
    elif family in ("T3", "V3"):
        demand = _routine_demand(network, "ew-peaked", duration, demand_scale)
        constant = ROUTINE_FITNESS_CONSTANT
    else:
        demand = _routine_demand(network, "balanced", duration, demand_scale * (EVENT_BASE_RATE / ROUTINE_BASE_RATE))
        constant = EVENT_FITNESS_CONSTANT
        if family == "E1":
            emergency = EmergencyInjection(period=300.0)
        elif family == "E2":
            emergency = EmergencyInjection(period=120.0)
        elif family == "B1":
            bus_lines = _stock_bus_lines(network, 2, 180.0)
        elif family == "B2":
            bus_lines = _stock_bus_lines(network, 4, 120.0)
        elif family == "I1":
            incident = _stock_incident(network, 600.0, 300.0)
        elif family == "M1":
            emergency = EmergencyInjection(period=300.0)
            incident = _stock_incident(network, 600.0, 300.0)

    if family.startswith("V"):
        demand = _perturb(demand)
    for link_id, profile in demand.items():
        for _, rate in profile:
            _rate(rate, f"the rate of {link_id} at demand scale {demand_scale!r}")

    return ScenarioConfig(
        name=family,
        rows=rows,
        cols=cols,
        link_length=link_length,
        duration=duration,
        demand=demand,
        emergency=emergency,
        bus_lines=bus_lines,
        incident=incident,
        fitness_constant=constant,
    )


def scheduled_emergencies(config: ScenarioConfig) -> tuple[float, ...]:
    if config.emergency is None:
        return ()
    period = config.emergency.period
    count = int(config.duration // period)
    return tuple(i * period for i in range(count))


def scheduled_bus_departures(config: ScenarioConfig, line: BusLine) -> tuple[float, ...]:
    times = []
    t = 0.0
    while t < config.duration:
        times.append(t)
        t += line.headway
    return tuple(times)


def load_scenario(path: str) -> ScenarioConfig:
    """Load a custom scenario from a YAML file.

    Schema (all keys optional except name):
        name: my-scenario
        grid: {rows: 2, cols: 2, link_length: 300}
        duration: 900
        fitness_constant: 60
        demand:
          default_rate: 0.05
          sources:
            - {link: "tN_0_0>x0_0", profile: [[0, 0.05], [300, 0.12]]}
        events:
          emergency: {period: 120}
          bus_lines: {count: 2, headway: 180}
          incident: {start: 600, duration: 300}

    Bounds: rows and cols from 1 to MAX_GRID_SIDE (32); duration from 1
    to MAX_DURATION (86,400 s); every rate from 0 to MAX_RATE (10
    veh/s); an emergency period and a bus headway of at least
    MIN_INTERVAL (1 s); 0 to MAX_BUS_LINES (64) bus lines; an incident
    start and duration from 0 to MAX_DURATION.
    Each second then admits Poisson arrivals of mean at most 10 per
    entry link (a grid has ``2 * (rows + cols)``), at most one emergency
    vehicle and at most one bus per line, so an episode's vehicle count
    is at most ``duration * (20 * (rows + cols) + 1 + lines) + 1`` in
    expectation (the last one is the incident's blocker).
    Anything else raises ConfigError with a one-line message, and so
    does a key that the schema does not name, such as a misspelt one.
    A scenario file has no seed: the command running it chooses the
    traffic.
    """
    # Imported here, not at module level, so that a command that reads
    # no scenario file does not pay for importing yaml.
    import yaml

    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = yaml.safe_load(handle) or {}
        except yaml.YAMLError as exc:
            detail = " ".join(str(exc).split())
            raise ConfigError(f"scenario file {path} is not valid YAML: {detail}") from None
    if not isinstance(raw, dict) or "name" not in raw:
        raise ConfigError(f"scenario file {path} must be a mapping with a 'name' key")
    _known_keys(raw, ("name", "grid", "duration", "fitness_constant", "demand", "events"), f"scenario file {path}")
    for key in ("grid", "demand", "events"):
        if not isinstance(raw.get(key) or {}, dict):
            raise ConfigError(f"scenario file {path}: '{key}' must be a mapping")

    grid = _known_keys(raw.get("grid") or {}, ("rows", "cols", "link_length"), "grid")
    rows, cols, duration = _checked_shape(
        grid.get("rows", 4), grid.get("cols", 4), raw.get("duration", DEFAULT_DURATION)
    )
    link_length = _number(grid.get("link_length", 300.0), "grid link_length")
    network = build_network(rows, cols, link_length)

    demand_spec = _known_keys(raw.get("demand") or {}, ("default_rate", "sources"), "demand")
    default_rate = _rate(demand_spec.get("default_rate", 0.0), "demand default_rate")
    demand: dict[str, RateProfile] = {
        link_id: _flat(default_rate) for link_id in network.entry_links
    }
    for source in _require_type(demand_spec.get("sources") or [], list, "demand sources"):
        _known_keys(_require_type(source, dict, "a demand source"), ("link", "profile"), "a demand source")
        link_id = _field(source, "link", "a demand source")
        if not isinstance(link_id, str) or link_id not in network.links or network.links[link_id].kind != "entry":
            raise ConfigError(f"demand source {link_id!r} is not an entry link")
        profile = []
        for piece in _require_type(_field(source, "profile", f"demand source {link_id}"), list,
                                   f"the profile of {link_id}"):
            if not (isinstance(piece, list) and len(piece) == 2):
                raise ConfigError(f"a profile piece of {link_id} must be [start, rate], got {piece!r}")
            start = _number(piece[0], f"a profile start of {link_id}")
            profile.append((start, _rate(piece[1], f"a profile rate of {link_id}")))
        demand[link_id] = tuple(profile)

    events = _known_keys(raw.get("events") or {}, EVENT_FIELDS, "events")
    for key, value in events.items():
        _known_keys(_require_type(value, dict, f"events '{key}'"), EVENT_FIELDS[key], f"events '{key}'")
    emergency = None
    if "emergency" in events:
        period = _field(events["emergency"], "period", "events 'emergency'")
        emergency = EmergencyInjection(period=_number(period, "emergency period"))
    bus_lines: tuple[BusLine, ...] = ()
    if "bus_lines" in events:
        spec = events["bus_lines"]
        count = _bounded(_field(spec, "count", "events 'bus_lines'"), "bus_lines count", 0, MAX_BUS_LINES, int)
        headway = _number(_field(spec, "headway", "events 'bus_lines'"), "bus_lines headway")
        bus_lines = _stock_bus_lines(network, count, headway)
    incident = None
    if "incident" in events:
        spec = events["incident"]
        start = _bounded(_field(spec, "start", "events 'incident'"), "incident start", 0.0, MAX_DURATION)
        length = _bounded(_field(spec, "duration", "events 'incident'"), "incident duration", 0.0, MAX_DURATION)
        incident = _stock_incident(network, start, length)

    return ScenarioConfig(
        name=str(raw["name"]),
        rows=rows,
        cols=cols,
        link_length=link_length,
        duration=duration,
        demand=demand,
        emergency=emergency,
        bus_lines=bus_lines,
        incident=incident,
        fitness_constant=_number(raw.get("fitness_constant", 0.0), "fitness_constant"),
    )
