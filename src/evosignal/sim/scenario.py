"""Scenario configurations: demand schedules, event injections, families.

Twelve stock families: three routine training patterns (T1 balanced,
T2 north-south heavy, T3 east-west with a mid-episode peak), their
demand-perturbed validation variants (V1-V3), emergency injections
(E1 sparse, E2 dense), bus lines (B1, B2), a lane-blocking incident
(I1), and the mixed emergency+incident scenario (M1). Families accept
overrides (grid size, duration, demand scale, seed) so the same
configuration logic drives both full-size and desk-scale runs.

Demand patterns are synthetic, so absolute delay figures are
implementation-specific; cross-method orderings are what carries
meaning.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .network import ConfigError, Network, build_network

FAMILIES = ("T1", "T2", "T3", "V1", "V2", "V3", "E1", "E2", "B1", "B2", "I1", "M1")

DEFAULT_DURATION = 3600

# Base per-source arrival rates (veh/s), before per-family shaping.
ROUTINE_BASE_RATE = 0.085
EVENT_BASE_RATE = 0.055

ROUTINE_FITNESS_CONSTANT = 0.0
EVENT_FITNESS_CONSTANT = 60.0

RateProfile = tuple[tuple[float, float], ...]  # (start_time, rate) pieces


@dataclass(frozen=True)
class BusLine:
    """A fixed-route transit line with a uniform headway."""

    name: str
    entry_link: str
    exit_link: str
    headway: float
    first_departure: float = 0.0


@dataclass(frozen=True)
class EmergencyInjection:
    period: float  # one ambulance every `period` seconds, from t=0


@dataclass(frozen=True)
class IncidentInjection:
    start: float
    duration: float
    link: str  # approach link carrying the blockage
    movement: str = "s"
    position_from_stopline: float = 150.0

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
    seed: int = 0
    family: str | None = None

    def build_network(self) -> Network:
        return build_network(self.rows, self.cols, self.link_length)

    def rate_at(self, entry_link: str, t: float) -> float:
        profile = self.demand.get(entry_link, ())
        rate = 0.0
        for start, value in profile:
            if t >= start:
                rate = value
            else:
                break
        return rate

    def has_events(self) -> bool:
        return bool(self.emergency or self.bus_lines or self.incident)


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


def _perturb(demand: dict[str, RateProfile], swing: float = 0.15) -> dict[str, RateProfile]:
    """Deterministic +/- demand shift: alternate sources up and down."""
    out: dict[str, RateProfile] = {}
    for i, link_id in enumerate(sorted(demand)):
        factor = 1.0 + swing if i % 2 == 0 else 1.0 - swing
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
    seed: int = 0,
    fitness_constant: float | None = None,
) -> ScenarioConfig:
    """Instantiate a stock scenario family with optional overrides."""
    family = family.upper()
    if family not in FAMILIES:
        raise ConfigError(f"unknown scenario family {family!r} (expected one of {FAMILIES})")
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
        fitness_constant=constant if fitness_constant is None else fitness_constant,
        seed=seed,
        family=family,
    )


def scheduled_emergencies(config: ScenarioConfig) -> tuple[float, ...]:
    if config.emergency is None:
        return ()
    period = config.emergency.period
    count = int(config.duration // period)
    return tuple(i * period for i in range(count))


def scheduled_bus_departures(config: ScenarioConfig, line: BusLine) -> tuple[float, ...]:
    times = []
    t = line.first_departure
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
        seed: 7
        fitness_constant: 60
        demand:
          default_rate: 0.05
          sources:
            - {link: "tN_0_0>x0_0", profile: [[0, 0.05], [300, 0.12]]}
        events:
          emergency: {period: 120}
          bus_lines: {count: 2, headway: 180}
          incident: {start: 600, duration: 300}
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = yaml.safe_load(handle) or {}
    if not isinstance(raw, dict) or "name" not in raw:
        raise ConfigError(f"scenario file {path} must be a mapping with a 'name' key")

    grid = raw.get("grid", {})
    rows = int(grid.get("rows", 4))
    cols = int(grid.get("cols", 4))
    link_length = float(grid.get("link_length", 300.0))
    duration = int(raw.get("duration", DEFAULT_DURATION))
    network = build_network(rows, cols, link_length)

    demand_spec = raw.get("demand", {})
    default_rate = float(demand_spec.get("default_rate", 0.0))
    demand: dict[str, RateProfile] = {
        link_id: _flat(default_rate) for link_id in network.entry_links
    }
    for source in demand_spec.get("sources", []) or []:
        link_id = source["link"]
        if link_id not in network.links or network.links[link_id].kind != "entry":
            raise ConfigError(f"demand source {link_id!r} is not an entry link")
        demand[link_id] = tuple((float(t), float(rate)) for t, rate in source["profile"])

    events = raw.get("events", {}) or {}
    emergency = None
    if "emergency" in events:
        emergency = EmergencyInjection(period=float(events["emergency"]["period"]))
    bus_lines: tuple[BusLine, ...] = ()
    if "bus_lines" in events:
        spec = events["bus_lines"]
        bus_lines = _stock_bus_lines(network, int(spec["count"]), float(spec["headway"]))
    incident = None
    if "incident" in events:
        spec = events["incident"]
        incident = _stock_incident(network, float(spec["start"]), float(spec["duration"]))

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
        fitness_constant=float(raw.get("fitness_constant", 0.0)),
        seed=int(raw.get("seed", 0)),
        family=None,
    )
