"""Deterministic point-queue grid traffic simulation."""

from .engine import (
    Episode,
    EpisodeResult,
    PhaseDecision,
    SimulationMetrics,
    StepContext,
    VehicleRecord,
    run_episode,
)
from .network import ConfigError, Intersection, Link, Network, build_network
from .scenario import (
    FAMILIES,
    BusLine,
    EmergencyInjection,
    IncidentInjection,
    ScenarioConfig,
    load_scenario,
    make_scenario,
)

__all__ = [
    "build_network",
    "BusLine",
    "ConfigError",
    "EmergencyInjection",
    "Episode",
    "EpisodeResult",
    "FAMILIES",
    "IncidentInjection",
    "Intersection",
    "Link",
    "load_scenario",
    "make_scenario",
    "Network",
    "PhaseDecision",
    "run_episode",
    "ScenarioConfig",
    "SimulationMetrics",
    "StepContext",
    "VehicleRecord",
]
