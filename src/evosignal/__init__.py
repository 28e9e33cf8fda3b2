"""Evolutionary traffic-signal control.

Interpretable control skills - a strategy description, selection
guidance, and two sandboxed scoring bodies - are evolved against a
built-in deterministic grid simulator, steered by structured traffic
signals, and composed at runtime by an event-priority dispatcher.
"""

__version__ = "0.1.0"

from . import control, dsl, events, evolution, generator, metrics, skills, store
from .control import ControllerSpec, drive, max_pressure, score_phases
from .events import TrafficEvent, detect, dispatch
from .evolution import EvolutionConfig, direction_text, extract_signals, run_evolution
from .metrics import event_fitness, routine_fitness, welch_and_cohen
from .sim import ScenarioConfig, SimulationMetrics, make_scenario, run_episode
from .skills import LIBRARY, SEED_SKILL, Skill, skill_complexity
from .store import RunStore

__all__ = [
    "control",
    "ControllerSpec",
    "detect",
    "direction_text",
    "dispatch",
    "drive",
    "dsl",
    "event_fitness",
    "events",
    "evolution",
    "EvolutionConfig",
    "extract_signals",
    "generator",
    "LIBRARY",
    "make_scenario",
    "max_pressure",
    "metrics",
    "routine_fitness",
    "run_episode",
    "run_evolution",
    "RunStore",
    "ScenarioConfig",
    "score_phases",
    "SEED_SKILL",
    "SimulationMetrics",
    "Skill",
    "skill_complexity",
    "skills",
    "store",
    "TrafficEvent",
    "welch_and_cohen",
]
