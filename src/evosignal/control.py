"""Controllers: skills and classical baselines turned into per-step
phase decisions.

Common discipline for every controller: the simulator inserts a 3 s
all-red transition on each phase change and holds a new phase for at
least 5 s. The handcrafted preemption rule is the only controller
allowed to override min-green (it still pays the yellow transition).

Phase scoring follows one rule everywhere: a phase's score is the sum,
over its lane-links, of the inlane body evaluated on the inlane features
plus the outlane body evaluated on the outlane features, with the phase
index and any event context injected alongside. Argmax with the lowest
index winning ties - ties must break the same way no matter what order
phases were evaluated in.
"""

from __future__ import annotations

from concurrent import futures
from dataclasses import dataclass

from . import events as ev
from .dsl import EvalError, compile_body, parse
from .dsl.interpreter import finite_result
from .dsl.whitelist import EVENT_VARIABLES
from .sim.engine import (
    EpisodeResult,
    PhaseDecision,
    PhaseViews,
    SimulationMetrics,
    StepContext,
    run_episode,
)
from .sim.scenario import ScenarioConfig
from .skills import Skill

@dataclass(frozen=True)
class PhaseScores:
    scores: tuple[float, ...]
    chosen: int


def _argmax_lowest(scores) -> int:
    best = 0
    for k in range(1, len(scores)):
        if scores[k] > scores[best]:
            best = k
    return best


class CompiledSkill:
    """A skill with both code bodies compiled once for the episode."""

    __slots__ = ("skill", "inlane", "outlane")

    def __init__(self, skill: Skill):
        self.skill = skill
        self.inlane = compile_body(parse(skill.inlane_code))
        self.outlane = compile_body(parse(skill.outlane_code))


def score_phases(
    skill: Skill | CompiledSkill,
    observations: PhaseViews,
    ctx_extra: dict[str, float] | None = None,
) -> PhaseScores:
    """Score every phase with a skill; raises EvalError if any lane-link
    evaluation faults (callers hold the current phase and record it).
    Each lane-link adds its inlane result, checked, then its outlane
    result, so the first fault in that order is the one reported. A lane
    feature a body does not name is never read from the view; the body
    gets 0.0 for it, which it cannot see."""
    compiled = skill if isinstance(skill, CompiledSkill) else CompiledSkill(skill)
    extra = ctx_extra or {}
    e0, e1, e2, e3, e4, e5 = (extra.get(name, 0.0) for name in EVENT_VARIABLES)
    fin, fout = compiled.inlane.function, compiled.outlane.function
    in_count, in_waiting, in_dist = compiled.inlane.reads
    out_count, out_waiting, out_dist = compiled.outlane.reads
    scores = []
    try:
        for k, lane_links in enumerate(observations):
            total = 0.0
            index = float(k)
            for inlane, outlane in lane_links:
                result = fin(
                    float(inlane.num_vehicle) if in_count else 0.0,
                    float(inlane.num_waiting_vehicle) if in_waiting else 0.0,
                    float(inlane.vehicle_dist) if in_dist else 0.0,
                    index, e0, e1, e2, e3, e4, e5,
                )
                # r - r is 0.0 exactly for a finite float
                if type(result) is not float or result - result != 0.0:
                    result = finite_result(result)
                total += result
                result = fout(
                    float(outlane.num_vehicle) if out_count else 0.0,
                    float(outlane.num_waiting_vehicle) if out_waiting else 0.0,
                    float(outlane.vehicle_dist) if out_dist else 0.0,
                    index, e0, e1, e2, e3, e4, e5,
                )
                if type(result) is not float or result - result != 0.0:
                    result = finite_result(result)
                total += result
            scores.append(total)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise EvalError(str(exc)) from exc
    return PhaseScores(tuple(scores), _argmax_lowest(scores))


def max_pressure(observations: PhaseViews) -> PhaseScores:
    """Upstream-minus-downstream queue pressure; event-blind by
    construction."""
    scores = []
    for lane_links in observations:
        pressure = 0.0
        for inlane, outlane in lane_links:
            pressure += inlane.num_waiting_vehicle - outlane.num_waiting_vehicle
        scores.append(pressure)
    return PhaseScores(tuple(scores), _argmax_lowest(scores))


@dataclass(frozen=True)
class FixedTimePlan:
    major: int = 25
    minor: int = 5
    yellow: int = 3

    def cycle(self) -> int:
        return 2 * self.major + 2 * self.minor + 4 * self.yellow

    def target_at(self, t: int) -> int:
        """Requested phase at simulation time t. Each green slot begins
        with the yellow that leads into it, so requesting at the slot
        boundary produces exactly the planned green windows."""
        greens = (self.major, self.minor, self.major, self.minor)
        cycle = self.cycle()
        tick = t % cycle
        edge = self.major  # first switch request: end of phase 0 green
        for k in range(1, 4):
            if tick < edge:
                return k - 1
            edge += self.yellow + greens[k]
        if tick < edge:
            return 3
        return 0  # trailing yellow back into phase 0


class FixedTimeController:
    """Open-loop NEMA-style splits; identical at every intersection (no
    offsets)."""

    kind = "fixed_time"

    def __init__(self, plan: FixedTimePlan | None = None):
        self.plan = plan or FixedTimePlan()

    def decide(self, ctx: StepContext) -> PhaseDecision:
        return PhaseDecision(self.plan.target_at(ctx.t))


class MaxPressureController:
    kind = "max_pressure"

    def decide(self, ctx: StepContext) -> PhaseDecision:
        return PhaseDecision(max_pressure(ctx.observations).chosen)


class SkillController:
    """Score phases with one skill everywhere; on a runtime fault, hold
    the current phase for the step and record it (the fault still voids
    the candidate's fitness at the evolution layer)."""

    kind = "skill"

    def __init__(self, skill: Skill):
        self.compiled = CompiledSkill(skill)

    def decide(self, ctx: StepContext) -> PhaseDecision | None:
        try:
            return PhaseDecision(score_phases(self.compiled, ctx.observations).chosen)
        except EvalError as exc:
            ctx.record_fault(str(exc))
            return None


def _log_events(ctx: StepContext, events) -> None:
    for event in events:
        ctx.log(
            {
                "kind": "event",
                "event": event.kind,
                "time": ctx.t,
                "intersection": ctx.intersection_id,
                "context": dict(event.context),
            }
        )


class HandcraftedPreemptionController:
    """Max-pressure plus a deterministic preemption rule fed by the same
    event detector as the dispatcher: an active emergency immediately
    claims its phase, overriding min-green."""

    kind = "handcrafted_preemption"

    def __init__(self, detector: ev.DetectorConfig | None = None):
        self.detector = detector or ev.DetectorConfig()

    def decide(self, ctx: StepContext) -> PhaseDecision:
        events = ev.detect(ctx.episode, ctx.intersection_id, config=self.detector)
        _log_events(ctx, events)
        emergency = ev.active_event(events, "emergency")
        if emergency is not None:
            return PhaseDecision(int(emergency.context["emergency_phase"]), override_min_green=True)
        return PhaseDecision(max_pressure(ctx.observations).chosen)


class DispatcherController:
    """The full event-aware pipeline: detect, pick the highest-priority
    skill from the bank, score with the event context injected. Detected
    events and skill activations are logged so runs can be audited."""

    kind = "dispatcher"

    def __init__(self, bank: ev.SkillBank, detector: ev.DetectorConfig | None = None):
        self.bank = bank
        self.detector = detector or ev.DetectorConfig()
        self.compiled = {kind: CompiledSkill(skill) for kind, skill in bank.skills.items()}

    def decide(self, ctx: StepContext) -> PhaseDecision | None:
        events = ev.detect(ctx.episode, ctx.intersection_id, config=self.detector)
        _log_events(ctx, events)
        active_kind, _ = ev.dispatch(events, self.bank)
        event = ev.active_event(events, active_kind)
        ctx.log(
            {
                "kind": "activation",
                "skill_kind": active_kind,
                "time": ctx.t,
                "intersection": ctx.intersection_id,
            }
        )
        try:
            scores = score_phases(
                self.compiled[active_kind], ctx.observations, ev.event_bindings(event)
            )
        except EvalError as exc:
            ctx.record_fault(str(exc))
            return None
        return PhaseDecision(scores.chosen)


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative controller choice; picklable, so episodes can fan out
    to worker processes."""

    kind: str  # skill | fixed_time | max_pressure | handcrafted_preemption | dispatcher
    skill: Skill | None = None
    plan: FixedTimePlan | None = None
    bank_skills: dict[str, Skill] | None = None

    def build(self):
        if self.kind == "skill":
            if self.skill is None:
                raise ValueError("skill controller needs a skill")
            return SkillController(self.skill)
        if self.kind == "fixed_time":
            return FixedTimeController(self.plan)
        if self.kind == "max_pressure":
            return MaxPressureController()
        if self.kind == "handcrafted_preemption":
            return HandcraftedPreemptionController()
        if self.kind == "dispatcher":
            bank = ev.SkillBank(self.bank_skills) if self.bank_skills else ev.default_bank()
            return DispatcherController(bank)
        raise ValueError(f"unknown controller kind {self.kind!r}")


def drive(
    spec: ControllerSpec,
    scenario: ScenarioConfig,
    seed: int | None = None,
    *,
    collect_step_log: bool = False,
) -> EpisodeResult:
    """Run one episode under a freshly built controller."""
    controller = spec.build()
    return run_episode(scenario, controller, seed, collect_step_log=collect_step_log)


def _episode_metrics(task: tuple[ControllerSpec, ScenarioConfig, int]) -> tuple[SimulationMetrics, int]:
    result = drive(*task)
    return result.metrics, result.controller_faults


def run_episodes(
    tasks: list[tuple[ControllerSpec, ScenarioConfig, int]], jobs: int = 1
) -> list[tuple[SimulationMetrics, int]]:
    """Run ``(spec, scenario, seed)`` episodes and return each one's
    metrics and controller-fault count, in task order for any ``jobs``.
    With ``jobs > 1`` the episodes fan out over worker processes; only
    the metrics come back, never the vehicle log."""
    if jobs <= 1 or len(tasks) <= 1:
        return [_episode_metrics(task) for task in tasks]
    with futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_episode_metrics, tasks))
