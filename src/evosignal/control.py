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

from collections.abc import Iterator
from concurrent import futures
from contextlib import contextmanager
from dataclasses import dataclass

from . import events as ev
from .dsl import EvalError, compile_body, parse
from .dsl.interpreter import finite_result
from .dsl.whitelist import EVENT_VARIABLES
from .sim.engine import (
    PHASE_DECISIONS,
    Arrivals,
    EpisodeResult,
    Junction,
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


def pressure_scores(junction: Junction) -> list[int]:
    """Upstream-minus-downstream queue pressure of each phase, counted
    from the junction's max-pressure table: each exit link's waiting
    vehicles (its queues and blocked movements) are counted once, and a
    lane-link adds its approach lane's waiting vehicles (the queue, plus
    the blocker while its movement is blocked) minus its exit link's.
    Every figure is a count, so the sums are exact. Event-blind by
    construction."""
    waiting_out = [
        len(left) + len(straight) + len(right) + len(blocked)
        for left, straight, right, blocked in junction.exits
    ]
    scores = []
    for lane_links in junction.pressure:
        pressure = 0
        for queue, blocked, movement, exit_index in lane_links:
            pressure += len(queue) + (movement in blocked) - waiting_out[exit_index]
        scores.append(pressure)
    return scores


def max_pressure(junction: Junction) -> int:
    """The phase of highest pressure, the lowest index among ties."""
    return _argmax_lowest(pressure_scores(junction))


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
        # The decision of step ``_t``, which every intersection shares.
        self._t: int | None = None
        self._decision: PhaseDecision | None = None

    def decide(self, ctx: StepContext) -> PhaseDecision:
        if ctx.t != self._t:
            self._t = ctx.t
            self._decision = PHASE_DECISIONS[self.plan.target_at(ctx.t)]
        return self._decision


class MaxPressureController:
    kind = "max_pressure"

    def decide(self, ctx: StepContext) -> PhaseDecision:
        return PHASE_DECISIONS[max_pressure(ctx.junction)]


class SkillController:
    """Score phases with one skill everywhere; on a runtime fault, hold
    the current phase for the step and record it (the fault still voids
    the candidate's fitness at the evolution layer)."""

    kind = "skill"

    def __init__(self, skill: Skill):
        self.compiled = CompiledSkill(skill)

    def decide(self, ctx: StepContext) -> PhaseDecision | None:
        try:
            return PHASE_DECISIONS[score_phases(self.compiled, ctx.observations).chosen]
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
        return PHASE_DECISIONS[max_pressure(ctx.junction)]


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
        return PHASE_DECISIONS[scores.chosen]


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
    arrivals: Arrivals | None = None,
) -> EpisodeResult:
    """Run one episode under a freshly built controller."""
    controller = spec.build()
    return run_episode(scenario, controller, seed, collect_step_log=collect_step_log, arrivals=arrivals)


# (spec, scenario, seed, the Arrivals of (scenario, seed) to share, or None)
Task = tuple[ControllerSpec, ScenarioConfig, int, Arrivals | None]


def _episode_metrics(task: Task) -> tuple[SimulationMetrics, int]:
    spec, scenario, seed, arrivals = task
    result = drive(spec, scenario, seed, arrivals=arrivals)
    return result.metrics, result.controller_faults


@contextmanager
def episode_pool(jobs: int, largest_batch: int) -> Iterator[futures.Executor | None]:
    """The worker processes of a run: one pool of ``min(jobs,
    largest_batch)`` workers for every ``run_episodes`` call, shut down
    on leaving, also by an exception. None when that is one worker, so
    the episodes run in this process."""
    workers = min(jobs, largest_batch)
    if workers <= 1:
        yield None
        return
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def run_episodes(tasks: list[Task], pool: futures.Executor | None = None) -> list[tuple[SimulationMetrics, int]]:
    """Run ``(spec, scenario, seed, arrivals)`` episodes and return each
    one's metrics and controller-fault count, in task order with or
    without a ``pool`` (see ``episode_pool``). Through a pool only the
    metrics come back, never the vehicle log."""
    if pool is None or len(tasks) <= 1:
        return [_episode_metrics(task) for task in tasks]
    # Each task carries a copy of its arrivals to a worker: draw them
    # here, once, so that no worker draws them again.
    for _, scenario, _, arrivals in tasks:
        if arrivals is not None:
            arrivals.draw_until(scenario.duration)
    return list(pool.map(_episode_metrics, tasks))
