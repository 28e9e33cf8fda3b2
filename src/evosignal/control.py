"""Controllers: skills and classical baselines turned into per-step
phase decisions: ``decide(episode, junction)`` returns one junction's
``PhaseDecision`` for the step, or None to hold. ``Episode.step(controller)``
asks each junction outside its yellow transition once per step, in id
order, and applies the answer before it asks the next; a controller
reads only the junction it is asked about.

Common discipline for every controller: the simulator inserts a 3 s
all-red transition on each phase change and holds a new phase for at
least 5 s. The handcrafted preemption rule is the only controller
allowed to override min-green (it still pays the yellow transition).

Phase scoring follows one rule everywhere: a phase's score is the sum,
over its lane-links, of the inlane body evaluated on the inlane features
plus the outlane body evaluated on the outlane features, with the phase
index and the event context injected alongside. Argmax with the lowest
index winning ties - ties must break the same way no matter what order
phases were evaluated in.

The dispatcher and the handcrafted preemption rule each take one event
per decision, ``events.dispatch`` of the junction's detected events.
The dispatcher scores with its bank's skill of that event's kind and
binds that event's context; a step with no event runs the ``normal``
skill with every event variable 0.0. The preemption rule acts only on
an event of kind ``emergency``.

``score_phases`` is the one scorer, and it computes nothing twice. It
calls the skill's generated scorer: one Python function per (inlane,
outlane) pair of bodies, compiled once and cached by the pair of code
texts, whose text (``_scorer_source``) holds both bodies as
``dsl.render`` writes them, inside one loop over the junction's
lane-links. For each body the text holds only the reads of the lane
features it names, straight from the engine's records at the step it
is given: an approach ``Lane``'s queue and running lists, its blockage
and ``Lane.span`` for the gap, and an exit ``LinkState``'s kept count,
queue lists and lanes. Those lines, ``_lane_reads`` and
``_link_reads``, are the one definition of the three lane features;
``tests/_reference.py`` computes them independently from sorted
distance lists, as the oracle the tests hold them to. A body that names
no parameter is folded to a constant when it is compiled and added as
a literal; an outlane body that does not name ``index`` runs once per
exit link (4 runs per decision, not 12), since up to three lane-links
share one. Scores are bit-identical to calling both bodies at every
lane-link, and a fault is reported where that order meets it first,
with the same message.

The generated scorers and the compiled bodies in them are each kept in
a bounded ``functools.lru_cache``. The max-pressure baselines read the
phase pressures the engine keeps on each junction instead of reading
lane figures. Controllers that log events and skill activations build
those records only when the episode collects a step log.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from concurrent import futures
from contextlib import contextmanager
from dataclasses import dataclass

from . import events as ev
from .dsl import EvalError, SkillAst, compile_body, parse
from .dsl.interpreter import _EXEC_GLOBALS, body_lines, finite_result
from .dsl.whitelist import EVENT_VARIABLES
from .sim.engine import (
    PHASE_DECISIONS,
    YELLOW_STEPS,
    Arrivals,
    Episode,
    EpisodeResult,
    Junction,
    PhaseDecision,
    PhaseViews,
    run_episode,
)
from .sim.scenario import ScenarioConfig
from .skills import DEFAULT_BANK, Skill


def _argmax_lowest(scores) -> int:
    best = 0
    for k in range(1, len(scores)):
        if scores[k] > scores[best]:
            best = k
    return best


# The globals of a generated scorer: the body globals, and the
# builtins its own lines call under names no body can spell
# (``_EXEC_GLOBALS`` binds ``len`` to ``float`` for the bodies).
_SCORER_GLOBALS = {**_EXEC_GLOBALS, "_len": len, "_float": float, "_type": type, "_finite": finite_result}


# Lines that check the raw result ``value`` of a body exactly as
# ``finite_result`` would; v - v is 0.0 exactly for a finite float.
_CHECKED = (
    "if _type(value) is not _float or value - value != 0.0:",
    "    value = _finite(value)",
)


def _lane_reads(reads: tuple[bool, bool, bool]) -> list[str]:
    """Lines that set the figures ``reads`` names of the inlane ``_lane``,
    an approach ``Lane``, at step ``_t``: ``num_vehicle``, its queued
    and running vehicles; ``num_waiting_vehicle``, its queued ones plus
    the incident blocker while its movement is blocked; and
    ``vehicle_dist``, the spread of their distances to the stop line
    over one less than their number, or ``length / (n + 1)`` for
    ``n <= 1`` vehicles."""
    count, waiting, dist = reads
    lines = ["_q = _len(_lane.queue)"] if any(reads) else []
    if count or dist:
        lines.append("_n = _q + _len(_lane.running)")
    if count:
        lines.append("num_vehicle = _n + 0.0")
    if waiting:
        lines.append("num_waiting_vehicle = _q + (_lane.movement in _lane.blocked) + 0.0")
    if dist:
        lines += [
            "if _n <= 1:",
            "    vehicle_dist = _lane.length / (_n + 1)",
            "else:",
            "    _lo, _hi = _lane.span(_t, 1e999, -1e999)",
            "    vehicle_dist = (_hi - _lo) / (_n - 1)",
        ]
    return lines


def _link_reads(reads: tuple[bool, bool, bool]) -> list[str]:
    """Lines that set the figures ``reads`` names of the outlane ``_out``,
    an exit ``LinkState``, at step ``_t``, as ``_lane_reads`` does for a
    lane but over the whole link: its kept count, the queues of its
    three movements plus its blocked movements, and the spread over all
    its lanes."""
    count, waiting, dist = reads
    lines = []
    if count or dist:
        lines.append("_n = _out.count")
    if count:
        lines.append("num_vehicle = _n + 0.0")
    if waiting:
        lines += [
            "_left, _straight, _right = _out.queues.values()",
            "num_waiting_vehicle = _len(_left) + _len(_straight) + _len(_right) + _len(_out.blocked) + 0.0",
        ]
    if dist:
        lines += [
            "if _n <= 1:",
            "    vehicle_dist = _out.link.length / (_n + 1)",
            "else:",
            "    _lo, _hi = 1e999, -1e999",
            "    for _part in _out.lanes.values():",
            "        _lo, _hi = _part.span(_t, _lo, _hi)",
            "    vehicle_dist = (_hi - _lo) / (_n - 1)",
        ]
    return lines


def _indented(lines: list[str], depth: int) -> list[str]:
    return ["    " * depth + line for line in lines]


def _scorer_source(inlane: SkillAst, outlane: SkillAst) -> str:
    """The text of ``def score(views, _t, <EVENT_VARIABLES>)``, which
    returns each phase's score under the two bodies at step ``_t``. An
    outlane body that does not name ``index`` runs at the first
    lane-link that leaves by an exit, and its checked result is kept in
    ``_shared``, keyed by the exit's ``LinkState`` (which hashes by
    identity), for the others."""
    inlane_body, outlane_body = compile_body(inlane), compile_body(outlane)
    share = outlane_body.constant is None and not outlane_body.names_index
    per_lane_link = []
    for body, ast, reads, shared in (
        (inlane_body, inlane, _lane_reads, False),
        (outlane_body, outlane, _link_reads, share),
    ):
        if body.constant is not None:
            # The total starts at 0.0 and so is never -0.0, and adding a
            # zero to it leaves it as it is.
            if body.constant != 0.0:
                per_lane_link.append(f"_total += {body.constant!r}")
        elif shared:
            per_lane_link += [
                "_result = _shared.get(_out)",
                "if _result is None:",
                *_indented([*reads(body.reads), *body_lines(ast), *_CHECKED], 1),
                "    _shared[_out] = _result = value",
                "_total += _result",
            ]
        else:
            per_lane_link += [*reads(body.reads), *body_lines(ast), *_CHECKED, "_total += value"]
    lines = [
        f"def score(views, _t, {', '.join(EVENT_VARIABLES)}):",
        "    _scores = []",
        *(["    _shared = {}"] if share else []),
        "    index = 0.0",
        "    for _phase in views:",
        "        _total = 0.0",
        "        for _lane, _out in _phase:",
        *_indented(per_lane_link or ["pass"], 3),
        "        _scores.append(_total)",
        "        index += 1.0",
        "    return _scores",
    ]
    return "".join(line + "\n" for line in lines)


@functools.lru_cache(maxsize=4096)
def scorer(inlane_code: str, outlane_code: str) -> Callable[..., list[float]]:
    """The generated scorer of two bodies, cached by their code texts:
    the bodies are parsed and the scorer compiled only the first time a
    pair is asked for."""
    namespace: dict[str, object] = {}
    source = _scorer_source(parse(inlane_code), parse(outlane_code))
    exec(compile(source, "<scorer>", "exec"), _SCORER_GLOBALS, namespace)  # noqa: S102 - grammar+whitelist fenced
    return namespace["score"]


# The event context of a decision with no active event.
_NO_EVENT = (0.0,) * len(EVENT_VARIABLES)


def score_phases(
    score: Callable[..., list[float]],
    views: PhaseViews,
    t: int,
    ctx_extra: dict[str, float] | None = None,
) -> list[float]:
    """Each phase's score at step ``t`` under a skill's generated
    ``score``, with the event variables ``ctx_extra`` names bound to its
    values and every other one to 0.0; raises EvalError if any lane-link
    evaluation faults (callers hold the current phase and record it).

    The work is the skill's generated scorer's (see the module
    docstring): each lane-link adds its inlane result, checked, then its
    outlane result, so the first fault in that order is the one
    reported, with the message the body's own function would give, and
    every score is bit-identical to running both bodies at every
    lane-link on the figures that lane-link reads.
    """
    context = tuple(ctx_extra.get(name, 0.0) for name in EVENT_VARIABLES) if ctx_extra else _NO_EVENT
    try:
        return score(views, t, *context)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise EvalError(str(exc)) from exc


def max_pressure(junction: Junction) -> int:
    """The phase of highest upstream-minus-downstream queue pressure, the
    lowest index among ties. The pressures are the junction's kept
    ``pressures``, which the engine changes at every queue join, release
    and blockage change; every figure is a count, so the sums are exact.
    Event-blind by construction."""
    pressures = junction.pressures
    return pressures.index(max(pressures))


# The fixed-time plan: phase greens of 25, 5, 25 and 5 s, each led by
# the engine's yellow; the green windows are right only with that yellow.
FIXED_TIME_GREENS = (25, 5, 25, 5)
FIXED_TIME_CYCLE = sum(FIXED_TIME_GREENS) + 4 * YELLOW_STEPS


def fixed_time_target(t: int) -> int:
    """Requested phase at simulation time t. Each green slot begins with
    the yellow that leads into it, so requesting at the slot boundary
    produces exactly the planned green windows."""
    tick = t % FIXED_TIME_CYCLE
    edge = FIXED_TIME_GREENS[0]  # first switch request: end of phase 0 green
    for k in range(1, 4):
        if tick < edge:
            return k - 1
        edge += YELLOW_STEPS + FIXED_TIME_GREENS[k]
    if tick < edge:
        return 3
    return 0  # trailing yellow back into phase 0


class FixedTimeController:
    """Open-loop NEMA-style splits; identical at every intersection (no
    offsets)."""

    def __init__(self):
        # The decision of step ``_t``, which every intersection shares.
        self._t: int | None = None
        self._decision: PhaseDecision | None = None

    def decide(self, episode: Episode, junction: Junction) -> PhaseDecision:
        if episode.t != self._t:
            self._t = episode.t
            self._decision = PHASE_DECISIONS[fixed_time_target(episode.t)]
        return self._decision


class MaxPressureController:
    def decide(self, episode: Episode, junction: Junction) -> PhaseDecision:
        return PHASE_DECISIONS[max_pressure(junction)]


class SkillController:
    """Score phases with one skill everywhere; on a runtime fault, hold
    the current phase for the step and record it (the fault still voids
    the candidate's fitness at the evolution layer)."""

    def __init__(self, skill: Skill):
        self.score = scorer(skill.inlane_code, skill.outlane_code)

    def decide(self, episode: Episode, junction: Junction) -> PhaseDecision | None:
        try:
            return PHASE_DECISIONS[_argmax_lowest(score_phases(self.score, junction.views, episode.t))]
        except EvalError as exc:
            episode.record_fault(junction, str(exc))
            return None


def _log_events(episode: Episode, junction: Junction, events) -> None:
    for event in events:
        episode.log_record({"kind": "event", "event": event.kind, "time": episode.t, "intersection": junction.id,
                            "context": dict(event.context)})


class HandcraftedPreemptionController:
    """Max-pressure plus a deterministic preemption rule fed by the same
    event detector and dispatch as the dispatcher: a dispatched
    emergency immediately claims its phase, overriding min-green."""

    def decide(self, episode: Episode, junction: Junction) -> PhaseDecision:
        events = ev.detect(episode, junction)
        if episode.collect_step_log:
            _log_events(episode, junction, events)
        event = ev.dispatch(events)
        if event is not None and event.kind == "emergency":
            return PhaseDecision(int(event.context["emergency_phase"]), override_min_green=True)
        return PHASE_DECISIONS[max_pressure(junction)]


class DispatcherController:
    """The full event-aware pipeline: detect, dispatch one event, score
    with the bank's skill of its kind (``normal`` when there is none)
    and its context injected. ``bank`` maps each of ``BANK_KINDS`` to a
    skill; a bank without one of them raises KeyError here, so every
    dispatched kind has a scorer. Detected events and skill activations
    are logged so runs can be audited."""

    def __init__(self, bank: dict[str, Skill]):
        self.scorers = {kind: scorer(bank[kind].inlane_code, bank[kind].outlane_code) for kind in ev.BANK_KINDS}

    def decide(self, episode: Episode, junction: Junction) -> PhaseDecision | None:
        events = ev.detect(episode, junction)
        event = ev.dispatch(events)
        kind, context = ("normal", None) if event is None else (event.kind, event.context)
        if episode.collect_step_log:
            _log_events(episode, junction, events)
            episode.log_record(
                {"kind": "activation", "skill_kind": kind, "time": episode.t, "intersection": junction.id}
            )
        try:
            scores = score_phases(self.scorers[kind], junction.views, episode.t, context)
        except EvalError as exc:
            episode.record_fault(junction, str(exc))
            return None
        return PHASE_DECISIONS[_argmax_lowest(scores)]


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative controller choice; picklable, so episodes can fan out
    to worker processes."""

    kind: str  # skill | fixed_time | max_pressure | handcrafted_preemption | dispatcher
    skill: Skill | None = None
    bank_skills: dict[str, Skill] | None = None

    def build(self):
        if self.kind == "skill":
            if self.skill is None:
                raise ValueError("skill controller needs a skill")
            return SkillController(self.skill)
        if self.kind == "fixed_time":
            return FixedTimeController()
        if self.kind == "max_pressure":
            return MaxPressureController()
        if self.kind == "handcrafted_preemption":
            return HandcraftedPreemptionController()
        if self.kind == "dispatcher":
            return DispatcherController(self.bank_skills or DEFAULT_BANK)
        raise ValueError(f"unknown controller kind {self.kind!r}")


def drive(
    spec: ControllerSpec, scenario: ScenarioConfig, seed: int, *, collect_step_log: bool = False
) -> EpisodeResult:
    """Run one episode of (scenario, seed) under a freshly built controller."""
    return run_episode(Arrivals(scenario, seed), spec.build(), collect_step_log=collect_step_log)


# (spec, the traffic of its episode)
Task = tuple[ControllerSpec, Arrivals]


def _run_task(task: Task) -> EpisodeResult:
    spec, arrivals = task
    return run_episode(arrivals, spec.build())


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


def run_episodes(tasks: list[Task], pool: futures.Executor | None = None) -> list[EpisodeResult]:
    """Run ``(spec, arrivals)`` episodes and return their results, in
    task order with or without a ``pool`` (see ``episode_pool``)."""
    if pool is None or len(tasks) <= 1:
        return [_run_task(task) for task in tasks]
    # Each task carries a copy of its arrivals to a worker. Draw here,
    # once, the arrivals that more than one task holds, so that no
    # worker draws them again; a task's own go undrawn and are drawn in
    # its worker.
    seen: set[int] = set()
    for _, arrivals in tasks:
        if id(arrivals) in seen:
            arrivals.draw_until(arrivals.scenario.duration)
        seen.add(id(arrivals))
    return list(pool.map(_run_task, tasks))
