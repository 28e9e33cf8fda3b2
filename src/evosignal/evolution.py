"""The generate-test-evolve-solidify loop.

Each generation: extract diagnostic signals from the metric history,
turn them into a natural-language direction, ask the generator for M
candidate mutations of the elite, validate and evaluate every candidate
on all scenarios, rank, and archive a capsule whenever the best-so-far
fitness strictly improves. The elite is carried forward as the mutation
base and the best-so-far floor without re-evaluation, so a run with M
candidates over G generations costs exactly M*G generator calls and
M*G*len(scenarios) evaluations. Candidates of one generation whose
parsed bodies are equal share one simulation per scenario, so a run
simulates at most that many episodes.

Evaluation seeds are fixed per (run seed, scenario) for the whole run:
every candidate in every generation faces the same episodes, so fitness
comparisons are real comparisons and a copied elite reproduces its
fitness exactly. The traffic of each (scenario, seed) is drawn once per
run (``Arrivals``), and one worker pool serves the whole run.

A run's state is one ``Checkpoint``: a fresh run starts from an empty
one, a resumed run from the one in its store, and each generation writes
a new one. A resumed run replays into byte-identical store files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import events as ev
from . import generator as gen
from . import metrics as met
from .control import ControllerSpec, episode_pool, run_episodes
from .dsl import parse
from .sim.engine import Arrivals, EpisodeResult
from .sim.scenario import ScenarioConfig
from .skills import SEED_SKILL, Skill
from .store import Checkpoint, RunStore
from .util import mix_seed, percentile

NEG_INFINITY = float("-inf")

# The modes a run can evolve: routine control, or one event kind's skill
# inside the default bank.
MODES = ("routine", *met.EVENT_WEIGHTS)

SIGNAL_ORDER = (
    "force_innovation",
    "high_queue",
    "low_throughput",
    "high_delay",
    "performance_gain",
    "performance_decline",
)

# Verbatim direction strings, in table order; the neutral line is what
# the no-signal ablation uses.
DIRECTIONS = {
    "force_innovation": "Multiple stagnant generations. Try completely different structure.",
    "high_queue": "Queue exceeds P75. Focus on queue management.",
    "low_throughput": "Throughput below P25. Optimize flow efficiency.",
    "high_delay": "Delay exceeds P75. Reduce vehicle waiting time.",
    "performance_gain": "Performance improved. Continue optimizing current direction.",
    "performance_decline": "Performance declined. Try different strategy approach.",
}
NEUTRAL_DIRECTION = gen.NEUTRAL_DIRECTION


@dataclass(frozen=True)
class EvolutionSignals:
    high_queue: bool = False
    low_throughput: bool = False
    high_delay: bool = False
    performance_gain: bool = False
    performance_decline: bool = False
    force_innovation: bool = False

    def __post_init__(self):
        if self.performance_gain and self.performance_decline:
            raise ValueError("gain and decline cannot both fire")

    def as_dict(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in SIGNAL_ORDER}


def extract_signals(
    history: list[dict[str, float]],
    current: dict[str, float] | None,
    stagnation: int,
    tau: int,
) -> EvolutionSignals:
    """Diagnostics for the upcoming generation. An aggregate is the dict
    a checkpoint stores per generation (``fitness``, ``avg_delay``,
    ``avg_queue``, ``throughput``). ``history`` holds the aggregates of
    generations strictly before ``current``; the percentile signals and
    the trend signals, which compare the last two best fitnesses, stay
    off until it is non-empty. force_innovation fires at stagnation >=
    tau."""
    high_queue = low_throughput = high_delay = gain = decline = False
    if history and current is not None:
        high_queue = current["avg_queue"] > percentile([h["avg_queue"] for h in history], 75)
        high_delay = current["avg_delay"] > percentile([h["avg_delay"] for h in history], 75)
        low_throughput = current["throughput"] < percentile([h["throughput"] for h in history], 25)
        delta = current["fitness"] - history[-1]["fitness"]
        gain = delta > 0
        decline = delta < 0
    return EvolutionSignals(
        high_queue=high_queue,
        low_throughput=low_throughput,
        high_delay=high_delay,
        performance_gain=gain,
        performance_decline=decline,
        force_innovation=stagnation >= tau,
    )


def direction_text(signals: EvolutionSignals) -> str:
    """Concatenate the active signals' direction strings in fixed table
    order; no signals gives the neutral line."""
    parts = [DIRECTIONS[name] for name in SIGNAL_ORDER if getattr(signals, name)]
    return " ".join(parts) if parts else NEUTRAL_DIRECTION


class NotAnImprovement(ValueError):
    """Solidify precondition violated: fitness does not exceed every
    prior capsule's."""


def solidify(skill: Skill, fitness: float, metrics: dict, store: RunStore, generation: int) -> dict:
    """Archive a strictly improving skill as an immutable capsule."""
    prior = store.capsules()
    best_prior = max((c["fitness"] for c in prior), default=NEG_INFINITY)
    if fitness <= best_prior:
        raise NotAnImprovement(
            f"fitness {fitness} does not exceed the best capsule ({best_prior})"
        )
    capsule = {
        "skill": skill.to_json_dict(),
        "fitness": fitness,
        "metrics": metrics,
        "generation": generation,
    }
    seq = store.append_capsule(capsule)
    store.append_event("solidified", {"skill_id": skill.id, "generation": generation,
                                      "fitness": fitness, "timestamp": seq})
    return capsule


@dataclass(frozen=True)
class EvolutionConfig:
    scenarios: tuple[ScenarioConfig, ...]
    population: int = 8  # candidates generated and evaluated per generation
    generations: int = 30
    tau: int = 3  # stagnation threshold for force_innovation
    mode: str = "routine"  # one of MODES
    seed: int = 0

    def __post_init__(self):
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.population < 2:
            raise ValueError("population must be at least 2 (elite plus one candidate)")
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown evolution mode {self.mode!r}")
        if not self.scenarios:
            raise ValueError("at least one scenario is required")

    @property
    def event_kind(self) -> str | None:
        return None if self.mode == "routine" else self.mode


class NoViableCandidate(RuntimeError):
    """Every generation so far ended without a candidate that ran all
    its episodes without a fault; the checkpoint of each is written."""


@dataclass(frozen=True)
class EvolutionResult:
    best: Skill
    best_fitness: float
    initial_fitness: float
    best_generation: int
    fitness_history: tuple[float, ...]
    generations_done: int
    interrupted: bool


@dataclass(frozen=True)
class GenerationRecord:
    """One generation as reconstructed from the audit trail."""

    index: int
    candidate_ids: tuple[str, ...]
    fitness_vector: tuple[float | None, ...]  # per candidate, scenario mean
    best_id: str | None
    best_fitness: float  # best-so-far after this generation
    signals: dict[str, bool]
    direction: str


def generation_records(store: RunStore) -> list[GenerationRecord]:
    """Rebuild the per-generation records from a run's events. Best
    fitness is nondecreasing across the returned list (elite
    preservation)."""
    per_candidate: dict[int, dict[str, list[float | None]]] = {}
    checkpoints: dict[int, dict] = {}
    for event in store.events():
        if event["event"] == "evaluated":
            bucket = per_candidate.setdefault(event["generation"], {})
            bucket.setdefault(event["skill_id"], []).append(event["fitness"])
        elif event["event"] == "checkpointed":
            checkpoints[event["generation"]] = event
    records = []
    for g in sorted(checkpoints):
        event = checkpoints[g]
        ids = tuple(event["candidates"])
        vector = []
        for skill_id in ids:
            values = per_candidate.get(g, {}).get(skill_id, [])
            if values and all(v is not None for v in values):
                vector.append(sum(values) / len(values))
            else:
                vector.append(None)
        records.append(
            GenerationRecord(
                index=g,
                candidate_ids=ids,
                fitness_vector=tuple(vector),
                best_id=event["best_id"],
                best_fitness=event["best_fitness"],
                signals=dict(event["signals"]),
                direction=event["direction"],
            )
        )
    return records


@dataclass(frozen=True)
class EpisodeOutcome:
    scenario_name: str
    seed: int
    fitness: float
    faults: int
    avg_delay: float
    avg_queue: float
    throughput: float


def _swap_inf_null(fitness: float | None) -> float | None:
    """A fitness in its other form: the store writes -inf (a faulted
    candidate, or no best yet) as null. Maps -inf and None to each other."""
    if fitness is None:
        return NEG_INFINITY
    return None if fitness == NEG_INFINITY else fitness


def _candidate_spec(cfg: EvolutionConfig, candidate: Skill, bank: ev.SkillBank | None) -> ControllerSpec:
    if cfg.mode == "routine":
        return ControllerSpec("skill", skill=candidate)
    return ControllerSpec("dispatcher", bank_skills=bank.replaced(cfg.mode, candidate).skills)


def _outcome(cfg: EvolutionConfig, arrivals: Arrivals, result: EpisodeResult) -> EpisodeOutcome:
    """Score one episode; any controller fault voids it with -inf."""
    scenario, metrics, faults = arrivals.scenario, result.metrics, result.controller_faults
    if faults > 0:
        fitness = NEG_INFINITY
    elif cfg.mode == "routine":
        fitness = met.routine_fitness(metrics, scenario.fitness_constant)
    else:
        fitness = met.event_fitness(metrics, cfg.mode, scenario.fitness_constant)
    return EpisodeOutcome(
        scenario_name=scenario.name,
        seed=arrivals.seed,
        fitness=fitness,
        faults=faults,
        avg_delay=metrics.avg_delay,
        avg_queue=metrics.avg_queue,
        throughput=float(metrics.throughput),
    )


def _summarize(outcomes: list[EpisodeOutcome]) -> tuple[float, dict[str, float]]:
    faulted = any(o.faults > 0 for o in outcomes)
    mean_fitness = (
        NEG_INFINITY if faulted else sum(o.fitness for o in outcomes) / len(outcomes)
    )
    summary = {
        "avg_delay": sum(o.avg_delay for o in outcomes) / len(outcomes),
        "avg_queue": sum(o.avg_queue for o in outcomes) / len(outcomes),
        "throughput": sum(o.throughput for o in outcomes) / len(outcomes),
    }
    return mean_fitness, summary


def run_arrivals(cfg: EvolutionConfig) -> tuple[Arrivals, ...]:
    """The traffic every candidate of a run faces: one ``Arrivals`` per
    scenario, at the run's fixed evaluation seed for it."""
    return tuple(
        Arrivals(scenario, mix_seed(cfg.seed, s_index)) for s_index, scenario in enumerate(cfg.scenarios)
    )


def evaluate_generation(
    cfg: EvolutionConfig,
    candidates: list[Skill],
    bank: ev.SkillBank | None,
    arrivals: tuple[Arrivals, ...],
    pool=None,
) -> list[tuple[float, dict[str, float], list[EpisodeOutcome]]]:
    """Mean fitness, mean headline metrics and per-episode outcomes of
    each candidate across the config's scenarios, whose traffic is
    ``arrivals`` (see ``run_arrivals``). On that traffic an episode is a
    function of the candidate's parsed bodies alone (``bank`` is fixed
    within a call), so candidates with equal parsed (inlane, outlane)
    bodies run once per scenario and share the outcomes. Episodes may
    run in ``pool``; fitness is computed here, and results come back in
    candidate order either way, so the audit trail is identical."""
    keys = [(parse(c.inlane_code), parse(c.outlane_code)) for c in candidates]
    index: dict[tuple, int] = {}
    distinct: list[Skill] = []
    for candidate, key in zip(candidates, keys):
        if key not in index:
            index[key] = len(distinct)
            distinct.append(candidate)
    tasks = [(_candidate_spec(cfg, candidate, bank), each) for candidate in distinct for each in arrivals]
    results = run_episodes(tasks, pool)
    n = len(arrivals)
    evaluations = []
    for i in range(len(distinct)):
        chunk = [_outcome(cfg, each, result) for each, result in zip(arrivals, results[i * n : (i + 1) * n])]
        evaluations.append((*_summarize(chunk), chunk))
    return [evaluations[index[key]] for key in keys]


def dispatcher_context_evaluate(
    candidate: Skill,
    kind: str,
    bank: ev.SkillBank,
    scenarios,
    *,
    seed: int = 0,
) -> float:
    """Fitness of a candidate event skill inside the full detect +
    dispatch pipeline, all other bank slots held fixed."""
    cfg = EvolutionConfig(scenarios=tuple(scenarios), mode=kind, seed=seed)
    return evaluate_generation(cfg, [candidate], bank, run_arrivals(cfg))[0][0]


def run_evolution(
    cfg: EvolutionConfig,
    backend,
    store: RunStore,
    *,
    stop_after: int | None = None,
    resume: bool = False,
    jobs: int = 1,
) -> EvolutionResult:
    """Drive the full loop; see the module docstring for the shape.

    ``stop_after`` ends the session after that many generations with the
    checkpoint intact (simulating an interrupt); ``resume`` picks up from
    the store's checkpoint; ``jobs`` fans candidate episodes out over one
    pool of worker processes, kept for the whole call, without changing
    any output byte. Returns the best skill over all generations.
    """
    if stop_after is not None and stop_after < 1:
        raise ValueError("stop_after must be None or at least 1")
    with episode_pool(jobs, cfg.population * len(cfg.scenarios)) as pool:
        return _evolve(cfg, backend, store, stop_after, resume, pool)


def _evolve(
    cfg: EvolutionConfig,
    backend,
    store: RunStore,
    stop_after: int | None,
    resume: bool,
    pool,
) -> EvolutionResult:
    # An event mode evolves its slot inside the default bank.
    bank = ev.default_bank() if cfg.event_kind else None
    if resume:
        checkpoint = store.read_checkpoint()
        if checkpoint is None:
            raise ValueError(f"no checkpoint to resume in {store.run_dir}")
        store.truncate_to(checkpoint.record_counts, checkpoint.sequence)
        store.append_session_event(
            {"event": "resumed", "generation": checkpoint.generations_done, "run": store.run_id}
        )
    else:
        checkpoint = Checkpoint(generations_done=0, fitness_history=(), stagnation=0, best_skill_id=None,
                                best_fitness=None, generator_calls=0, record_counts={}, sequence=0,
                                aggregates=(), elapsed_seconds=0.0)
        # Archive the seed first so every candidate's parent chain
        # resolves inside this run's store.
        store.append_skill(SEED_SKILL)

    started = time.monotonic() - checkpoint.elapsed_seconds
    best_skill = store.skills().get(checkpoint.best_skill_id) if checkpoint.best_skill_id else None
    best_fitness = _swap_inf_null(checkpoint.best_fitness)
    stagnation = checkpoint.stagnation
    aggregates = list(checkpoint.aggregates)
    fitness_history = list(checkpoint.fitness_history)
    backend.calls = checkpoint.generator_calls
    first = checkpoint.generations_done
    end = cfg.generations if stop_after is None else min(cfg.generations, first + stop_after)
    arrivals = run_arrivals(cfg)

    for g in range(first, end):
        signals = extract_signals(aggregates[:-1], aggregates[-1] if aggregates else None, stagnation, cfg.tau)
        direction = direction_text(signals)
        elite = best_skill if best_skill is not None else SEED_SKILL
        prompts = gen.build_prompts(elite, elite.metrics_snapshot, direction, cfg.event_kind)
        drafts, attempts = gen.generate(
            backend,
            prompts,
            cfg.population,
            elite=elite,
            signals=signals.as_dict(),
            event_kind=cfg.event_kind,
        )
        for index, attempt, report in attempts:
            where = {"generation": g, "candidate": index, "attempt": attempt}
            store.append_event("generated", where)
            if report.ok:
                store.append_event("validated", where)
            else:
                store.append_event("rejected", {**where, "stage": report.stage, "message": report.message})

        candidates = [
            draft.with_lineage(id=f"g{g:03d}c{i}", parent_id=elite.id, generation=g)
            for i, draft in enumerate(drafts)
        ]
        evaluations = evaluate_generation(cfg, candidates, bank, arrivals, pool)

        gen_best: Skill | None = None
        gen_best_fitness = NEG_INFINITY
        for skill, (fitness, summary, outcomes) in zip(candidates, evaluations):
            for outcome in outcomes:
                store.append_event(
                    "evaluated",
                    {
                        "generation": g,
                        "skill_id": skill.id,
                        "scenario": outcome.scenario_name,
                        "seed": outcome.seed,
                        "fitness": _swap_inf_null(outcome.fitness),
                        "faults": outcome.faults,
                    },
                )
            skill = replace(skill, fitness=_swap_inf_null(fitness), metrics_snapshot=summary)
            store.append_skill(skill)
            if fitness > gen_best_fitness:
                gen_best = skill
                gen_best_fitness = fitness

        if gen_best_fitness > best_fitness:
            best_skill = gen_best
            best_fitness = gen_best_fitness
            stagnation = 0
            solidify(gen_best, gen_best_fitness, gen_best.metrics_snapshot, store, g)
        else:
            stagnation += 1
        if gen_best is not None:
            aggregates.append({"fitness": gen_best_fitness, **gen_best.metrics_snapshot})
        else:
            aggregates.append(aggregates[-1] if aggregates else
                              {"fitness": 0.0, "avg_delay": 0.0, "avg_queue": 0.0, "throughput": 0.0})
        fitness_history.append(best_fitness)

        seq = store.append_event(
            "checkpointed",
            {
                "generation": g,
                "best_id": best_skill.id if best_skill else None,
                "best_fitness": best_fitness,
                "generation_best": _swap_inf_null(gen_best_fitness),
                "candidates": [c.id for c in candidates],
                "stagnation": stagnation,
                "signals": signals.as_dict(),
                "direction": direction,
            },
        )
        store.write_checkpoint(
            Checkpoint(
                generations_done=g + 1,
                fitness_history=tuple(fitness_history),
                stagnation=stagnation,
                best_skill_id=best_skill.id if best_skill else None,
                best_fitness=_swap_inf_null(best_fitness),
                generator_calls=backend.calls,
                record_counts=store.record_counts(),
                sequence=seq,
                aggregates=tuple(aggregates),
                elapsed_seconds=time.monotonic() - started,
            )
        )

    if best_skill is None:
        raise NoViableCandidate(
            f"no candidate ran without a fault in {len(fitness_history)} generation(s): "
            "every draft was rejected or its episodes faulted"
        )
    return EvolutionResult(
        best=best_skill,
        best_fitness=best_fitness,
        initial_fitness=aggregates[0]["fitness"] if aggregates else best_fitness,
        best_generation=fitness_history.index(best_fitness),
        fitness_history=tuple(fitness_history),
        generations_done=len(fitness_history),
        interrupted=end < cfg.generations,
    )
