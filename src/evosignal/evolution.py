"""The generate-test-evolve-solidify loop.

Each generation: extract diagnostic signals from the metric history,
turn them into a natural-language direction, ask the generator for M
candidate mutations of the elite, validate and evaluate every candidate
on all scenarios, rank, and archive a capsule whenever the best-so-far
fitness strictly improves. The elite is carried forward as the mutation
base and the best-so-far floor without re-evaluation, so a run with M
candidates over G generations costs exactly M*G generator calls and
M*G*len(scenarios) episodes.

Evaluation seeds are fixed per (run seed, scenario) for the whole run:
every candidate in every generation faces the same episodes, so fitness
comparisons are real comparisons and a copied elite reproduces its
fitness exactly.

Everything is checkpointed after each generation; a resumed run replays
into byte-identical store files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import events as ev
from . import generator as gen
from . import metrics as met
from .control import ControllerSpec, run_episodes
from .dsl import event_whitelist, routine_whitelist
from .sim.engine import SimulationMetrics
from .sim.scenario import ScenarioConfig
from .skills import SEED_SKILL, Skill
from .store import Checkpoint, RunStore
from .util import mix_seed, percentile

NEG_INFINITY = float("-inf")

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

    def any(self) -> bool:
        return any(self.as_dict().values())


@dataclass(frozen=True)
class GenerationAggregate:
    """Per-generation record of the best candidate's performance; the
    percentile histories run over these."""

    fitness: float
    avg_delay: float
    avg_queue: float
    throughput: float

    def as_dict(self) -> dict[str, float]:
        return {
            "fitness": self.fitness,
            "avg_delay": self.avg_delay,
            "avg_queue": self.avg_queue,
            "throughput": self.throughput,
        }


def extract_signals(
    history: list[GenerationAggregate],
    current: GenerationAggregate | None,
    stagnation: int,
    tau: int,
) -> EvolutionSignals:
    """Diagnostics for the upcoming generation. ``history`` holds the
    aggregates of generations strictly before ``current`` (percentile
    signals stay off until it is non-empty); trend signals compare the
    last two best fitnesses; force_innovation fires at stagnation >= tau.
    """
    high_queue = low_throughput = high_delay = False
    if history and current is not None:
        queues = [h.avg_queue for h in history]
        delays = [h.avg_delay for h in history]
        throughputs = [h.throughput for h in history]
        high_queue = current.avg_queue > percentile(queues, 75)
        high_delay = current.avg_delay > percentile(delays, 75)
        low_throughput = current.throughput < percentile(throughputs, 25)
    gain = decline = False
    if history and current is not None:
        delta = current.fitness - history[-1].fitness
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
    mode: str = "routine"  # routine | emergency | transit | incident
    seed: int = 0
    seed_skill: Skill = SEED_SKILL
    fitness_constant: float | None = None  # None: take each scenario's own

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2 (elite plus one candidate)")
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if self.mode not in ("routine", "emergency", "transit", "incident"):
            raise ValueError(f"unknown evolution mode {self.mode!r}")
        if not self.scenarios:
            raise ValueError("at least one scenario is required")

    @property
    def event_kind(self) -> str | None:
        return None if self.mode == "routine" else self.mode


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


def _fitness_cfg(cfg: EvolutionConfig, scenario: ScenarioConfig) -> met.FitnessConfig:
    constant = scenario.fitness_constant if cfg.fitness_constant is None else cfg.fitness_constant
    mode = "routine" if cfg.mode == "routine" else "event"
    return met.FitnessConfig(mode=mode, constant=constant)


@dataclass(frozen=True)
class EpisodeOutcome:
    scenario_name: str
    seed: int
    fitness: float
    faults: int
    avg_delay: float
    avg_queue: float
    throughput: float


def _candidate_spec(cfg: EvolutionConfig, candidate: Skill, bank: ev.SkillBank | None) -> ControllerSpec:
    if cfg.mode == "routine":
        return ControllerSpec("skill", skill=candidate)
    return ControllerSpec("dispatcher", bank_skills=bank.replaced(cfg.mode, candidate).skills)


def _outcome(
    cfg: EvolutionConfig, scenario: ScenarioConfig, seed: int, metrics: SimulationMetrics, faults: int
) -> EpisodeOutcome:
    """Score one episode; any controller fault voids it with -inf."""
    if faults > 0:
        fitness = NEG_INFINITY
    elif cfg.mode == "routine":
        fitness = met.routine_fitness(metrics, _fitness_cfg(cfg, scenario))
    else:
        fitness = met.event_fitness(metrics, cfg.mode, _fitness_cfg(cfg, scenario))
    return EpisodeOutcome(
        scenario_name=scenario.name,
        seed=seed,
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


def evaluate_generation(
    cfg: EvolutionConfig,
    candidates: list[Skill],
    bank: ev.SkillBank | None,
    jobs: int = 1,
) -> list[tuple[float, dict[str, float], list[EpisodeOutcome]]]:
    """Mean fitness, mean headline metrics and per-episode outcomes of
    each candidate across the config's scenarios. Episodes may run in
    worker processes; fitness is computed here, and results come back in
    candidate order regardless of jobs, so the audit trail is identical
    either way."""
    seeds = [mix_seed(cfg.seed, s_index) for s_index in range(len(cfg.scenarios))]
    tasks = [
        (_candidate_spec(cfg, candidate, bank), scenario, seed)
        for candidate in candidates
        for scenario, seed in zip(cfg.scenarios, seeds)
    ]
    outcomes = [
        _outcome(cfg, scenario, seed, metrics, faults)
        for (_, scenario, seed), (metrics, faults) in zip(tasks, run_episodes(tasks, jobs))
    ]
    per_candidate = []
    n = len(cfg.scenarios)
    for i in range(len(candidates)):
        chunk = outcomes[i * n : (i + 1) * n]
        fitness, summary = _summarize(chunk)
        per_candidate.append((fitness, summary, chunk))
    return per_candidate


def dispatcher_context_evaluate(
    candidate: Skill,
    kind: str,
    bank: ev.SkillBank,
    scenarios,
    *,
    seed: int = 0,
    fitness_constant: float | None = None,
) -> float:
    """Fitness of a candidate event skill inside the full detect +
    dispatch pipeline, all other bank slots held fixed."""
    cfg = EvolutionConfig(
        scenarios=tuple(scenarios),
        mode=kind,
        seed=seed,
        fitness_constant=fitness_constant,
    )
    return evaluate_generation(cfg, [candidate], bank)[0][0]


def run_evolution(
    cfg: EvolutionConfig,
    backend,
    store: RunStore,
    *,
    bank: ev.SkillBank | None = None,
    stop_after: int | None = None,
    resume: bool = False,
    jobs: int = 1,
) -> EvolutionResult:
    """Drive the full loop; see the module docstring for the shape.

    ``stop_after`` ends the session after that many generations with the
    checkpoint intact (simulating an interrupt); ``resume`` picks up from
    the store's checkpoint; ``jobs`` fans candidate episodes out over
    worker processes without changing any output byte. Returns the best
    skill over all generations.
    """
    started = time.monotonic()
    whitelist = event_whitelist() if cfg.event_kind else routine_whitelist()
    if cfg.event_kind and bank is None:
        bank = ev.default_bank()

    aggregates: list[GenerationAggregate] = []
    fitness_history: list[float] = []
    stagnation = 0
    best_skill: Skill | None = None
    best_fitness = NEG_INFINITY
    start_generation = 0
    elapsed_before = 0.0

    if resume:
        checkpoint = store.read_checkpoint()
        if checkpoint is None:
            raise ValueError(f"no checkpoint to resume in {store.run_dir}")
        store.truncate_to(checkpoint.record_counts)
        skills = store.skills()
        start_generation = checkpoint.generations_done
        fitness_history = list(checkpoint.fitness_history)
        stagnation = checkpoint.stagnation
        best_fitness = checkpoint.best_fitness if checkpoint.best_fitness is not None else NEG_INFINITY
        best_skill = skills.get(checkpoint.best_skill_id) if checkpoint.best_skill_id else None
        aggregates = [GenerationAggregate(**a) for a in checkpoint.aggregates]
        elapsed_before = checkpoint.elapsed_seconds
        if hasattr(backend, "calls"):
            backend.calls = checkpoint.generator_calls
        store.append_session_event(
            {"event": "resumed", "generation": start_generation, "run": store.run_id}
        )
    else:
        # Archive the seed first so every candidate's parent chain
        # resolves inside this run's store.
        store.append_skill(cfg.seed_skill)

    generations_this_session = 0
    interrupted = False

    for g in range(start_generation, cfg.generations):
        if stop_after is not None and generations_this_session >= stop_after:
            interrupted = True
            break
        current = aggregates[-1] if aggregates else None
        history = aggregates[:-1] if len(aggregates) > 1 else []
        signals = (
            extract_signals(list(history), current, stagnation, cfg.tau)
            if g > 0
            else EvolutionSignals()
        )
        direction = direction_text(signals)
        elite = best_skill if best_skill is not None else cfg.seed_skill
        elite_metrics = elite.metrics_snapshot

        prompts = gen.build_prompts(
            elite, elite_metrics, direction, whitelist, event_kind=cfg.event_kind
        )

        def log_attempt(index: int, attempt: int, draft, report):
            store.append_event(
                "generated",
                {"generation": g, "candidate": index, "attempt": attempt},
            )
            if draft is not None and report is not None and report.ok:
                store.append_event(
                    "validated", {"generation": g, "candidate": index, "attempt": attempt}
                )
            else:
                stage = report.stage if report is not None else "parse"
                message = report.message if report is not None else "not a skill JSON object"
                store.append_event(
                    "rejected",
                    {"generation": g, "candidate": index, "attempt": attempt,
                     "stage": stage, "message": message},
                )

        drafts = gen.generate(
            backend,
            prompts,
            cfg.population,
            elite=elite,
            whitelist=whitelist,
            signals=signals.as_dict(),
            event_kind=cfg.event_kind,
            on_attempt=log_attempt,
        )

        candidates = [
            draft.with_lineage(id=f"g{g:03d}c{i}", parent_id=elite.id, generation=g)
            for i, draft in enumerate(drafts)
        ]
        evaluations = evaluate_generation(cfg, candidates, bank, jobs=jobs)

        gen_best: Skill | None = None
        gen_best_fitness = NEG_INFINITY
        gen_best_summary: dict[str, float] | None = None
        candidate_ids = []
        for skill, (fitness, summary, outcomes) in zip(candidates, evaluations):
            for outcome in outcomes:
                store.append_event(
                    "evaluated",
                    {
                        "generation": g,
                        "skill_id": skill.id,
                        "scenario": outcome.scenario_name,
                        "seed": outcome.seed,
                        "fitness": None if outcome.fitness == NEG_INFINITY else outcome.fitness,
                        "faults": outcome.faults,
                    },
                )
            skill = replace(skill, fitness=None if fitness == NEG_INFINITY else fitness,
                            metrics_snapshot=summary)
            store.append_skill(skill)
            candidate_ids.append(skill.id)
            if fitness > gen_best_fitness:
                gen_best = skill
                gen_best_fitness = fitness
                gen_best_summary = summary

        improved = gen_best is not None and gen_best_fitness > best_fitness
        if improved:
            best_skill = gen_best
            best_fitness = gen_best_fitness
            stagnation = 0
            solidify(gen_best, gen_best_fitness, gen_best_summary or {}, store, g)
        else:
            stagnation += 1

        if gen_best is not None and gen_best_fitness > NEG_INFINITY:
            aggregates.append(
                GenerationAggregate(
                    fitness=gen_best_fitness,
                    avg_delay=gen_best_summary["avg_delay"],
                    avg_queue=gen_best_summary["avg_queue"],
                    throughput=gen_best_summary["throughput"],
                )
            )
        elif aggregates:
            aggregates.append(aggregates[-1])
        else:
            aggregates.append(GenerationAggregate(0.0, 0.0, 0.0, 0.0))
        fitness_history.append(best_fitness)

        seq = store.append_event(
            "checkpointed",
            {
                "generation": g,
                "best_id": best_skill.id if best_skill else None,
                "best_fitness": best_fitness,
                "generation_best": None if gen_best_fitness == NEG_INFINITY else gen_best_fitness,
                "candidates": candidate_ids,
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
                best_fitness=None if best_fitness == NEG_INFINITY else best_fitness,
                generator_calls=getattr(backend, "calls", 0),
                record_counts=store.record_counts(),
                sequence=seq,
                aggregates=tuple(a.as_dict() for a in aggregates),
                elapsed_seconds=elapsed_before + (time.monotonic() - started),
            )
        )
        generations_this_session += 1

    if best_skill is None:
        raise RuntimeError("no candidate ever evaluated; evolution produced nothing")

    initial = aggregates[0].fitness if aggregates else best_fitness
    best_generation = 0
    for i, value in enumerate(fitness_history):
        if value == best_fitness:
            best_generation = i
            break
    return EvolutionResult(
        best=best_skill,
        best_fitness=best_fitness,
        initial_fitness=initial,
        best_generation=best_generation,
        fitness_history=tuple(fitness_history),
        generations_done=len(fitness_history),
        interrupted=interrupted,
    )
