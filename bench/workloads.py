"""The benchmark's workloads: what each one runs and how its outputs are
digested for the golden check.

Every workload is a closed loop with one client: the next operation
starts when the previous one has finished. An operation is one episode
(sim-8x8, dispatch-4x4) or one evolution generation (evolve-2x2). Inputs
derive from the benchmark seed only, and no run repeats an input: each
episode of a run gets its own seed, and evolve-2x2 runs one evolution
per benchmark seed in a fresh store directory.

Import this module only after ``checkout.use_checkout_sources()``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from checkout import ROOT
from evosignal.control import ControllerSpec, drive
from evosignal.evolution import EvolutionConfig, run_evolution
from evosignal.generator import ScriptedBackend
from evosignal.sim import make_scenario
from evosignal.skills import SEED_SKILL
from evosignal.store import CAPSULES_FILE, CHECKPOINT_FILE, EVENTS_FILE, SKILLS_FILE, RunStore

WORK_DIR = ROOT / ".bench_work"
STORE_FILES = (SKILLS_FILE, CAPSULES_FILE, EVENTS_FILE)
# An evolution runs until the time budget stops it; the cap only has to
# be out of reach.
GENERATION_CAP = 10_000

_clock = time.perf_counter


def episode_seed(seed: int, index: int) -> int:
    """Seed of the index-th episode of a run: distinct within a run and
    across benchmark seeds."""
    return seed * 1000 + index


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def metrics_digest(metrics) -> str:
    """Digest of an episode's full ``SimulationMetrics`` repr, per-step
    tuples included."""
    return sha256(repr(metrics).encode())


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: an episode or a generation."""

    index: int
    wall_s: float
    digest: object  # str (episode) or {file: sha256} (generation); None if it raised
    error: str | None = None


@dataclass
class Outcome:
    """Everything one measured pass of a workload produced."""

    ops: list[Op]
    wall_s: float  # closed-loop wall time of the whole pass
    episodes: int
    sim_steps: int  # intersection-seconds simulated
    round_s: list[float]  # per generation, or per pass over an episode workload's pairs
    episode_host_s: list[float]  # per episode, or per generation: worker-seconds per episode
    distinct_episodes: int  # distinct (controller or bodies, scenario, seed) keys
    jobs: int = 1
    generated: int = 0
    validated: int = 0
    bytes_written: int = 0


def _median_budget_left(start: float, samples: list[float], seconds: float) -> bool:
    """Closed-loop stop rule: start another unit only if one more unit of
    the median length so far still ends within the budget."""
    return _clock() - start + statistics.median(samples) <= seconds


class EpisodeWorkload:
    """Episodes cycling through fixed (controller kind, scenario family)
    pairs; a pass over all pairs is the unit the stop rule counts, so
    every run holds the same mix."""

    jobs = 1

    def __init__(self, rows: int, cols: int, duration: int, pairs):
        self.rows, self.cols, self.duration = rows, cols, duration
        self.pairs = tuple(pairs)
        self.scenarios: dict = {}
        self.specs: dict = {}

    def prepare(self) -> None:
        """Build the scenarios and compile every controller once."""
        for kind, family in self.pairs:
            if family not in self.scenarios:
                self.scenarios[family] = make_scenario(
                    family, rows=self.rows, cols=self.cols, duration=self.duration
                )
            if kind not in self.specs:
                self.specs[kind] = ControllerSpec(kind)
                self.specs[kind].build()

    def run(self, seed: int, seconds: float, tracer=None, limit: int | None = None) -> Outcome:
        """Closed loop for ``seconds`` (whole passes), or exactly
        ``limit`` episodes."""
        span = tracer.span if tracer is not None else (lambda *a, **k: nullcontext())
        ops: list[Op] = []
        keys = set()
        passes: list[float] = []
        start = pass_start = _clock()
        while True:
            index = len(ops)
            kind, family = self.pairs[index % len(self.pairs)]
            ep_seed = episode_seed(seed, index)
            keys.add((kind, family, ep_seed))
            t0 = _clock()
            with span("episode", controller=kind, scenario=family, seed=ep_seed):
                try:
                    result = drive(self.specs[kind], self.scenarios[family], seed=ep_seed)
                    digest, error = metrics_digest(result.metrics), None
                except Exception as exc:  # a raising episode is a failed operation
                    digest, error = None, f"{type(exc).__name__}: {exc}"
            ops.append(Op(index, _clock() - t0, digest, error))
            if limit is not None:
                if len(ops) >= limit:
                    break
                continue
            if len(ops) % len(self.pairs) == 0:
                now = _clock()
                passes.append(now - pass_start)
                pass_start = now
                if not _median_budget_left(start, passes, seconds):
                    break
        ok = [op for op in ops if op.error is None]
        return Outcome(
            ops=ops,
            wall_s=_clock() - start,
            episodes=len(ok),
            sim_steps=len(ok) * self.rows * self.cols * self.duration,
            round_s=passes,
            episode_host_s=[op.wall_s for op in ok],
            distinct_episodes=len(keys),
        )


class _StopEvolution(Exception):
    pass


def _prefix(lines: list[bytes], count: int) -> bytes:
    return b"".join(lines[:count])


class EvolveWorkload:
    """One scripted routine evolution per run, in a fresh store
    directory, stopped by the closed-loop rule right after a checkpoint
    so the store is always whole. A generation lasts from one
    ``RunStore.write_checkpoint`` to the next (the first from the start
    of the run)."""

    def __init__(self, rows: int, cols: int, duration: int, families, population: int, jobs: int):
        self.rows, self.cols, self.duration = rows, cols, duration
        self.families = tuple(families)
        self.population = population
        self.jobs = jobs
        self.scenarios: tuple = ()

    def prepare(self) -> None:
        self.scenarios = tuple(
            make_scenario(f, rows=self.rows, cols=self.cols, duration=self.duration) for f in self.families
        )
        ControllerSpec("skill", skill=SEED_SKILL).build()

    def run(self, seed: int, seconds: float, tracer=None, limit: int | None = None) -> Outcome:
        """Evolve for ``seconds`` (whole generations), or exactly
        ``limit`` generations. A traced run uses one job so that every
        episode runs in the traced process."""
        jobs = 1 if tracer is not None else self.jobs
        WORK_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=WORK_DIR))
        run_dir = work / "run"  # a fixed name: records carry it as their run id
        stamps: list[float] = []
        record_counts: list[dict] = []
        checkpoint_bytes = 0
        original = RunStore.write_checkpoint

        def checkpoint_hook(store, checkpoint):
            nonlocal checkpoint_bytes
            original(store, checkpoint)
            stamps.append(_clock())
            record_counts.append(dict(checkpoint.record_counts))
            checkpoint_bytes += (store.run_dir / CHECKPOINT_FILE).stat().st_size
            if limit is not None:
                done = len(stamps) >= limit
            else:
                edges = [start] + stamps
                done = not _median_budget_left(start, [b - a for a, b in zip(edges, edges[1:])], seconds)
            if done:
                raise _StopEvolution

        cfg = EvolutionConfig(
            scenarios=self.scenarios, population=self.population, generations=GENERATION_CAP, seed=seed
        )
        error = None
        RunStore.write_checkpoint = checkpoint_hook
        try:
            start = _clock()
            try:
                run_evolution(cfg, ScriptedBackend(seed=seed), RunStore(run_dir), jobs=jobs)
            except _StopEvolution:
                pass
            except Exception as exc:  # the generation in progress failed
                error = f"{type(exc).__name__}: {exc}"
            end = _clock()
            lines = {
                name: (run_dir / name).read_bytes().splitlines(keepends=True) if (run_dir / name).exists() else []
                for name in STORE_FILES
            }
        finally:
            RunStore.write_checkpoint = original
            shutil.rmtree(work, ignore_errors=True)

        edges = [start] + stamps
        intervals = [b - a for a, b in zip(edges, edges[1:])]
        ops = [
            Op(g, intervals[g], {name: sha256(_prefix(lines[name], counts[name])) for name in STORE_FILES})
            for g, counts in enumerate(record_counts)
        ]
        if error is not None:
            ops.append(Op(len(ops), end - edges[-1], None, error))
        if tracer is not None:
            for g, wall in enumerate(intervals):
                tracer.mark("generation", edges[g], wall, index=g)

        final = record_counts[-1] if record_counts else {name: 0 for name in STORE_FILES}
        skills = {}
        for line in lines[SKILLS_FILE][: final[SKILLS_FILE]]:
            record = json.loads(line)
            skills[record["id"]] = (record["inlane_code"], record["outlane_code"])
        per_generation = [0] * len(record_counts)
        keys = set()
        generated = validated = 0
        for line in lines[EVENTS_FILE][: final[EVENTS_FILE]]:
            event = json.loads(line)
            if event["event"] == "evaluated":
                per_generation[event["generation"]] += 1
                keys.add((*skills[event["skill_id"]], event["scenario"], event["seed"]))
            elif event["event"] == "generated":
                generated += 1
            elif event["event"] == "validated":
                validated += 1
        episodes = sum(per_generation)
        return Outcome(
            ops=ops,
            wall_s=(stamps[-1] if stamps else end) - start,
            episodes=episodes,
            sim_steps=episodes * self.rows * self.cols * self.duration,
            round_s=intervals,
            episode_host_s=[wall * jobs / n for wall, n in zip(intervals, per_generation) if n],
            distinct_episodes=len(keys),
            jobs=jobs,
            generated=generated,
            validated=validated,
            bytes_written=checkpoint_bytes + sum(len(_prefix(lines[n], final[n])) for n in STORE_FILES),
        )


# Workload definitions. "tiny" keeps each workload's shape at a size the
# benchmark's own tests can afford.
_DEFINITIONS = {
    "sim-8x8": {
        "full": dict(rows=8, cols=8, duration=900),
        "tiny": dict(rows=2, cols=2, duration=60),
        "make": lambda size: EpisodeWorkload(
            pairs=[("fixed_time", "T1"), ("max_pressure", "T1"), ("fixed_time", "I1"), ("max_pressure", "I1")], **size
        ),
    },
    "dispatch-4x4": {
        "full": dict(rows=4, cols=4, duration=900),
        "tiny": dict(rows=2, cols=2, duration=60),
        "make": lambda size: EpisodeWorkload(
            pairs=[("dispatcher", "M1"), ("dispatcher", "E2"), ("dispatcher", "B2")], **size
        ),
    },
    "evolve-2x2": {
        "full": dict(rows=2, cols=2, duration=600, population=8),
        "tiny": dict(rows=2, cols=2, duration=60, population=2),
        "make": lambda size: EvolveWorkload(families=("T1", "T2", "T3"), jobs=2, **size),
    },
}


def make(name: str, size: str = "full"):
    definition = _DEFINITIONS[name]
    return definition["make"](definition[size])
