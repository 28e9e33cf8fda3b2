"""Operator command line.

Subcommands: evolve (run an evolution), evaluate (one skill over seeds),
baseline (a classical controller over seeds), compare (statistical
method comparison), inspect (show stored skills), replay (verify a run
reconstructs from its store), export (fitness curves as CSV). Every
command that writes artifacts also writes a manifest.json capturing the
exact inputs needed to rerun it.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path

from . import __version__
from . import metrics as met
from .control import ControllerSpec, drive, episode_pool, run_episodes
from .dsl import EVENT_NAMES, sandbox_check
from .evolution import MODES, EvolutionConfig, NoViableCandidate, generation_records, run_evolution
from .generator import GeneratorUnavailable, RemoteBackend, ScriptedBackend
from .sim.engine import Arrivals
from .sim.scenario import ScenarioConfig, load_scenario, make_scenario
from .skills import LIBRARY, SEED_SKILL, Skill, skill_complexity
from .store import CHECKPOINT_FILE, SKILLS_FILE, RunStore, UnknownRun

BASELINE_KINDS = ("fixed_time", "max_pressure", "handcrafted_preemption", "dispatcher")
METRIC_COLUMNS = ("avg_delay", "avg_queue", "throughput", "emergency_delay", "bus_person_delay")


def _add_scenario_args(parser: argparse.ArgumentParser, many: bool = False) -> None:
    if many:
        parser.add_argument("--scenarios", required=True,
                            help="comma-separated families (T1..M1) or YAML paths")
    else:
        parser.add_argument("--scenario", required=True, help="family (T1..M1) or YAML path")
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument("--duration", type=int, default=3600)
    parser.add_argument("--demand-scale", type=float, default=1.0)


def _build_scenario(name: str, args) -> ScenarioConfig:
    if name.endswith((".yaml", ".yml")):
        return load_scenario(name)
    return make_scenario(
        name,
        rows=args.rows,
        cols=args.cols,
        duration=args.duration,
        demand_scale=args.demand_scale,
    )


def _parse_seeds(text: str) -> list[int]:
    seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise ValueError("--seeds needs at least one seed")
    return seeds


def _run_path(run_dir: str) -> Path:
    """``run_dir`` as the directory of a run; its name is the run's id,
    so a path with no name of its own ("" or ".") is refused."""
    path = Path(run_dir)
    if not path.name:
        raise ValueError(f"a run needs a directory of its own, and {run_dir!r} names none")
    return path


def _open_run(run_dir: str) -> RunStore:
    """The store of an existing run, whose first record is its seed skill;
    reading commands never create one."""
    if not (_run_path(run_dir) / SKILLS_FILE).is_file():
        raise UnknownRun(f"no run in {run_dir}: it has no {SKILLS_FILE}")
    return RunStore(run_dir)


class RejectedSkill(Exception):
    """A skill given on the command line failed the sandbox check."""


def _checked(skill: Skill) -> Skill:
    """``skill``, once it passes the sandbox check that every loaded skill passes before it runs."""
    report = sandbox_check(skill, EVENT_NAMES)
    if not report.ok:
        raise RejectedSkill(f"skill failed validation at stage={report.stage}: {report.message}")
    return skill


def _load_skill(path: str) -> Skill:
    with open(path, "r", encoding="utf-8") as handle:
        return _checked(Skill.from_json(handle.read(), default_id=Path(path).stem))


def _manifest_dict(command: str, args: argparse.Namespace) -> dict:
    return {
        "command": command,
        "version": __version__,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
    }


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(_manifest_dict(command, args), handle, indent=1, sort_keys=True)


def _write_file_manifest(out_path: str | None, command: str, args: argparse.Namespace) -> None:
    """CSV artifacts get a sibling manifest so any table can be rerun."""
    if not out_path:
        return
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as handle:
        json.dump(_manifest_dict(command, args), handle, indent=1, sort_keys=True)


def _write_episode_log(path: str, step_log) -> None:
    """One JSONL record per step per intersection (time, phase, queue),
    plus detector events and activations when the controller is
    event-aware."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in step_log:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    handle = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            handle.close()


# ----------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    out_dir = _run_path(args.out)
    scenarios = tuple(_build_scenario(name.strip(), args) for name in args.scenarios.split(","))
    cfg = EvolutionConfig(
        scenarios=scenarios,
        population=args.pop,
        generations=args.gens,
        tau=args.tau,
        mode=args.mode,
        seed=args.seed,
    )
    if args.generator == "scripted":
        backend = ScriptedBackend(seed=args.seed)
    else:
        backend = RemoteBackend()
    # Refuse these before the store creates the run directory.
    if args.stop_after is not None and args.stop_after < 1:
        raise ValueError("--stop-after must be at least 1")
    if args.resume and not (out_dir / CHECKPOINT_FILE).is_file():
        raise ValueError(f"no checkpoint to resume in {out_dir}")
    store = RunStore(out_dir)
    _write_manifest(out_dir, "evolve", args)
    result = run_evolution(cfg, backend, store, stop_after=args.stop_after,
                           resume=args.resume, jobs=args.jobs)
    improvement = 0.0
    if result.initial_fitness:
        improvement = (result.best_fitness - result.initial_fitness) / abs(result.initial_fitness) * 100.0
    rows = [[
        args.mode,
        ";".join(s.name for s in scenarios),
        f"{result.initial_fitness:.4f}",
        f"{result.best_fitness:.4f}",
        result.best_generation,
        f"{improvement:.1f}",
    ]]
    _write_csv(str(out_dir / "summary.csv"),
               ["mode", "scenarios", "initial_fitness", "best_fitness", "best_generation", "improvement_pct"],
               rows)
    status = "interrupted" if result.interrupted else "done"
    print(
        f"{status}: gens={result.generations_done} initial={result.initial_fitness:.4f} "
        f"best={result.best_fitness:.4f} (gen {result.best_generation}, {improvement:+.1f}%) "
        f"best_skill={result.best.id}"
    )
    return 0


# ----------------------------------------------------------------------
# evaluate / baseline / compare


def _episode_metrics_row(scenario_name: str, label: str, seed: int, metrics) -> list:
    return [
        scenario_name,
        label,
        seed,
        f"{metrics.avg_delay:.4f}",
        f"{metrics.avg_queue:.4f}",
        metrics.throughput,
        "" if metrics.emergency_delay is None else f"{metrics.emergency_delay:.4f}",
        "" if metrics.bus_person_delay is None else f"{metrics.bus_person_delay:.4f}",
    ]


_EVAL_HEADER = ["scenario", "method", "seed", "avg_delay", "avg_queue", "throughput",
                "emergency_delay", "bus_person_delay"]


def _summary_rows(scenario_name: str, label: str, seeds, all_metrics) -> list[list]:
    rows = [
        _episode_metrics_row(scenario_name, label, seed, metrics)
        for seed, metrics in zip(seeds, all_metrics)
    ]
    delays = [m.avg_delay for m in all_metrics]
    queues = [m.avg_queue for m in all_metrics]
    throughputs = [m.throughput for m in all_metrics]
    if len(all_metrics) > 1:
        rows.append([
            scenario_name,
            label,
            "mean±std",
            f"{statistics.mean(delays):.4f}±{statistics.stdev(delays):.4f}",
            f"{statistics.mean(queues):.4f}±{statistics.stdev(queues):.4f}",
            f"{statistics.mean(throughputs):.1f}±{statistics.stdev(throughputs):.1f}",
            "",
            "",
        ])
    return rows


def _run_over_seeds(args, command: str, label: str, spec: ControllerSpec) -> int:
    """One controller on one scenario over every seed: a per-seed CSV
    with a mean±std row, its manifest, and the optional episode log."""
    scenario = _build_scenario(args.scenario, args)
    seeds = _parse_seeds(args.seeds)
    tasks = [(spec, Arrivals(scenario, seed)) for seed in seeds]
    with episode_pool(args.jobs, len(tasks)) as pool:
        if args.episode_log:
            # The first seed runs here and collects its step log on the way.
            first = drive(spec, scenario, seeds[0], collect_step_log=True)
            _write_episode_log(args.episode_log, first.step_log)
            results = [first] + run_episodes(tasks[1:], pool)
        else:
            results = run_episodes(tasks, pool)
    rows = _summary_rows(scenario.name, label, seeds, [result.metrics for result in results])
    _write_csv(args.out, _EVAL_HEADER, rows)
    _write_file_manifest(args.out, command, args)
    return 0


def cmd_evaluate(args) -> int:
    if args.skill:
        skill = _load_skill(args.skill)
    elif args.capsule:
        if not args.run:
            print("error: --capsule needs --run", file=sys.stderr)
            return 2
        store = _open_run(args.run)
        capsules = [c for c in store.capsules() if c["skill"]["id"] == args.capsule]
        if not capsules:
            print(f"error: capsule {args.capsule!r} not found", file=sys.stderr)
            return 2
        skill = _checked(Skill.from_json_dict(capsules[-1]["skill"]))
    else:
        print("error: pass --skill FILE or --capsule ID", file=sys.stderr)
        return 2
    return _run_over_seeds(args, "evaluate", skill.id, ControllerSpec("skill", skill=skill))


def cmd_baseline(args) -> int:
    return _run_over_seeds(args, "baseline", args.method, ControllerSpec(args.method))


def _method_spec(name: str) -> tuple[str, ControllerSpec]:
    if name.startswith("skill:"):
        skill = _load_skill(name.split(":", 1)[1])
        return f"skill:{skill.id}", ControllerSpec("skill", skill=skill)
    if name.startswith("library:"):
        skill = LIBRARY[name.split(":", 1)[1]]
        return name, ControllerSpec("skill", skill=skill)
    if name == "seed":
        return name, ControllerSpec("skill", skill=SEED_SKILL)
    if name in BASELINE_KINDS:
        return name, ControllerSpec(name)
    raise ValueError(f"unknown method {name!r}")


def cmd_compare(args) -> int:
    methods = [_method_spec(name.strip()) for name in args.methods.split(",")]
    if len(methods) < 2:
        print("error: compare needs at least two methods", file=sys.stderr)
        return 2
    seeds = _parse_seeds(args.seeds)
    header = ["scenario", "metric", "method_a", "method_b", "mean_a", "std_a",
              "mean_b", "std_b", "t", "p", "cohen_d", "dof"]
    rows: list[list] = []
    with episode_pool(args.jobs, len(methods) * len(seeds)) as pool:
        for name in args.scenarios.split(","):
            rows.extend(_compare_scenario(_build_scenario(name.strip(), args), methods, seeds, pool))
    _write_csv(args.out, header, rows)
    _write_file_manifest(args.out, "compare", args)
    return 0


def _compare_scenario(scenario: ScenarioConfig, methods, seeds: list[int], pool) -> list[list]:
    """The comparison rows of one scenario. Its episodes run as one
    batch, and the methods share the traffic of each seed."""
    arrivals = [Arrivals(scenario, seed) for seed in seeds]
    tasks = [(spec, each) for _, spec in methods for each in arrivals]
    all_metrics = [result.metrics for result in run_episodes(tasks, pool)]
    rows: list[list] = []
    samples: dict[str, dict[str, list[float]]] = {}
    for i, (label, _) in enumerate(methods):
        results = all_metrics[i * len(seeds):(i + 1) * len(seeds)]
        per_metric: dict[str, list[float]] = {}
        for column in METRIC_COLUMNS:
            values = [getattr(m, column) for m in results]
            if all(v is not None for v in values):
                per_metric[column] = [float(v) for v in values]
        samples[label] = per_metric
    for i in range(len(methods)):
        for j in range(i + 1, len(methods)):
            label_a, label_b = methods[i][0], methods[j][0]
            for column in METRIC_COLUMNS:
                if column not in samples[label_a] or column not in samples[label_b]:
                    continue
                a = samples[label_a][column]
                b = samples[label_b][column]
                stat = met.welch_and_cohen(a, b)
                rows.append([
                    scenario.name, column, label_a, label_b,
                    f"{statistics.mean(a):.4f}",
                    f"{statistics.stdev(a):.4f}" if len(a) > 1 else "0",
                    f"{statistics.mean(b):.4f}",
                    f"{statistics.stdev(b):.4f}" if len(b) > 1 else "0",
                    f"{stat.t:.4f}", f"{stat.p:.6g}", f"{stat.d:.4f}", f"{stat.dof:.3f}",
                ])
    return rows


# ----------------------------------------------------------------------
# inspect / replay / export


def cmd_inspect(args) -> int:
    store = _open_run(args.run)
    skills = store.skills()
    if args.skill:
        if args.skill not in skills:
            print(f"error: unknown skill id {args.skill!r}", file=sys.stderr)
            return 2
        chain = store.lineage(args.skill)
        skill = chain[0]
        nodes, depth = skill_complexity(skill)
        print(f"skill {skill.id} (generation {skill.generation}, fitness {skill.fitness})")
        print(f"complexity: {nodes} nodes, branch depth {depth}")
        print(f"description: {skill.description}")
        print(f"guidance: {skill.guidance}")
        print("inlane_code:")
        print("  " + "\n  ".join(skill.inlane_code.splitlines()))
        print("outlane_code:")
        print("  " + "\n  ".join(skill.outlane_code.splitlines()))
        print("lineage: " + " <- ".join(s.id for s in chain))
        return 0
    capsules = store.capsules()
    print(f"run {store.run_id}: {len(skills)} skills, {len(capsules)} capsules")
    for capsule in capsules:
        print(
            f"  capsule gen {capsule['generation']}: {capsule['skill']['id']} "
            f"fitness {capsule['fitness']:.4f}"
        )
    return 0


def cmd_replay(args) -> int:
    store = _open_run(args.run)
    events = store.events()
    if not events:
        print(f"error: no events in {args.run}", file=sys.stderr)
        return 1
    sequences = [e["seq"] for e in events]
    if sequences != sorted(sequences) or len(set(sequences)) != len(sequences):
        print("error: event sequence is not strictly increasing", file=sys.stderr)
        return 1
    capsules = store.capsules()
    fitnesses = [c["fitness"] for c in capsules]
    if any(b <= a for a, b in zip(fitnesses, fitnesses[1:])):
        print("error: capsule fitness is not strictly increasing", file=sys.stderr)
        return 1
    checkpoint = store.read_checkpoint()
    ledger = met.cost_ledger(events, wall_clock=checkpoint.elapsed_seconds if checkpoint else 0.0)
    best_id = checkpoint.best_skill_id if checkpoint else None
    if best_id:
        chain = store.lineage(best_id)
        print(
            f"run {store.run_id}: {checkpoint.generations_done} generations, "
            f"{len(store.skills())} skills, {len(capsules)} capsules, "
            f"best {best_id} (lineage depth {len(chain)})"
        )
    else:
        print(f"run {store.run_id}: {len(events)} events, {len(capsules)} capsules")
    print(
        f"cost: {ledger.llm_calls} generator calls, {ledger.sim_runs} evaluations, "
        f"{ledger.wall_clock:.1f}s wall clock"
    )
    return 0


def cmd_export(args) -> int:
    records = generation_records(_open_run(args.run))
    if not records:
        raise UnknownRun(f"run {args.run} has no checkpointed generation")
    rows = []
    for record in records:
        valid = [f for f in record.fitness_vector if f is not None]
        mean_fitness = sum(valid) / len(valid) if valid else ""
        active = "+".join(name for name, on in record.signals.items() if on) or "none"
        rows.append([
            record.index,
            f"{record.best_fitness:.6f}",
            f"{mean_fitness:.6f}" if mean_fitness != "" else "",
            active,
        ])
    _write_csv(args.out, ["generation", "best_fitness", "mean_fitness", "signals"], rows)
    _write_file_manifest(args.out, "export", args)
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evosignal",
        description="Evolve and evaluate interpretable traffic-signal control skills.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run a skill evolution")
    _add_scenario_args(p, many=True)
    p.add_argument("--mode", choices=MODES, default="routine")
    p.add_argument("--generator", choices=("scripted", "remote"), default="scripted")
    p.add_argument("--pop", type=int, default=8)
    p.add_argument("--gens", type=int, default=30)
    p.add_argument("--tau", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for candidate evaluation")
    p.add_argument("--out", required=True, help="run directory (the store)")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--stop-after", type=int, default=None,
                   help="end the session after N generations (checkpoint intact)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("evaluate", help="evaluate one skill over seeds")
    _add_scenario_args(p)
    p.add_argument("--skill", help="skill JSON file")
    p.add_argument("--capsule", help="capsule skill id (with --run)")
    p.add_argument("--run", help="run directory for --capsule")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--episode-log", default=None,
                   help="write the first seed's per-step JSONL episode log here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="run a classical baseline over seeds")
    _add_scenario_args(p)
    p.add_argument("--method", choices=BASELINE_KINDS, required=True)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--episode-log", default=None,
                   help="write the first seed's per-step JSONL episode log here")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("compare", help="statistical comparison of methods")
    p.add_argument("--methods", required=True,
                   help="comma list: baselines, seed, library:NAME, skill:FILE")
    _add_scenario_args(p, many=True)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect", help="show stored skills and capsules")
    p.add_argument("--run", required=True)
    p.add_argument("--skill", default=None)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("replay", help="verify a run reconstructs from its store")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("export", help="export fitness curves as CSV")
    p.add_argument("--run", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeneratorUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RejectedSkill, NoViableCandidate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
