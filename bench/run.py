"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sim-8x8 --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` every layer boundary is traced and the run
reports the per-layer metrics instead, and writes its spans to
``.bench_out/``. Each metric is printed on its own line with its unit and
sample count; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs are checked against ``goldens.json`` when it holds digests for
the seed. For other seeds the first operation is run again in the other
mode (traced against untraced) and the two digests must agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from checkout import BENCH_DIR, ROOT, SRC, use_checkout_sources

GOLDENS = BENCH_DIR / "goldens.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_steps_per_s": "intersection-s/s",
    "episodes_per_s": "1/s",
    "episode_s_p50": "s",
    "generation_s_p50": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sim-8x8", "dispatch-4x4", "evolve-2x2"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    parser.add_argument("--goldens", default=str(GOLDENS), help="golden digests file")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    src_lines = 0
    for path in sorted((SRC / "evosignal").rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }


def measure_setup(workload: str, size: str) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports the
    workload ready; both ends read CLOCK_MONOTONIC."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - spawned)
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def load_goldens(path: str, size: str, workload: str, seed: int):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(size, {}).get(workload, {}).get(str(seed))


def end_to_end(outcome, setup: list[float], rss_mb: float) -> dict:
    """(value, sample count) per end-to-end metric."""
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "sim_steps_per_s": (outcome.sim_steps / outcome.wall_s, outcome.episodes),
        "episodes_per_s": (outcome.episodes / outcome.wall_s, outcome.episodes),
        "episode_s_p50": (statistics.median(outcome.episode_host_s), len(outcome.episode_host_s)),
        "generation_s_p50": (statistics.median(outcome.round_s), len(outcome.round_s)),
        "peak_rss_mb": (rss_mb, 1),
    }


def per_layer(tracer, outcome, overhead_s: float) -> dict:
    """(value, unit) per layer metric, from the traced pass."""
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {}
    for name in ("sim.episode_init", "sim.observe", "sim.step", "control.decide", "control.score_phases",
                 "dsl.body_run", "dsl.compile", "dsl.sandbox_check", "events.detect", "metrics.fitness",
                 "store.append"):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("sim.finish", "sim.run_episode", "control.build", "evolution.evaluate_generation",
                 "generator.generate", "store.checkpoint", "store.read"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics.update({
        "sim.vehicles_entered": (counts["sim.vehicles_entered"], "count"),
        "control.faults": (counts["control.faults"], "count"),
        "events.detect.hit_ratio": (ratio(counts["events.detect.hits"], calls["events.detect"]), "ratio"),
        "evolution.episodes": (outcome.episodes, "count"),
        "evolution.distinct_episode_ratio": (ratio(outcome.distinct_episodes, outcome.episodes), "ratio"),
        "generator.propose.calls": (calls["generator.propose"], "count"),
        "generator.accept_ratio": (ratio(outcome.validated, outcome.generated), "ratio"),
        "store.bytes_written": (outcome.bytes_written, "B"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    import tracer as tracing
    import workloads

    env = environment()
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    workload = workloads.make(args.workload, args.size)
    workload.prepare()
    goldens = load_goldens(args.goldens, args.size, args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        with tracing.installed(tracer), tracer.span("run", seed=args.seed), \
                tracer.span("workload", workload=args.workload, size=args.size):
            outcome = workload.run(args.seed, args.seconds, tracer=tracer)
    else:
        outcome = workload.run(args.seed, args.seconds)
    rss = peak_rss_mb()

    failed = {op.index for op in outcome.ops if op.error is not None}
    for op in outcome.ops:
        if op.error is not None:
            print(f"op {op.index} raised: {op.error}")
    if goldens is not None:
        checked = outcome.ops[: len(goldens)]
        failed.update(op.index for op in checked if op.digest != goldens[op.index])
        print(f"goldens: {len(checked)} of {len(outcome.ops)} operations checked against seed {args.seed}")
    else:
        print(f"goldens: unchecked (no golden digests for seed {args.seed})")

    # Op 0 once more in the other mode: the cross-check where no golden
    # exists, and the untraced reference for the tracing overhead.
    overhead_s = 0.0
    if args.trace or goldens is None:
        if tracer is not None:
            again = workload.run(args.seed, 0, limit=1)
            overhead_s = outcome.ops[0].wall_s - again.ops[0].wall_s
        else:
            other = tracing.Tracer()
            with tracing.installed(other):
                again = workload.run(args.seed, 0, tracer=other, limit=1)
        agree = again.ops[0].digest == outcome.ops[0].digest and again.ops[0].error is None
        print(f"cross-check: operation 0 traced and untraced {'agree' if agree else 'DISAGREE'}")
        if not agree:
            failed.add(0)

    attempted = len(outcome.ops)
    print(f"failed_ratio {len(failed)}/{attempted} = {len(failed) / attempted:.4f}")

    if tracer is None:
        setup = measure_setup(args.workload, args.size)
        metrics = {name: (value, END_TO_END_UNITS[name], n)
                   for name, (value, n) in end_to_end(outcome, setup, rss).items()}
    else:
        label = "mode-plus-tracing (jobs=1 traced vs untraced jobs)" if outcome.jobs != workload.jobs else "tracing"
        print(f"trace.overhead_s is {label}: operation 0 traced minus untraced")
        metrics = {name: (value, unit, 1) for name, (value, unit) in per_layer(tracer, outcome, overhead_s).items()}
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json", "w", encoding="utf-8") as handle:
            json.dump({"env": env, "spans": tracer.spans, "calls": dict(tracer.calls),
                       "self_s": {k: v / 1e9 for k, v in tracer.self_ns.items()},
                       "counts": dict(tracer.counts)}, handle, indent=1)
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
