"""Regenerate ``goldens.json``: the output digest of every operation a
run can reach, per workload, for the default seed and one held-out seed.

    python3 bench/record_goldens.py

The digests pin today's outputs: an episode's full ``SimulationMetrics``
repr, and for a generation the skills, capsules and events files up to
its checkpoint. Re-record only in a change whose purpose is to alter
outputs, and say so. Recording is untraced and takes about ten minutes
on two cores.
"""

from __future__ import annotations

import json

from checkout import BENCH_DIR, use_checkout_sources

SEEDS = (0, 1)  # the default seed and a held-out seed
# Comfortably more operations than a 20 s run reaches today, so a
# several-fold faster engine is still checked in full.
OPERATIONS = {"sim-8x8": 24, "dispatch-4x4": 60, "evolve-2x2": 24}


def record(workload_name: str, size: str, seed: int, operations: int) -> list:
    import workloads

    workload = workloads.make(workload_name, size)
    workload.prepare()
    outcome = workload.run(seed, 0, limit=operations)
    failures = [op.error for op in outcome.ops if op.error is not None]
    if failures:
        raise RuntimeError(f"{workload_name} seed {seed}: {failures[0]}")
    return [op.digest for op in outcome.ops]


def main() -> None:
    use_checkout_sources()
    table = {"full": {}}
    for name, operations in OPERATIONS.items():
        table["full"][name] = {str(seed): record(name, "full", seed, operations) for seed in SEEDS}
        print(f"recorded {name}", flush=True)
    with open(BENCH_DIR / "goldens.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
