"""The benchmark's own tests: tiny-size smoke runs of every workload in
both modes, the golden check in both directions, and the refusal to run
without sources.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from checkout import BENCH_DIR, ROOT, use_checkout_sources
from record_goldens import record

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run_bench(*args, cwd=ROOT, check=True):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", str(SEED), "--size", "tiny", "--seconds", "0.01", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert done.returncode == 0, done.stderr
    return done


def result_of(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    result = result_of(run_bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if trace:
        calls = {name: m["value"] for name, m in result["metrics"].items()}
        if workload != "dispatch-4x4":
            assert calls["events.detect.calls"] == 0
        if workload == "sim-8x8":
            assert calls["dsl.body_run.calls"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _perturb(digest):
    if isinstance(digest, dict):
        return {name: _perturb(value) for name, value in digest.items()}
    return ("0" if digest[0] != "0" else "1") + digest[1:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_goldens_pass_when_equal_and_fail_every_operation_when_perturbed(workload, tmp_path):
    use_checkout_sources()
    digests = record(workload, "tiny", SEED, 4)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"tiny": {workload: {str(SEED): digests}}}))
    bad.write_text(json.dumps({"tiny": {workload: {str(SEED): [_perturb(d) for d in digests]}}}))

    passed = result_of(run_bench("--workload", workload, "--goldens", str(good)))
    assert passed["correct"] and passed["failed"] == 0

    failed = result_of(run_bench("--workload", workload, "--goldens", str(bad)))
    assert not failed["correct"]
    assert failed["failed"] == failed["attempted"]  # failed_ratio = 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], cwd=tmp_path, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
