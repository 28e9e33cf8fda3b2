"""Command-line smoke tests on desk-scale scenarios."""

from __future__ import annotations

import csv
import json

import pytest

from evosignal.cli import main
from evosignal.skills import LIBRARY

DESK = ["--rows", "1", "--cols", "1", "--duration", "150", "--demand-scale", "1.0"]


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestEvolveCommand:
    def test_writes_store_summary_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["evolve", "--scenarios", "T1", *DESK, "--pop", "3", "--gens", "3",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        for name in ("events.jsonl", "skills.jsonl", "capsules.jsonl",
                     "checkpoint.json", "summary.csv", "manifest.json"):
            assert (out / name).exists(), name
        summary = read_csv(out / "summary.csv")
        assert summary[0][0] == "mode"
        assert capsys.readouterr().out.startswith("done:")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evolve"
        assert manifest["args"]["seed"] == 5

    def test_resume_flag_continues(self, tmp_path):
        out = tmp_path / "run"
        base = ["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "4",
                "--seed", "5", "--out", str(out)]
        assert main(base + ["--stop-after", "2"]) == 0
        assert main(base + ["--resume"]) == 0
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["generations_done"] == 4

    def test_unknown_scenario_is_a_usage_error(self, tmp_path):
        code = main(["evolve", "--scenarios", "Q7", *DESK, "--out", str(tmp_path / "x")])
        assert code != 0

    def test_unconfigured_remote_generator_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EVOSIGNAL_API_BASE", raising=False)
        monkeypatch.delenv("EVOSIGNAL_MODEL", raising=False)
        code = main(["evolve", "--scenarios", "T1", *DESK, "--generator", "remote",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "EVOSIGNAL_API_BASE" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_deterministic_csv(self, tmp_path):
        skill_path = tmp_path / "skill.json"
        skill_path.write_text(LIBRARY["distance-weighted"].to_json())
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["evaluate", "--skill", str(skill_path), "--scenario", "T1", *DESK,
                "--seeds", "7,8"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_csv(out1)
        assert len(rows) == 1 + 2 + 1  # header, two seeds, summary

    def test_malformed_skill_reports_stage(self, tmp_path, capsys):
        skill_path = tmp_path / "bad.json"
        skill_path.write_text(json.dumps({
            "description": "", "guidance": "",
            "inlane_code": "import os", "outlane_code": "value[0] += 0",
        }))
        code = main(["evaluate", "--skill", str(skill_path), "--scenario", "T1", *DESK,
                     "--seeds", "1,2"])
        assert code == 1
        assert "stage=parse" in capsys.readouterr().err

    def test_capsule_evaluation(self, tmp_path):
        out = tmp_path / "run"
        main(["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "2",
              "--seed", "3", "--out", str(out)])
        capsules = [json.loads(line) for line in (out / "capsules.jsonl").read_text().splitlines()]
        skill_id = capsules[-1]["skill"]["id"]
        code = main(["evaluate", "--capsule", skill_id, "--run", str(out),
                     "--scenario", "T1", *DESK, "--seeds", "1,2",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 0


class TestCompareAndBaseline:
    def test_compare_emits_stat_columns(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--methods", "max_pressure,fixed_time", "--scenarios", "T1",
                     *DESK, "--seeds", "1,2,3", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0][:4] == ["scenario", "metric", "method_a", "method_b"]
        delay_rows = [r for r in rows if r[1] == "avg_delay"]
        assert delay_rows
        float(delay_rows[0][8])  # t parses as a number

    @pytest.mark.parametrize("command", ["evaluate", "baseline", "compare"])
    def test_parallel_jobs_match_serial_output(self, tmp_path, command):
        skill_path = tmp_path / "skill.json"
        skill_path.write_text(LIBRARY["ratio-saturation"].to_json())
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        method = {
            "evaluate": ["--skill", str(skill_path), "--scenario", "T1"],
            "baseline": ["--method", "dispatcher", "--scenario", "T1"],
            "compare": ["--methods", f"skill:{skill_path},max_pressure", "--scenarios", "T1"],
        }[command]
        base = [command, *method, *DESK, "--seeds", "4,5,6"]
        assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(base + ["--jobs", "3", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_method_vs_itself_is_null_result(self, tmp_path):
        out = tmp_path / "cmp.csv"
        main(["compare", "--methods", "max_pressure,max_pressure", "--scenarios", "T1",
              *DESK, "--seeds", "1,2,3", "--out", str(out)])
        rows = read_csv(out)
        delay = next(r for r in rows if r[1] == "avg_delay")
        assert float(delay[8]) == 0.0  # t
        assert float(delay[9]) == 1.0  # p

    def test_baseline_command(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["baseline", "--method", "max_pressure", "--scenario", "T1", *DESK,
                     "--seeds", "1,2", "--out", str(out)])
        assert code == 0
        assert len(read_csv(out)) == 4
        manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest["command"] == "baseline"
        assert manifest["args"]["seeds"] == "1,2"

    def test_episode_log_emits_step_records(self, tmp_path):
        log_path = tmp_path / "episode.jsonl"
        code = main(["baseline", "--method", "dispatcher", "--scenario", "B1",
                     "--rows", "2", "--cols", "2", "--duration", "200",
                     "--demand-scale", "0.5", "--seeds", "3",
                     "--out", str(tmp_path / "d.csv"), "--episode-log", str(log_path)])
        assert code == 0
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        steps = [r for r in records if r["kind"] == "step"]
        assert steps and {"time", "intersection", "phase", "queue"} <= set(steps[0])
        assert any(r["kind"] == "event" for r in records)
        assert any(r["kind"] == "activation" for r in records)


class TestInspectReplayExport:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = tmp_path / "run"
        main(["evolve", "--scenarios", "T1", *DESK, "--pop", "3", "--gens", "4",
              "--seed", "2", "--out", str(out)])
        return out

    def test_inspect_lists_capsules(self, run_dir, capsys):
        assert main(["inspect", "--run", str(run_dir)]) == 0
        assert "capsule" in capsys.readouterr().out

    def test_inspect_skill_shows_lineage_and_complexity(self, run_dir, capsys):
        assert main(["inspect", "--run", str(run_dir), "--skill", "g001c0"]) == 0
        out = capsys.readouterr().out
        assert "complexity" in out and "lineage" in out

    def test_replay_verifies(self, run_dir, capsys):
        assert main(["replay", "--run", str(run_dir)]) == 0
        assert "best" in capsys.readouterr().out

    def test_export_has_one_row_per_generation(self, run_dir, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["export", "--run", str(run_dir), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["generation", "best_fitness", "mean_fitness", "signals"]
        assert len(rows) == 1 + 4
        best = [float(r[1]) for r in rows[1:]]
        assert best == sorted(best)

    def test_export_empty_run_fails(self, tmp_path):
        assert main(["export", "--run", str(tmp_path / "nothing")]) != 0
