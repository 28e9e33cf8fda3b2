"""Command-line smoke tests on desk-scale scenarios."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import evosignal
from evosignal import cli
from evosignal.cli import main
from evosignal.sim import engine
from evosignal.skills import LIBRARY, SEED_SKILL
from evosignal.store import RunStore

from .test_dsl import DEEP_BODIES

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


class FaultingDrafts:
    """Drafts that pass validation but fault in every episode (a lane
    with no waiting vehicle divides by zero), up to call ``sound_after``;
    sound drafts afterwards."""

    def __init__(self, sound_after=None):
        self.calls = 0
        self.sound_after = sound_after

    def propose(self, request):
        self.calls += 1
        faulting = self.sound_after is None or self.calls <= self.sound_after
        inlane = "value[0] += 1 / num_waiting_vehicle" if faulting else "value[0] += num_waiting_vehicle"
        return json.dumps({"description": "d", "guidance": "g",
                           "inlane_code": inlane, "outlane_code": "value[0] += 0"})


class TestNoViableCandidate:
    """A run whose every candidate faults ends in one error line and exit
    1, with its checkpoint written."""

    def test_a_run_of_faulting_candidates_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ScriptedBackend", lambda seed: FaultingDrafts())
        out = tmp_path / "run"
        assert main(["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "no candidate ran without a fault in 2 generation(s)" in err
        assert json.loads((out / "checkpoint.json").read_text())["generations_done"] == 2

    def test_resume_continues_after_it(self, tmp_path, capsys, monkeypatch):
        # the first generation's two drafts fault, later ones are sound
        monkeypatch.setattr(cli, "ScriptedBackend", lambda seed: FaultingDrafts(sound_after=2))
        out = tmp_path / "run"
        base = ["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "3", "--out", str(out)]
        assert main(base + ["--stop-after", "1"]) == 1
        assert "in 1 generation(s)" in capsys.readouterr().err
        assert main(base + ["--resume"]) == 0
        assert capsys.readouterr().out.startswith("done: gens=3 ")
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["generations_done"] == 3 and checkpoint["generator_calls"] == 6
        assert checkpoint["best_skill_id"].startswith("g001")


    def test_a_run_with_no_best_writes_strict_json_and_exports(self, tmp_path, capsys, monkeypatch):
        # until a candidate runs without a fault there is no best
        # fitness, which the trail writes as null, not as -Infinity
        monkeypatch.setattr(cli, "ScriptedBackend", lambda seed: FaultingDrafts())
        out = tmp_path / "run"
        assert main(["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "1", "--out", str(out)]) == 1

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        lines = (out / "events.jsonl").read_text().splitlines()
        events = [json.loads(line, parse_constant=refuse) for line in lines]
        (checkpointed,) = [e for e in events if e["event"] == "checkpointed"]
        assert checkpointed["best_fitness"] is None and checkpointed["best_id"] is None
        curves = tmp_path / "curves.csv"
        assert main(["export", "--run", str(out), "--out", str(curves)]) == 0
        assert read_csv(curves)[1] == ["0", "", "", "none"]


class TestEventModeScenarios:
    """An event mode refuses a scenario in which its event never occurs,
    before anything is written; a missing metric found later names the
    scenario and the mode."""

    # E1's emergency period is 300 s, so 200 s schedule none
    EVENTLESS = ["evolve", "--mode", "emergency", "--scenarios", "E1", "--rows", "2", "--cols", "2",
                 "--duration", "200", "--pop", "2", "--gens", "1"]

    def test_a_scenario_without_the_modes_event_is_refused_first(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([*self.EVENTLESS, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: mode emergency cannot score scenario E1: it schedules no emergency event in its 200 s\n"
        assert not out.exists()

    def test_a_missing_metric_names_the_scenario_and_the_mode(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "refuse_eventless", lambda cfg: None)
        assert main([*self.EVENTLESS, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == "error: mode emergency cannot score scenario E1: episode has no emergency delay metric\n"


class TestEvaluateCommand:
    def test_deterministic_csv(self, tmp_path):
        skill_path = tmp_path / "skill.json"
        skill_path.write_text(json.dumps(LIBRARY["distance-weighted"].to_json_dict()))
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

    @pytest.mark.parametrize("code", DEEP_BODIES)
    def test_skill_too_deep_to_parse_is_one_error_line(self, tmp_path, capsys, code):
        skill_path = tmp_path / "deep.json"
        skill_path.write_text(json.dumps({
            "description": "", "guidance": "", "inlane_code": code, "outlane_code": "value[0] += 0",
        }))
        code = main(["evaluate", "--skill", str(skill_path), "--scenario", "T1", *DESK,
                     "--seeds", "1"])
        assert code == 1
        err = capsys.readouterr().err
        [line] = err.splitlines()
        assert line.startswith("error: skill failed validation at stage=parse: inlane: expression nests")

    @pytest.mark.parametrize(("inlane", "stage"), [("value[0] +=", "parse"), ("value[0] += no_such_name", "whitelist")])
    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_a_skill_file_is_checked_before_it_runs(self, tmp_path, capsys, command, inlane, stage):
        skill_path = tmp_path / "bad.json"
        skill_path.write_text(json.dumps({
            "description": "", "guidance": "", "inlane_code": inlane, "outlane_code": "value[0] += 0",
        }))
        method = {
            "evaluate": ["--skill", str(skill_path), "--scenario", "T1"],
            "compare": ["--methods", f"max_pressure,skill:{skill_path}", "--scenarios", "T1"],
        }[command]
        out = tmp_path / "out.csv"
        assert main([command, *method, *DESK, "--seeds", "1,2", "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: skill failed validation at stage={stage}: inlane: ")
        assert not out.exists()

    @pytest.mark.parametrize(("text", "message"), [
        ("[1, 2]", "a skill must be a JSON object, not list"),
        ('"x"', "a skill must be a JSON object, not str"),
        ('{"inlane_code": "value[0] += 0", "outlane_code": "value[0] += 0", "generation": null}',
         "the skill's generation None is not an integer"),
        ("{}", "the skill has no inlane_code"),
        ('{"inlane_code": null, "outlane_code": "value[0] += 0"}', "the skill's inlane_code is not a string"),
    ], ids=["list", "string", "null-generation", "empty", "null-code"])
    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_a_malformed_skill_file_is_one_error_line(self, tmp_path, capsys, command, text, message):
        skill_path = tmp_path / "bad.json"
        skill_path.write_text(text)
        method = {
            "evaluate": ["--skill", str(skill_path), "--scenario", "T1"],
            "compare": ["--methods", f"max_pressure,skill:{skill_path}", "--scenarios", "T1"],
        }[command]
        out = tmp_path / "out.csv"
        assert main([command, *method, "--rows", "1", "--cols", "1", "--duration", "10", "--seeds", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_an_unknown_library_skill_is_named_with_the_library(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--methods", "library:nope,seed", "--scenarios", "T1",
                     *DESK, "--seeds", "1,2", "--out", str(out)])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: unknown method 'library:nope': the library has {', '.join(LIBRARY)}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "baseline", "compare"])
    def test_parallel_jobs_match_serial_output(self, tmp_path, command):
        skill_path = tmp_path / "skill.json"
        skill_path.write_text(json.dumps(LIBRARY["ratio-saturation"].to_json_dict()))
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

    # The sha256 of each whole episode log: a change that moves, adds or
    # drops one record of any run changes its digest. Record a digest
    # again only for a change meant to move the log, and say why. At
    # 300 s both logs hold emergency events only. At 900 s the M1 log
    # holds emergency and incident events that each meet a congestion
    # event at one junction and step, and the B2 log transit events that
    # meet congestion events.
    @pytest.mark.parametrize("method, scenario, duration, digest", [
        ("dispatcher", "M1", 300, "2d595f8d149e190918bb053efe077b147afe7051fc7f19f528b8f7d0e517bf38"),
        ("handcrafted_preemption", "E2", 300, "8dd64e050fc42efd81ae2907ad290d1ea36be8662a6d49ae9652d903a7e4ce6d"),
        ("dispatcher", "M1", 900, "495e7e4f42249e26ebcb401c2f1863a091f0ae6503ba286e52a217903c2acc13"),
        ("dispatcher", "B2", 900, "4f4632966966e02bd3899789a57fc7bf1e27697773db8b1bc9193b505e8491e4"),
    ])
    def test_episode_logs_keep_their_digests(self, tmp_path, method, scenario, duration, digest):
        log_path = tmp_path / "episode.jsonl"
        assert main(["baseline", "--method", method, "--scenario", scenario, "--rows", "2", "--cols", "2",
                     "--duration", str(duration), "--seeds", "1", "--out", str(tmp_path / "b.csv"),
                     "--episode-log", str(log_path)]) == 0
        assert hashlib.sha256(log_path.read_bytes()).hexdigest() == digest

    def test_episode_log_runs_each_seed_once(self, tmp_path, monkeypatch):
        from evosignal import control

        seeds_run = []
        real_run_episode = control.run_episode

        def counting(arrivals, controller, **kwargs):
            seeds_run.append(arrivals.seed)
            return real_run_episode(arrivals, controller, **kwargs)

        monkeypatch.setattr(control, "run_episode", counting)
        base = ["baseline", "--method", "max_pressure", "--scenario", "T1", *DESK,
                "--seeds", "3,4,5"]
        with_log = tmp_path / "with.csv"
        log_path = tmp_path / "episode.jsonl"
        assert main(base + ["--out", str(with_log), "--episode-log", str(log_path)]) == 0
        assert sorted(seeds_run) == [3, 4, 5]
        seeds_run.clear()
        without_log = tmp_path / "without.csv"
        assert main(base + ["--out", str(without_log)]) == 0
        assert sorted(seeds_run) == [3, 4, 5]
        assert with_log.read_bytes() == without_log.read_bytes()
        first = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert {r["time"] for r in first if r["kind"] == "step"} == set(range(150))

    def test_compare_runs_one_batch_per_scenario(self, tmp_path, monkeypatch):
        import evosignal.cli as cli

        batches = []
        real_run_episodes = cli.run_episodes

        def counting(tasks, jobs=1):
            batches.append(len(tasks))
            return real_run_episodes(tasks, jobs)

        monkeypatch.setattr(cli, "run_episodes", counting)
        assert main(["compare", "--methods", "max_pressure,fixed_time,seed",
                     "--scenarios", "T1,T2", *DESK, "--seeds", "1,2",
                     "--out", str(tmp_path / "cmp.csv")]) == 0
        assert batches == [6, 6]  # 3 methods x 2 seeds, once per scenario


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


def test_importing_the_cli_loads_neither_yaml_nor_scipy():
    # Each is imported where it is used: yaml by load_scenario, scipy by
    # metrics.welch_and_cohen.
    src = str(Path(evosignal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, evosignal.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('yaml', 'scipy')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"


MALFORMED_SCENARIOS = {
    "yaml-syntax": "name: x\ngrid: {rows: 2\n",
    "not-a-mapping": "- just\n- a list\n",
    "grid-not-a-mapping": "name: x\ngrid: 5\n",
    "zero-headway": "name: x\nduration: 60\nevents:\n  bus_lines: {count: 2, headway: 0}\n",
    "negative-headway": "name: x\nduration: 60\nevents:\n  bus_lines: {count: 1, headway: -30}\n",
    "nan-headway": "name: x\nduration: 60\nevents:\n  bus_lines: {count: 1, headway: .nan}\n",
    "zero-period": "name: x\nduration: 60\nevents:\n  emergency: {period: 0}\n",
    "inf-period": "name: x\nduration: 60\nevents:\n  emergency: {period: .inf}\n",
    "nan-link-length": "name: x\ngrid: {link_length: .nan}\n",
    "inf-link-length": "name: x\ngrid: {link_length: .inf}\n",
    "zero-link-length": "name: x\ngrid: {link_length: 0}\n",
    "profile-not-a-list": 'name: x\ndemand: {sources: [{link: "tN_0_0>x0_0", profile: 5}]}\n',
    "sources-not-a-list": 'name: x\ndemand: {sources: {link: "tN_0_0>x0_0"}}\n',
    "event-not-a-mapping": "name: x\nduration: 60\nevents: {emergency: 5}\n",
    "negative-default-rate": "name: x\ndemand: {default_rate: -3}\n",
    "nan-profile-rate": 'name: x\ndemand: {sources: [{link: "tN_0_0>x0_0", profile: [[0, 0.1], [30, .nan]]}]}\n',
    "rows-a-list": "name: x\ngrid: {rows: [1]}\n",
    "infinite-rows": "name: x\ngrid: {rows: .inf}\n",
    "period-a-list": "name: x\nduration: 60\nevents:\n  emergency: {period: [120]}\n",
    "rate-above-bound": "name: x\nduration: 60\ndemand: {default_rate: 1e12}\n",
    "sub-second-period": "name: x\nduration: 60\nevents:\n  emergency: {period: 0.001}\n",
    "sub-second-headway": "name: x\nduration: 60\nevents:\n  bus_lines: {count: 1, headway: 0.5}\n",
    "period-missing": "name: x\nduration: 60\nevents:\n  emergency: {}\n",
    "grid-too-large": "name: x\ngrid: {rows: 100000, cols: 100000}\n",
}


class TestMalformedScenarioFiles:
    @pytest.fixture(autouse=True)
    def no_schedule(self, monkeypatch):
        """A malformed file must be refused before any episode builds
        its schedules, so none of these can loop or divide by zero."""

        def refuse(*args):
            raise AssertionError("an episode was built from a malformed scenario")

        monkeypatch.setattr(engine, "scheduled_emergencies", refuse)
        monkeypatch.setattr(engine, "scheduled_bus_departures", refuse)

    @pytest.mark.parametrize("name", sorted(MALFORMED_SCENARIOS))
    def test_is_a_usage_error(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.yaml"
        path.write_text(MALFORMED_SCENARIOS[name])
        code = main(["baseline", "--method", "fixed_time", "--scenario", str(path), "--seeds", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestResumeRefusal:
    def test_a_store_shorter_than_its_checkpoint_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        base = ["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "3",
                "--seed", "5", "--out", str(out)]
        assert main(base + ["--stop-after", "1"]) == 0
        events = out / "events.jsonl"
        events.write_text("".join(events.read_text().splitlines(keepends=True)[:-1]))
        capsys.readouterr()
        assert main(base + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "events.jsonl" in err and "shorter than its checkpoint" in err

    def test_a_checkpoint_of_another_sequence_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        base = ["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "3",
                "--seed", "5", "--out", str(out)]
        assert main(base + ["--stop-after", "1"]) == 0
        path = out / "checkpoint.json"
        checkpoint = json.loads(path.read_text())
        sequence = checkpoint["sequence"]
        checkpoint["sequence"] = sequence + 1
        path.write_text(json.dumps(checkpoint))
        # the command rewrites its manifest; the store must stay as it is
        stored = ("skills.jsonl", "capsules.jsonl", "events.jsonl", "checkpoint.json")
        before = {name: (out / name).read_bytes() for name in stored}
        capsys.readouterr()
        assert main(base + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"sequence {sequence}," in err and f"sequence {sequence + 1};" in err
        assert {name: (out / name).read_bytes() for name in stored} == before


class TestRefusedInput:
    """Commands that read a run refuse a missing one without creating
    it, seed lists need a seed, and an output path must be writable;
    each prints one error line and exits 2."""

    def one_error_line(self, capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("exists", [False, True])
    @pytest.mark.parametrize("command", [
        ["inspect"],
        ["inspect", "--skill", "seed"],
        ["replay"],
        ["export"],
        ["evaluate", "--scenario", "T1", *DESK, "--capsule", "seed"],
    ])
    def test_a_directory_without_a_run_is_refused_and_left_alone(self, command, exists, tmp_path, capsys):
        run = tmp_path / "nosuch"
        if exists:  # a directory that holds no run
            run.mkdir()
        assert main([*command, "--run", str(run)]) == 2
        assert f"no run in {run}" in self.one_error_line(capsys)
        assert run.exists() == exists and not (run / "skills.jsonl").exists()

    @pytest.mark.parametrize("flags", [
        ["--gens", "0"],
        ["--gens", "-1"],
        ["--stop-after", "0"],
        ["--stop-after", "-1"],
        ["--resume"],
    ])
    def test_bad_evolve_input_is_refused_before_the_run_directory(self, flags, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "2", *flags, "--out", str(out)]
        assert main(argv) == 2
        self.one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("out", ["", "."])
    def test_an_evolve_out_without_a_name_is_refused(self, out, tmp_path, monkeypatch, capsys):
        # the run's id is its directory's name; "" and "." name none
        monkeypatch.chdir(tmp_path)
        argv = ["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "1", "--out", out]
        assert main(argv) == 2
        assert "names none" in self.one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("run", ["", "."])
    @pytest.mark.parametrize("command", [["inspect"], ["replay"], ["export"]])
    def test_a_run_without_a_name_is_refused_by_the_reading_commands(self, command, run, tmp_path, monkeypatch,
                                                                      capsys):
        # even from inside a run, where "." and "" hold its files
        out = tmp_path / "run"
        assert main(["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.chdir(out)
        assert main([*command, "--run", run]) == 2
        assert "names none" in self.one_error_line(capsys)

    @pytest.mark.parametrize("duration", ["0", "-5"])
    @pytest.mark.parametrize("command", [
        ["baseline", "--method", "fixed_time", "--scenario", "T1"],
        ["compare", "--methods", "fixed_time,max_pressure", "--scenarios", "T1"],
    ])
    def test_a_duration_out_of_bounds_is_refused(self, command, duration, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*command, "--rows", "1", "--cols", "1", "--duration", duration, "--seeds", "1",
                     "--out", str(out)]) == 2
        assert "duration must be a number from 1 to 86400" in self.one_error_line(capsys)
        assert not out.exists()

    def test_a_baseline_out_that_is_a_directory_is_refused(self, tmp_path, capsys):
        argv = ["baseline", "--method", "fixed_time", "--scenario", "T1", *DESK, "--seeds", "1",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        self.one_error_line(capsys)

    def test_an_evolve_out_under_a_file_is_refused(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        argv = ["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "1",
                "--out", str(tmp_path / "file" / "run")]
        assert main(argv) == 2
        self.one_error_line(capsys)

    def test_export_of_a_run_without_generations_names_it(self, tmp_path, capsys):
        run = tmp_path / "seeded"
        RunStore(run).append_skill(SEED_SKILL)
        assert main(["export", "--run", str(run)]) == 2
        assert "no checkpointed generation" in self.one_error_line(capsys)

    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("command", [
        ["baseline", "--method", "fixed_time", "--scenario", "T1"],
        ["evaluate", "--skill", "SKILL", "--scenario", "T1"],
    ])
    def test_an_empty_seed_list_is_refused(self, command, log, tmp_path, capsys):
        skill = tmp_path / "seed.json"
        skill.write_text(json.dumps(LIBRARY["distance-weighted"].to_json_dict()))
        out = tmp_path / "out.csv"
        argv = [str(skill) if part == "SKILL" else part for part in command]
        argv += [*DESK, "--seeds", " , ", "--out", str(out)]
        if log:
            argv += ["--episode-log", str(tmp_path / "log.jsonl")]
        assert main(argv) == 2
        assert "--seeds" in self.one_error_line(capsys)
        assert not out.exists()


# Argument values for the fuzz: small integers, and the empty string.
# POSITIVE is mostly 2 or 3, in range for every count, so that a fair
# share of runs gets past the argument checks; both list in-range
# values first, which Hypothesis draws more often.
SMALL = st.sampled_from(["3", "2", "1", "0", "-1", "-2", "-3", ""])
IN_RANGE = st.sampled_from(["2", "3"])
POSITIVE = st.one_of(IN_RANGE, IN_RANGE, IN_RANGE, SMALL)
JOBS = st.sampled_from(["-1", "0", "1"])


def optional(flag, values):
    """``[flag, value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


def scenario_flags(flag):
    """A scenario on a grid of at most 3x3 for at most 3 s."""
    return st.builds(
        lambda name, rows, cols, duration, scale: [flag, name, "--rows", rows, "--cols", cols,
                                                   "--duration", duration, *scale],
        st.sampled_from(["T1", "E2", "B1", ""]), POSITIVE, POSITIVE, POSITIVE, optional("--demand-scale", SMALL),
    )


SEED_LISTS = st.one_of(st.just(""), st.lists(st.one_of(st.integers(0, 3), st.integers(-3, 3)), min_size=1,
                                             max_size=3).map(lambda seeds: ",".join(map(str, seeds))))


def flags(*parts):
    """One argv tail from strategies of flag lists, joined in order."""
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


class TestArgvFuzz:
    """Every command, on fuzzed small arguments, exits 0, 1 or 2 without
    a traceback; exit 2 prints one ``error:`` line and creates no
    directory. Every argument is a small integer, the empty string, or
    a path inside a fresh directory (or to one evolved run)."""

    SKILLS = {
        "good": json.dumps(SEED_SKILL.to_json_dict()),
        "faulty": json.dumps({"description": "", "guidance": "",
                              "inlane_code": "value[0] += 1 / (num_waiting_vehicle - 2)",
                              "outlane_code": "value[0] += 0"}),
        "unparsable": json.dumps({"description": "", "guidance": "",
                                  "inlane_code": "value[0] +=", "outlane_code": "value[0] += 0"}),
    }

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz") / "run"
        assert main(["evolve", "--scenarios", "T1", *DESK, "--pop", "2", "--gens", "2", "--out", str(out)]) == 0
        return out

    def check(self, argv):
        """Run ``argv`` in a fresh directory, where ``DIR`` stands for it,
        and check the exit."""
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for name, text in self.SKILLS.items():
                (work / f"{name}.json").write_text(text)
            argv = [arg.replace("DIR", tmp) for arg in argv]
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refused the line
                    code = exc.code
            event(f"exit {code}")
            assert code in (0, 1, 2), (argv, err.getvalue())
            if code == 2:
                lines = err.getvalue().splitlines()
                assert sum("error:" in line for line in lines) == 1, (argv, lines)
                assert not any(path.is_dir() for path in work.iterdir()), argv

    @given(flags(
        scenario_flags("--scenarios"),
        POSITIVE.map(lambda pop: ["--pop", pop]), POSITIVE.map(lambda gens: ["--gens", gens]),
        optional("--tau", POSITIVE), optional("--seed", SMALL), optional("--stop-after", POSITIVE),
        optional("--jobs", JOBS), st.sampled_from([[], ["--resume"]]),
    ))
    @settings(max_examples=200, deadline=None)
    def test_evolve(self, argv):
        self.check(["evolve", *argv, "--out", "DIR/run"])

    @given(flags(
        scenario_flags("--scenario"),
        st.sampled_from([["--skill", "DIR/good.json"], ["--skill", "DIR/faulty.json"],
                         ["--skill", "DIR/unparsable.json"], ["--skill", ""], ["--capsule", ""],
                         ["--capsule", "seed", "--run", "DIR/none"], []]),
        optional("--seeds", SEED_LISTS), optional("--jobs", JOBS),
        optional("--out", st.sampled_from(["DIR/out.csv", "", "DIR/no/out.csv"])),
        optional("--episode-log", st.sampled_from(["DIR/log.jsonl", ""])),
    ))
    @settings(max_examples=100, deadline=None)
    def test_evaluate(self, argv):
        self.check(["evaluate", *argv])

    @given(flags(
        scenario_flags("--scenario"),
        st.sampled_from(["fixed_time", "max_pressure", "handcrafted_preemption", "dispatcher", ""]).map(
            lambda method: ["--method", method]),
        optional("--seeds", SEED_LISTS), optional("--jobs", JOBS),
        optional("--out", st.sampled_from(["DIR/out.csv", ""])),
        optional("--episode-log", st.sampled_from(["DIR/log.jsonl", ""])),
    ))
    @settings(max_examples=100, deadline=None)
    def test_baseline(self, argv):
        self.check(["baseline", *argv])

    @given(flags(
        st.lists(st.sampled_from(["fixed_time", "seed", "library:bus-priority", "skill:DIR/good.json",
                                  "skill:DIR/faulty.json", "skill:DIR/unparsable.json", ""]),
                 max_size=3).map(lambda methods: ["--methods", ",".join(methods)]),
        scenario_flags("--scenarios"),
        optional("--seeds", SEED_LISTS), optional("--jobs", JOBS),
        optional("--out", st.sampled_from(["DIR/out.csv", ""])),
    ))
    @settings(max_examples=100, deadline=None)
    def test_compare(self, argv):
        self.check(["compare", *argv])

    @given(
        command=st.sampled_from([["inspect"], ["inspect", "--skill", ""], ["inspect", "--skill", "g001c0"],
                                 ["replay"], ["export"], ["export", "--out", "DIR/out.csv"], ["export", "--out", ""]]),
        run=st.sampled_from(["RUN", "DIR/none", ""]),
    )
    @settings(max_examples=100, deadline=None)
    def test_reading_commands(self, run_dir, command, run):
        self.check([*command, "--run", str(run_dir) if run == "RUN" else run])
