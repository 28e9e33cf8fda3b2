"""Append-only store: sequences, round-trips, lineage, truncation."""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import pytest

from evosignal.evolution import EvolutionConfig, run_evolution
from evosignal.sim import make_scenario
from evosignal.skills import LIBRARY, SEED_SKILL
from evosignal import store as store_module
from evosignal.store import Checkpoint, RunStore, StorageError, UnknownId
from evosignal.util import canonical_json


class TestAppend:
    def test_sequences_start_at_one_and_increase(self, tmp_path):
        store = RunStore(tmp_path / "run")
        assert store.append_event("generated", {"generation": 0}) == 1
        assert store.append_event("evaluated", {"generation": 0}) == 2
        assert store.append_skill(SEED_SKILL) == 3
        events = store.events()
        assert [e["seq"] for e in events] == [1, 2]

    def test_unknown_kind_rejected(self, tmp_path):
        store = RunStore(tmp_path / "run")
        with pytest.raises(StorageError):
            store.append("mystery", {})

    def test_capsule_serialization_is_a_fixpoint(self, tmp_path):
        store = RunStore(tmp_path / "run")
        capsule = {
            "skill": LIBRARY["bus-priority"].to_json_dict(),
            "fitness": 12.25,
            "metrics": {"avg_delay": 7.5},
            "generation": 3,
        }
        store.append_capsule(capsule)
        line = (tmp_path / "run" / "capsules.jsonl").read_text().strip()
        reloaded = json.loads(line)
        assert canonical_json(reloaded) == line

    def test_sequence_recovers_across_instances(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_event("generated", {})
        store.append_event("generated", {})
        again = RunStore(tmp_path / "run")
        assert again.append_event("generated", {}) == 3


class TestLineage:
    def test_seed_chain_is_length_one(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_skill(SEED_SKILL)
        assert [s.id for s in store.lineage("seed")] == ["seed"]

    def test_descendant_chain_walks_to_seed(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_skill(SEED_SKILL)
        parent = "seed"
        for g in range(3):
            skill = LIBRARY["distance-weighted"].with_lineage(
                id=f"g{g}", parent_id=parent, generation=g
            )
            store.append_skill(skill)
            parent = skill.id
        chain = store.lineage("g2")
        assert [s.id for s in chain] == ["g2", "g1", "g0", "seed"]

    def test_unknown_id(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_skill(SEED_SKILL)
        with pytest.raises(UnknownId):
            store.lineage("ghost")


class TestCheckpointAndTruncate:
    def test_checkpoint_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "run")
        checkpoint = Checkpoint(
            generations_done=4,
            fitness_history=(1.0, 2.0, 2.0, 3.5),
            stagnation=1,
            best_skill_id="g3",
            best_fitness=3.5,
            generator_calls=16,
            record_counts={"skills.jsonl": 5, "capsules.jsonl": 2, "events.jsonl": 40},
            sequence=47,
            aggregates=({"fitness": 1.0, "avg_delay": 2.0, "avg_queue": 1.0, "throughput": 9.0},),
            elapsed_seconds=1.5,
        )
        store.write_checkpoint(checkpoint)
        assert RunStore(tmp_path / "run").read_checkpoint() == checkpoint

    def test_truncate_drops_partial_records(self, tmp_path):
        store = RunStore(tmp_path / "run")
        for i in range(5):
            store.append_event("generated", {"generation": 0, "candidate": i})
        counts = store.record_counts()
        store.append_event("generated", {"generation": 1, "candidate": 0})
        store.append_event("evaluated", {"generation": 1})
        store.truncate_to(counts, 5)
        events = store.events()
        assert len(events) == 5
        assert store.append_event("generated", {}) == 6  # sequence rewinds too

    def test_torn_last_line_is_skipped(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_event("generated", {"generation": 0})
        path = tmp_path / "run" / "events.jsonl"
        whole = path.read_bytes()
        path.write_bytes(whole + whole[:-5])
        again = RunStore(tmp_path / "run")
        assert [e["seq"] for e in again.events()] == [1]
        again.truncate_to({"events.jsonl": 1}, 1)
        assert path.read_bytes() == whole

    def test_torn_line_inside_the_file_still_fails(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_event("generated", {"generation": 0})
        path = tmp_path / "run" / "events.jsonl"
        path.write_bytes(path.read_bytes()[:-5] + b"\n")
        with pytest.raises(json.JSONDecodeError):
            RunStore(tmp_path / "run")


STORE_FILES = ("skills.jsonl", "capsules.jsonl", "events.jsonl")


class TestShortStore:
    @pytest.mark.parametrize("lost", ["last", "all"])
    @pytest.mark.parametrize("name", STORE_FILES)
    def test_resume_refuses_a_file_missing_checkpointed_records(self, name, lost, two_generations, tmp_path):
        """After an OS crash a file can lose appends the checkpoint
        already counts; resuming must refuse, naming the file and both
        counts, and leave every file as it was."""
        _, kept, checkpoint = two_generations
        counts = json.loads(checkpoint)["record_counts"]
        lines = kept[name].splitlines(keepends=True)
        assert len(lines) == counts[name] >= 1
        k = 1 if lost == "last" else len(lines)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "checkpoint.json").write_bytes(checkpoint)
        files = {other: kept[other] for other in STORE_FILES}
        files[name] = b"".join(lines[:-k])
        for other, data in files.items():
            (run_dir / other).write_bytes(data)
        with pytest.raises(StorageError) as refused:
            crash_run(run_dir, resume=True)
        message = str(refused.value)
        assert name in message
        assert f"holds {counts[name] - k} records" in message and f"counts {counts[name]}" in message
        for other, data in files.items():
            assert (run_dir / other).read_bytes() == data

    @pytest.mark.parametrize("shift", [1, -1])
    def test_resume_refuses_a_checkpoint_of_another_sequence(self, shift, two_generations, tmp_path):
        """The kept records must end at the record the checkpoint was
        written after. The files hold a whole second generation, so a
        resume that truncated before checking would change them."""
        want, _, checkpoint = two_generations
        data = json.loads(checkpoint)
        sequence = data["sequence"]
        data["sequence"] = sequence + shift
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "checkpoint.json").write_text(json.dumps(data))
        for name in STORE_FILES:
            (run_dir / name).write_bytes(want[name])
        with pytest.raises(StorageError) as refused:
            crash_run(run_dir, resume=True)
        message = str(refused.value)
        assert f"end at sequence {sequence}," in message and f"at sequence {sequence + shift};" in message
        for name in STORE_FILES:
            assert (run_dir / name).read_bytes() == want[name]

    def test_checkpoint_syncs_the_record_files_first(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "run")
        store.append_event("generated", {"generation": 0})
        store.append_skill(SEED_SKILL)
        synced = []
        real_fsync, real_replace = store_module._fsync, os.replace

        def record_fsync(path):
            synced.append(Path(path).name)
            real_fsync(path)

        def record_replace(src, dst):
            synced.append(("replace", Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(store_module, "_fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        store.write_checkpoint(Checkpoint(1, (0.0,), 0, None, None, 0, store.record_counts(), 2))
        renamed = synced.index(("replace", "checkpoint.json"))
        assert sorted(synced[:renamed]) == ["events.jsonl", "skills.jsonl"]
        assert synced[renamed + 1:] == ["run"]


class LastGenerationImproves:
    """Scripted drafts: a phase-index skill in generation 0, then one
    that serves the longest queue, so the last generation appends to
    every store file (a capsule included)."""

    def __init__(self, population: int):
        self.population = population
        self.calls = 0

    def propose(self, request) -> str:
        self.calls += 1
        inlane = "value[0] += index" if self.calls <= self.population else "value[0] += num_waiting_vehicle"
        return json.dumps({"description": "d", "guidance": "g",
                           "inlane_code": inlane, "outlane_code": "value[0] += 0"})


def line_ends(data: bytes) -> list[tuple[int, int]]:
    """(end offset, seq) of each record line."""
    out, start = [], 0
    for line in data.splitlines(keepends=True):
        start += len(line)
        out.append((start, json.loads(line)["seq"]))
    return out


CRASH_SCENARIO = make_scenario("T1", rows=1, cols=1, duration=5, demand_scale=4.0, link_length=30.0)
CRASH_CONFIG = EvolutionConfig(scenarios=(CRASH_SCENARIO,), population=2, generations=2, seed=1)


def crash_run(run_dir, **kw):
    return run_evolution(CRASH_CONFIG, LastGenerationImproves(CRASH_CONFIG.population),
                         RunStore(run_dir), **kw)


@pytest.fixture(scope="module")
def two_generations(tmp_path_factory):
    """Store files of an uninterrupted two-generation run, and the
    files and checkpoint after its first generation."""
    base = tmp_path_factory.mktemp("crash")
    # Every run directory is named "r", so every record carries the same run id.
    crash_run(base / "straight" / "r")
    crash_run(base / "partial" / "r", stop_after=1)
    want = {name: (base / "straight" / "r" / name).read_bytes() for name in STORE_FILES}
    kept = {name: (base / "partial" / "r" / name).read_bytes() for name in STORE_FILES}
    return want, kept, (base / "partial" / "r" / "checkpoint.json").read_bytes()


class TestCrashAtAnyByte:
    @pytest.mark.parametrize("name", STORE_FILES)
    def test_resume_after_a_cut_anywhere_in_the_last_generation(self, name, two_generations, tmp_path):
        """Cut one store file at every line boundary of the last
        generation and at every byte of its last record, the other files
        holding exactly the records appended before the cut one (a
        single writer appends in seq order), then resume: every file
        must match the uninterrupted run."""
        started = time.monotonic()
        want, kept, checkpoint = two_generations
        ends = {other: line_ends(want[other]) for other in STORE_FILES}
        for other in STORE_FILES:
            # the last generation appends to every file, a capsule included
            assert want[other].startswith(kept[other]) and len(want[other]) > len(kept[other])

        whole = want[name]
        offsets = {*range(ends[name][-2][0], len(whole))}
        offsets |= {end for end, _ in ends[name] if end >= len(kept[name])}
        for i, offset in enumerate(sorted(offsets)):
            run_dir = tmp_path / f"cut{i}" / "r"
            run_dir.mkdir(parents=True)
            (run_dir / "checkpoint.json").write_bytes(checkpoint)
            crash_seq = min([seq for end, seq in ends[name] if end > offset], default=math.inf)
            for other in STORE_FILES:
                if other == name:
                    cut = whole[:offset]
                else:
                    cut = want[other][: max([0] + [end for end, seq in ends[other] if seq < crash_seq])]
                (run_dir / other).write_bytes(cut)
            crash_run(run_dir, resume=True)
            for other in STORE_FILES:
                assert (run_dir / other).read_bytes() == want[other], (offset, other)
        assert len(offsets) > 250
        assert time.monotonic() - started < 10.0
