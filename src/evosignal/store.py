"""Append-only run persistence: skills, capsules, audit events,
checkpoints, lineage.

One directory per run. skills.jsonl / capsules.jsonl / events.jsonl are
append-only with a single strictly increasing sequence shared across the
three files; checkpoint.json is overwritten atomically via rename.
Session-lifecycle records (resume markers) go to sessions.jsonl, kept
apart from the deterministic trail so an interrupted-and-resumed run
leaves byte-identical evolution files versus an uninterrupted one.

Timestamps anywhere in the deterministic files are logical (the record
sequence), never wall-clock; wall-clock accumulates only in the
checkpoint.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from .skills import Skill
from .util import canonical_json

SKILLS_FILE = "skills.jsonl"
CAPSULES_FILE = "capsules.jsonl"
EVENTS_FILE = "events.jsonl"
SESSIONS_FILE = "sessions.jsonl"
CHECKPOINT_FILE = "checkpoint.json"

KIND_TO_FILE = {
    "skill": SKILLS_FILE,
    "capsule": CAPSULES_FILE,
    "audit_event": EVENTS_FILE,
}


class StorageError(OSError):
    pass


class UnknownId(KeyError):
    pass


class UnknownRun(FileNotFoundError):
    pass


@dataclass(frozen=True)
class Checkpoint:
    """The state of an evolution run after its last whole generation; a
    fresh run starts from an empty one."""

    generations_done: int
    fitness_history: tuple[float, ...]
    stagnation: int
    best_skill_id: str | None
    best_fitness: float | None
    generator_calls: int
    record_counts: dict[str, int]  # file -> line count at checkpoint
    sequence: int
    aggregates: tuple[dict, ...]  # per generation: fitness, avg_delay, avg_queue, throughput
    elapsed_seconds: float

    @classmethod
    def from_dict(cls, data: dict) -> "Checkpoint":
        return cls(
            generations_done=int(data["generations_done"]),
            fitness_history=tuple(float(v) for v in data["fitness_history"]),
            stagnation=int(data["stagnation"]),
            best_skill_id=data.get("best_skill_id"),
            best_fitness=data.get("best_fitness"),
            generator_calls=int(data.get("generator_calls", 0)),
            record_counts={k: int(v) for k, v in data["record_counts"].items()},
            sequence=int(data["sequence"]),
            aggregates=tuple(data.get("aggregates", [])),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )


class RunStore:
    """Single-writer append-only store for one evolution run; the run id
    in every record is the name of ``run_dir``."""

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.run_id = self.run_dir.name
        self._counts: dict[str, int] = {}
        self._sequence = self._recover_state()

    # ------------------------------------------------------------------
    # appends

    def _recover_state(self) -> int:
        last = 0
        for name in KIND_TO_FILE.values():
            records = self._read_file(name)
            self._counts[name] = len(records)
            for record in records:
                last = max(last, int(record.get("seq", 0)))
        return last

    def _path(self, name: str) -> Path:
        return self.run_dir / name

    def append(self, kind: str, payload: dict) -> int:
        """Durably append one record; returns its sequence number."""
        try:
            file_name = KIND_TO_FILE[kind]
        except KeyError:
            raise StorageError(f"unknown record kind {kind!r}") from None
        self._sequence += 1
        record = {"seq": self._sequence, "run": self.run_id, **payload}
        try:
            with open(self._path(file_name), "a", encoding="utf-8") as handle:
                handle.write(canonical_json(record) + "\n")
                handle.flush()
        except OSError as exc:
            raise StorageError(str(exc)) from exc
        self._counts[file_name] += 1
        return self._sequence

    def append_skill(self, skill: Skill) -> int:
        return self.append("skill", skill.to_json_dict())

    def append_capsule(self, capsule: dict) -> int:
        """Capsules carry a logical timestamp: the sequence number of
        their own record (wall-clock would break replay fidelity)."""
        return self.append("capsule", {**capsule, "timestamp": self._sequence + 1})

    def append_event(self, event: str, payload: dict) -> int:
        return self.append("audit_event", {"event": event, **payload})

    def append_session_event(self, payload: dict) -> None:
        """Session lifecycle (resume markers): outside the deterministic
        trail by design."""
        with open(self._path(SESSIONS_FILE), "a", encoding="utf-8") as handle:
            handle.write(canonical_json(payload) + "\n")

    # ------------------------------------------------------------------
    # reads

    def _read_file(self, name: str) -> list[dict]:
        """Every record of one file. A last line without its newline
        that does not parse is a torn append (a crash mid-write) and is
        skipped; ``truncate_to`` removes it."""
        path = self._path(name)
        if not path.exists():
            return []
        records = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                text = line.strip()
                if not text:
                    continue
                try:
                    records.append(json.loads(text))
                except json.JSONDecodeError:
                    if line.endswith("\n"):
                        raise
        return records

    def skills(self) -> dict[str, Skill]:
        out: dict[str, Skill] = {}
        for record in self._read_file(SKILLS_FILE):
            skill = Skill.from_json_dict(record)
            out[skill.id] = skill
        return out

    def capsules(self) -> list[dict]:
        return self._read_file(CAPSULES_FILE)

    def events(self) -> list[dict]:
        return self._read_file(EVENTS_FILE)

    def lineage(self, skill_id: str) -> list[Skill]:
        """Chain from a skill back to the run's seed. Acyclic by
        construction (parents are archived before children); a cycle or
        dangling parent raises UnknownId."""
        skills = self.skills()
        if skill_id not in skills:
            raise UnknownId(skill_id)
        chain = []
        seen = set()
        current: str | None = skill_id
        while current is not None:
            if current in seen:
                raise UnknownId(f"lineage cycle at {current!r}")
            seen.add(current)
            skill = skills.get(current)
            if skill is None:
                raise UnknownId(current)
            chain.append(skill)
            current = skill.parent_id
        return chain

    # ------------------------------------------------------------------
    # checkpointing / resume

    def record_counts(self) -> dict[str, int]:
        return dict(self._counts)

    def write_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Write the checkpoint atomically. The record files it counts
        are synced first and the directory after the rename, so after a
        crash a checkpoint never counts records the files lost."""
        for name in KIND_TO_FILE.values():
            if self._path(name).exists():
                _fsync(self._path(name))
        tmp = self._path(CHECKPOINT_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(asdict(checkpoint), handle, sort_keys=True, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._path(CHECKPOINT_FILE))
        _fsync(self.run_dir)

    def read_checkpoint(self) -> Checkpoint | None:
        path = self._path(CHECKPOINT_FILE)
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return Checkpoint.from_dict(json.load(handle))

    def truncate_to(self, record_counts: dict[str, int], sequence: int) -> None:
        """Drop any records appended after a checkpoint (a partially
        completed generation) and any torn last line, so resume
        continues from a clean edge. A file holding fewer records than
        the checkpoint counts lost records the run already relied on,
        and kept records whose highest ``seq`` is not the checkpoint's
        ``sequence`` are not the records it was written after: either
        raises StorageError before any file changes. A file is
        rewritten through a temporary file and a rename, so a crash here
        leaves either the old or the new content."""
        records = {name: self._read_file(name) for name in record_counts}
        for name, keep in record_counts.items():
            if len(records[name]) < keep:
                raise StorageError(
                    f"{self._path(name)} holds {len(records[name])} records but its "
                    f"checkpoint counts {keep}; refusing to resume from a store "
                    "shorter than its checkpoint"
                )
        last = max(
            (int(r.get("seq", 0)) for name, keep in record_counts.items() for r in records[name][:keep]),
            default=0,
        )
        if last != sequence:
            raise StorageError(
                f"the records of {self.run_dir} that its checkpoint counts end at sequence "
                f"{last}, but the checkpoint was written at sequence {sequence}; refusing "
                "to resume from a store that does not match its checkpoint"
            )
        for name, keep in record_counts.items():
            path = self._path(name)
            kept = "".join(canonical_json(r) + "\n" for r in records[name][:keep])
            if not path.exists() or path.read_text(encoding="utf-8") == kept:
                continue
            tmp = self._path(name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(kept)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        self._sequence = self._recover_state()


def _fsync(path: Path) -> None:
    """Flush a file's or a directory's data and metadata to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
