"""Skills: the evolved artifact.

A skill is not a bare code snippet - it bundles a natural-language
strategy description, selection guidance, and the pair of executable
scoring bodies (inlane and outlane), plus lineage and fitness metadata
added by the engine. Serialization is the JSON object exchanged with
generators: description / guidance / inlane_code / outlane_code, with
id / parent_id / generation / fitness added on the engine side.

The module also ships a small library of known-good skills, used as
interpreter test vectors and as rewrite templates for the scripted
generator, and ``DEFAULT_BANK``, the library skill of each dispatcher
slot.
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import dataclass, replace
from typing import Any

from . import dsl


@dataclass(frozen=True)
class Skill:
    id: str
    description: str
    guidance: str
    inlane_code: str
    outlane_code: str
    parent_id: str | None = None
    generation: int = 0
    fitness: float | None = None
    metrics_snapshot: dict[str, float] | None = None

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "parent_id": self.parent_id,
            "generation": self.generation,
            "description": self.description,
            "guidance": self.guidance,
            "inlane_code": self.inlane_code,
            "outlane_code": self.outlane_code,
            "fitness": self.fitness,
        }
        if self.metrics_snapshot is not None:
            out["metrics"] = dict(self.metrics_snapshot)
        return out

    @classmethod
    def from_json_dict(cls, data: dict[str, Any], *, default_id: str = "unnamed") -> "Skill":
        """The skill ``data`` holds; raises ValueError, naming the
        problem, if it is not an object with both bodies as strings and
        an integer generation."""
        if not isinstance(data, dict):
            raise ValueError(f"a skill must be a JSON object, not {type(data).__name__}")
        for key in ("inlane_code", "outlane_code"):
            if key not in data:
                raise ValueError(f"the skill has no {key}")
            if not isinstance(data[key], str):
                raise ValueError(f"the skill's {key} is not a string")
        try:
            generation = int(data.get("generation", 0))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"the skill's generation {data['generation']!r} is not an integer") from None
        return cls(
            id=str(data.get("id", default_id)),
            description=str(data.get("description", "")),
            guidance=str(data.get("guidance", "")),
            inlane_code=data["inlane_code"],
            outlane_code=data["outlane_code"],
            parent_id=data.get("parent_id"),
            generation=generation,
            fitness=data.get("fitness"),
            metrics_snapshot=data.get("metrics"),
        )

    @classmethod
    def from_json(cls, text: str, *, default_id: str = "unnamed") -> "Skill":
        return cls.from_json_dict(json.loads(text), default_id=default_id)

    def with_lineage(self, *, id: str, parent_id: str | None, generation: int) -> "Skill":
        return replace(self, id=id, parent_id=parent_id, generation=generation)


def skill_complexity(skill: Skill) -> tuple[int, int]:
    """Skill-level complexity: the max node count and max branch depth
    over the two code bodies (the heavier body characterizes the skill)."""
    counts = []
    depths = []
    for code in (skill.inlane_code, skill.outlane_code):
        nodes, depth = dsl.complexity(dsl.parse(code))
        counts.append(nodes)
        depths.append(depth)
    return max(counts), max(depths)


def _body(code: str) -> str:
    return textwrap.dedent(code).strip("\n")


NEUTRAL_OUTLANE = "value[0] += 0"

# The minimal baseline every evolution run grows from: accumulate the
# waiting-vehicle count, ignore the outlane side.
SEED_SKILL = Skill(
    id="seed",
    description="Baseline: accumulate waiting vehicle counts per lane-link.",
    guidance="Score each phase by the number of stopped vehicles it would release.",
    inlane_code="value[0] += num_waiting_vehicle",
    outlane_code=NEUTRAL_OUTLANE,
)

# Known-good skills, named by what they do. saturation-branch is the
# flagship routine listing (written in its lane-indexed alias form,
# which is how generators actually emit it); the event entries form the
# stock dispatcher bank.
LIBRARY: dict[str, Skill] = {
    "baseline-queue": SEED_SKILL,
    "saturation-branch": Skill(
        id="saturation-branch",
        description=(
            "Saturation-aware phase scoring with distance-adjusted urgency: "
            "heavy queues (more than 5 waiting) get a distance-modulated score, "
            "moderate queues a simple linear boost."
        ),
        guidance=(
            "Above 5 waiting vehicles, weight the queue by spatial density; "
            "between 1 and 5, double it; ignore empty approaches."
        ),
        inlane_code=_body(
            """
            if inlane_2_num_waiting_vehicle > 5:
                value[0] += inlane_2_num_waiting_vehicle * (max(1, inlane_2_vehicle_dist) - inlane_2_vehicle_dist % 3) + inlane_2_num_vehicle // 4
            elif inlane_2_num_waiting_vehicle > 0:
                value[0] += inlane_2_num_waiting_vehicle * 2
            """
        ),
        outlane_code=_body(
            """
            value[0] += min(10, outlane_2_num_vehicle) * max(0, outlane_2_vehicle_dist - 3)
            """
        ),
    ),
    "distance-weighted": Skill(
        id="distance-weighted",
        description="Distance-weighted queue scoring with a vehicle-density bonus.",
        guidance="Weight waiting vehicles by their spread; add a small count bonus.",
        inlane_code="value[0] += num_waiting_vehicle * max(1, vehicle_dist) + num_vehicle // 5",
        outlane_code=NEUTRAL_OUTLANE,
    ),
    "ratio-saturation": Skill(
        id="ratio-saturation",
        description="Ratio-based saturation: score by the excess waiting fraction relative to total vehicles.",
        guidance="Only act when more than a third of the lane is stopped; penalty grows quadratically.",
        inlane_code=_body(
            """
            if num_waiting_vehicle > num_vehicle // 3:
                value[0] += (num_waiting_vehicle - num_vehicle // 3) ** 2
            """
        ),
        outlane_code=NEUTRAL_OUTLANE,
    ),
    "preempt-approach": Skill(
        id="preempt-approach",
        description=(
            "Distance-aware preemption: give maximum weight to the phase serving "
            "an approaching emergency vehicle, scaled inversely with its distance."
        ),
        guidance=(
            "When an emergency vehicle is in range, dominate scoring on its phase; "
            "otherwise fall back to queue-based scoring."
        ),
        inlane_code=_body(
            """
            if emergency_distance > 0:
                if emergency_phase == index:
                    value[0] += max(0, 200 - emergency_distance) * 10
                else:
                    value[0] += num_waiting_vehicle * 2
            else:
                value[0] += num_waiting_vehicle * 3
            """
        ),
        outlane_code="value[0] -= num_vehicle * 0.3",
    ),
    "bus-priority": Skill(
        id="bus-priority",
        description="Bus-priority scoring: amplified waiting weight with a density compensation term.",
        guidance="Boost queue weight while buses are detected; keep downstream space clear.",
        inlane_code="value[0] += num_waiting_vehicle * 4 + num_vehicle / max(1, vehicle_dist)",
        outlane_code="value[0] -= (num_vehicle / max(1, vehicle_dist)) * 2",
    ),
    "incident-diversion": Skill(
        id="incident-diversion",
        description="Incident-aware diversion: prefer moving vehicles over queued ones while a lane is blocked.",
        guidance="During a blockage, reward phases whose traffic is still flowing; otherwise score queues.",
        inlane_code=_body(
            """
            if incident_blocked > 0:
                value[0] += max(0, num_vehicle - num_waiting_vehicle) * 5
            else:
                value[0] += num_waiting_vehicle * 3
            """
        ),
        outlane_code="value[0] -= num_vehicle * 0.5",
    ),
    "saturation-response": Skill(
        id="saturation-response",
        description="Nonlinear saturation response with a severity-scaled bonus at high congestion.",
        guidance="Square the queue; add a congestion-level multiple when severity passes level 1.",
        inlane_code=_body(
            """
            value[0] += num_waiting_vehicle ** 2
            if congestion_level > 1:
                value[0] += num_waiting_vehicle * congestion_level * 2
            """
        ),
        outlane_code="value[0] += vehicle_dist * 0.5",
    ),
}

# The stock dispatcher bank: the library skill that fills each slot.
# The robust queue accumulator handles routine traffic; the evolved
# listings are still selectable by name for any slot.
DEFAULT_BANK: dict[str, Skill] = {
    "normal": LIBRARY["baseline-queue"],
    "emergency": LIBRARY["preempt-approach"],
    "incident": LIBRARY["incident-diversion"],
    "transit": LIBRARY["bus-priority"],
    "congestion": LIBRARY["saturation-response"],
}
