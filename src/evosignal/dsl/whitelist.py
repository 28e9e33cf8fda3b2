"""The names a skill body may read, and lane-index alias resolution.

Skill code sees three lane features, the phase ``index``, the
``value[0]`` accumulator and the builtins in ``BUILTINS``, the same for
every skill and on both lane sides. Generated code sometimes spells the
lane features with a lane-index prefix (``inlane_2_num_vehicle``);
``canonical_binding`` resolves every such alias to its abstract name.
Event-aware skills additionally see six event-context variables (no
lane prefix; global per intersection): they are the one thing that
tells ``EVENT_NAMES`` from ``ROUTINE_NAMES``. Both tuples are in the
order a compiled body takes its parameters.
"""

from __future__ import annotations

import re

LANE_VARIABLES = ("num_vehicle", "num_waiting_vehicle", "vehicle_dist")

EVENT_VARIABLES = (
    "emergency_distance",
    "emergency_phase",
    "bus_count",
    "bus_delay",
    "incident_blocked",
    "congestion_level",
)

ROUTINE_NAMES = (*LANE_VARIABLES, "index")
EVENT_NAMES = (*ROUTINE_NAMES, *EVENT_VARIABLES)

BUILTINS = ("min", "max", "abs", "sum", "len", "range")

# Alias forms actually emitted by generators, per lane side: the outlane
# form has no waiting count, though the plain name is admitted there.
_ALIASED = {"inlane": LANE_VARIABLES, "outlane": ("num_vehicle", "vehicle_dist")}

_ALIAS_RE = re.compile(r"^(inlane|outlane)_(\d+)_([a-z_]+)$")


def canonical_binding(name: str) -> str:
    """Strip a lane-index alias prefix down to the abstract name.

    Non-alias names (abstract features, event variables, index) map to
    themselves. This is pure name normalization; whether the name is
    admitted at all is for the name tuple it is checked against.
    """
    m = _ALIAS_RE.match(name)
    if m:
        side, _, base = m.groups()
        if base in _ALIASED[side]:
            return base
    return name


def whitelist_for(event_kind: str | None) -> tuple[str, ...]:
    """The names skills evolved for ``event_kind`` may read (None: routine)."""
    return EVENT_NAMES if event_kind else ROUTINE_NAMES
