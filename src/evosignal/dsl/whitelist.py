"""Variable whitelist and alias resolution for the skill sandbox.

Skill code sees three lane features on the inlane side and two on the
outlane side, the ``value[0]`` accumulator, the current phase ``index``
and the builtins in ``BUILTINS``, the same for every skill. Generated
code sometimes spells the lane features with a lane-index prefix
(``inlane_2_num_vehicle``); ``canonical_binding`` resolves every such
alias to its abstract name. Event-aware skills additionally see six
event-context variables (no lane prefix; global per intersection):
they are the one thing that tells the event whitelist from the routine
one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

LANE_VARIABLES = frozenset({"num_vehicle", "num_waiting_vehicle", "vehicle_dist"})

# Alias forms actually emitted by generators, per lane side.
_INLANE_ALIASED = ("num_vehicle", "num_waiting_vehicle", "vehicle_dist")
_OUTLANE_ALIASED = ("num_vehicle", "vehicle_dist")

EVENT_VARIABLES = (
    "emergency_distance",
    "emergency_phase",
    "bus_count",
    "bus_delay",
    "incident_blocked",
    "congestion_level",
)

PHASE_INDEX = "index"

BUILTINS = ("min", "max", "abs", "sum", "len", "range")

_ALIAS_RE = re.compile(r"^(inlane|outlane)_(\d+)_([a-z_]+)$")


def canonical_binding(name: str) -> str:
    """Strip a lane-index alias prefix down to the abstract name.

    Non-alias names (abstract features, event variables, index) map to
    themselves. This is pure name normalization; whether the name is
    admitted at all is the whitelist's call.
    """
    m = _ALIAS_RE.match(name)
    if m:
        side, _, base = m.groups()
        allowed = _INLANE_ALIASED if side == "inlane" else _OUTLANE_ALIASED
        if base in allowed:
            return base
    return name


@dataclass(frozen=True)
class VariableWhitelist:
    """The set of names a skill body may reference: the lane features
    (lane-indexed aliases resolve onto them), ``index`` and the builtins,
    plus ``event_variables``, empty for routine skills and the six
    event-context names for event skills."""

    event_variables: tuple[str, ...] = ()

    def resolve(self, name: str) -> str | None:
        """Map a referenced name to its canonical binding name, or None
        when the name is not admitted by this whitelist."""
        canonical = canonical_binding(name)
        if canonical in LANE_VARIABLES or canonical == PHASE_INDEX or canonical in self.event_variables:
            return canonical
        return None

    def canonical_names(self) -> tuple[str, ...]:
        """All canonical binding names, in a stable order."""
        return tuple(sorted(LANE_VARIABLES)) + self.event_variables + (PHASE_INDEX,)

    def dummy_bindings(self) -> dict[str, float]:
        """Bindings for the sandbox dry run: every canonical name bound
        to 1.0."""
        return {name: 1.0 for name in self.canonical_names()}


def routine_whitelist() -> VariableWhitelist:
    """Whitelist for routine (non-event) skills: lane features + index."""
    return VariableWhitelist()


def event_whitelist() -> VariableWhitelist:
    """Whitelist for event skills: lane features + index + the six
    event-context variables."""
    return VariableWhitelist(EVENT_VARIABLES)


def whitelist_for(event_kind: str | None) -> VariableWhitelist:
    """The whitelist of skills evolved for ``event_kind`` (None: routine)."""
    return event_whitelist() if event_kind else routine_whitelist()
