"""Whitelist validation of parsed skill code."""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import Call, SkillAst, complexity, free_names, walk
from .whitelist import BUILTINS, canonical_binding

STAGE_PARSE = "parse"
STAGE_WHITELIST = "whitelist"
STAGE_SANDBOX = "sandbox"

# Size bounds on one code body, as counted by ``complexity``. Library
# bodies reach 20 nodes and depth 2. Letting every scripted draft become
# the elite for 100 generations (40 seeds, each event kind) reaches 93
# nodes and depth 15. A body runs once per lane-link per decision, so
# its node count sets the cost of an episode.
MAX_BODY_NODES = 500
MAX_BRANCH_DEPTH = 32


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    stage: str | None = None
    message: str = ""

    @classmethod
    def passed(cls) -> "ValidationReport":
        return cls(ok=True)

    @classmethod
    def failed(cls, stage: str, message: str) -> "ValidationReport":
        return cls(ok=False, stage=stage, message=message)


def _check_call_shapes(calls: list[Call]) -> str | None:
    """Arity and composition rules for the builtins.

    min/max are variadic over numbers (>= 2 args), abs takes one.
    range(n) yields an integer sequence consumable only by sum and len,
    so a range call may appear solely as the single argument of sum/len,
    and sum/len accept nothing else.
    """
    allowed_range_parents: set[int] = set()
    for call in calls:
        if call.func in ("sum", "len"):
            if len(call.args) != 1 or not (
                isinstance(call.args[0], Call) and call.args[0].func == "range"
            ):
                return f"{call.func}() takes exactly one range(...) argument"
            allowed_range_parents.add(id(call.args[0]))
    for call in calls:
        if call.func == "range":
            if id(call) not in allowed_range_parents:
                return "range(...) may only appear inside sum(...) or len(...)"
            if len(call.args) != 1:
                return "range() takes exactly one argument"
        elif call.func in ("min", "max"):
            if len(call.args) < 2:
                return f"{call.func}() needs at least two arguments"
        elif call.func == "abs":
            if len(call.args) != 1:
                return "abs() takes exactly one argument"
    return None


def validate(ast: SkillAst, names: tuple[str, ...]) -> ValidationReport:
    """Check every variable against ``names`` (lane-index aliases resolve
    onto theirs) and every call against the builtins.

    Failures are reported, never raised: a ValidationReport with
    ok=False and stage="whitelist" names the first offending construct,
    looked for in this order: variables by name, calls in ``walk``
    order, call shapes, size.
    """
    for name in sorted(free_names(ast)):
        if canonical_binding(name) not in names:
            return ValidationReport.failed(
                STAGE_WHITELIST, f"variable '{name}' is not in the sandbox whitelist"
            )
    calls = [node for node in walk(ast) if isinstance(node, Call)]
    for call in calls:
        if call.func not in BUILTINS:
            return ValidationReport.failed(
                STAGE_WHITELIST, f"call to '{call.func}' is not a whitelisted builtin"
            )
    shape_error = _check_call_shapes(calls)
    if shape_error is not None:
        return ValidationReport.failed(STAGE_WHITELIST, shape_error)
    nodes, depth = complexity(ast)
    if nodes > MAX_BODY_NODES:
        return ValidationReport.failed(
            STAGE_WHITELIST, f"body has {nodes} nodes, more than the limit of {MAX_BODY_NODES}"
        )
    if depth > MAX_BRANCH_DEPTH:
        return ValidationReport.failed(
            STAGE_WHITELIST, f"body nests conditionals {depth} deep, more than the limit of {MAX_BRANCH_DEPTH}"
        )
    return ValidationReport.passed()
