"""Evaluation of validated skill code.

The main interpreter lowers a SkillAst once to a real Python function
(grammar and whitelist have already fenced it in) whose positional
parameters are the ten ``EVENT_NAMES``: the three lane features,
the phase ``index`` and the six event-context variables. The lowering
is text, which Python compiles: ``body_lines`` writes a prologue that
assigns any lane-index aliases the body uses and sets the accumulator,
a local float ``value``, to 0.0; ``nodes.render`` then writes the body
with ``value`` as its accumulator and ``repr`` literals, so each
``value[0] op= e`` becomes ``value op= e`` (the same arithmetic, without
a list to index), and the function returns ``value``. Its globals hold
the whitelisted builtins and nothing else, so a call costs about as
much as the arithmetic in it. ``CompiledBody.run`` calls it on
bindings by name; this is how the sandbox check runs a body.

Episodes run bodies hundreds of thousands of times, and not through
this function: ``control`` generates one scorer per skill around the
same ``body_lines`` of both bodies (with these globals, plus the
builtins its own lines call). It reads what a ``CompiledBody`` knows of
a body: ``reads``, which lane features the body names (aliases
included), so the scorer reads from the simulator only those;
``names_index``, whether it names the phase ``index``, so the scorer
may share one result among the lane-links of one exit link; and
``constant``, the result of a body that names no parameter at all,
which the scorer adds as a literal.

Semantics are plain double precision: all literals are floats, ``//`` is
floor division, ``%`` takes the sign of the divisor, ``**`` is real
exponentiation. ``sum(range(x))`` and ``len(range(x))`` (the only places
the validator admits ``range``) are computed in closed form from
``t = max(0, floor(x))``, as floats, so no body iterates or leaves the
float domain. Division or modulo by zero, overflow, and non-finite or
non-real results raise EvalError; callers treat the candidate as invalid
for that evaluation.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping

from .nodes import SkillAst, free_names, render
from .parser import parse
from .validator import STAGE_PARSE, STAGE_SANDBOX, ValidationReport, validate
from .whitelist import EVENT_NAMES, LANE_VARIABLES, canonical_binding

MAX_RANGE_LENGTH = 1_000_000


class EvalError(Exception):
    """Raised when skill code faults at run time (zero division,
    overflow, non-finite or non-real result)."""


def _range_length(n) -> int:
    """The length of ``range(n)`` as the sandbox defines it: the argument
    is floored to an integer, negatives give an empty sequence, and
    absurd lengths are refused."""
    count = int(math.floor(n))
    if count > MAX_RANGE_LENGTH:
        raise EvalError(f"range({n!r}) exceeds the sandbox bound")
    return max(0, count)


def _triangular(t: int) -> float:
    """``sum(range(n))`` in closed form from ``t``, the length of
    ``range(n)``; exact, as the bound keeps it below 2**53."""
    return float(t * (t - 1) // 2)


def _unbound(name: str):
    raise EvalError(f"variable '{name}' is unbound in this context")


# The validator admits range(x) only as the one argument of sum or len,
# so a body never sees what range returns: binding range to the length
# of range(x), sum to the sum of a range of that length and len to its
# length as a float gives exactly what the builtins would, with no
# sequence built and no call mapping in the lowering.
_EXEC_GLOBALS = {
    "__builtins__": {},
    "min": min,
    "max": max,
    "abs": abs,
    "range": _range_length,
    "sum": _triangular,
    "len": float,
    "_unbound": _unbound,
}


def body_lines(ast: SkillAst) -> list[str]:
    """The statements that run a body where each of the ``EVENT_NAMES``
    it names is a local: the alias prologue, the accumulator ``value =
    0.0`` and the rendered body, after which ``value`` holds the raw
    result. A name that no canonical binding can supply raises EvalError
    (through ``_unbound``) where the body would start."""
    lines = []
    for name in sorted(free_names(ast)):
        canonical = canonical_binding(name)
        if canonical not in EVENT_NAMES:
            lines.append(f"_unbound({name!r})")
        elif name != canonical:
            lines.append(f"{name} = {canonical}")
    return [*lines, "value = 0.0", *render(ast, "value", repr).split("\n")]


def _lower_function(ast: SkillAst) -> str:
    """The text ``def skill(<EVENT_NAMES>):`` of a body: its
    ``body_lines`` and ``return value``."""
    lines = [*body_lines(ast), "return value"]
    return f"def skill({', '.join(EVENT_NAMES)}):\n" + "".join(f"    {line}\n" for line in lines)


def finite_result(result) -> float:
    """A body's return value as a float; a non-real or non-finite result
    is a fault."""
    if isinstance(result, complex) or not isinstance(result, (int, float)):
        raise EvalError(f"skill produced a non-real result: {result!r}")
    result = float(result)
    if not math.isfinite(result):
        raise EvalError(f"skill produced a non-finite result: {result!r}")
    return result


class CompiledBody:
    """A skill code body lowered to a Python function of the
    ``EVENT_NAMES``: ``_lower_function`` renders the body as the
    text of that function, which Python compiles once, here. ``function``
    returns the raw accumulator and may raise ArithmeticError, TypeError
    or ValueError; callers map those to EvalError and check the result
    with ``finite_result``, as ``run`` does.

    What the body names, for a caller that wants to skip work:

    - ``reads`` tells, for each of the ``LANE_VARIABLES`` in order,
      whether the body names it directly or through an alias; the
      function never reads a feature it does not name, so a caller may
      pass anything for it;
    - ``names_index`` tells whether it names the phase ``index``; if
      not, its result is a function of the lane features and the event
      context alone;
    - ``constant`` is the checked result of a body that names no
      parameter (``value[0] += 0``), computed here once; it is None for
      every other body and for one whose run faults, so that a faulting
      body is still called and faults where it always did.

    Immutable after construction; safe to share across threads (each
    call has its own locals)."""

    __slots__ = ("function", "name_map", "reads", "names_index", "constant")

    def __init__(self, ast: SkillAst):
        namespace: dict[str, object] = {}
        exec(compile(_lower_function(ast), "<skill>", "exec"), _EXEC_GLOBALS, namespace)  # noqa: S102 - grammar+whitelist fenced
        self.function = namespace["skill"]
        self.name_map = tuple((name, canonical_binding(name)) for name in sorted(free_names(ast)))
        named = {canonical for _, canonical in self.name_map}
        self.reads = tuple(feature in named for feature in LANE_VARIABLES)
        self.names_index = "index" in named
        self.constant = None
        if not named:
            try:
                self.constant = finite_result(self.function(*[0.0] * len(EVENT_NAMES)))
            except (ArithmeticError, TypeError, ValueError, EvalError):
                pass

    def run(self, bindings: Mapping[str, float]) -> float:
        """The checked result of the body on ``bindings``, keyed by
        canonical names; a name the body uses that they lack faults."""
        for src, canonical in self.name_map:
            if canonical not in bindings:
                raise EvalError(f"variable '{src}' is unbound in this context")
        try:
            result = self.function(*[bindings.get(name) for name in EVENT_NAMES])
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise EvalError(str(exc)) from exc
        return finite_result(result)


@functools.lru_cache(maxsize=4096)
def compile_body(ast: SkillAst) -> CompiledBody:
    """Compile (with caching: parsed ASTs are immutable and hashable)."""
    return CompiledBody(ast)


def sandbox_check(skill, names: tuple[str, ...]) -> ValidationReport:
    """Full three-stage pipeline over both code bodies of a skill.

    Stage 1 parses, stage 2 admits only ``names`` and the builtins,
    stage 3 executes with each of ``names`` bound to 1.0 and requires a
    finite result. ``skill`` needs ``inlane_code`` and ``outlane_code``
    attributes; the report carries the first failing stage.
    """
    dummy = dict.fromkeys(names, 1.0)
    for label, code in (("inlane", skill.inlane_code), ("outlane", skill.outlane_code)):
        try:
            ast = parse(code)
        except SyntaxError as exc:
            return ValidationReport.failed(STAGE_PARSE, f"{label}: {exc.msg} (line {exc.lineno})")
        report = validate(ast, names)
        if not report.ok:
            return ValidationReport.failed(report.stage, f"{label}: {report.message}")
        try:
            compile_body(ast).run(dummy)
        except EvalError as exc:
            return ValidationReport.failed(STAGE_SANDBOX, f"{label}: {exc}")
    return ValidationReport.passed()
