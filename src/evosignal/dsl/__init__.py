"""The restricted skill-code language: parse, validate, run, measure."""

from .interpreter import (
    EvalError,
    CompiledBody,
    compile_body,
    sandbox_check,
)
from .nodes import (
    AugAssign,
    BinOp,
    Call,
    Compare,
    CondChain,
    Num,
    Ref,
    SkillAst,
    UnaryOp,
    complexity,
    free_names,
    render,
    source_literal,
)
from .parser import parse
from .validator import (
    STAGE_PARSE,
    STAGE_SANDBOX,
    STAGE_WHITELIST,
    ValidationReport,
    validate,
)
from .whitelist import (
    BUILTINS,
    EVENT_NAMES,
    EVENT_VARIABLES,
    LANE_VARIABLES,
    ROUTINE_NAMES,
    canonical_binding,
    whitelist_for,
)

__all__ = [
    "AugAssign",
    "BinOp",
    "BUILTINS",
    "Call",
    "Compare",
    "CompiledBody",
    "compile_body",
    "complexity",
    "CondChain",
    "canonical_binding",
    "EvalError",
    "EVENT_NAMES",
    "EVENT_VARIABLES",
    "free_names",
    "LANE_VARIABLES",
    "Num",
    "parse",
    "Ref",
    "render",
    "ROUTINE_NAMES",
    "sandbox_check",
    "SkillAst",
    "source_literal",
    "STAGE_PARSE",
    "STAGE_SANDBOX",
    "STAGE_WHITELIST",
    "UnaryOp",
    "validate",
    "ValidationReport",
    "whitelist_for",
]
