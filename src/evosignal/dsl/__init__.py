"""The restricted skill-code language: parse, validate, run, measure."""

from .complexity import complexity
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
    EVENT_VARIABLES,
    LANE_VARIABLES,
    VariableWhitelist,
    canonical_binding,
    event_whitelist,
    routine_whitelist,
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
    "EVENT_VARIABLES",
    "event_whitelist",
    "free_names",
    "LANE_VARIABLES",
    "Num",
    "parse",
    "Ref",
    "render",
    "routine_whitelist",
    "sandbox_check",
    "SkillAst",
    "source_literal",
    "STAGE_PARSE",
    "STAGE_SANDBOX",
    "STAGE_WHITELIST",
    "UnaryOp",
    "validate",
    "ValidationReport",
    "VariableWhitelist",
]
