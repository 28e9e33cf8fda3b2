"""Parser for the skill-code language.

Strategy: lean on ``ast.parse`` for tokenizing/indentation, then convert
the Python AST into our own node types while enforcing the grammar. Any
construct outside the grammar (imports, defs, lambdas, attribute access,
subscripts other than the ``value[0]`` target, strings, boolean operators,
...) is a SyntaxError here, so the downstream validator only ever has to
reason about names and calls.
"""

from __future__ import annotations

import ast as pyast

from .nodes import (
    ARITH_OPS,
    AugAssign,
    BinOp,
    Call,
    Compare,
    CondChain,
    Expr,
    Num,
    Ref,
    SkillAst,
    Stmt,
    UnaryOp,
)

_BINOP_NAMES = {
    pyast.Add: "+",
    pyast.Sub: "-",
    pyast.Mult: "*",
    pyast.Div: "/",
    pyast.FloorDiv: "//",
    pyast.Mod: "%",
    pyast.Pow: "**",
}

_CMP_NAMES = {
    pyast.Gt: ">",
    pyast.Lt: "<",
    pyast.GtE: ">=",
    pyast.LtE: "<=",
    pyast.Eq: "==",
    pyast.NotEq: "!=",
}

ACCUMULATOR = "value"

# Expressions nested deeper than this are refused here: the validator's
# walks, hashing and comparing a tree, and compiling it each recurse
# once or more per level, so a deeper one (a long operator chain) would
# exhaust the interpreter's recursion limit instead of being rejected.
MAX_EXPR_DEPTH = 100
_TOO_DEEP = f"expression nests more than {MAX_EXPR_DEPTH} levels deep"


def _reject(node: pyast.AST, message: str) -> SyntaxError:
    lineno = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    return SyntaxError(message, ("<skill>", lineno, col + 1, None))


def _convert_expr(node: pyast.expr, depth: int = 0) -> Expr:
    if depth > MAX_EXPR_DEPTH:
        raise _reject(node, _TOO_DEEP)
    depth += 1
    if isinstance(node, pyast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise _reject(node, f"only numeric literals are allowed, got {node.value!r}")
        return Num(float(node.value))
    if isinstance(node, pyast.Name):
        return Ref(node.id)
    if isinstance(node, pyast.UnaryOp):
        if isinstance(node.op, pyast.USub):
            op = "-"
        elif isinstance(node.op, pyast.UAdd):
            op = "+"
        else:
            raise _reject(node, "only unary + and - are allowed")
        operand = _convert_expr(node.operand, depth)
        if isinstance(operand, Num):
            # Fold signed literals so -3 is one literal, not an operation.
            return Num(-operand.value if op == "-" else operand.value)
        return UnaryOp(op, operand)
    if isinstance(node, pyast.BinOp):
        op = _BINOP_NAMES.get(type(node.op))
        if op is None:
            raise _reject(node, f"operator {type(node.op).__name__} is not allowed")
        return BinOp(op, _convert_expr(node.left, depth), _convert_expr(node.right, depth))
    if isinstance(node, pyast.Compare):
        ops = []
        for cmp_op in node.ops:
            name = _CMP_NAMES.get(type(cmp_op))
            if name is None:
                raise _reject(node, f"comparison {type(cmp_op).__name__} is not allowed")
            ops.append(name)
        operands = [_convert_expr(node.left, depth)]
        operands.extend(_convert_expr(c, depth) for c in node.comparators)
        return Compare(tuple(ops), tuple(operands))
    if isinstance(node, pyast.Call):
        if not isinstance(node.func, pyast.Name):
            raise _reject(node, "only calls to bare builtin names are allowed")
        if node.keywords:
            raise _reject(node, "keyword arguments are not allowed")
        for arg in node.args:
            if isinstance(arg, pyast.Starred):
                raise _reject(arg, "starred arguments are not allowed")
        return Call(node.func.id, tuple(_convert_expr(a, depth) for a in node.args))
    raise _reject(node, f"{type(node).__name__} is not part of the skill language")


def _is_accumulator_target(node: pyast.expr) -> bool:
    return (
        isinstance(node, pyast.Subscript)
        and isinstance(node.value, pyast.Name)
        and node.value.id == ACCUMULATOR
        and isinstance(node.slice, pyast.Constant)
        and node.slice.value == 0
        and not isinstance(node.slice.value, bool)
    )


def _convert_stmt(node: pyast.stmt) -> Stmt:
    if isinstance(node, pyast.AugAssign):
        if not _is_accumulator_target(node.target):
            raise _reject(node, "assignment target must be value[0]")
        op = _BINOP_NAMES.get(type(node.op))
        if op is None or op not in ARITH_OPS:
            raise _reject(node, f"augmented operator {type(node.op).__name__} is not allowed")
        return AugAssign(op, _convert_expr(node.value))
    if isinstance(node, pyast.If):
        return _convert_chain(node)
    raise _reject(node, f"{type(node).__name__} is not part of the skill language")


def _convert_body(body: list[pyast.stmt]) -> tuple[Stmt, ...]:
    return tuple(_convert_stmt(s) for s in body)


def _convert_chain(node: pyast.If) -> CondChain:
    branches: list[tuple[Expr, tuple[Stmt, ...]]] = []
    orelse: tuple[Stmt, ...] = ()
    current: pyast.stmt | None = node
    while isinstance(current, pyast.If):
        branches.append((_convert_expr(current.test), _convert_body(current.body)))
        rest = current.orelse
        if len(rest) == 1 and isinstance(rest[0], pyast.If):
            # elif: Python nests it as a single If in orelse; flatten into
            # the same chain so nesting depth reflects real nesting only.
            current = rest[0]
        else:
            orelse = _convert_body(rest)
            current = None
    return CondChain(tuple(branches), orelse)


def parse(code: str) -> SkillAst:
    """Parse skill code into a SkillAst.

    Raises SyntaxError (with line/column) when the text is not valid
    Python or uses any construct outside the skill grammar. An empty
    program is also a SyntaxError: a skill body must do something. So is
    an expression nested more than ``MAX_EXPR_DEPTH`` levels deep,
    including one too deep for Python's own parser to read.
    """
    try:
        module = pyast.parse(code, filename="<skill>")
        if not module.body:
            raise SyntaxError("empty skill body", ("<skill>", 1, 1, code))
        return SkillAst(_convert_body(module.body))
    except (RecursionError, MemoryError):
        raise SyntaxError(_TOO_DEEP, ("<skill>", 1, 1, None)) from None
