"""AST node types for the restricted skill-code language.

The language is a small Python subset: a sequence of augmented assignments
to the ``value[0]`` accumulator, optionally wrapped in if/elif/else chains.
Expressions are arithmetic over whitelisted variables, numeric literals,
comparisons, and calls to a handful of builtins. Nothing else parses.

All nodes are frozen dataclasses; a parsed program is immutable and safe
to share across threads. ``walk`` visits every node of a tree, and the
names a tree reads and its ``complexity`` are read from that walk.
``render`` writes a tree back as text: as skill source for the scripted
mutator, and as the body of a Python function for the interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

ARITH_OPS = ("+", "-", "*", "/", "//", "%", "**")


@dataclass(frozen=True, eq=False)
class Num:
    """Numeric literal. Always stored as float: the language has one
    numeric domain (double precision) regardless of how the literal
    was written. Two literals are equal, and hash alike, only when
    their floats have the same bits: ``0.0 == -0.0``, but a tree that
    holds one compiles to other results than a tree that holds the
    other, and trees key the compile caches."""

    value: float

    def __eq__(self, other):
        if other.__class__ is not Num:
            return NotImplemented
        return self.value.hex() == other.value.hex()

    def __hash__(self):
        return hash(self.value.hex())


@dataclass(frozen=True)
class Ref:
    """Reference to a whitelisted variable (abstract or lane-indexed alias)."""

    name: str


@dataclass(frozen=True)
class UnaryOp:
    op: str  # "+" or "-"
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of ARITH_OPS
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Compare:
    """Comparison, possibly chained (``a < b <= c``)."""

    ops: tuple[str, ...]  # each one of > < >= <= == !=; len(ops) == len(operands) - 1
    operands: tuple["Expr", ...]


@dataclass(frozen=True)
class Call:
    """Call to a builtin by bare name. Whether the name is actually a
    whitelisted builtin is the validator's business, not the grammar's."""

    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Ref, UnaryOp, BinOp, Compare, Call]


@dataclass(frozen=True)
class AugAssign:
    """``value[0] <op>= expr``. The target is always the accumulator."""

    op: str  # one of ARITH_OPS
    expr: Expr


@dataclass(frozen=True)
class CondChain:
    """One if/elif/.../else chain. ``branches`` pairs each test with its
    body; ``orelse`` is the else body (empty tuple when absent)."""

    branches: tuple[tuple[Expr, tuple["Stmt", ...]], ...]
    orelse: tuple["Stmt", ...]


Stmt = Union[AugAssign, CondChain]


@dataclass(frozen=True)
class SkillAst:
    """A parsed skill code body: an ordered statement sequence."""

    statements: tuple[Stmt, ...]


def _children(node: Union[Expr, Stmt]) -> tuple:
    if isinstance(node, AugAssign):
        return (node.expr,)
    if isinstance(node, CondChain):
        tests = tuple(test for test, _ in node.branches)
        return tests + tuple(stmt for _, body in node.branches for stmt in body) + node.orelse
    if isinstance(node, UnaryOp):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Compare):
        return node.operands
    if isinstance(node, Call):
        return node.args
    return ()


def walk(ast: SkillAst) -> Iterator[Union[Expr, Stmt]]:
    """Yield every statement and expression of ``ast``, depth first: a
    statement, then its expression or all of its chain's tests, then the
    statements of the chain's branches and of its else-body."""
    stack = list(reversed(ast.statements))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def free_names(ast: SkillAst) -> set[str]:
    """All variable names referenced anywhere in the program."""
    return {node.name for node in walk(ast) if isinstance(node, Ref)}


# What a node adds to ``complexity``'s count, by type; any other adds 1.
_NODE_WEIGHT = {AugAssign: 2, CondChain: 0, Num: 0}


def _branch_depth(statements: tuple[Stmt, ...]) -> int:
    depth = 0
    for stmt in statements:
        if isinstance(stmt, CondChain):
            bodies = [body for _, body in stmt.branches] + [stmt.orelse]
            depth = max(depth, 1 + max(map(_branch_depth, bodies)))
    return depth


def complexity(ast: SkillAst) -> tuple[int, int]:
    """(node_count, branch_depth) of one code body.

    The count is calibrated so that the minimal baseline skill
    (``value[0] += num_waiting_vehicle``) measures exactly 3 nodes: the
    statement, the accumulator target and the variable reference.
    Operators (arithmetic, comparison, unary), calls and variable
    references count 1 each, numeric literals 0, and a chain header
    nothing: its tests and branch bodies carry the weight. The depth
    counts an if/elif/else chain as one level; only a chain nested
    inside a branch body goes deeper."""
    nodes = sum(_NODE_WEIGHT.get(type(node), 1) for node in walk(ast))
    return nodes, _branch_depth(ast.statements)


def source_literal(value: float) -> str:
    """The skill-source spelling of a non-negative finite literal: a
    whole number below 1e9 without a fraction, any other by ``repr``."""
    return str(int(value)) if value < 1e9 and value == int(value) else repr(value)


def _render_expr(node: Expr, literal: Callable[[float], str]) -> str:
    if isinstance(node, Num):
        value = node.value
        text = "1e999" if math.isinf(value) else literal(abs(value))
        return f"(-{text})" if math.copysign(1.0, value) < 0 else text
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, UnaryOp):
        return f"({node.op}{_render_expr(node.operand, literal)})"
    if isinstance(node, BinOp):
        return f"({_render_expr(node.left, literal)} {node.op} {_render_expr(node.right, literal)})"
    if isinstance(node, Compare):
        parts = [_render_expr(node.operands[0], literal)]
        for op, operand in zip(node.ops, node.operands[1:]):
            parts += (op, _render_expr(operand, literal))
        return "(" + " ".join(parts) + ")"
    if isinstance(node, Call):
        return f"{node.func}(" + ", ".join(_render_expr(a, literal) for a in node.args) + ")"
    raise TypeError(f"unknown expression node {node!r}")


def _render_lines(
    statements: tuple[Stmt, ...], accumulator: str, literal: Callable[[float], str]
) -> list[str]:
    lines: list[str] = []
    for stmt in statements:
        if isinstance(stmt, AugAssign):
            lines.append(f"{accumulator} {stmt.op}= {_render_expr(stmt.expr, literal)}")
        elif isinstance(stmt, CondChain):
            blocks = [
                (f"{'elif' if i else 'if'} {_render_expr(test, literal)}:", body)
                for i, (test, body) in enumerate(stmt.branches)
            ]
            if stmt.orelse:
                blocks.append(("else:", stmt.orelse))
            for header, body in blocks:
                lines.append(header)
                lines += ("    " + line for line in _render_lines(body, accumulator, literal))
        else:
            raise TypeError(f"unknown statement node {stmt!r}")
    return lines


def render(ast: SkillAst, accumulator: str, literal: Callable[[float], str]) -> str:
    """``ast`` as text that parses back to it: one statement a line,
    four spaces an indentation level, each operation in parentheses.

    Two spellings are the caller's: the ``accumulator`` each statement
    augments (``value[0]`` in skill source, a local ``value`` in the
    interpreter's function) and ``literal``, which spells a non-negative
    finite number (``source_literal`` for skill source, ``repr`` for
    Python). An infinite literal is written ``1e999``, and a negative
    one (``-0.0`` too) in parentheses with its sign, so that ``(-2) ** x``
    stays a power of minus two."""
    return "\n".join(_render_lines(ast.statements, accumulator, literal))
