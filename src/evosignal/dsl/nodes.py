"""AST node types for the restricted skill-code language.

The language is a small Python subset: a sequence of augmented assignments
to the ``value[0]`` accumulator, optionally wrapped in if/elif/else chains.
Expressions are arithmetic over whitelisted variables, numeric literals,
comparisons, and calls to a handful of builtins. Nothing else parses.

All nodes are frozen dataclasses; a parsed program is immutable and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

ARITH_OPS = ("+", "-", "*", "/", "//", "%", "**")


@dataclass(frozen=True)
class Num:
    """Numeric literal. Always stored as float: the language has one
    numeric domain (double precision) regardless of how the literal
    was written."""

    value: float


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


def iter_exprs(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth first."""
    yield expr
    if isinstance(expr, UnaryOp):
        yield from iter_exprs(expr.operand)
    elif isinstance(expr, BinOp):
        yield from iter_exprs(expr.left)
        yield from iter_exprs(expr.right)
    elif isinstance(expr, Compare):
        for operand in expr.operands:
            yield from iter_exprs(operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from iter_exprs(arg)


def iter_statements(statements: tuple[Stmt, ...]):
    """Yield every statement in the tree, entering chain branches."""
    for stmt in statements:
        yield stmt
        if isinstance(stmt, CondChain):
            for _, body in stmt.branches:
                yield from iter_statements(body)
            yield from iter_statements(stmt.orelse)


def free_names(ast: SkillAst) -> set[str]:
    """All variable names referenced anywhere in the program."""
    names: set[str] = set()
    for stmt in iter_statements(ast.statements):
        exprs: list[Expr] = []
        if isinstance(stmt, AugAssign):
            exprs.append(stmt.expr)
        elif isinstance(stmt, CondChain):
            exprs.extend(test for test, _ in stmt.branches)
        for root in exprs:
            for node in iter_exprs(root):
                if isinstance(node, Ref):
                    names.add(node.name)
    return names


def iter_calls(ast: SkillAst):
    """Yield every Call node in the program."""
    for stmt in iter_statements(ast.statements):
        roots: list[Expr] = []
        if isinstance(stmt, AugAssign):
            roots.append(stmt.expr)
        elif isinstance(stmt, CondChain):
            roots.extend(test for test, _ in stmt.branches)
        for root in roots:
            for node in iter_exprs(root):
                if isinstance(node, Call):
                    yield node
