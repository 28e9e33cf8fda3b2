"""Independent oracles used by the test suite.

These are deliberately separate implementations from the package:
a tree-walking evaluator for skill code (the package compiles to CPython
bytecode instead), a node counter, a brute-force percentile, and
observations built from sorted distance lists (the package keeps only
counts and extremes, once per link per step). They exist so the main
implementations have something to disagree with.
"""

from __future__ import annotations

import math

from evosignal.dsl import nodes
from evosignal.dsl.interpreter import EvalError, dsl_range
from evosignal.dsl.whitelist import canonical_binding
from evosignal.sim.engine import JAM_SPACING, LaneObservation
from evosignal.sim.network import NUM_PHASES, PHASE_TABLE, heading_after, opposite


def _apply_binop(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "//":
        return left // right
    if op == "%":
        return left % right
    if op == "**":
        return left ** right
    raise AssertionError(op)


def _apply_compare(op: str, left, right) -> bool:
    if op == ">":
        return left > right
    if op == "<":
        return left < right
    if op == ">=":
        return left >= right
    if op == "<=":
        return left <= right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    raise AssertionError(op)


_BUILTIN_FUNCS = {"min": min, "max": max, "abs": abs, "sum": sum, "len": len, "range": dsl_range}


class ReferenceEvaluator:
    """Walks a SkillAst directly, statement by statement."""

    def __init__(self, bindings):
        self.bindings = bindings
        self.value = 0.0

    def run(self, ast: nodes.SkillAst) -> float:
        try:
            self._exec_block(ast.statements)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise EvalError(str(exc)) from exc
        if isinstance(self.value, complex) or not isinstance(self.value, (int, float)):
            raise EvalError(f"non-real result: {self.value!r}")
        result = float(self.value)
        if not math.isfinite(result):
            raise EvalError(f"non-finite result: {result!r}")
        return result

    def _exec_block(self, statements):
        for stmt in statements:
            if isinstance(stmt, nodes.AugAssign):
                self.value = _apply_binop(stmt.op, self.value, self._eval(stmt.expr))
            elif isinstance(stmt, nodes.CondChain):
                for test, body in stmt.branches:
                    if self._eval(test):
                        self._exec_block(body)
                        break
                else:
                    self._exec_block(stmt.orelse)
            else:
                raise AssertionError(stmt)

    def _eval(self, expr):
        if isinstance(expr, nodes.Num):
            return expr.value
        if isinstance(expr, nodes.Ref):
            name = canonical_binding(expr.name)
            if name not in self.bindings:
                raise EvalError(f"unbound variable {expr.name}")
            return self.bindings[name]
        if isinstance(expr, nodes.UnaryOp):
            operand = self._eval(expr.operand)
            return -operand if expr.op == "-" else +operand
        if isinstance(expr, nodes.BinOp):
            return _apply_binop(expr.op, self._eval(expr.left), self._eval(expr.right))
        if isinstance(expr, nodes.Compare):
            # Lazy like Python: a failing link short-circuits the chain
            # before later operands are evaluated.
            left = self._eval(expr.operands[0])
            for op, operand in zip(expr.ops, expr.operands[1:]):
                right = self._eval(operand)
                if not _apply_compare(op, left, right):
                    return False
                left = right
            return True
        if isinstance(expr, nodes.Call):
            func = _BUILTIN_FUNCS[expr.func]
            return func(*(self._eval(a) for a in expr.args))
        raise AssertionError(expr)


def reference_evaluate(ast: nodes.SkillAst, bindings) -> float:
    return ReferenceEvaluator(bindings).run(ast)


def reference_node_count(ast: nodes.SkillAst) -> int:
    """Same convention as the package counter, implemented over the
    generic tree iterators instead of structural recursion."""
    count = 0
    for stmt in nodes.iter_statements(ast.statements):
        roots = []
        if isinstance(stmt, nodes.AugAssign):
            count += 2  # statement + accumulator target reference
            roots.append(stmt.expr)
        elif isinstance(stmt, nodes.CondChain):
            roots.extend(test for test, _ in stmt.branches)
        for root in roots:
            for sub in nodes.iter_exprs(root):
                if not isinstance(sub, nodes.Num):
                    count += 1
    return count


def brute_force_percentile(values, q: float) -> float:
    """Sorted order statistics with linear interpolation at fraction
    q/100 of the index range."""
    data = sorted(values)
    if not data:
        raise ValueError("empty sample")
    if len(data) == 1:
        return float(data[0])
    rank = (q / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(data[int(rank)])
    frac = rank - low
    return float(data[low] * (1 - frac) + data[high] * frac)


def _stopline_distances(link_state, movement=None) -> list[float]:
    """Every vehicle's distance to the stop line, for one movement's
    lane or (movement=None) the whole link. Queues start behind an
    active blockage and stack at jam spacing."""
    length = link_state.link.length
    out: list[float] = []
    for m, queue in link_state.queues.items():
        if movement is not None and m != movement:
            continue
        head = link_state.blocked_head_pos.get(m)
        anchor = 0.0 if head is None else (length - head) + JAM_SPACING
        for i in range(len(queue)):
            out.append(anchor + i * JAM_SPACING)
    for vehicle in link_state.running:
        if movement is None or vehicle.movement == movement:
            out.append(length - vehicle.pos)
    return out


def _sorted_lane(distances: list[float], waiting: int, length: float) -> LaneObservation:
    n = len(distances)
    if n <= 1:
        gap = length / (n + 1)
    else:
        ordered = sorted(distances)
        gap = (ordered[-1] - ordered[0]) / (n - 1)
    return LaneObservation(num_vehicle=n, num_waiting_vehicle=waiting, vehicle_dist=gap)


def reference_observe(episode, intersection_id: str):
    """Per-phase (inlane, outlane) observations of one intersection,
    from full distance lists sorted per lane-link."""
    node = episode.network.intersections[intersection_id]
    out = []
    for k in range(NUM_PHASES):
        phase_obs = []
        for side, movement in sorted(PHASE_TABLE[k]):
            in_state = episode.links[node.approaches[side]]
            in_waiting = len(in_state.queues[movement]) + sum(
                1 for v in in_state.running if v.frozen and v.movement == movement
            )
            inlane = _sorted_lane(
                _stopline_distances(in_state, movement), in_waiting, in_state.link.length
            )
            out_state = episode.links[node.exits[heading_after(opposite(side), movement)]]
            out_waiting = sum(len(q) for q in out_state.queues.values()) + sum(
                1 for v in out_state.running if v.frozen
            )
            outlane = _sorted_lane(
                _stopline_distances(out_state), out_waiting, out_state.link.length
            )
            phase_obs.append((inlane, outlane))
        out.append(phase_obs)
    return out
