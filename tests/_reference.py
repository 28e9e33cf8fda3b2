"""Independent oracles used by the test suite.

These are deliberately separate implementations from the package:
a tree-walking evaluator for skill code (the package lowers each body to
a Python function instead) and a phase scorer built on it, a node
counter, a brute-force percentile, observations built from sorted
distance lists as frozen ``LaneObservation`` values (the package reads
counts and extremes from live views when they are asked for),
max-pressure scored from observations (the package counts queue lists
in a per-intersection table), link and lane vehicle counts recounted
from a link's lists (the package keeps them as vehicles enter and
leave), the per-vehicle, per-second wait accrual (the
package banks a wait when it ends), and the arrival stream drawn step by
step with every route searched again (the package draws it once into an
``Arrivals`` and caches routes), and draft extraction that rescans
from every ``{`` (the package matches each brace in one pass). They exist so the main
implementations have something to disagree with.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from evosignal.dsl import nodes
from evosignal.dsl.interpreter import EvalError
from evosignal.dsl.whitelist import canonical_binding
from evosignal.sim.engine import INCIDENT_TAIL, JAM_SPACING
from evosignal.sim.network import (
    NUM_PHASES,
    PHASE_TABLE,
    build_network,
    canonical_route,
    heading_after,
    opposite,
    phase_of,
    reachable_exits,
)
from evosignal.sim.scenario import scheduled_bus_departures, scheduled_emergencies


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


_RANGE_BOUND = 1_000_000


def _range(n) -> list[float]:
    """range(n) as the sandbox defines it, materialised: floored
    argument, empty for negatives, refused beyond the bound. The values
    are floats, so sum and len stay in double precision."""
    count = int(math.floor(n))
    if count > _RANGE_BOUND:
        raise EvalError(f"range({n!r}) exceeds the sandbox bound")
    return [float(i) for i in range(max(0, count))]


def _sum(values: list[float]) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def _len(values: list[float]) -> float:
    return float(len(values))


_BUILTIN_FUNCS = {"min": min, "max": max, "abs": abs, "sum": _sum, "len": _len, "range": _range}


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
            raise EvalError(f"skill produced a non-real result: {self.value!r}")
        result = float(self.value)
        if not math.isfinite(result):
            raise EvalError(f"skill produced a non-finite result: {result!r}")
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


_EVENT_NAMES = (
    "emergency_distance", "emergency_phase", "bus_count",
    "bus_delay", "incident_blocked", "congestion_level",
)


def reference_score_phases(inlane_ast, outlane_ast, observations, context=None) -> list[float]:
    """Per-phase scores: for each lane-link in turn, the inlane body on
    the inlane features, then the outlane body on the outlane features,
    each with the phase index and the event context (zeros by default)
    bound by name and evaluated by tree walking."""
    event = {name: 0.0 for name in _EVENT_NAMES}
    event.update(context or {})
    scores = []
    for k, lane_links in enumerate(observations):
        total = 0.0
        for pair in lane_links:
            for ast, lane in zip((inlane_ast, outlane_ast), pair):
                bindings = dict(event)
                bindings["index"] = float(k)
                bindings["num_vehicle"] = float(lane.num_vehicle)
                bindings["num_waiting_vehicle"] = float(lane.num_waiting_vehicle)
                bindings["vehicle_dist"] = float(lane.vehicle_dist)
                total += reference_evaluate(ast, bindings)
        scores.append(total)
    return scores


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


@dataclass(frozen=True)
class LaneObservation:
    """What a skill sees for one lane of one lane-link, as plain values."""

    num_vehicle: int
    num_waiting_vehicle: int
    vehicle_dist: float


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


def recount_link(link_state) -> tuple[int, dict[str, int]]:
    """The vehicles on a link, counted from its lists: all of them
    (running and queued), and per movement those in that movement's
    queue plus the running ones headed for it."""
    running = link_state.running
    total = len(running) + sum(len(queue) for queue in link_state.queues.values())
    lanes = {
        movement: len(queue) + sum(1 for v in running if v.movement == movement)
        for movement, queue in link_state.queues.items()
    }
    return total, lanes


def in_network_count(episode) -> int:
    """The vehicles in the network now: the sum of every link's kept count."""
    return sum(state.count for state in episode.links.values())


def reference_max_pressure(observations) -> list[float]:
    """Upstream-minus-downstream pressure of each phase: over its
    lane-links, the inlane's waiting count minus the outlane's, read
    from each (inlane, outlane) observation pair in turn."""
    scores = []
    for lane_links in observations:
        pressure = 0.0
        for inlane, outlane in lane_links:
            pressure += inlane.num_waiting_vehicle - outlane.num_waiting_vehicle
        scores.append(pressure)
    return scores


class ReferenceAccrual:
    """Waits accrued the per-second way, beside an Episode: call
    ``after_step`` after every ``Episode.step``. Each second, every
    queued or frozen vehicle on any link waits one more second, an
    intersection's queue is the count of such vehicles on its approaches,
    and during the incident window (blockage plus tail) every vehicle in
    the network joins the window's vehicle set."""

    def __init__(self, episode):
        self.episode = episode
        self.waits: dict[int, float] = {}
        self.queue_history = {node_id: [] for node_id in episode.network.intersections}
        self.window_wait = 0.0
        self.window_vehicles: set[int] = set()

    def after_step(self) -> None:
        episode = self.episode
        t = episode.t - 1  # the second that step just simulated
        incident = episode.scenario.incident
        in_window = incident is not None and incident.start <= t <= incident.end + INCIDENT_TAIL
        for node_id, node in episode.network.intersections.items():
            count = 0
            for link_id in node.approaches.values():
                state = episode.links[link_id]
                count += sum(len(q) for q in state.queues.values())
                count += sum(1 for v in state.running if v.frozen)
            self.queue_history[node_id].append(count)
        for state in episode.links.values():
            present = list(state.running)
            waiting = [v for v in state.running if v.frozen]
            for queue in state.queues.values():
                present.extend(queue)
                waiting.extend(queue)
            for vehicle in waiting:
                self.waits[vehicle.id] = self.waits.get(vehicle.id, 0.0) + 1.0
            if in_window:
                self.window_vehicles.update(v.id for v in present)
                self.window_wait += len(waiting)

    def delay(self, vehicle) -> float:
        return self.waits.get(vehicle.id, 0.0)

    def avg_delay(self) -> float:
        waits = [self.delay(v) for v in self.episode.vehicles]
        return float(np.mean(waits)) if waits else 0.0

    def incident_window_delay(self) -> float:
        return self.window_wait / max(1, len(self.window_vehicles))


def reference_detect(episode, intersection_id: str, accrual: ReferenceAccrual) -> list[tuple[str, dict]]:
    """(kind, context) of each event at one intersection under the
    default detector settings, from a full list of approach vehicles
    (sides and movements in sorted order, each queue before the running
    vehicles) and the accrual oracle's waits and queue history."""
    node = episode.network.intersections[intersection_id]
    signal = episode.junctions[intersection_id].signal
    listed = []
    for side in sorted(node.approaches):
        state = episode.links[node.approaches[side]]
        length = state.link.length
        for movement in sorted(state.queues):
            head = state.blocked_head_pos.get(movement)
            anchor = 0.0 if head is None else (length - head) + JAM_SPACING
            for i, vehicle in enumerate(state.queues[movement]):
                listed.append((vehicle, side, movement, anchor + i * JAM_SPACING))
        for vehicle in state.running:
            listed.append((vehicle, side, vehicle.movement or "s", length - vehicle.pos))

    emergencies = [(d, phase_of(side, m)) for v, side, m, d in listed
                   if v.vclass == "emergency" and d <= 200.0]
    bus_delays = [accrual.delay(v) for v, _, _, _ in listed if v.vclass == "bus"]
    blocked = set()
    for vehicle, side, movement, distance in listed:
        if vehicle.stopped_since is not None and episode.t - vehicle.stopped_since > 120.0:
            red = signal.in_transition or phase_of(side, movement) != signal.active
            if not (distance <= 50.0 and red):
                blocked.add((side, movement))

    events = []
    if emergencies:
        distance, phase = min(emergencies, key=lambda e: e[0])  # first of the nearest
        events.append(("emergency", {"emergency_distance": float(distance),
                                     "emergency_phase": float(phase)}))
    if blocked:
        events.append(("incident", {"incident_blocked": float(len(blocked))}))
    if bus_delays:
        total = 0.0
        for delay in bus_delays:
            total += delay
        events.append(("transit", {"bus_count": float(len(bus_delays)), "bus_delay": total}))
    history = accrual.queue_history[intersection_id]
    if len(history) >= 300:
        trailing = history[-300:]
        threshold = brute_force_percentile(trailing, 90.0)
        current = trailing[-1]
        if current > threshold:
            band = (max(trailing) - threshold) / 4.0
            level = min(3, int((current - threshold) / band)) if band > 0 else 3
            events.append(("congestion", {"congestion_level": float(level)}))
    return events


def reference_arrivals(scenario, seed: int, steps: int) -> list[tuple]:
    """The (vclass, route) pairs entering at each of the first ``steps``
    steps. Per step: for each entry link a Poisson count, then a uniform
    reachable exit per vehicle; then each emergency due, an entry link
    and then its exit; then each bus due on a line with a route."""
    network = build_network(scenario.rows, scenario.cols, scenario.link_length)
    rng = np.random.Generator(np.random.PCG64(seed))
    emergencies = list(scheduled_emergencies(scenario))
    buses = [(line, list(scheduled_bus_departures(scenario, line))) for line in scenario.bus_lines]

    def route_from(entry):
        exits = reachable_exits(network, entry)
        return tuple(canonical_route(network, entry, exits[int(rng.integers(len(exits)))]))

    drawn = []
    for t in range(steps):
        step = []
        for entry in network.entry_links:
            rate = scenario.rate_at(entry, t)
            if rate > 0:
                step.extend(("normal", route_from(entry)) for _ in range(int(rng.poisson(rate))))
        while emergencies and emergencies[0] <= t:
            emergencies.pop(0)
            step.append(("emergency", route_from(network.entry_links[int(rng.integers(len(network.entry_links)))])))
        for line, times in buses:
            while times and times[0] <= t:
                times.pop(0)
                route = canonical_route(network, line.entry_link, line.exit_link)
                if route is not None:
                    step.append(("bus", tuple(route)))
        drawn.append(tuple(step))
    return drawn


def reference_extract_draft_json(text: str):
    """Draft extraction by rescanning: the whole reply as JSON; else the
    first fenced block by regular expression; else, from each ``{`` in
    turn, the span to the brace that returns the count to zero, parsed
    on its own. Quadratic in the number of braces."""
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    fenced = re.search(r"```(?:json)?\s*(\{.*?\})\s*```", text, re.DOTALL)
    if fenced:
        return json.loads(fenced.group(1))
    start = text.find("{")
    while start != -1:
        depth = 0
        for end in range(start, len(text)):
            if text[end] == "{":
                depth += 1
            elif text[end] == "}":
                depth -= 1
                if depth == 0:
                    try:
                        return json.loads(text[start : end + 1])
                    except json.JSONDecodeError:
                        break
        start = text.find("{", start + 1)
    raise ValueError("no JSON object found in generator reply")
