"""Independent oracles used by the test suite.

These are deliberately separate implementations from the package:
a tree-walking evaluator for skill code (the package lowers each body to
a Python function instead) and a phase scorer built on it, a node
counter, a brute-force percentile, observations built from sorted
distance lists as frozen ``LaneObservation`` values (the package reads
counts and extremes from live views when they are asked for),
max-pressure scored from observations (the package keeps each
junction's phase pressures as queues change), link and lane vehicle
counts recounted from a link's lists (the package keeps them as
vehicles enter and leave), the per-vehicle, per-second wait accrual
(the package banks a wait when it ends), and the arrival stream drawn
step by step with every route searched again (the package draws it
once into an ``Arrivals`` and caches routes), draft extraction that
rescans from every ``{`` (the package matches each brace in one pass),
and a stepper that moves every running vehicle every second by a float
addition, with each junction's pressures counted from its queue lists
(the package reads positions from tables, works only on the lanes where
something happens, and keeps the pressures). They exist so the main
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
from evosignal.sim.engine import (
    INCIDENT_TAIL,
    JAM_SPACING,
    SATURATION_FLOW,
    VCLASS_SPEED,
    position,
)
from evosignal.sim.network import (
    MOVEMENTS,
    NUM_PHASES,
    PHASE_TABLE,
    build_network,
    canonical_route,
    heading_after,
    opposite,
    phase_of,
    reachable_exits,
    turn_movement,
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


def running_vehicles(link_state, movement=None) -> list:
    """The running vehicles of one movement's lane of a link or
    (movement=None) of the whole link."""
    return [
        vehicle
        for m, lane in link_state.lanes.items()
        if movement is None or m == movement
        for vehicle in lane.running
    ]


def _stopline_distances(link_state, t: int, movement=None) -> list[float]:
    """Every vehicle's distance to the stop line at step ``t``, for one
    movement's lane or (movement=None) the whole link. Queues start
    behind an active blockage and stack at jam spacing."""
    length = link_state.link.length
    out: list[float] = []
    for m, queue in link_state.queues.items():
        if movement is not None and m != movement:
            continue
        head = link_state.blocked.get(m)
        anchor = 0.0 if head is None else (length - head) + JAM_SPACING
        for i in range(len(queue)):
            out.append(anchor + i * JAM_SPACING)
    for vehicle in running_vehicles(link_state, movement):
        out.append(length - position(vehicle, t))
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
    t = episode.t
    out = []
    for k in range(NUM_PHASES):
        phase_obs = []
        for side, movement in sorted(PHASE_TABLE[k]):
            in_state = episode.links[node.approaches[side]]
            in_waiting = len(in_state.queues[movement]) + sum(
                1 for v in running_vehicles(in_state, movement) if v.frozen
            )
            inlane = _sorted_lane(
                _stopline_distances(in_state, t, movement), in_waiting, in_state.link.length
            )
            out_state = episode.links[node.exits[heading_after(opposite(side), movement)]]
            out_waiting = sum(len(q) for q in out_state.queues.values()) + sum(
                1 for v in running_vehicles(out_state) if v.frozen
            )
            outlane = _sorted_lane(
                _stopline_distances(out_state, t), out_waiting, out_state.link.length
            )
            phase_obs.append((inlane, outlane))
        out.append(phase_obs)
    return out


def recount_link(link_state) -> int:
    """The vehicles on a link, running and queued, counted from its
    lists."""
    return len(running_vehicles(link_state)) + sum(len(queue) for queue in link_state.queues.values())


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


class _StepperVehicle:
    __slots__ = ("id", "cruise", "route", "leg", "pos", "movement", "queued", "frozen", "exit_time")

    def __init__(self, vid, vclass, route, movement):
        self.id = vid
        self.cruise = VCLASS_SPEED[vclass]
        self.route = route
        self.leg = 0
        self.pos = 0.0
        self.movement = movement
        self.queued = False
        self.frozen = False
        self.exit_time = None


class _StepperLink:
    __slots__ = ("link", "running", "queues", "credit", "blocked", "blocked_head_pos")

    def __init__(self, link):
        self.link = link
        self.running = []
        self.queues = {m: [] for m in MOVEMENTS}
        self.credit = {m: 0.0 for m in MOVEMENTS}
        self.blocked = set()
        self.blocked_head_pos = {}

    def queue_anchor(self, movement):
        head = self.blocked_head_pos.get(movement)
        return 0.0 if head is None else (self.link.length - head) + JAM_SPACING


class ReferenceStepper:
    """The vehicle dynamics the per-second way, beside an Episode: call
    ``after_step`` after every ``Episode.step``. Each step it spawns the
    episode's arrivals and its incident blocker, serves the green
    lane-links of the episode's signals (which the step has already set),
    resolves each released vehicle's next movement from the link
    headings, and then moves every running vehicle that is not frozen
    one second on by adding its cruise speed to its position, testing
    each for the queue join in the order it entered its link. Its
    vehicles carry the episode's vehicle ids."""

    def __init__(self, episode):
        self.episode = episode
        self.network = episode.network
        self.links = {link_id: _StepperLink(link) for link_id, link in sorted(self.network.links.items())}
        self.vehicles = []
        self.blocker = None

    def _movement_on(self, route, leg):
        if leg + 1 >= len(route):
            return None
        links = self.network.links
        return turn_movement(links[route[leg]].direction, links[route[leg + 1]].direction)

    def _spawn(self, vclass, route):
        vehicle = _StepperVehicle(len(self.vehicles), vclass, route, self._movement_on(route, 0))
        self.vehicles.append(vehicle)
        self.links[route[0]].running.append(vehicle)
        return vehicle

    def after_step(self) -> None:
        episode = self.episode
        t = episode.t - 1  # the second that step just simulated
        for vclass, route in episode.arrivals.at(t):
            self._spawn(vclass, route)
        incident = episode.scenario.incident
        if incident is not None:
            state = self.links[incident.link]
            if t == int(incident.start):
                route = [incident.link]
                link = self.network.links[incident.link]
                while link.kind != "exit":
                    link = self.network.links[self.network.intersections[link.dst].exits[link.direction]]
                    route.append(link.id)
                self.blocker = self._spawn("normal", tuple(route))
                self.blocker.pos = max(0.0, state.link.length - incident.position_from_stopline)
                self.blocker.frozen = True
                self.blocker.movement = incident.movement
                state.blocked.add(incident.movement)
                state.blocked_head_pos[incident.movement] = self.blocker.pos
            elif t == int(incident.end) and self.blocker is not None:
                state.blocked.discard(incident.movement)
                state.blocked_head_pos.pop(incident.movement, None)
                self.blocker.frozen = False
                self.blocker = None
        for node_id in self.network.intersection_ids:
            signal = episode.junctions[node_id].signal
            if signal.yellow > 0:
                continue
            node = self.network.intersections[node_id]
            for side, movement in sorted(PHASE_TABLE[signal.active]):
                state = self.links[node.approaches[side]]
                queue = state.queues[movement]
                if movement in state.blocked:
                    continue
                if not queue:
                    state.credit[movement] = 0.0
                    continue
                state.credit[movement] += SATURATION_FLOW
                while state.credit[movement] >= 1.0 and queue:
                    state.credit[movement] -= 1.0
                    vehicle = queue.pop(0)
                    vehicle.queued = False
                    vehicle.leg += 1
                    vehicle.pos = 0.0
                    vehicle.movement = self._movement_on(vehicle.route, vehicle.leg)
                    self.links[vehicle.route[vehicle.leg]].running.append(vehicle)
        for state in self.links.values():
            length = state.link.length
            for vehicle in state.running:
                if vehicle.frozen:
                    continue
                vehicle.pos += vehicle.cruise
                if state.link.kind == "exit":
                    if vehicle.pos >= length:
                        vehicle.exit_time = t
                    continue
                queue = state.queues[vehicle.movement]
                free = length - state.queue_anchor(vehicle.movement)
                if vehicle.pos >= free - (len(queue) + 1) * JAM_SPACING:
                    vehicle.queued = True
                    queue.append(vehicle)
            state.running = [v for v in state.running if not v.queued and v.exit_time is None]

    def pressure_scores(self, node_id: str) -> list[int]:
        """Each phase's pressure counted from the stepper's queue lists:
        over its lane-links, the approach lane's queue plus a blocked
        movement's blocker, less the queued and blocked vehicles of the
        lane-link's exit link."""
        node = self.network.intersections[node_id]
        scores = []
        for lane_links in PHASE_TABLE:
            pressure = 0
            for side, movement in sorted(lane_links):
                state = self.links[node.approaches[side]]
                out = self.links[node.exits[heading_after(opposite(side), movement)]]
                pressure += len(state.queues[movement]) + (movement in state.blocked)
                pressure -= sum(len(q) for q in out.queues.values()) + len(out.blocked)
            scores.append(pressure)
        return scores

    def mismatches(self) -> list[str]:
        """Where the episode differs from the stepper now: each vehicle's
        position, ``queued`` and ``exit_time``, each queue's order, each
        junction's kept pressures."""
        episode = self.episode
        found = []
        if len(episode.vehicles) != len(self.vehicles):
            return [f"{len(episode.vehicles)} vehicles against {len(self.vehicles)}"]
        for vehicle, want in zip(episode.vehicles, self.vehicles):
            got = (position(vehicle, episode.t), vehicle.queued, vehicle.exit_time)
            if vehicle.id != want.id or got != (want.pos, want.queued, want.exit_time):
                found.append(f"vehicle {vehicle.id}: {got} against {(want.pos, want.queued, want.exit_time)}")
        for link_id, state in episode.links.items():
            for movement, queue in state.queues.items():
                want = [v.id for v in self.links[link_id].queues[movement]]
                if [v.id for v in queue] != want:
                    found.append(f"queue {link_id} {movement}: {[v.id for v in queue]} against {want}")
        for node_id, junction in episode.junctions.items():
            if junction.pressures != self.pressure_scores(node_id):
                found.append(f"pressures {node_id}: {junction.pressures} against {self.pressure_scores(node_id)}")
        return found


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
                count += sum(1 for v in running_vehicles(state) if v.frozen)
            self.queue_history[node_id].append(count)
        for state in episode.links.values():
            present = running_vehicles(state)
            waiting = [v for v in present if v.frozen]
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
            head = state.blocked.get(movement)
            anchor = 0.0 if head is None else (length - head) + JAM_SPACING
            for i, vehicle in enumerate(state.queues[movement]):
                listed.append((vehicle, side, movement, anchor + i * JAM_SPACING))
        for vehicle in running_vehicles(state):
            listed.append((vehicle, side, vehicle.movement, length - position(vehicle, episode.t)))

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
