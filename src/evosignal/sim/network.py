"""Grid network topology: intersections, directed links, phases.

Geometry is an n x m signalized grid. Every intersection has exactly
four approach links and four exit links; where a neighbor intersection
is missing, the approach is a boundary entry link (a demand source) and
the exit is a boundary exit link (a sink). Each link carries three
lane-links, one per movement (left / straight / right); an intersection's
twelve lane-links are partitioned among four phases in the usual
dual-ring arrangement (through+right paired by axis, lefts paired by
axis).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Bad network or scenario configuration."""


DIRECTIONS = ("N", "E", "S", "W")

_VECTORS = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}
_OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}
_LEFT_OF = {"N": "W", "W": "S", "S": "E", "E": "N"}
_RIGHT_OF = {"N": "E", "E": "S", "S": "W", "W": "N"}

MOVEMENTS = ("l", "s", "r")

# Phase partition of (approach side, movement) lane-links. Exactly one
# phase serves each lane-link.
PHASE_TABLE: tuple[frozenset[tuple[str, str]], ...] = (
    frozenset({("N", "s"), ("S", "s"), ("N", "r"), ("S", "r")}),
    frozenset({("N", "l"), ("S", "l")}),
    frozenset({("E", "s"), ("W", "s"), ("E", "r"), ("W", "r")}),
    frozenset({("E", "l"), ("W", "l")}),
)

NUM_PHASES = len(PHASE_TABLE)

_PHASE_OF = {
    lane_link: k for k, lane_links in enumerate(PHASE_TABLE) for lane_link in lane_links
}


def opposite(direction: str) -> str:
    return _OPPOSITE[direction]


def turn_movement(heading: str, next_heading: str) -> str | None:
    """Movement implied by changing travel heading at an intersection;
    None for a U-turn (not a legal movement)."""
    if next_heading == heading:
        return "s"
    if next_heading == _LEFT_OF[heading]:
        return "l"
    if next_heading == _RIGHT_OF[heading]:
        return "r"
    return None


def heading_after(heading: str, movement: str) -> str:
    if movement == "s":
        return heading
    if movement == "l":
        return _LEFT_OF[heading]
    return _RIGHT_OF[heading]


def phase_of(approach_side: str, movement: str) -> int:
    return _PHASE_OF[(approach_side, movement)]


@dataclass(frozen=True)
class Link:
    """One directed roadway. ``direction`` is the travel heading;
    vehicles on it approach ``dst`` (an intersection id for interior and
    entry links, a terminal id for exit links)."""

    id: str
    src: str
    dst: str
    direction: str
    length: float
    kind: str  # interior | entry | exit

    @property
    def approach_side(self) -> str:
        """Side of the downstream intersection this link arrives at."""
        return opposite(self.direction)


@dataclass(frozen=True)
class Intersection:
    id: str
    row: int
    col: int
    approaches: dict[str, str]  # side -> incoming link id
    exits: dict[str, str]  # travel heading -> outgoing link id


@dataclass(frozen=True)
class Network:
    rows: int
    cols: int
    link_length: float
    intersections: dict[str, Intersection]
    links: dict[str, Link]
    entry_links: tuple[str, ...]
    exit_links: tuple[str, ...]

    @functools.cached_property
    def intersection_ids(self) -> tuple[str, ...]:
        """Intersection ids in sorted order, sorted once per network."""
        return tuple(sorted(self.intersections))


def _node_id(row: int, col: int) -> str:
    return f"x{row}_{col}"


def build_network(rows: int, cols: int, link_length: float) -> Network:
    """Build the grid. Every perimeter side gets one entry and one exit
    link, so sources and sinks ring the whole boundary."""
    if rows < 1 or cols < 1:
        raise ConfigError(f"grid must be at least 1x1, got {rows}x{cols}")
    if not (math.isfinite(link_length) and link_length > 0):
        raise ConfigError(f"link length must be a positive finite number, got {link_length}")

    links: dict[str, Link] = {}
    intersections: dict[str, Intersection] = {}
    entry_links: list[str] = []
    exit_links: list[str] = []

    def add_link(src: str, dst: str, direction: str, kind: str) -> str:
        link = Link(id=f"{src}>{dst}", src=src, dst=dst, direction=direction,
                    length=link_length, kind=kind)
        links[link.id] = link
        return link.id

    for row in range(rows):
        for col in range(cols):
            node = _node_id(row, col)
            approaches: dict[str, str] = {}
            exits: dict[str, str] = {}
            for side in DIRECTIONS:
                dr, dc = _VECTORS[side]
                nr, nc = row + dr, col + dc
                inbound_dir = opposite(side)  # travel heading of the approach from `side`
                if 0 <= nr < rows and 0 <= nc < cols:
                    neighbor = _node_id(nr, nc)
                    approaches[side] = add_link(neighbor, node, inbound_dir, "interior")
                    exits[side] = add_link(node, neighbor, side, "interior")
                else:
                    terminal = f"t{side}_{row}_{col}"
                    approaches[side] = add_link(terminal, node, inbound_dir, "entry")
                    exits[side] = add_link(node, terminal, side, "exit")
                    entry_links.append(approaches[side])
                    exit_links.append(exits[side])
            intersections[node] = Intersection(
                id=node, row=row, col=col, approaches=approaches, exits=exits
            )

    return Network(
        rows=rows,
        cols=cols,
        link_length=link_length,
        intersections=intersections,
        links=links,
        entry_links=tuple(sorted(entry_links)),
        exit_links=tuple(sorted(exit_links)),
    )


def canonical_route(network: Network, entry_link_id: str, exit_link_id: str) -> list[str] | None:
    """One deterministic U-turn-free path from an entry link to an exit
    link, or None when no such greedy path exists. The walk keeps to the
    current axis while useful and never reverses heading."""
    entry = network.links[entry_link_id]
    exit_ = network.links[exit_link_id]
    if entry.kind != "entry" or exit_.kind != "exit":
        return None
    target = network.intersections[exit_.src]
    route = [entry.id]
    heading = entry.direction
    node = network.intersections[entry.dst]
    for _ in range(network.rows * network.cols * 2 + 4):
        if node.id == target.id:
            if turn_movement(heading, exit_.direction) is None:
                return None
            route.append(exit_.id)
            return route
        drow = target.row - node.row
        dcol = target.col - node.col
        options = []
        if dcol != 0:
            options.append("E" if dcol > 0 else "W")
        if drow != 0:
            options.append("S" if drow > 0 else "N")
        # Prefer continuing straight, then any non-reversing turn.
        options.sort(key=lambda d: 0 if d == heading else 1)
        step = next((d for d in options if d != opposite(heading)), None)
        if step is None:
            return None
        next_link = network.links[node.exits[step]]
        route.append(next_link.id)
        heading = step
        node = network.intersections[next_link.dst]
    return None


def route_movements(network: Network, route) -> tuple[str | None, ...]:
    """The movement a vehicle on ``route`` makes at the end of each leg:
    the turn onto the next link, and None on the last (exit) link."""
    links = network.links
    headings = [links[link_id].direction for link_id in route]
    return (*(turn_movement(a, b) for a, b in zip(headings, headings[1:])), None)


class GridRoutes:
    """The network of one grid and every route a vehicle can be sent on:
    ``routes`` maps each (entry, exit) pair with a canonical route to
    that route, ``choices`` gives each entry link its routes to the
    reachable exits, in exit id order, and ``movements`` maps each route
    to its ``route_movements``. These depend on the grid alone, so every
    scenario and seed on the grid shares one (``grid_routes``)."""

    __slots__ = ("network", "routes", "choices", "movements")

    def __init__(self, network: Network):
        self.network = network
        self.routes: dict[tuple[str, str], tuple[str, ...]] = {}
        self.choices: dict[str, tuple[tuple[str, ...], ...]] = {}
        self.movements: dict[tuple[str, ...], tuple[str | None, ...]] = {}
        for entry_id in network.entry_links:
            reachable = []
            for exit_id in network.exit_links:
                route = canonical_route(network, entry_id, exit_id)
                if route is not None:
                    self.routes[entry_id, exit_id] = route = tuple(route)
                    self.movements[route] = route_movements(network, route)
                    reachable.append(route)
            self.choices[entry_id] = tuple(reachable)


# Grids whose routes are kept; an 8x8 grid's take about 0.2 MB.
GRID_MEMO_SIZE = 8


@functools.lru_cache(maxsize=GRID_MEMO_SIZE, typed=True)
def grid_routes(rows: int, cols: int, link_length: float) -> GridRoutes:
    """The ``GridRoutes`` of a grid, built on first request and kept for
    the ``GRID_MEMO_SIZE`` grids used last in this process. Treat the
    result as read-only: it is shared."""
    return GridRoutes(build_network(rows, cols, link_length))
