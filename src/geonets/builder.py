"""Exact construction of the 25-balanced-vertex net, plus topology templates
for the relaxer (the prior 16-vertex net and an experimental ring series).

The net family shares one combinatorial pattern, parametrized by the ring
order n (ring of 4n vertices: 4 corners b_i plus n-1 side vertices a_ij per
side).  Each side has a far boundary anchor d_i with legs to all of the
side's a-vertices; at every corner two chords (from the a-vertices flanking
the corner to the opposite anchors) cross in a degree-6 vertex c_i that also
carries the straight line from b_i out to a three-edge vertex e_i; for
n >= 3 a central vertex p is joined to per-side three-edge vertices f_i.
Order 2 reproduces the known 16-vertex net, order 3 the 25-vertex net; the
orders n >= 4 are a pattern extrapolation with no balance claim, emitted for
relaxation experiments only.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .angles import AngleSolution, ConstructionParams, params_from_solution, solve_angles
from .errors import InvariantViolation, NoFermatPoint, UnsupportedFamily
from .geom import Point, fermat_point, line_intersection
from .net import (BOUNDARY, INTERIOR, TOPOLOGY_CACHE_SIZE, EmbeddedNet, NetTopology,
                  shared_topology)

T3_DODECAGON = "t3_dodecagon"
T2_OCTAGON = "t2_octagon"
RING_EXPERIMENTAL = "ring_experimental"

_FAMILIES = (T3_DODECAGON, T2_OCTAGON, RING_EXPERIMENTAL)
# Largest ring order.  The template of order n >= 4 has 4n + 13 interior
# vertices, 1013 at this limit, so every template stays within relax's
# MAX_INTERIOR.
MAX_RING_ORDER = 250

# template seed radii, following the schematic layout of the 16-vertex net
_SEED_RING_RADIUS = 1.0
_SEED_CORNER_RADIUS = 1.12
_SEED_ANCHOR_RADIUS = math.tan(math.radians(76.0))
_SEED_OUTER_RADIUS = 1.19


@dataclass(frozen=True)
class NetFamily:
    family: str
    n: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise UnsupportedFamily(f"unknown family {self.family!r}")
        try:  # an int, or an integer type such as np.int64; not 4.0 or "4"
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise UnsupportedFamily(f"ring order {self.n!r} is not an integer") from None
        if self.n < 2:
            raise UnsupportedFamily(f"ring order {self.n} < 2")
        if self.n > MAX_RING_ORDER:
            raise UnsupportedFamily(f"ring order {self.n} > {MAX_RING_ORDER}")
        if self.family == T3_DODECAGON and self.n != 3:
            raise UnsupportedFamily(f"the dodecagon family is order 3, got {self.n}")
        if self.family == T2_OCTAGON and self.n != 2:
            raise UnsupportedFamily(f"the octagon family is order 2, got {self.n}")


@dataclass(frozen=True)
class ConstructionResult:
    net: EmbeddedNet
    params: ConstructionParams
    # every construction point by name (all of them are net vertices here)
    landmarks: dict[str, Point]


@dataclass(frozen=True)
class Template:
    topology: NetTopology
    positions: dict[str, Point]
    experimental: bool


def _prev(i: int) -> int:
    return 4 if i == 1 else i - 1


def build_dodecagon(params: ConstructionParams) -> list[tuple[str, Point]]:
    """Traverse the 12-gon ring and return (role, point) pairs in ring order
    starting at b1.

    Interior angles are 2*pi/3 at corners and 11*pi/12 at side vertices;
    side lengths alternate 1, side_long, 1 around each side.  Placement is
    canonical: a11 at the origin, a12 on the positive x-axis, interior in
    the upper half-plane.
    """
    if not (math.isfinite(params.side_long) and params.side_long > 0.0):
        raise InvariantViolation(f"side_long {params.side_long!r} must be positive and finite")
    if not (math.isfinite(params.side_short) and params.side_short > 0.0):
        raise InvariantViolation(f"side_short {params.side_short!r} must be positive and finite")
    order = ["a11", "a12", "b2", "a21", "a22", "b3", "a31", "a32", "b4", "a41", "a42", "b1"]
    # outgoing side length from each vertex
    step_len = {
        name: (params.side_long if name.startswith("a") and name.endswith("1") else params.side_short)
        for name in order
    }
    # exterior turn on arriving at a vertex: pi/12 at a's, pi/3 at b's
    turn = {"a": math.pi / 12.0, "b": math.pi / 3.0}
    # the turns sum to 2*pi, so the ring closes for every pair of side lengths
    pos: dict[str, Point] = {}
    cur: Point = (0.0, 0.0)
    heading = 0.0
    for j, name in enumerate(order):
        pos[name] = cur
        cur = (
            cur[0] + step_len[name] * math.cos(heading),
            cur[1] + step_len[name] * math.sin(heading),
        )
        heading += turn[order[(j + 1) % 12][0]]
    ring_from_b1 = ["b1"] + order[:-1]
    return [(name, pos[name]) for name in ring_from_b1]


def _family_ids(n: int) -> tuple[list[str], list[list[str]], list[str]]:
    """Ring order ids, per-side a ids, and all ids of the order-n family."""
    sides = [[f"a{i}{j}" for j in range(1, n)] for i in range(1, 5)]
    ring: list[str] = []
    for i in range(1, 5):
        ring.append(f"b{i}")
        ring.extend(sides[i - 1])
    extra = [f"c{i}" for i in range(1, 5)] + [f"e{i}" for i in range(1, 5)]
    extra += [f"d{i}" for i in range(1, 5)]
    if n >= 3:
        extra += [f"f{i}" for i in range(1, 5)] + ["p"]
    return ring, sides, ring + extra


def _family_edges(n: int) -> set[tuple[str, str]]:
    ring, sides, _ = _family_ids(n)
    edges: set[tuple[str, str]] = set()

    def add(a: str, b: str):
        edges.add((a, b) if a < b else (b, a))

    for k, v in enumerate(ring):
        add(v, ring[(k + 1) % len(ring)])
    for i in range(1, 5):
        side = sides[i - 1]
        for a in side:
            add(a, f"d{i}")
        add(f"c{i}", sides[_prev(i) - 1][-1])
        add(f"c{i}", side[0])
        add(f"c{i}", f"d{i}")
        add(f"c{i}", f"d{_prev(i)}")
        add(f"c{i}", f"b{i}")
        add(f"c{i}", f"e{i}")
        add(f"e{i}", f"d{i}")
        add(f"e{i}", f"d{_prev(i)}")
        if n >= 3:
            add(f"f{i}", side[0])
            add(f"f{i}", side[-1])
            add(f"f{i}", "p")
    return edges


def _family_topology(n: int) -> NetTopology:
    _, _, ids = _family_ids(n)
    boundary = {f"d{i}" for i in range(1, 5)}
    vertices = tuple((v, BOUNDARY if v in boundary else INTERIOR) for v in sorted(ids))
    # sorted as save_net writes them, so loading a saved template hits the same entry
    return shared_topology(vertices, tuple(sorted(_family_edges(n))))


def build_net25(sol: AngleSolution) -> ConstructionResult:
    """Exact construction of the irreducible net with 4 boundary and 25
    balanced vertices, in canonical placement."""
    params = params_from_solution(sol)
    pos: dict[str, Point] = dict(build_dodecagon(params))

    pos["p"] = line_intersection(pos["b1"], pos["b3"], pos["b2"], pos["b4"])

    # boundary anchors: isosceles apex over each long side, outside the ring,
    # base angles beta; apex height is (side_long/2) * tan(beta)
    half_h = (params.side_long / 2.0) * math.tan(params.beta)
    for i in range(1, 5):
        a1 = pos[f"a{i}1"]
        a2 = pos[f"a{i}2"]
        mx, my = (a1[0] + a2[0]) / 2.0, (a1[1] + a2[1]) / 2.0
        ux, uy = a2[0] - a1[0], a2[1] - a1[1]
        ln = math.hypot(ux, uy)
        # ring runs counterclockwise, so the right normal points outward
        pos[f"d{i}"] = (mx + (uy / ln) * half_h, my - (ux / ln) * half_h)

    for i in range(1, 5):
        j = _prev(i)
        pos[f"c{i}"] = line_intersection(pos[f"a{j}2"], pos[f"d{i}"], pos[f"a{i}1"], pos[f"d{j}"])
    for i in range(1, 5):
        j = _prev(i)
        pos[f"f{i}"] = fermat_point((pos[f"a{i}1"], pos[f"a{i}2"], pos["p"]))
        try:
            pos[f"e{i}"] = fermat_point((pos[f"c{i}"], pos[f"d{i}"], pos[f"d{j}"]))
        except NoFermatPoint as exc:
            raise NoFermatPoint(f"triangle for e{i}: {exc}") from None

    topology = _family_topology(3)
    net = EmbeddedNet(topology=topology, positions=pos)
    return ConstructionResult(net=net, params=params, landmarks=dict(net.positions))


def _polar(angle: float, radius: float) -> Point:
    return (radius * math.cos(angle), radius * math.sin(angle))


def _template_positions(n: int) -> dict[str, Point]:
    """Schematic seed layout for the order-n template (not balanced).  Each
    three-edge vertex e_i, f_i sits at the Fermat point of its neighbours,
    which every seed triangle of every admitted order has."""
    ring, sides, _ = _family_ids(n)
    pos: dict[str, Point] = {}
    m = len(ring)
    # b1 sits one ring slot before a11; put a11 at angle 0
    slot = {v: k for k, v in enumerate(ring)}
    for v, k in slot.items():
        ang = 2.0 * math.pi * (k - 1) / m
        pos[v] = _polar(ang, _SEED_CORNER_RADIUS if v.startswith("b") else _SEED_RING_RADIUS)
    for i in range(1, 5):
        side = sides[i - 1]
        # side a-slots are consecutive in the ring list, so their slot mean
        # gives the outward side direction without wraparound issues
        mid_k = 0.5 * (slot[side[0]] + slot[side[-1]])
        pos[f"d{i}"] = _polar(2.0 * math.pi * (mid_k - 1) / m, _SEED_ANCHOR_RADIUS)
    for i in range(1, 5):
        j = _prev(i)
        pos[f"c{i}"] = line_intersection(
            pos[sides[j - 1][-1]], pos[f"d{i}"], pos[sides[i - 1][0]], pos[f"d{j}"]
        )
        if n == 2:
            # transcribed outer radius of the 16-vertex net's schematic
            bx, by = pos[f"b{i}"]
            ang = math.atan2(by, bx)
            pos[f"e{i}"] = _polar(ang, _SEED_OUTER_RADIUS)
        else:
            pos[f"e{i}"] = fermat_point((pos[f"c{i}"], pos[f"d{i}"], pos[f"d{j}"]))
    if n >= 3:
        pos["p"] = (0.0, 0.0)
        for i in range(1, 5):
            side = sides[i - 1]
            pos[f"f{i}"] = fermat_point((pos[side[0]], pos[side[-1]], pos["p"]))
    return pos


@functools.lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def _template_parts(family: str,
                    n: int) -> tuple[NetTopology, tuple[tuple[str, Point], ...], bool]:
    """The topology, seed positions and experimental flag of one family
    member, built once per process; topology_template copies the positions
    out.  A call that raises caches nothing."""
    if family == T3_DODECAGON:
        net = build_net25(solve_angles()).net
        return net.topology, tuple(net.positions.items()), False
    if family == RING_EXPERIMENTAL and n < 4:
        raise UnsupportedFamily(
            f"ring order {n} overlaps the named families; use t2 (n=2) or t3 (n=3)"
        )
    return _family_topology(n), tuple(_template_positions(n).items()), family == RING_EXPERIMENTAL


def topology_template(fam: NetFamily) -> Template:
    """Topology plus suggested initial positions for a family member.

    The order-3 member comes back with its exact balanced placement; the
    order-2 member with the schematic seed it is known to relax from; ring
    orders >= 4 are emitted as experimental topology with a heuristic seed
    and no claim that a balanced configuration exists.

    Each member is built once per process, in a cache of at most
    net.TOPOLOGY_CACHE_SIZE members; every call returns a fresh positions
    dict, so editing one changes no later template.
    """
    topology, positions, experimental = _template_parts(fam.family, fam.n)
    return Template(topology=topology, positions=dict(positions), experimental=experimental)
