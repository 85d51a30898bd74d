"""Net data model: topology, embedding, its array layout, imbalance, and
overlap detection.

A net is a connected embedded graph with a distinguished set of boundary
vertices.  Interior (non-boundary) vertices are meant to satisfy the balance
condition: the unit vectors along their incident edges sum to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEdge, InvariantViolation, UnknownVertex
from .geom import EPS_DEG, Point, dist

BOUNDARY = "boundary"
INTERIOR = "interior"


def canonical_edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class NetTopology:
    """Vertices with kinds plus an undirected edge set.

    Interior vertices must have degree >= 3; degree-2 interior vertices are
    only admitted with allow_degree2=True, which subnet analysis uses for
    straight-line pass-through vertices.
    """

    vertices: tuple[tuple[str, str], ...]
    edges: frozenset[tuple[str, str]]
    allow_degree2: bool = False
    _adj: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = tuple(sorted((str(i), str(k)) for i, k in self.vertices))
        ids = [i for i, _ in verts]
        if len(set(ids)) != len(ids):
            raise InvariantViolation("duplicate vertex ids")
        known = set(ids)
        for _, kind in verts:
            if kind not in (BOUNDARY, INTERIOR):
                raise InvariantViolation(f"unknown vertex kind {kind!r}")
        norm_edges = set()
        for a, b in self.edges:
            if a == b:
                raise InvariantViolation(f"self-loop at {a!r}")
            if a not in known or b not in known:
                raise InvariantViolation(f"edge ({a!r}, {b!r}) references unknown vertex")
            e = canonical_edge(a, b)
            if e in norm_edges:
                raise InvariantViolation(f"duplicate edge {e!r}")
            norm_edges.add(e)
        adj: dict[str, list[str]] = {i: [] for i in ids}
        for a, b in norm_edges:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(norm_edges))
        object.__setattr__(self, "_adj", {i: tuple(sorted(ns)) for i, ns in adj.items()})

        min_deg = 2 if self.allow_degree2 else 3
        for i, kind in verts:
            if kind == INTERIOR and len(self._adj[i]) < min_deg:
                raise InvariantViolation(
                    f"interior vertex {i!r} has degree {len(self._adj[i])} < {min_deg}"
                )
        if ids:
            seen = {ids[0]}
            stack = [ids[0]]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(ids):
                raise InvariantViolation("graph is not connected")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.vertices)

    @property
    def boundary_ids(self) -> tuple[str, ...]:
        return tuple(i for i, k in self.vertices if k == BOUNDARY)

    @property
    def interior_ids(self) -> tuple[str, ...]:
        return tuple(i for i, k in self.vertices if k == INTERIOR)

    def is_boundary(self, v: str) -> bool:
        return v in set(self.boundary_ids)

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))


@dataclass(frozen=True)
class EmbeddedNet:
    topology: NetTopology
    positions: dict[str, Point]

    def __post_init__(self):
        pos = {str(k): (float(x), float(y)) for k, (x, y) in self.positions.items()}
        ids = set(self.topology.ids)
        missing = ids - set(pos)
        if missing:
            raise InvariantViolation(f"missing positions for {sorted(missing)[:6]}")
        for x, y in pos.values():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InvariantViolation("non-finite coordinate")
        object.__setattr__(self, "positions", pos)
        eps = self.eps_deg
        for a, b in self.topology.edges:
            if dist(pos[a], pos[b]) <= eps:
                raise InvariantViolation(f"edge ({a!r}, {b!r}) has (near-)zero length")

    @property
    def bbox_diagonal(self) -> float:
        xs = [p[0] for p in self.positions.values()]
        ys = [p[1] for p in self.positions.values()]
        return math.hypot(max(xs) - min(xs), max(ys) - min(ys))

    @property
    def eps_deg(self) -> float:
        # scale-aware degeneracy guard; falls back to absolute when scale-free
        return max(EPS_DEG, EPS_DEG * self.bbox_diagonal)

    def with_positions(self, positions: dict[str, Point]) -> "EmbeddedNet":
        return EmbeddedNet(topology=self.topology, positions=positions)


@dataclass(frozen=True)
class ImbalanceReport:
    per_vertex: dict[str, tuple[Point, float]]
    total_loss: float
    max_norm: float


def imbalance(net: EmbeddedNet, v: str) -> tuple[Point, float]:
    """Sum of unit vectors along v's incident edges, and its norm."""
    if v not in net.positions:
        raise UnknownVertex(v)
    x, y = net.positions[v]
    eps = net.eps_deg
    sx = sy = 0.0
    for w in net.topology.neighbors(v):
        wx, wy = net.positions[w]
        dx, dy = wx - x, wy - y
        d = math.sqrt(dx * dx + dy * dy)
        if d <= eps:
            raise DegenerateEdge(f"edge ({v!r}, {w!r}) has length {d:.3e}")
        sx += dx / d
        sy += dy / d
    return (sx, sy), math.hypot(sx, sy)


class PackedNet:
    """Array layout of a net: vertex ids in sorted order with their
    positions, the interior vertices, and every edge with an interior end as
    index arrays ea -> eb.  imbalance() is the one vectorized balance
    computation; total_report and relax both read it.
    """

    def __init__(self, net: EmbeddedNet) -> None:
        topo = net.topology
        self.ids: tuple[str, ...] = topo.ids
        index = {vid: k for k, vid in enumerate(self.ids)}
        self.pos = np.array([net.positions[vid] for vid in self.ids],
                            dtype=np.float64).reshape(-1, 2)
        self.interior: tuple[str, ...] = topo.interior_ids
        self.order = np.array([index[vid] for vid in self.interior], dtype=np.int64)
        # interior ordinal of each vertex, -1 on the boundary
        slot = np.full(len(self.ids), -1, dtype=np.int64)
        slot[self.order] = np.arange(len(self.order))
        # ids are sorted, so index pairs sort as the edges themselves do
        ends = np.array([index[v] for e in topo.edges for v in e],
                        dtype=np.int64).reshape(-1, 2)
        ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
        ends = ends[(slot[ends[:, 0]] >= 0) | (slot[ends[:, 1]] >= 0)]
        self.ea, self.eb = ends[:, 0], ends[:, 1]
        self.sa, self.sb = slot[self.ea], slot[self.eb]
        # s(v) gains +u at the a end and -u at the b end of each edge.  The
        # terms run by vertex and then by neighbour id, the order in which
        # imbalance(net, v) adds them, so both give the same floats.
        ina, inb = np.flatnonzero(self.sa >= 0), np.flatnonzero(self.sb >= 0)
        rows = np.concatenate([self.sa[ina], self.sb[inb]])
        other = np.concatenate([self.eb[ina], self.ea[inb]])
        by_term = np.lexsort((other, rows))
        self.grad_rows = rows[by_term]
        self.grad_edges = np.concatenate([ina, inb])[by_term]
        self.grad_sign = np.concatenate([np.ones(len(ina)), -np.ones(len(inb))])[by_term]

    def edges(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """b - a and its length, for every edge with an interior end."""
        d = pos[self.eb] - pos[self.ea]
        return d, np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])

    def imbalance(self, u: np.ndarray) -> np.ndarray:
        """s(v) for every interior vertex from the edges' unit vectors u."""
        s = np.zeros((len(self.interior), 2), dtype=np.float64)
        np.add.at(s, self.grad_rows, self.grad_sign[:, None] * u[self.grad_edges])
        return s

    def positions_dict(self, arr: np.ndarray) -> dict[str, Point]:
        return {vid: (float(arr[k, 0]), float(arr[k, 1])) for k, vid in enumerate(self.ids)}


def total_report(net: EmbeddedNet) -> ImbalanceReport:
    """Imbalance of every interior vertex; boundary vertices are exempt.

    Raises DegenerateEdge, naming the first interior vertex in id order that
    has an edge of length at most net.eps_deg.
    """
    packed = PackedNet(net)
    d, length = packed.edges(packed.pos)
    short = np.flatnonzero(length <= net.eps_deg).tolist()
    if short:
        ends = [(packed.ids[i], packed.ids[j], k)
                for k in short for i, j in ((packed.ea[k], packed.eb[k]), (packed.eb[k], packed.ea[k]))]
        v, w, k = min(end for end in ends if end[0] in packed.interior)
        raise DegenerateEdge(f"at vertex {v!r}: edge ({v!r}, {w!r}) has length {length[k]:.3e}")
    s = packed.imbalance(d / length[:, None]).tolist()
    per: dict[str, tuple[Point, float]] = {}
    total = 0.0
    worst = 0.0
    for v, (sx, sy) in zip(packed.interior, s):
        norm = math.hypot(sx, sy)
        per[v] = ((sx, sy), norm)
        total += norm
        worst = max(worst, norm)
    return ImbalanceReport(per_vertex=per, total_loss=total, max_norm=worst)


@dataclass(frozen=True)
class OverlapFinding:
    kind: str  # "edges" or "vertices"
    items: tuple
    detail: str


def _point_line_dist(p: Point, a: Point, b: Point) -> float:
    ux, uy = b[0] - a[0], b[1] - a[1]
    ln = math.hypot(ux, uy)
    return abs((p[0] - a[0]) * uy - (p[1] - a[1]) * ux) / ln


def _collinear_overlap_length(p1: Point, q1: Point, p2: Point, q2: Point, tol: float) -> float:
    """Overlap length of two segments if they are collinear within tol, else 0."""
    if (
        _point_line_dist(p2, p1, q1) > tol
        or _point_line_dist(q2, p1, q1) > tol
        or _point_line_dist(p1, p2, q2) > tol
        or _point_line_dist(q1, p2, q2) > tol
    ):
        return 0.0
    ux, uy = q1[0] - p1[0], q1[1] - p1[1]
    ln = math.hypot(ux, uy)
    ux, uy = ux / ln, uy / ln
    s = sorted(((p1[0] * ux + p1[1] * uy), (q1[0] * ux + q1[1] * uy)))
    t = sorted(((p2[0] * ux + p2[1] * uy), (q2[0] * ux + q2[1] * uy)))
    return min(s[1], t[1]) - max(s[0], t[0])


_SCREEN_ROWS = 64  # edges per block of the overlap screen


def detect_overlaps(net: EmbeddedNet, tol_overlap: float | None = None) -> list[OverlapFinding]:
    """Find coincident or collinear-overlapping edge pairs and near-coincident
    vertex pairs.  An empty list means the embedding is overlap-free.

    tol_overlap defaults to 1e-6 of the bounding-box diagonal.

    A numpy screen over all pairs keeps the candidates: edge pairs whose
    four point-line offsets are at most 2*tol, vertex pairs closer than
    2*tol.  The slack covers the last-bit difference between np.hypot and
    math.hypot, so the scalar tests below, which decide every finding and
    its detail, see every pair that can pass them.
    """
    tol = 1e-6 * net.bbox_diagonal if tol_overlap is None else tol_overlap
    findings: list[OverlapFinding] = []
    edges = sorted(net.topology.edges)
    pos = net.positions
    ids = sorted(pos)
    index = {vid: k for k, vid in enumerate(ids)}
    xy = np.array([pos[vid] for vid in ids], dtype=np.float64).reshape(-1, 2)
    x, y = xy[:, 0], xy[:, 1]
    a = np.array([index[v] for v, _ in edges], dtype=np.int64)
    b = np.array([index[w] for _, w in edges], dtype=np.int64)
    px, py = x[a], y[a]
    ux, uy = x[b] - px, y[b] - py
    length = np.hypot(ux, uy)

    def near_line(k: slice, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
        # [k, l]: point l lies within 2*tol of the line of edge k; the cross
        # product is formed term by term as in _point_line_dist
        cross = tx[None, :] - px[k, None]
        cross *= uy[k, None]
        term = ty[None, :] - py[k, None]
        term *= ux[k, None]
        cross -= term
        np.abs(cross, out=cross)
        cross /= length[k, None]
        return cross <= 2.0 * tol

    # rows in blocks, so the float work arrays stay at _SCREEN_ROWS x E
    near = np.empty((len(edges), len(edges)), dtype=bool)
    for r in range(0, len(edges), _SCREEN_ROWS):
        k = slice(r, r + _SCREEN_ROWS)
        near[k] = near_line(k, px, py) & near_line(k, x[b], y[b])
    near &= near.T
    i, j = np.nonzero(np.triu(near, 1))
    for i1, i2 in zip(i.tolist(), j.tolist()):
        (a1, b1), (a2, b2) = edges[i1], edges[i2]
        ov = _collinear_overlap_length(pos[a1], pos[b1], pos[a2], pos[b2], tol)
        if ov > tol:
            findings.append(
                OverlapFinding(
                    kind="edges",
                    items=(edges[i1], edges[i2]),
                    detail=f"collinear segments overlap over length {ov:.6e}",
                )
            )
    gap = np.hypot(x[None, :] - x[:, None], y[None, :] - y[:, None])
    i, j = np.nonzero(np.triu(gap < 2.0 * tol, 1))
    for i1, i2 in zip(i.tolist(), j.tolist()):
        d = dist(pos[ids[i1]], pos[ids[i2]])
        if d < tol:
            findings.append(
                OverlapFinding(
                    kind="vertices",
                    items=(ids[i1], ids[i2]),
                    detail=f"vertices {d:.6e} apart",
                )
            )
    return findings
