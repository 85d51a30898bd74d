"""Net data model: topology, embedding, its array layout, imbalance, and
overlap detection.

A net is a connected embedded graph with a distinguished set of boundary
vertices.  Interior (non-boundary) vertices are meant to satisfy the balance
condition: the unit vectors along their incident edges sum to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateEdge, InvariantViolation, UnknownVertex
from .geom import EPS_DEG, Point, dist

BOUNDARY = "boundary"
INTERIOR = "interior"

# Largest |coordinate| a net may have.  Differences of coordinates then stay
# below 2e150, so their squares and products stay finite and every length,
# unit vector and overlap offset is computed without overflow.
COORD_BOUND = 1e150


def _degeneracy_threshold(diagonal: float) -> float:
    """Longest (near-)zero edge of a net whose bounding box has this diagonal."""
    return max(EPS_DEG, EPS_DEG * diagonal)


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

    # The cached properties below depend on the topology alone.  They are
    # built on first use and kept; they are not fields, so ==, hash and repr
    # ignore them.

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.vertices)

    @property
    def boundary_ids(self) -> tuple[str, ...]:
        return tuple(i for i, k in self.vertices if k == BOUNDARY)

    @cached_property
    def interior_ids(self) -> tuple[str, ...]:
        return tuple(i for i, k in self.vertices if k == INTERIOR)

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    @cached_property
    def edge_order(self) -> EdgeOrder:
        """Every edge in sorted order, the one order all readers share."""
        edges = tuple(sorted(self.edges))
        index = {vid: k for k, vid in enumerate(self.ids)}
        ends = np.array([index[v] for e in edges for v in e], dtype=np.int64).reshape(-1, 2)
        return EdgeOrder(edges, ends[:, 0], ends[:, 1])

    @cached_property
    def layout(self) -> TopologyLayout:
        """The index arrays that relax and total_report work on."""
        return TopologyLayout(self)

    @cached_property
    def search_index(self) -> SearchIndex:
        """The search's index, a view of the layout built on its first run."""
        return SearchIndex(self)


class EdgeOrder(NamedTuple):
    """The sorted edges (a, b), a < b, and the positions of their ends in
    the topology's ids.  The ids are sorted, so the index pairs sort as the
    edges themselves do."""

    edges: tuple[tuple[str, str], ...]
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class EmbeddedNet:
    topology: NetTopology
    positions: dict[str, Point]

    def __post_init__(self):
        pos = {str(k): (float(x), float(y)) for k, (x, y) in self.positions.items()}
        ids = set(self.topology.ids)
        if not ids:
            raise InvariantViolation("a net needs at least one vertex")
        missing = ids - set(pos)
        if missing:
            raise InvariantViolation(f"missing positions for {sorted(missing)[:6]}")
        stray = set(pos) - ids
        if stray:
            raise InvariantViolation(f"positions for unknown vertices {sorted(stray)[:6]}")
        for vid, (x, y) in pos.items():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InvariantViolation("non-finite coordinate")
            if abs(x) > COORD_BOUND or abs(y) > COORD_BOUND:
                value = x if abs(x) > COORD_BOUND else y
                raise InvariantViolation(
                    f"vertex {vid!r} has coordinate {value!r} beyond the bound {COORD_BOUND:g}"
                )
        object.__setattr__(self, "positions", pos)
        eps = self.eps_deg
        short = [e for e in self.topology.edges if dist(pos[e[0]], pos[e[1]]) <= eps]
        if short:  # name the first in sorted order, not in hash order
            raise InvariantViolation(f"edge {min(short)!r} has (near-)zero length")

    @property
    def bbox_diagonal(self) -> float:
        xs = [p[0] for p in self.positions.values()]
        ys = [p[1] for p in self.positions.values()]
        return math.hypot(max(xs) - min(xs), max(ys) - min(ys))

    @property
    def eps_deg(self) -> float:
        return _degeneracy_threshold(self.bbox_diagonal)

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


class TopologyLayout:
    """Index arrays of a topology: vertex ids in sorted order, the interior
    vertices, and every edge with an interior end as index arrays ea -> eb.
    NetTopology.layout builds it once and every PackedNet on that topology
    shares it.  The terms of the imbalance and of the Hessian are summed by
    one np.bincount each over precomputed flat bins; bincount adds a bin's
    weights one after another from 0.0, in the order given.
    """

    def __init__(self, topo: NetTopology) -> None:
        self.ids: tuple[str, ...] = topo.ids
        self.interior: tuple[str, ...] = topo.interior_ids
        self.order = np.array([k for k, (_, kind) in enumerate(topo.vertices) if kind == INTERIOR],
                              dtype=np.int64)
        slot = np.full(len(self.ids), -1, dtype=np.int64)  # interior ordinal, -1 on the boundary
        slot[self.order] = np.arange(len(self.order))
        ea, eb = topo.edge_order.a, topo.edge_order.b
        inner = (slot[ea] >= 0) | (slot[eb] >= 0)
        self.inner = np.flatnonzero(inner)  # each packed edge's index in edge_order
        self.fixed_ends = np.stack((ea[~inner], eb[~inner]), axis=1)  # both ends on the boundary
        self.ea, self.eb = ea[inner], eb[inner]
        self.sa, self.sb = slot[self.ea], slot[self.eb]
        # s(v) gains +u at the a end and -u at the b end of each edge.  The
        # terms run by vertex and then in edge order, which for v is the order
        # of its neighbour ids (each (w, v), w < v, sorts before (v, w')): the
        # order in which imbalance(net, v) adds them, so both give the same floats.
        ends = np.stack((self.sa, self.sb), axis=1)
        edge, side = np.nonzero(ends >= 0)  # side 0 at the a end, 1 at the b end
        rows = ends[edge, side]
        by_term = np.lexsort((edge, rows))
        self.grad_rows, self.grad_edges = rows[by_term], edge[by_term]
        self.grad_sign = 1.0 - 2.0 * side[by_term]
        # x and y of each term in the flattened s
        self.grad_bins = (2 * self.grad_rows[:, None] + np.arange(2)).ravel()

    @cached_property
    def hessian_bins(self) -> tuple[np.ndarray, np.ndarray]:
        """Per Hessian term its row in np.concatenate((K, -K)) and its four
        flat bins in the 2n x 2n matrix: +K on the diagonal blocks in
        gradient order, then -K on both off-diagonal blocks of each edge
        between two interior vertices.  Built on the first hessian() call."""
        n, m = len(self.interior), len(self.ea)
        pair = np.flatnonzero((self.sa >= 0) & (self.sb >= 0))
        rows = np.concatenate([self.grad_rows, self.sa[pair], self.sb[pair]])
        cols = np.concatenate([self.grad_rows, self.sb[pair], self.sa[pair]])
        terms = np.concatenate([self.grad_edges, m + pair, m + pair])
        i, j = np.divmod(np.arange(4), 2)  # entry (i, j) of a 2x2 block
        bins = ((2 * rows[:, None] + i) * (2 * n) + 2 * cols[:, None] + j).ravel()
        return terms, bins


class SubsetSums:
    """Sums of every subset of each group's vectors, built by doubling in
    one flat array.

    Group g owns degree[g] vectors: the entries first + i, i < degree[g],
    of the complex array (x + iy) given to sums(), where first is the total
    degree of the groups before g.  Subset j of a group (bit i set when
    vector i is in) sums its vectors in increasing i from +0.0, as a loop
    over them would.  The groups are columns, by decreasing degree, and the
    subsets rows: row 0 holds every group's empty subset, and rows 2^k to
    2^(k+1) - 1 form a block of the count[k] groups with more than k
    vectors.  Step k writes that block at once: row 2^k + j is row j plus
    each group's vector k.
    """

    def __init__(self, degree: np.ndarray) -> None:
        self.order = np.argsort(-degree, kind="stable")  # column -> group
        top = int(degree.max(initial=0))
        self.count = (degree[self.order, None] > np.arange(top)).sum(axis=0)
        width = np.concatenate(([len(degree)], self.count.repeat(1 << np.arange(top))))
        start = width.cumsum() - width  # of each row
        self.size = int(width.sum())
        self.block = start[1 << np.arange(top)]
        first = (degree.cumsum() - degree)[self.order]
        # per step: where its block starts, the entries of rows 0 to 2^k - 1
        # that it reads, and each column's vector k
        self.steps = [(int(self.block[k]),
                       (start[:1 << k, None] + np.arange(c)).ravel().astype(np.int32),
                       (first[:c] + k).astype(np.int32))
                      for k, c in enumerate(self.count.tolist())]

    def sums(self, vectors: np.ndarray) -> np.ndarray:
        """Every sum: subset 2^k + j of column c at block[k] + j * count[k] + c."""
        sums = np.zeros(self.size, dtype=np.complex128)
        for lo, src, add in self.steps:
            c = len(add)
            np.add(sums[src].reshape(-1, c), vectors[add],
                   out=sums[lo:lo + len(src)].reshape(-1, c))
        return sums

    def balanced(self, vectors: np.ndarray, tol: float) -> tuple[list[int], list[int]]:
        """Group and subset of every subset of two or more vectors whose sum
        has norm at most tol, by subset and then by column."""
        rest = self.sums(vectors)[len(self.order):]  # row 0 left out
        x, y = rest.real, rest.imag
        hit = np.flatnonzero(np.sqrt(x * x + y * y) <= tol) + len(self.order)
        k = self.block.searchsorted(hit, side="right") - 1
        j, col = np.divmod(hit - self.block[k], self.count[k])
        keep = j > 0  # row 2^k holds the singletons
        return self.order[col[keep]].tolist(), ((1 << k[keep]) + j[keep]).tolist()


class SearchIndex:
    """What the irreducibility search reads of a topology, a view of its
    layout.  Each interior vertex is one group of sums over PackedNet.terms,
    its vectors in the order of its edges in edge_order.  inc holds each
    interior vertex's edges as a mask, ends each edge's interior ends.
    """

    def __init__(self, topo: NetTopology) -> None:
        layout = topo.layout
        degree = np.bincount(layout.grad_rows, minlength=len(layout.interior))
        if (degree > 16).any():  # as balanced_subsets rejects it
            raise ValueError(f"need between 1 and 16 directions, got {degree[degree > 16][0]}")
        self.sums = SubsetSums(degree)
        self.inc = [0] * len(degree)
        self.ends = [0] * len(topo.edge_order.edges)
        for v, k in zip(layout.grad_rows.tolist(), layout.inner[layout.grad_edges].tolist()):
            self.inc[v] |= 1 << k
            self.ends[k] |= 1 << v


class PackedNet:
    """A net's positions in the array layout of its topology.  imbalance()
    is the one vectorized balance computation; total_report and relax both
    read it.
    """

    def __init__(self, net: EmbeddedNet) -> None:
        self.layout = layout = net.topology.layout
        self.ids, self.interior, self.order = layout.ids, layout.interior, layout.order
        self.ea, self.eb = layout.ea, layout.eb
        self.pos = np.array([net.positions[vid] for vid in self.ids],
                            dtype=np.float64).reshape(-1, 2)

    def edges(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """b - a and its length, for every edge with an interior end."""
        d = pos[self.eb] - pos[self.ea]
        return d, np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])

    def terms(self, u: np.ndarray) -> np.ndarray:
        """Each interior vertex's unit vectors, by vertex and then by neighbour id."""
        return self.layout.grad_sign[:, None] * u[self.layout.grad_edges]

    def imbalance(self, u: np.ndarray) -> np.ndarray:
        """s(v) for every interior vertex from the edges' unit vectors u."""
        n = len(self.interior)
        return np.bincount(self.layout.grad_bins, self.terms(u).ravel(),
                           minlength=2 * n).reshape(n, 2)

    def hessian(self, u: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Hessian of total length over the interior coordinates (x0, y0, x1, ...).

        Every bin sums from 0.0, and an off-diagonal bin holds the one term
        -K.  A sum from 0.0 is never -0.0, so the matrix has no -0.0 entry,
        which relax relies on when it adds lam to the diagonal alone."""
        k = (np.eye(2) - u[:, :, None] * u[:, None, :]) / length[:, None, None]
        terms, bins = self.layout.hessian_bins
        n2 = 2 * len(self.interior)
        weights = np.concatenate((k, -k))[terms].ravel()
        return np.bincount(bins, weights, minlength=n2 * n2).reshape(n2, n2)

    @cached_property
    def fixed_min(self) -> float:
        """Shortest edge between two boundary vertices: fixed, while the threshold grows."""
        xy = self.pos.tolist()
        fixed = self.layout.fixed_ends.tolist()
        return min((dist(xy[i], xy[j]) for i, j in fixed), default=math.inf)

    def checked_edges(self, pos: np.ndarray,
                      floor: float) -> tuple[np.ndarray, np.ndarray] | None:
        """edges(pos), or None when one of them is shorter than floor or
        EmbeddedNet would reject pos (with the boundary as packed): for a
        coordinate that is not finite or beyond COORD_BOUND, or an edge at
        most the degeneracy threshold."""
        if not (np.abs(pos).max() <= COORD_BOUND):  # also rejects NaN
            return None
        d, length = self.edges(pos)
        extent = np.ptp(pos, axis=0)
        eps = _degeneracy_threshold(math.hypot(extent[0], extent[1]))
        shortest = length.min(initial=math.inf)
        return (d, length) if shortest >= floor and min(shortest, self.fixed_min) > eps else None

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


def _sweep_pairs(x_lo: np.ndarray, x_hi: np.ndarray,
                 y_lo: np.ndarray, y_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the boxes [x_lo, x_hi] x [y_lo, y_hi]
    that meet, in no particular order.

    Sorted by x-min, box k meets in x exactly the later boxes whose x-min is
    at most its own x-max, and these form one run after it.
    """
    # stable: the sort lexsort already uses; the default one maps about
    # 0.3 MB more of numpy's code on first use
    order = x_lo.argsort(kind="stable")
    x_lo, x_hi, y_lo, y_hi = x_lo[order], x_hi[order], y_lo[order], y_hi[order]
    rank = np.arange(len(order))
    count = np.maximum(x_lo.searchsorted(x_hi, side="right") - rank - 1, 0)
    first = rank.repeat(count)
    # the run of box k starts at k + 1, and at count.cumsum() - count in first
    second = np.arange(len(first)) + (rank + 1 - count.cumsum() + count).repeat(count)
    meet = (y_lo[first] <= y_hi[second]) & (y_lo[second] <= y_hi[first])
    i, j = order[first[meet]], order[second[meet]]
    return np.minimum(i, j), np.maximum(i, j)


def detect_overlaps(net: EmbeddedNet, tol_overlap: float | None = None) -> list[OverlapFinding]:
    """Find coincident or collinear-overlapping edge pairs and near-coincident
    vertex pairs.  An empty list means the embedding is overlap-free.

    tol_overlap defaults to 1e-6 of the bounding-box diagonal; below 0 or NaN it raises ValueError.

    The scalar tests decide every finding and its detail; a numpy screen
    picks the pairs they see.  It sorts and sweeps bounding boxes (Bentley
    and Ottmann 1979; Cohen et al., I-COLLIDE, 1995): each edge's box grown
    by 2*tol, each vertex's by tol.  Two edges whose collinear overlap
    exceeds tol have a point of one within tol of the other, so their grown
    boxes meet; two vertices closer than tol differ by less than tol in x
    and in y.  A further slack of a few ulps of the largest coordinate keeps
    that true under rounding, also at tol = 0.  Of the pairs whose boxes
    meet, edge pairs go on when their four point-line offsets are at most
    2*tol and vertex pairs when they lie closer than 2*tol; that slack
    covers the last-bit difference between np.hypot and math.hypot.
    Findings come in the order of the pairwise loop: edge pairs by sorted
    edge, then vertex pairs by sorted id.
    """
    if tol_overlap is not None and not (tol_overlap >= 0.0):
        raise ValueError(f"tol_overlap must be >= 0, got {tol_overlap}")
    tol = 1e-6 * net.bbox_diagonal if tol_overlap is None else tol_overlap
    findings: list[OverlapFinding] = []
    edges, a, b = net.topology.edge_order
    pos = net.positions
    ids = net.topology.ids
    xy = PackedNet(net).pos
    x, y = xy[:, 0], xy[:, 1]
    ulps = 16.0 * np.finfo(np.float64).eps * np.abs(xy).max()
    ax, ay, bx, by = x[a], y[a], x[b], y[b]
    pad = 2.0 * tol + ulps
    i, j = _sweep_pairs(np.minimum(ax, bx) - pad, np.maximum(ax, bx) + pad,
                        np.minimum(ay, by) - pad, np.maximum(ay, by) + pad)
    ux, uy = bx - ax, by - ay
    length = np.hypot(ux, uy)

    def near_line(k: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
        # point (tx, ty) lies within 2*tol of the line of edge k; the cross
        # product is formed term by term as in _point_line_dist
        cross = (tx - ax[k]) * uy[k] - (ty - ay[k]) * ux[k]
        return np.abs(cross) / length[k] <= 2.0 * tol

    near = (near_line(i, ax[j], ay[j]) & near_line(i, bx[j], by[j])
            & near_line(j, ax[i], ay[i]) & near_line(j, bx[i], by[i]))
    for i1, i2 in sorted(zip(i[near].tolist(), j[near].tolist())):
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
    pad = tol + ulps
    i, j = _sweep_pairs(x - pad, x + pad, y - pad, y + pad)
    close = np.hypot(x[j] - x[i], y[j] - y[i]) < 2.0 * tol
    for i1, i2 in sorted(zip(i[close].tolist(), j[close].tolist())):
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
