"""Net data model: topology, embedding, its array layout, imbalance, and
overlap detection.

A net is a connected embedded graph with a distinguished set of boundary
vertices.  Interior (non-boundary) vertices are meant to satisfy the balance
condition: the unit vectors along their incident edges sum to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from numbers import Real
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import InvariantViolation, SearchBudgetExceeded, UnknownVertex
from .geom import EPS_DEG, Point

BOUNDARY = "boundary"
INTERIOR = "interior"

# Most distinct topologies shared_topology keeps; the least recently used
# goes first.  The largest template, ring order 250, holds under 2.5 MB with
# its layout, search plan and Hessian bins built.
TOPOLOGY_CACHE_SIZE = 16

# Largest |coordinate| a net may have.  Differences of coordinates then stay
# below 2e150, so their squares and products stay finite and every length,
# unit vector and overlap offset is computed without overflow.
COORD_BOUND = 1e150


def _lengths(d: np.ndarray) -> np.ndarray:
    """sqrt(x*x + y*y) of each row: every edge length and every imbalance norm."""
    squares = d * d
    return np.sqrt(squares[:, 0] + squares[:, 1])


def _positions(ids: tuple[str, ...], xy: np.ndarray) -> dict[str, Point]:
    """The rows of xy by id, as tuples of two floats."""
    return dict(zip(ids, map(tuple, xy.tolist())))


def _bbox_diagonal(xy: np.ndarray) -> float:
    x, y = xy.T
    return math.hypot(x.max() - x.min(), y.max() - y.min())


def _degeneracy_threshold(diagonal: float) -> float:
    """Longest (near-)zero edge of a net whose bounding box has this diagonal."""
    return max(EPS_DEG, EPS_DEG * diagonal)


def canonical_edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _vertex_entry(entry: object) -> tuple[str, str]:
    try:
        vid, kind = entry
    except (TypeError, ValueError):
        raise InvariantViolation(f"vertex entry {entry!r} is not a pair (id, kind)") from None
    if not isinstance(vid, str):
        raise InvariantViolation(f"vertex id {vid!r} is not a str")
    return vid, str(kind)


def _is_coordinate(c: object) -> bool:
    # a bool is no coordinate, as in a net file; the ABC check costs about 1 us
    return type(c) is float or (isinstance(c, Real) and not isinstance(c, bool))


def _point(vid: object, p: object) -> Point:
    """p as two floats, or InvariantViolation naming vid.  A str id with a
    plain tuple of two floats, the common case, is kept as it is."""
    if type(vid) is str and type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is float:
        return p
    if not isinstance(vid, str):
        raise InvariantViolation(f"position key {vid!r} is not a vertex id (a str)")
    if isinstance(p, (tuple, list, np.ndarray)) and len(p) == 2:  # not a str like "12"
        x, y = p
        if _is_coordinate(x) and _is_coordinate(y):
            try:
                return float(x), float(y)
            except OverflowError:  # an int like 10**400
                pass
    raise InvariantViolation(f"vertex {vid!r} has a position that is not two numbers "
                             "within float range")


def _reached(n: int, a: np.ndarray, b: np.ndarray, start: int) -> list[bool]:
    """Which of the vertices 0..n-1 the edges (a[k], b[k]) join to start: a
    depth-first walk, each vertex's neighbours grouped by one stable argsort."""
    ends, other = np.concatenate((a, b)), np.concatenate((b, a))
    by_end = np.argsort(ends, kind="stable")
    neighbours = other[by_end].tolist()
    first = ends[by_end].searchsorted(np.arange(n + 1)).tolist()  # of each vertex's run
    seen, stack = [False] * n, [start]
    while stack:  # each vertex's neighbours are pushed once, when it is first seen
        v = stack.pop()
        if not seen[v]:
            seen[v] = True
            stack.extend(neighbours[first[v]:first[v + 1]])
    return seen


@dataclass(frozen=True)
class NetTopology:
    """Vertices with kinds plus an undirected edge set.

    edges may be any iterable of id pairs and is stored as a frozenset of
    (a, b), a < b; a pair given twice, in either order, is named as a fault.

    Interior vertices must have degree >= 3; degree-2 interior vertices are
    only admitted with allow_degree2=True, which subnet analysis uses for
    straight-line pass-through vertices.

    Each edge becomes a pair of positions in the sorted ids, kept sorted as
    edge_order; the checks, the degrees and neighbors() read those arrays.
    Only vertices, edges and allow_degree2 count for ==, hash and repr.
    """

    vertices: tuple[tuple[str, str], ...]
    edges: Iterable[tuple[str, str]]  # stored as a frozenset
    allow_degree2: bool = False
    ids: tuple[str, ...] = field(init=False, repr=False, compare=False)  # sorted
    interior_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)  # sorted
    edge_order: EdgeOrder = field(init=False, repr=False, compare=False)
    _degree: np.ndarray = field(init=False, repr=False, compare=False)  # read-only, in ids order

    def __post_init__(self):
        verts = tuple(sorted(_vertex_entry(e) for e in self.vertices))
        ids = tuple(i for i, _ in verts)
        if len(set(ids)) != len(ids):
            raise InvariantViolation("duplicate vertex ids")
        for _, kind in verts:
            if kind not in (BOUNDARY, INTERIOR):
                raise InvariantViolation(f"unknown vertex kind {kind!r}")
        index = {vid: k for k, vid in enumerate(ids)}
        flat, bad = [], []  # the index pairs; (repr of the edge, message) per bad edge
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):  # a 2-character str unpacks too
                bad.append((repr(e), f"edge {e!r} is not a pair of vertex ids"))
                continue
            a, b = e
            if a == b:
                bad.append((repr(e), f"self-loop at {a!r}"))
            elif a not in index or b not in index:
                bad.append((repr(e), f"edge ({a!r}, {b!r}) references unknown vertex"))
            else:
                i, j = index[a], index[b]
                flat += (i, j) if i < j else (j, i)
        given = np.array(flat, dtype=np.int64).reshape(-1, 2)
        ends = given[np.lexsort((given[:, 1], given[:, 0]))]
        edges = tuple((ids[i], ids[j]) for i, j in ends.tolist())
        same = ends[1:] == ends[:-1]
        twice = np.flatnonzero(same[:, 0] & same[:, 1]).tolist()
        bad += [(repr(edges[k]), f"duplicate edge {edges[k]!r}") for k in twice]
        if bad:  # the least by repr: the same edge under any hash seed
            raise InvariantViolation(min(bad)[1])
        degree = np.bincount(ends.ravel(), minlength=len(ids))
        ends.flags.writeable = degree.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "interior_ids", tuple(i for i, k in verts if k == INTERIOR))
        # a set filled in input order, so that repr lists the edges as it always has
        object.__setattr__(self, "edges", frozenset({(ids[i], ids[j]) for i, j in given.tolist()}))
        object.__setattr__(self, "edge_order", EdgeOrder(edges, ends[:, 0], ends[:, 1]))
        object.__setattr__(self, "_degree", degree)

        min_deg = 2 if self.allow_degree2 else 3
        for (vid, kind), deg in zip(verts, degree.tolist()):
            if kind == INTERIOR and deg < min_deg:
                raise InvariantViolation(f"interior vertex {vid!r} has degree {deg} < {min_deg}")
        if ids and not all(_reached(len(ids), ends[:, 0], ends[:, 1], 0)):
            raise InvariantViolation("graph is not connected")

    def __reduce__(self):  # rebuild and recheck: read-only arrays, no cached layout
        return NetTopology, (self.vertices, self.edges, self.allow_degree2)

    @property
    def boundary_ids(self) -> tuple[str, ...]:
        return tuple(i for i, k in self.vertices if k == BOUNDARY)

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            k = self.ids.index(v)
        except ValueError:
            raise UnknownVertex(v) from None
        _, a, b = self.edge_order
        # the edges (w, v) by w, then (v, w) by w: all neighbours in id order
        return tuple(self.ids[w] for w in np.concatenate((a[b == k], b[a == k])).tolist())

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    # The cached properties below depend on the topology alone.  They are
    # built on first use and kept; they are not fields, so ==, hash and repr
    # ignore them.

    @cached_property
    def layout(self) -> TopologyLayout:
        """The index arrays that relax, total_report and the search work on."""
        return TopologyLayout(self)


@lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def shared_topology(vertices: tuple[tuple[str, str], ...],
                    edges: tuple[tuple[str, str], ...]) -> NetTopology:
    """NetTopology(vertices, edges), built and checked once per distinct
    content: a repeated call with equal tuples returns the same object, with
    whatever layout it has built.  The topology is a function of the tuples
    alone, so a hit skips no check, and a call that raises caches nothing.
    load_net and the family templates build through it."""
    return NetTopology(vertices, edges)


class EdgeOrder(NamedTuple):
    """The sorted edges (a, b), a < b, and the positions of their ends in
    the topology's ids as read-only int64 arrays, sorted by one lexsort: the
    ids are sorted, so the index pairs sort as the edges themselves do."""

    edges: tuple[tuple[str, str], ...]
    a: np.ndarray
    b: np.ndarray


def _embedding(topo: NetTopology, xy: np.ndarray) -> tuple:
    """The embedding rule, which EmbeddedNet and relax's trial steps apply:
    the fault that keeps xy, a row per id, from embedding topo, or None,
    with b - a and the length of every edge in edge_order.

    The coordinate bound comes first, so no length overflows (past it both
    arrays are None); then every edge must be longer than the threshold at
    the bounding box's diagonal.  The box is measured only when the shortest
    edge does not clear the threshold at diagonal 4c, c = max |coordinate|:
    each side is at most 2c, also as computed, so the computed diagonal is
    at most 2 sqrt(2) c and a few ulps, and the threshold grows with it."""
    big = np.abs(xy).max()  # NaN when one is NaN
    if not big <= COORD_BOUND:
        k = int(np.argmin((np.abs(xy) <= COORD_BOUND).all(axis=1)))  # False for NaN too
        x, y = xy[k].tolist()
        if not (math.isfinite(x) and math.isfinite(y)):
            return "non-finite coordinate", None, None
        value = x if abs(x) > COORD_BOUND else y
        return (f"vertex {topo.ids[k]!r} has coordinate {value!r} "
                f"beyond the bound {COORD_BOUND:g}"), None, None
    edges, a, b = topo.edge_order
    d = xy.take(b, axis=0) - xy.take(a, axis=0)
    length = _lengths(d)
    shortest = length.min(initial=math.inf)
    if not shortest > _degeneracy_threshold(4.0 * big):
        eps = _degeneracy_threshold(_bbox_diagonal(xy))
        if not shortest > eps:
            k = int(np.argmax(length <= eps))
            return f"edge {edges[k]!r} has (near-)zero length", d, length
    return None, d, length


@dataclass(frozen=True)
class EmbeddedNet:
    """A position per vertex, as a read-only mapping and as xy, a read-only
    float64 array with a row per vertex in topology.ids order.

    A net keeps four results once computed: s(v) at every vertex (read-only,
    read by imbalance() and the report), its imbalance report, its overlap
    findings at the default tolerance and the repr text of every coordinate,
    which total_report, detect_overlaps and the writers of io read.
    total_report and detect_overlaps hand out a fresh container on every
    call.  The kept values rely on the read-only positions and xy, as
    shared_topology relies on an immutable topology, and live and die with
    the net.  They are not fields, so ==, repr and pickling ignore them;
    with_positions, pickling and copying build a new net that computes its
    own."""

    topology: NetTopology
    positions: Mapping[str, Point]
    xy: np.ndarray = field(init=False, repr=False, compare=False)
    bbox_diagonal: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = {k: _point(k, p) for k, p in self.positions.items()}
        ids = self.topology.ids
        if not ids:
            raise InvariantViolation("a net needs at least one vertex")
        try:
            rows = [pos[vid] for vid in ids]
        except KeyError:
            rows = None
        if rows is None or len(pos) != len(ids):  # the messages are built on failure only
            missing, stray = set(ids) - set(pos), set(pos) - set(ids)
            if missing:
                raise InvariantViolation(f"missing positions for {sorted(missing)[:6]}")
            raise InvariantViolation(f"positions for unknown vertices {sorted(stray)[:6]}")
        xy = np.fromiter(chain.from_iterable(rows), np.float64, 2 * len(rows)).reshape(-1, 2)
        xy.flags.writeable = False
        self._embed(xy, pos)

    @classmethod
    def _from_xy(cls, topology: NetTopology, xy: np.ndarray) -> EmbeddedNet:
        """The net whose positions are the rows of xy in topology.ids order.
        It keeps a read-only copy of xy, checked as any other net is."""
        net, own = object.__new__(cls), np.array(xy, dtype=np.float64)
        own.flags.writeable = False
        object.__setattr__(net, "topology", topology)
        net._embed(own, _positions(topology.ids, own))
        return net

    def _embed(self, xy: np.ndarray, pos: dict[str, Point]) -> None:
        """Keep xy and pos, its rows by id, once the embedding rule passes them."""
        fault, _, _ = _embedding(self.topology, xy)
        if fault is not None:
            raise InvariantViolation(fault)
        object.__setattr__(self, "positions", MappingProxyType(pos))
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "bbox_diagonal", _bbox_diagonal(xy))

    def __reduce__(self):  # a mappingproxy does not pickle; rebuild and recheck
        return EmbeddedNet, (self.topology, dict(self.positions))

    @property
    def eps_deg(self) -> float:
        return _degeneracy_threshold(self.bbox_diagonal)

    def with_positions(self, positions: Mapping[str, Point]) -> "EmbeddedNet":
        return EmbeddedNet(topology=self.topology, positions=positions)

    @cached_property
    def _sums(self) -> np.ndarray:
        """s(v), a row per vertex in ids order; _embed checked every edge's length."""
        layout = self.topology.layout
        d, length = layout.edges(self.xy)
        return _read_only(layout.sums(d / length[:, None]).reshape(-1, 2))

    @cached_property
    def _imbalance(self) -> ImbalanceReport:
        return _imbalance_report(self)

    @cached_property
    def _overlaps(self) -> tuple[OverlapFinding, ...]:
        return tuple(_scan_overlaps(self, 1e-6 * self.bbox_diagonal))

    @cached_property
    def _coordinate_text(self) -> tuple[dict[str, str], dict[str, str]]:
        """repr of each x and of each y by vertex id, as json writes a finite
        float.  Dicts of str alone, which the garbage collector does not
        track, so a kept one adds nothing to its passes."""
        ids, (x, y) = self.topology.ids, self.xy.T.tolist()
        return dict(zip(ids, map(repr, x))), dict(zip(ids, map(repr, y)))


@dataclass(frozen=True)
class ImbalanceReport:
    per_vertex: dict[str, tuple[Point, float]]
    total_loss: float
    max_norm: float


def imbalance(net: EmbeddedNet, v: str) -> tuple[Point, float]:
    """Sum of unit vectors along v's incident edges, and its norm."""
    if v not in net.topology.ids:
        raise UnknownVertex(v)
    sx, sy = net._sums[net.topology.ids.index(v)].tolist()
    return (sx, sy), math.sqrt(sx * sx + sy * sy)  # as _lengths forms a norm


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a: a topology, and what it builds, may be shared."""
    view = a.view()
    view.flags.writeable = False
    return view


class TopologyLayout:
    """Index arrays of a topology: vertex ids in sorted order, the interior
    vertices and their degrees, and every edge as index arrays ea -> eb in
    edge_order, which every gradient and Hessian index counts.
    NetTopology.layout builds it once, and its methods compute on a net's
    coordinate array (EmbeddedNet.xy or a trial of relax).  The sum of
    unit vectors at every vertex and the Hessian are one np.bincount each
    over precomputed flat bins; bincount adds a bin's weights one after
    another from 0.0, in the order given.  The sums weigh -u at every b end
    and then u at every a end; the Hessian's weights are gathered by
    precomputed indices (np.take) and negated where a term is -K, exactly.
    """

    def __init__(self, topo: NetTopology) -> None:
        self.ids: tuple[str, ...] = topo.ids
        self.interior: tuple[str, ...] = topo.interior_ids
        self.order = np.array([k for k, (_, kind) in enumerate(topo.vertices) if kind == INTERIOR],
                              dtype=np.int64)
        self.degree = topo._degree[self.order]
        slot = np.full(len(self.ids), -1, dtype=np.int64)  # interior ordinal, -1 on the boundary
        slot[self.order] = np.arange(len(self.order))
        self.ea, self.eb = topo.edge_order.a.copy(), topo.edge_order.b.copy()
        self.sa, self.sb = slot[self.ea], slot[self.eb]
        # the edges with an interior end: those a relax step can move
        self._free_edges = np.flatnonzero((self.sa >= 0) | (self.sb >= 0))
        # Each interior vertex's terms, +u at the a end and -u at the b end of
        # its edges, by vertex and then in edge order: the search's and Hessian's.
        ends = np.stack((self.sa, self.sb), axis=1)
        edge, side = np.nonzero(ends >= 0)  # side 0 at the a end, 1 at the b end
        rows = ends[edge, side]
        by_term = np.lexsort((edge, rows))
        self.grad_rows, self.grad_edges = rows[by_term], edge[by_term]
        self.grad_sign = 1.0 - 2.0 * side[by_term]
        # x and y of -u at each b end, then of +u at each a end, in the flat s:
        # each v adds its terms by neighbour id, as (w, v), w < v, sorts first
        xy = np.arange(2)
        self.sum_bins = (2 * np.concatenate((self.eb, self.ea))[:, None] + xy).ravel()
        self._free = (2 * self.order[:, None] + xy).ravel()  # in the flattened positions
        # numpy's take, put and bincount copy an index array that is not
        # writeable, on every call.  So the kernels index through writeable
        # arrays of their own, and every attribute is a read-only view.
        self._ea, self._eb, self._grad_edges, self._sum_bins = (
            self.ea, self.eb, self.grad_edges, self.sum_bins)
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray) and not name.startswith("_"):
                setattr(self, name, _read_only(value))

    @cached_property
    def hessian_bins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray, int]:
        """The Hessian's terms, +K on the diagonal blocks in gradient order,
        then -K on both off-diagonal blocks of each edge between two interior
        vertices, as four entries (i, j) each, K[i, j] = (eye - u_i u_j) / L.
        Per entry: the entries of the flattened u it multiplies, eye, its
        edge and its flat bin in the 2n x 2n matrix; then the first entry of
        a term -K.  Built on the first hessian() call, which indexes through
        writeable twins of the four index arrays, kept as _hessian_index."""
        n = len(self.interior)
        pair = np.flatnonzero((self.sa >= 0) & (self.sb >= 0))
        a, b = self.sa[pair], self.sb[pair]
        # per term, for each of its four entries: the bin of its block's
        # entry (0, 0), (2 r) (2 n) + 2 c for block (r, c), and its edge
        corner = np.concatenate([(4 * n + 2) * self.grad_rows,
                                 4 * n * a + 2 * b, 4 * n * b + 2 * a]).repeat(4)
        edge = np.concatenate([self.grad_edges, pair, pair]).repeat(4)
        q = np.arange(len(edge))
        i, j = (q >> 1) & 1, q & 1  # entry (i, j): (0, 0), (0, 1), (1, 0), (1, 1)
        self._hessian_index = (2 * edge + i, 2 * edge + j, edge, corner + 2 * n * i + j)
        u_i, u_j, edge, bins = map(_read_only, self._hessian_index)
        return u_i, u_j, _read_only((i == j) * 1.0), edge, bins, 4 * len(self.grad_rows)

    @cached_property
    def search_plan(self) -> tuple[SubsetSums, tuple[int, ...], tuple[int, ...]]:
        """What the irreducibility search reads: the SubsetSums plan with
        each interior vertex as one group of its terms(), its vectors in the
        order of its edges in edge_order; each interior vertex's edges as a
        mask (inc); and each edge's interior ends as a mask (ends), the
        edges between two boundary vertices included.  Built on the first
        search."""
        if (self.degree > 16).any():  # over 2^16 subsets at a vertex: no verdict, as out of budget
            k = int(np.argmax(self.degree > 16))
            raise SearchBudgetExceeded(f"interior vertex {self.interior[k]!r} has degree "
                                       f"{self.degree[k]}, above the search's limit of 16")
        inc = [0] * len(self.degree)
        ends = [0] * len(self.ea)
        for v, k in zip(self.grad_rows.tolist(), self.grad_edges.tolist()):
            inc[v] |= 1 << k
            ends[k] |= 1 << v
        return SubsetSums(self.degree), tuple(inc), tuple(ends)

    def edges(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """b - a and its length, for every edge in edge_order."""
        d = pos.take(self._eb, axis=0) - pos.take(self._ea, axis=0)
        return d, _lengths(d)

    def terms(self, u: np.ndarray) -> np.ndarray:
        """Each interior vertex's unit vectors, by vertex and then by neighbour id."""
        return u.take(self._grad_edges, axis=0) * self.grad_sign[:, None]

    def sums(self, u: np.ndarray) -> np.ndarray:
        """s(v) at every vertex from the edges' unit vectors u, flattened
        (x0, y0, x1, ...) in ids order."""
        return np.bincount(self._sum_bins, np.concatenate((-u, u)).reshape(-1),
                           minlength=2 * len(self.ids))

    def imbalance(self, u: np.ndarray) -> np.ndarray:
        """s(v) for every interior vertex from the edges' unit vectors u."""
        return self.sums(u).take(self._free).reshape(-1, 2)

    def hessian(self, u: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Hessian of total length over the interior coordinates (x0, y0, x1, ...).

        Each entry of a term is formed as (eye - u_i u_j) / L from the entries
        of u and length that hessian_bins gathers, and negated for a term
        -K.  Every bin sums from 0.0, and an off-diagonal bin holds the one
        term -K.  A sum from 0.0 is never -0.0, so the matrix has no -0.0
        entry, which relax relies on when it adds lam to the diagonal alone."""
        _, _, eye, _, _, off_diagonal = self.hessian_bins
        u_i, u_j, edge, bins = self._hessian_index
        n2 = 2 * len(self.interior)
        weights = (eye - u.take(u_i) * u.take(u_j)) / length.take(edge)
        negated = weights[off_diagonal:]
        np.negative(negated, out=negated)
        return np.bincount(bins, weights, minlength=n2 * n2).reshape(n2, n2)

    def moved(self, pos: np.ndarray, step: np.ndarray) -> np.ndarray:
        """A copy of pos with the interior coordinates (x0, y0, x1, ...) moved by step."""
        trial = pos.copy()
        trial.put(self._free, pos.take(self._free) + step)
        return trial


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
        self.steps = tuple(
            (int(self.block[k]),
             _read_only((start[:1 << k, None] + np.arange(c)).ravel().astype(np.int32)),
             _read_only((first[:c] + k).astype(np.int32)))
            for k, c in enumerate(self.count.tolist()))
        self.order, self.count, self.block = map(_read_only, (self.order, self.count, self.block))

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


def total_report(net: EmbeddedNet) -> ImbalanceReport:
    """Imbalance of every interior vertex; boundary vertices are exempt.

    The net computes its report once, from its read-only coordinates, and
    keeps it for as long as it lives; each call returns a new report with
    its own per_vertex dict, so an edit to one changes no later call.
    """
    r = net._imbalance
    return ImbalanceReport(per_vertex=dict(r.per_vertex), total_loss=r.total_loss,
                           max_norm=r.max_norm)


def _imbalance_report(net: EmbeddedNet) -> ImbalanceReport:
    """total_report computed afresh from the interior rows of net._sums.
    Its norms, their math.fsum and max are relax's, so relax's verdicts agree."""
    layout = net.topology.layout
    s = net._sums.take(layout.order, axis=0)
    norms = _lengths(s)
    per = dict(zip(layout.interior, zip(map(tuple, s.tolist()), norms.tolist())))
    return ImbalanceReport(per_vertex=per, total_loss=math.fsum(norms.tolist()),
                           max_norm=float(norms.max(initial=0.0)))


@dataclass(frozen=True)
class OverlapFinding:
    kind: str  # "edges" or "vertices"
    items: tuple
    detail: str


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
    The net scans its read-only coordinates at the default once and keeps
    the findings for as long as it lives; each such call returns a new list
    of them.  An explicit tol_overlap always scans afresh.

    One numpy pass decides every finding.  It sorts and sweeps bounding
    boxes (Bentley and Ottmann 1979; Cohen et al., I-COLLIDE, 1995), each
    edge's and each vertex's grown by tol plus a slack of a few ulps of the
    largest coordinate, also at tol = 0.  Of the pairs whose boxes meet, an
    edge pair is a finding when the four point-line offsets are at most tol
    (tested in turn: a pair drops out at the first that fails) and its ends,
    projected onto the first edge's unit vector, overlap over more than tol;
    a vertex pair when it lies closer than tol (np.hypot).
    The boxes drop no finding: the edges of one lie within tol of each
    other's lines and overlap in projection, so a point of one lies within
    tol of the other, and two vertices closer than tol differ by less than
    tol in x and in y.
    Findings come in the order of the pairwise loop: edge pairs by sorted
    edge, then vertex pairs by sorted id.
    """
    if tol_overlap is None:
        return list(net._overlaps)
    if not (tol_overlap >= 0.0):
        raise ValueError(f"tol_overlap must be >= 0, got {tol_overlap}")
    return _scan_overlaps(net, tol_overlap)


def _scan_overlaps(net: EmbeddedNet, tol: float) -> list[OverlapFinding]:
    """detect_overlaps at tolerance tol, computed afresh."""
    edges, a, b = net.topology.edge_order
    ids = net.topology.ids
    x, y = net.xy.T
    pad = tol + 16.0 * np.finfo(np.float64).eps * np.abs(net.xy).max()
    ax, ay, bx, by = x[a], y[a], x[b], y[b]
    i, j = _sweep_pairs(np.minimum(ax, bx) - pad, np.maximum(ax, bx) + pad,
                        np.minimum(ay, by) - pad, np.maximum(ay, by) + pad)
    ux, uy = bx - ax, by - ay
    length = np.hypot(ux, uy)

    def near_line(k: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
        # point (tx, ty) lies within tol of the line of edge k, the offset
        # formed term by term as the test oracle _point_line_dist forms it
        cross = (tx - ax[k]) * uy[k] - (ty - ay[k]) * ux[k]
        return np.abs(cross) / length[k] <= tol

    # the four point-line tests in turn, each on the pairs that passed the ones
    # before: nearly every candidate fails the first
    for line_of_j, tx, ty in ((False, ax, ay), (False, bx, by), (True, ax, ay), (True, bx, by)):
        near = near_line(j, tx[i], ty[i]) if line_of_j else near_line(i, tx[j], ty[j])
        i, j = i[near], j[near]
        if not len(i):
            break
    findings: list[OverlapFinding] = []
    if len(i):
        # the four ends projected onto edge i's unit vector
        ex, ey = ux[i] / length[i], uy[i] / length[i]
        s1, s2 = ax[i] * ex + ay[i] * ey, bx[i] * ex + by[i] * ey
        t1, t2 = ax[j] * ex + ay[j] * ey, bx[j] * ex + by[j] * ey
        ov = (np.minimum(np.maximum(s1, s2), np.maximum(t1, t2))
              - np.maximum(np.minimum(s1, s2), np.minimum(t1, t2)))
        keep = ov > tol
        findings = [OverlapFinding("edges", (edges[i1], edges[i2]),
                                   f"collinear segments overlap over length {value:.6e}")
                    for i1, i2, value in sorted(zip(i[keep].tolist(), j[keep].tolist(),
                                                    ov[keep].tolist()))]
    i, j = _sweep_pairs(x - pad, x + pad, y - pad, y + pad)
    d = np.hypot(x[j] - x[i], y[j] - y[i])
    close = d < tol
    findings += [OverlapFinding("vertices", (ids[i1], ids[i2]), f"vertices {value:.6e} apart")
                 for i1, i2, value in sorted(zip(i[close].tolist(), j[close].tolist(),
                                                 d[close].tolist()))]
    return findings
