"""Balance, overlap, angle-identity, and irreducibility verification.

A net is verified structurally (interior degrees, overlaps) and metrically
(every interior vertex balanced within tol).  Irreducibility is decided by
an exhaustive backtracking search for a proper nonempty edge subset that
stays balanced at every interior vertex it touches; finding one yields a
witness subnet, exhausting the space proves there is none.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .angles import AngleSolution, side_long
from .builder import ConstructionResult, _family_ids, _prev
from .errors import (DegenerateConfiguration, DegenerateEdge, IdMismatch, InvariantViolation,
                     ParallelLines, SearchBudgetExceeded)
from .geom import Point, circ_dist, dist, line_intersection
from .net import (
    BOUNDARY,
    INTERIOR,
    EmbeddedNet,
    NetTopology,
    OverlapFinding,
    SubsetSums,
    _reached,
    canonical_edge,
    detect_overlaps,
    total_report,
)

_log = logging.getLogger(__name__)

IRR_YES = "yes"
IRR_NO = "no"
IRR_NOT_CHECKED = "not_checked"

DEFAULT_SUBSET_TOL = 1e-7
DEFAULT_SEARCH_BUDGET = 100_000_000


def _check_tol(tol: float) -> None:
    if not (tol >= 0.0):  # nothing meets a tol below 0, and everything would meet NaN
        raise ValueError(f"tol must be >= 0, got {tol}")


@dataclass(frozen=True)
class Subnet:
    """A proper subnet: retained edges plus the vertices left unbalanced."""

    edges: tuple[tuple[str, str], ...]
    boundary: tuple[str, ...]

    def vertex_ids(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for a, b in self.edges:
            seen.add(a)
            seen.add(b)
        return tuple(sorted(seen))


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    max_deviation: float


@dataclass(frozen=True)
class LemmaReport:
    """Numeric residuals of the construction's angle and length identities.

    All deviations are absolute values; crossing_margin is the slack of the
    strict inequality d(c_i, p) > d(b_i, p) and must be positive.
    """

    reflex_angle_deviation: float
    corner_triangle_max_angle: float
    corner_triangle_min_apex: float
    direction_multiset: tuple[float, ...]
    direction_multiset_deviation: float
    distance_identity_deviations: tuple[float, float, float, float, float]
    m_deviation: float
    n_deviation: float
    diagonal_deviation: float
    crossing_margin: float
    aux_points: dict[str, Point] = field(repr=False, default_factory=dict)

    def checks(self, tol: float = 1e-9) -> tuple[LemmaCheck, ...]:
        two_thirds = 2.0 * math.pi / 3.0
        items = [
            LemmaCheck("reflex_angle", self.reflex_angle_deviation < tol,
                       self.reflex_angle_deviation),
            LemmaCheck("corner_triangles",
                       self.corner_triangle_max_angle < two_thirds
                       and self.corner_triangle_min_apex > math.pi / 2.0,
                       max(0.0, self.corner_triangle_max_angle - two_thirds,
                           math.pi / 2.0 - self.corner_triangle_min_apex)),
            LemmaCheck("direction_multiset",
                       self.direction_multiset_deviation < tol,
                       self.direction_multiset_deviation),
            LemmaCheck("distance_identities",
                       max(self.distance_identity_deviations) < tol
                       and self.m_deviation < tol and self.n_deviation < tol
                       and self.diagonal_deviation < tol,
                       max(*self.distance_identity_deviations, self.m_deviation,
                           self.n_deviation, self.diagonal_deviation)),
            LemmaCheck("crossing_beyond_corner", self.crossing_margin > 0.0,
                       max(0.0, -self.crossing_margin)),
        ]
        return tuple(items)


@dataclass(frozen=True)
class VerificationReport:
    balance_pass: bool
    offending_vertices: tuple[str, ...]
    max_imbalance: float
    overlap_pass: bool
    overlap_findings: tuple[OverlapFinding, ...]
    degree_pass: bool
    degree_offenders: tuple[str, ...]
    lemma_checks: tuple[LemmaCheck, ...] = ()
    irreducible: str = IRR_NOT_CHECKED
    witness: Subnet | None = None

    @property
    def all_pass(self) -> bool:
        return (self.balance_pass and self.overlap_pass and self.degree_pass
                and all(c.passed for c in self.lemma_checks)
                and self.irreducible != IRR_NO)


def verify_geodesic_net(net: EmbeddedNet, tol: float = 1e-9, *,
                        allow_collinear_degree2: bool = False) -> VerificationReport:
    """Check balance, overlaps, and interior degrees.

    allow_collinear_degree2 admits interior vertices of degree two whose
    edges balance (i.e. form a straight line); subnet witnesses need this.
    Raises ValueError for a tol below 0, which no net meets, or NaN, which
    every net would meet; any other tol yields a report.
    """
    _check_tol(tol)
    topo = net.topology
    report = total_report(net)
    offending = tuple(vid for vid in topo.interior_ids if report.per_vertex[vid][1] > tol)
    findings = tuple(detect_overlaps(net))
    degree_bad = tuple(vid for vid, deg in zip(topo.interior_ids, topo.layout.degree.tolist())
                       if deg < 3 and not (deg == 2 and allow_collinear_degree2
                                           and report.per_vertex[vid][1] <= tol))
    return VerificationReport(
        balance_pass=not offending,
        offending_vertices=offending,
        max_imbalance=report.max_norm,
        overlap_pass=not findings,
        overlap_findings=findings,
        degree_pass=not degree_bad,
        degree_offenders=degree_bad,
    )


def balanced_subsets(dirs: list[Point], tol: float = DEFAULT_SUBSET_TOL) -> list[tuple[int, ...]]:
    """All index subsets of unit vectors summing to norm <= tol.

    The empty set always qualifies; singletons never do (a unit vector has
    norm one).  Subsets come ordered by size then lexicographically.  A tol
    below 0 or NaN, which would drop the empty set, raises ValueError.
    Each subset is summed in increasing index from 0.0, by the kernel the
    irreducibility search runs on every interior vertex at once.
    """
    _check_tol(tol)
    n = len(dirs)
    if not 1 <= n <= 16:
        raise ValueError(f"need between 1 and 16 directions, got {n}")
    sums = SubsetSums(np.array([n]))
    vectors = np.array(dirs, dtype=np.float64).reshape(n, 2).view(np.complex128).ravel()
    _, subsets = sums.balanced(vectors, tol)
    combos = [tuple(k for k in range(n) if subset >> k & 1) for subset in subsets]
    return [()] + sorted(combos, key=lambda combo: (len(combo), combo))


def _edge_mask(inc: int, subset: int) -> int:
    """The edges that subset picks of a vertex's edge mask inc: bit i of
    subset picks the i-th lowest edge."""
    if subset + 1 == 1 << inc.bit_count():
        return inc
    mask = 0
    while subset:
        low = inc & -inc
        if subset & 1:
            mask |= low
        inc ^= low
        subset >>= 1
    return mask


def _search_tables(net: EmbeddedNet, tol: float) -> tuple:
    """inc, ends and tables of a net at tol over edge_order's ids, and the unit vectors
    they come from, which the witness sums.  A tol below 0 or NaN raises ValueError with
    an interior vertex, and only then a degree above 16 raises SearchBudgetExceeded."""
    topo = net.topology
    if topo.interior_ids:  # as balanced_subsets rejects it
        _check_tol(tol)
    layout = topo.layout
    sums, inc, ends = layout.search_plan
    tables = [[0] for _ in inc]
    d = net.xy[topo.edge_order.b] - net.xy[topo.edge_order.a]
    # each edge's unit vector as unit_toward forms it (EmbeddedNet admits no
    # zero-length edge); terms() negates the b end's exactly
    unit = d / np.array(list(map(math.hypot, *d.T.tolist())))[:, None]
    vectors = layout.terms(unit[layout.inner]).view(np.complex128).ravel()
    for v, subset in zip(*sums.balanced(vectors, tol)):
        tables[v].append(_edge_mask(inc[v], subset))
    return inc, ends, tables, unit


class _TableSearch:
    """Backtracking over retained-edge assignments with unit propagation on
    integer bitmasks alone: inc[v] holds interior vertex v's edges, tables[v]
    its balanced subsets (the empty one first), ends[k] edge k's interior ends.

    Seeds partition the space by the first excluded edge: seed s forces
    edges 0..s-1 retained and edge s dropped, so the full-edge-set solution
    is never visited and every proper subset is visited exactly once.

    Propagation is incremental.  The retained and dropped edges are two
    masks, and the trail holds one mask per assignment step.  A propagation
    visits only the interior ends of the edges assigned since the last
    fixpoint, and the vertices whose edges it forces in turn.  The retained
    prefix 0..seed-1 grows with its consequences kept.  Unit propagation is
    monotone and confluent, so every fixpoint, and hence the search tree,
    is the one a rescan of all vertices reaches.
    """

    def __init__(self, inc: tuple[int, ...], ends: tuple[int, ...], tables: list[list[int]],
                 budget: int) -> None:
        self.inc, self.ends, self.tables, self.budget = inc, ends, tables, budget
        self.nodes = self.seeds = 0
        self.m = len(ends)
        self.full = (1 << self.m) - 1
        self.ins = self.outs = 0  # the retained and the dropped edges

    def _spend(self, count: int = 1) -> None:
        self.nodes += count
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(
                f"irreducibility search exceeded {self.budget} nodes")

    def _set(self, k: int, val: int, trail: list[int]) -> bool:
        bit = 1 << k
        if (self.ins | self.outs) & bit:
            return bool((self.ins if val else self.outs) & bit)
        if val:
            self.ins |= bit
        else:
            self.outs |= bit
        trail.append(bit)
        return True

    def _undo(self, trail: list[int], mark: int) -> None:
        gone = 0
        for bits in trail[mark:]:
            gone |= bits
        del trail[mark:]
        self.ins &= ~gone
        self.outs &= ~gone

    def _ends_of(self, edges: int) -> int:
        """The mask of the interior ends of the edges in a mask."""
        ends = 0
        while edges:
            low = edges & -edges
            ends |= self.ends[low.bit_length() - 1]
            edges ^= low
        return ends

    def _propagate(self, trail: list[int], start: int = 0, todo: int = 0) -> bool:
        """Unit propagation from the edges assigned at trail[start:] and the
        interior vertices in the todo mask; False at the first vertex left
        with no viable subset."""
        for edges in trail[start:]:
            todo |= self._ends_of(edges)
        ins, outs = self.ins, self.outs
        incs, tables = self.inc, self.tables
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            inc = incs[v]
            vin = ins & inc
            vout = outs & inc
            meet = inc  # intersection of the viable subsets
            join = 0  # their union
            for s in tables[v]:
                if not (s & vout or vin & ~s):
                    meet &= s
                    join |= s
            # meet <= join when a subset is viable; with none, vin is not
            # empty (the empty subset is always in the table) and meet is inc
            if meet & ~join:
                self.ins, self.outs = ins, outs
                return False
            new_in = meet & ~vin
            new_out = inc & ~join & ~vout
            if new_in | new_out:
                ins |= new_in
                outs |= new_out
                trail.append(new_in | new_out)
                todo |= self._ends_of(new_in | new_out) & ~low
        self.ins, self.outs = ins, outs
        return True

    def search(self, cap: int | None = None) -> int | None:
        """The retained-edge mask of the first witness under the cap, or
        None; leaves every edge unassigned."""
        trail: list[int] = []
        end = self.m if cap is None else min(self.m, cap + 1)  # seeds 0..end-1
        try:
            # drop at once every edge no balanced subset at its ends holds; nothing is retained,
            # so no vertex conflicts, and only one left with dropped and free edges forces more
            dead = 0
            for inc, table in zip(self.inc, self.tables):
                join = 0
                for s in table:
                    join |= s
                dead |= inc & ~join
            self.outs = dead
            trail.append(dead)
            todo = 0
            for v, inc in enumerate(self.inc):
                if inc & dead and inc & ~dead:
                    todo |= 1 << v
            self._propagate(trail, 1, todo)
            prefix = len(trail)  # trail[:prefix]: edges 0..seed-1 retained, propagated
            seed = 0
            while seed < end:
                # the seeds whose edges the prefix retains close at once:
                # dropping the edge clashes, and retaining it changes nothing
                held = self.ins >> seed
                closed = min((~held & (held + 1)).bit_length() - 1, end - seed)
                if closed:
                    self._count_seeds(closed)
                    seed += closed
                    continue
                self._count_seeds(1)
                if self._set(seed, 0, trail) and self._propagate(trail, prefix):
                    found = self._branch(trail, cap)
                    if found is not None:
                        return found
                self._undo(trail, prefix)
                if not (self._set(seed, 1, trail) and self._propagate(trail, prefix)):
                    # every extension of a conflicting prefix conflicts
                    self._count_seeds(end - seed - 1)
                    return None
                prefix = len(trail)
                seed += 1
            return None
        finally:
            self._undo(trail, 0)

    def _count_seeds(self, run: int) -> None:
        """Count a run of seeds, one node each."""
        self._spend(run)
        self.seeds += run

    def _branch(self, trail: list[int], cap: int | None) -> int | None:
        if cap is not None and self.ins.bit_count() > cap:
            return None
        free = self.full & ~(self.ins | self.outs)
        if not free:
            return self.ins or None
        k = (free & -free).bit_length() - 1
        for val in (1, 0):
            self._spend()
            mark = len(trail)
            self._set(k, val, trail)
            if self._propagate(trail, mark):
                found = self._branch(trail, cap)
                if found is not None:
                    return found
            self._undo(trail, mark)
        return None


def _witness(net: EmbeddedNet, unit: np.ndarray, tol: float, retained: int) -> Subnet:
    """The edges of the retained mask joined to the first one's a end, in
    order, and the vertices they leave unbalanced, in id order: each reached
    vertex whose norm is not at most tol, so a NaN tol lists them all, as
    tol -1 does.  Every vertex sums its terms of unit as SubsetSums did for
    the tables, so an interior vertex left unbalanced is a fault of the
    search: InvariantViolation."""
    topo, order = net.topology, net.topology.edge_order
    kept = [k for k in range(len(unit)) if retained >> k & 1]
    a, b = order.a[kept], order.b[kept]
    seen = _reached(len(topo.ids), a, b, int(a[0]))
    comp = [k for k, v in zip(kept, a.tolist()) if seen[v]]
    # -u at each b end, then +u at each a end: a vertex's edges (w, v), w < v,
    # sort before its edges (v, w'), so it sums its terms in edge order from 0.0
    ends = np.concatenate((order.b[comp], order.a[comp]))
    u = unit[comp]
    sx, sy = (np.bincount(ends, w, minlength=len(seen)) for w in np.concatenate((-u, u)).T)
    norm = np.sqrt(sx * sx + sy * sy)
    unbalanced = [v for v in np.flatnonzero(~(norm <= tol)).tolist() if seen[v]]
    for v in unbalanced:
        if topo.vertices[v][1] == INTERIOR:
            raise InvariantViolation(f"witness leaves interior vertex {topo.ids[v]!r} "
                                     f"unbalanced: norm {norm[v]:.3e} above tol {tol}")
    return Subnet(tuple(order.edges[k] for k in comp), tuple(topo.ids[v] for v in unbalanced))


def is_irreducible(net: EmbeddedNet, tol: float = DEFAULT_SUBSET_TOL, *,
                   budget: int = DEFAULT_SEARCH_BUDGET,
                   minimal: bool = False) -> tuple[str, Subnet | None]:
    """Decide whether any proper nonempty balanced edge subset exists.

    Returns ("no", witness) with the first witness found, or ("yes", None)
    after exhausting the space.  With minimal=True and a witness found, the
    search re-runs under increasing edge-count caps so the returned witness
    has minimum size; a net without one is proved irreducible by the single
    uncapped search.  Raises SearchBudgetExceeded when the node budget runs
    out, which is a distinct outcome from both verdicts; with minimal=True
    the budget covers the uncapped search and the cap ladder together.
    It also raises SearchBudgetExceeded, before any search, on a net with
    an interior vertex of degree above 16.
    A tol below 0 or NaN raises ValueError on a net with an interior vertex,
    as balanced_subsets does.
    A witness is re-summed from the search's own unit vectors: one that
    leaves an interior vertex unbalanced raises InvariantViolation and is
    never returned.
    Logs the node and seed counts at DEBUG on "geonets.verify".  A run of
    seeds that the retained prefix already decides closes in one step, yet
    each of its seeds still counts one node and one seed, so the counts and
    the budget read as they did when the search closed seeds one by one.
    """
    inc, ends, tables, unit = _search_tables(net, tol)
    search = _TableSearch(inc, ends, tables, budget)
    retained = search.search()
    ladder = None
    if retained is not None and minimal:
        # a cap only prunes the tree, so the uncapped search decides the
        # verdict and the ladder runs only to shrink an existing witness
        for ladder in range(1, search.m):
            capped = search.search(ladder)
            if capped is not None:
                retained = capped
                break
    witness = None if retained is None else _witness(net, unit, tol, retained)
    verdict = IRR_YES if witness is None else IRR_NO
    _log.debug("is_irreducible: %d edges, %d nodes, %d seeds, cap ladder %s, verdict %s",
               search.m, search.nodes, search.seeds,
               "not run" if ladder is None else f"stopped at cap {ladder}", verdict)
    return verdict, witness


def witness_net(net: EmbeddedNet, witness: Subnet) -> EmbeddedNet:
    """Re-embed a witness as its own net, boundary = its unbalanced vertices.
    Raises InvariantViolation for an edge the net lacks or a boundary id off
    the witness's edges, naming the first in sorted order."""
    ids, boundary = witness.vertex_ids(), set(witness.boundary)
    stray = sorted({canonical_edge(a, b) for a, b in witness.edges} - net.topology.edges)
    loose = sorted(boundary - set(ids))
    if stray:
        raise InvariantViolation(f"witness edge {stray[0]!r} is not an edge of the net")
    if loose:
        raise InvariantViolation(f"witness boundary vertex {loose[0]!r} is not on its edges")
    vertices = tuple((vid, BOUNDARY if vid in boundary else INTERIOR) for vid in ids)
    topo = NetTopology(vertices, witness.edges, allow_degree2=True)
    return EmbeddedNet(topo, {vid: net.positions[vid] for vid, _ in vertices})


def _angle_at(v: Point, p: Point, q: Point) -> float:
    return circ_dist(math.atan2(p[1] - v[1], p[0] - v[0]), math.atan2(q[1] - v[1], q[0] - v[0]))


def _project(p: Point, a: Point, b: Point) -> Point:
    ux, uy = b[0] - a[0], b[1] - a[1]
    n2 = ux * ux + uy * uy
    if n2 == 0.0:
        raise DegenerateEdge("the line to project onto has zero length")
    t = ((p[0] - a[0]) * ux + (p[1] - a[1]) * uy) / n2
    return (a[0] + t * ux, a[1] + t * uy)


def _aux_point(name: str, make, *points: Point) -> Point:
    """make(*points), or DegenerateConfiguration naming the auxiliary point
    that the lines through points fail to define."""
    try:
        return make(*points)
    except (DegenerateEdge, ParallelLines) as exc:
        raise DegenerateConfiguration(f"lemma auxiliary point {name} is undefined: {exc}") from None


def _nonzero(value: float, what: str) -> float:
    """value, a divisor of the identities, or DegenerateConfiguration when it is zero."""
    if value == 0.0:
        raise DegenerateConfiguration(f"lemma divisor is zero: {what}")
    return value


def check_lemmas(result: ConstructionResult, sol: AngleSolution) -> LemmaReport:
    """Evaluate the construction's proved identities on actual coordinates.

    Uses only vertex positions, so it applies to any net carrying the
    canonical 29 labels, not just a freshly built one.  Where those positions
    leave an auxiliary point undefined, or a divisor of the identities zero,
    it raises DegenerateConfiguration naming it, and where a canonical label
    is missing, IdMismatch naming the first in sorted order.
    """
    P = result.landmarks
    missing = sorted(set(_family_ids(3)[2]) - set(P))
    if missing:
        raise IdMismatch(f"check_lemmas needs the canonical labels; {missing[0]!r} is missing")
    alpha, beta = sol.alpha, sol.beta

    # (a) the larger angle at a_i1 between the c_i edge and the ring edge
    reflex_dev = 0.0
    for i in (1, 2, 3, 4):
        inner = _angle_at(P[f"a{i}1"], P[f"c{i}"], P[f"a{i}2"])
        reflex_dev = max(reflex_dev, abs((2.0 * math.pi - inner) - alpha))

    # (b) corner triangles c_i d_i d_(i-1): spread apex, no angle reaching 2pi/3
    tri_max = 0.0
    apex_min = math.inf
    for i in (1, 2, 3, 4):
        c, di, dj = P[f"c{i}"], P[f"d{i}"], P[f"d{_prev(i)}"]
        apex = _angle_at(c, di, dj)
        tri_max = max(tri_max, apex, _angle_at(di, c, dj), _angle_at(dj, c, di))
        apex_min = min(apex_min, apex)

    # (c) edge directions at a32 measured from the a31 edge
    a32 = P["a32"]
    ref = math.atan2(P["a31"][1] - a32[1], P["a31"][0] - a32[0])
    measured = []
    for other in ("a31", "d3", "c4", "b4", "f3"):
        th = math.atan2(P[other][1] - a32[1], P[other][0] - a32[0])
        measured.append((th - ref) % (2.0 * math.pi))
    expected = [0.0, beta, alpha, 13.0 * math.pi / 12.0, 11.0 * math.pi / 6.0]
    remaining = list(measured)
    multiset_dev = 0.0
    for want in expected:
        j = min(range(len(remaining)), key=lambda k: circ_dist(remaining[k], want))
        multiset_dev = max(multiset_dev, circ_dist(remaining[j], want))
        remaining.pop(j)

    # (d) distance identities at the canonical corner, with the auxiliary
    # crossing points and foot-of-perpendicular lengths M and N
    a12, a21, a22, a31 = P["a12"], P["a21"], P["a22"], P["a31"]
    d2, c2 = P["d2"], P["c2"]
    a22p = _aux_point("a22p", line_intersection, d2, a22, a31, a12)
    a21p = _aux_point("a21p", line_intersection, d2, a21, a31, a12)
    a31p = _aux_point("a31p", line_intersection, a22, a21, a31, d2)
    a12p = _aux_point("a12p", line_intersection, a22, a21, a12, d2)
    a22pp = _aux_point("a22pp", _project, a22, a31, a12)
    a31pp = _aux_point("a31pp", _project, a31p, a31, a12)

    ang_c = math.atan2(c2[1] - a21[1], c2[0] - a21[0])
    ang_a = math.atan2(a22[1] - a21[1], a22[0] - a21[0])
    th = (ang_c - ang_a) % (2.0 * math.pi)
    alpha_meas = th if th > math.pi else 2.0 * math.pi - th

    cot_beta = 1.0 / _nonzero(math.tan(beta), "tan(beta)")
    cot_meas = 1.0 / _nonzero(math.tan(1.5 * math.pi - alpha_meas),
                              "tan(3pi/2 - the angle at a21 from a22 to c2)")
    r6 = math.sqrt(6.0)
    long_side = side_long(alpha, beta)
    side = dist(a21p, a22p)
    eq = (
        abs(dist(a31p, a22) / _nonzero(dist(a31, a22p), "a22p coincides with a31")
            - dist(a21, a22) / _nonzero(side, "a21p coincides with a22p")),
        abs(dist(a21, a22)
            - r6 * (1.0 - math.tan(alpha)) / (math.tan(alpha) * math.tan(beta) - 1.0)),
        abs(side - (long_side + r6 * cot_beta)),
        abs(dist(a31, a22p) - 0.5 * r6 * (1.0 - cot_beta)),
        abs(dist(a31p, a22) - 0.5 * r6 * (1.0 - cot_meas)),
    )
    m_dev = abs(dist(a22pp, a22p) - 0.5 * r6 * cot_beta)
    n_dev = abs(dist(a31, a31pp) - 0.5 * r6 * cot_meas)
    diag_dev = abs(dist(a31, a22) - math.sqrt(3.0))

    # (e) each corner crossing lies strictly beyond the corner vertex
    p = P["p"]
    margin = min(dist(P[f"c{i}"], p) - dist(P[f"b{i}"], p) for i in (1, 2, 3, 4))

    return LemmaReport(
        reflex_angle_deviation=reflex_dev,
        corner_triangle_max_angle=tri_max,
        corner_triangle_min_apex=apex_min,
        direction_multiset=tuple(sorted(measured)),
        direction_multiset_deviation=multiset_dev,
        distance_identity_deviations=eq,
        m_deviation=m_dev,
        n_deviation=n_dev,
        diagonal_deviation=diag_dev,
        crossing_margin=margin,
        aux_points={"a22p": a22p, "a21p": a21p, "a31p": a31p, "a12p": a12p,
                    "a22pp": a22pp, "a31pp": a31pp},
    )
