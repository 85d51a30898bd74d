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
from .builder import ConstructionResult
from .errors import InvariantViolation, SearchBudgetExceeded
from .geom import Point, circ_dist, dist, line_intersection, unit_toward
from .net import (
    BOUNDARY,
    INTERIOR,
    EmbeddedNet,
    NetTopology,
    OverlapFinding,
    PackedNet,
    SubsetSums,
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
    if not (tol >= 0.0):
        raise ValueError(f"tol must be >= 0, got {tol}")
    topo = net.topology
    report = total_report(net)
    offending = tuple(vid for vid in sorted(topo.interior_ids)
                      if report.per_vertex[vid][1] > tol)
    findings = tuple(detect_overlaps(net))
    degree_bad: list[str] = []
    for vid in sorted(topo.interior_ids):
        deg = topo.degree(vid)
        if deg >= 3:
            continue
        if deg == 2 and allow_collinear_degree2 and report.per_vertex[vid][1] <= tol:
            continue
        degree_bad.append(vid)
    return VerificationReport(
        balance_pass=not offending,
        offending_vertices=offending,
        max_imbalance=report.max_norm,
        overlap_pass=not findings,
        overlap_findings=findings,
        degree_pass=not degree_bad,
        degree_offenders=tuple(degree_bad),
    )


def balanced_subsets(dirs: list[Point], tol: float = DEFAULT_SUBSET_TOL) -> list[tuple[int, ...]]:
    """All index subsets of unit vectors summing to norm <= tol.

    The empty set always qualifies; singletons never do (a unit vector has
    norm one).  Subsets come ordered by size then lexicographically.  A tol
    below 0 or NaN, which would drop the empty set, raises ValueError.
    Each subset is summed in increasing index from 0.0, by the kernel the
    irreducibility search runs on every interior vertex at once.
    """
    if not (tol >= 0.0):
        raise ValueError(f"tol must be >= 0, got {tol}")
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


class _SubnetSearch:
    """Backtracking over retained-edge assignments with unit propagation.

    Seeds partition the space by the first excluded edge: seed s forces
    edges 0..s-1 retained and edge s dropped, so the full-edge-set solution
    is never visited and every proper subset is visited exactly once.

    Propagation is incremental.  Edge sets are integer bitmasks over edge
    ids: each interior vertex keeps its balanced subsets as masks, the
    retained and dropped edges are two masks, and the trail holds one mask
    per assignment step.  A propagation visits only the interior ends of
    the edges assigned since the last fixpoint, and the vertices whose
    edges it forces in turn.  The empty assignment is propagated once per
    search and the retained prefix 0..seed-1 grows with its consequences
    kept.  Unit propagation is monotone and
    confluent, so every fixpoint, and hence the search tree, is the one a
    rescan of all vertices reaches.
    """

    def __init__(self, net: EmbeddedNet, tol: float, budget: int) -> None:
        self.net = net
        self.tol = tol
        self.budget = budget
        self.nodes = 0
        self.seeds = 0
        topo = net.topology
        if topo.interior_ids and not (tol >= 0.0):  # as balanced_subsets rejects it
            raise ValueError(f"tol must be >= 0, got {tol}")
        self.edges = topo.edge_order.edges
        self.m = len(self.edges)
        self.full = (1 << self.m) - 1
        self.all_interior = (1 << len(topo.interior_ids)) - 1
        index = topo.search_index
        # per edge: the mask of its interior ends; per interior vertex: its
        # edge mask and its balanced subsets as edge masks, the empty one first
        self.ends, self.inc = index.ends, index.inc
        self.tables = [[0] for _ in self.inc]
        packed = PackedNet(net)
        d = packed.pos[packed.eb] - packed.pos[packed.ea]
        # unit vectors as unit_toward forms them (EmbeddedNet admits no edge
        # it would reject); terms() negates the b end's exactly
        length = np.array(list(map(math.hypot, *d.T.tolist())))
        vectors = packed.terms(d / length[:, None]).view(np.complex128).ravel()
        for v, subset in zip(*index.sums.balanced(vectors, tol)):
            self.tables[v].append(_edge_mask(self.inc[v], subset))
        self.ins = 0  # retained edges
        self.outs = 0  # dropped edges

    @property
    def assign(self) -> list[int]:
        """Per edge: 1 retained, 0 dropped, -1 unassigned."""
        return [1 if self.ins >> k & 1 else 0 if self.outs >> k & 1 else -1
                for k in range(self.m)]

    def _spend(self) -> None:
        self.nodes += 1
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

    def _component(self, retained: list[int]) -> list[int]:
        by_vertex: dict[str, list[int]] = {}
        for k in retained:
            a, b = self.edges[k]
            by_vertex.setdefault(a, []).append(k)
            by_vertex.setdefault(b, []).append(k)
        seen_edges: set[int] = set()
        stack = [self.edges[retained[0]][0]]
        seen_v = {stack[0]}
        while stack:
            v = stack.pop()
            for k in by_vertex.get(v, ()):
                seen_edges.add(k)
                for w in self.edges[k]:
                    if w not in seen_v:
                        seen_v.add(w)
                        stack.append(w)
        return sorted(seen_edges)

    def _witness(self, retained: list[int]) -> Subnet:
        comp = self._component(retained)
        verts: dict[str, tuple[float, float]] = {}
        adj: dict[str, list[str]] = {}
        for k in comp:
            a, b = self.edges[k]
            for v in (a, b):
                verts.setdefault(v, self.net.positions[v])
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        eps = self.net.eps_deg
        unbalanced: list[str] = []
        for vid in sorted(verts):
            sx = 0.0
            sy = 0.0
            for w in adj[vid]:
                ux, uy = unit_toward(verts[vid], verts[w], eps)
                sx += ux
                sy += uy
            if math.sqrt(sx * sx + sy * sy) > self.tol:
                unbalanced.append(vid)
        return Subnet(tuple(self.edges[k] for k in comp), tuple(unbalanced))

    def search(self, cap: int | None = None) -> Subnet | None:
        """First witness under the cap, or None; leaves every edge unassigned."""
        trail: list[int] = []
        try:
            # drops every edge that no balanced subset at its ends contains
            self._propagate(trail, todo=self.all_interior)
            prefix = len(trail)  # trail[:prefix]: edges 0..seed-1 retained, propagated
            prefix_ok = True
            for seed in range(self.m):
                if cap is not None and seed > cap:
                    break
                self._spend()
                self.seeds += 1
                if not prefix_ok:
                    continue  # every extension of a conflicting prefix conflicts
                if self._set(seed, 0, trail) and self._propagate(trail, prefix):
                    found = self._branch(trail, cap)
                    if found is not None:
                        return found
                self._undo(trail, prefix)
                prefix_ok = self._set(seed, 1, trail) and self._propagate(trail, prefix)
                prefix = len(trail)
            return None
        finally:
            self._undo(trail, 0)

    def _branch(self, trail: list[int], cap: int | None) -> Subnet | None:
        if cap is not None and self.ins.bit_count() > cap:
            return None
        free = self.full & ~(self.ins | self.outs)
        if not free:
            if not self.ins:
                return None
            return self._witness([k for k in range(self.m) if self.ins >> k & 1])
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
    A tol below 0 or NaN raises ValueError on a net with an interior vertex,
    as balanced_subsets does.
    Logs the node and seed counts at DEBUG on "geonets.verify".
    """
    search = _SubnetSearch(net, tol, budget)
    witness = search.search()
    ladder = None
    if witness is not None and minimal:
        # a cap only prunes the tree, so the uncapped search decides the
        # verdict and the ladder runs only to shrink an existing witness
        for ladder in range(1, search.m):
            capped = search.search(ladder)
            if capped is not None:
                witness = capped
                break
    _log.debug("is_irreducible: %d edges, %d nodes, %d seeds, cap ladder %s, verdict %s",
               search.m, search.nodes, search.seeds,
               "not run" if ladder is None else f"stopped at cap {ladder}",
               IRR_YES if witness is None else IRR_NO)
    if witness is None:
        return IRR_YES, None
    return IRR_NO, witness


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
    topo = NetTopology(vertices, frozenset(witness.edges), allow_degree2=True)
    return EmbeddedNet(topo, {vid: net.positions[vid] for vid, _ in vertices})


def _angle_at(v: Point, p: Point, q: Point) -> float:
    a1 = math.atan2(p[1] - v[1], p[0] - v[0])
    a2 = math.atan2(q[1] - v[1], q[0] - v[0])
    t = (a2 - a1) % (2.0 * math.pi)
    return min(t, 2.0 * math.pi - t)


def _project(p: Point, a: Point, b: Point) -> Point:
    ux, uy = b[0] - a[0], b[1] - a[1]
    n2 = ux * ux + uy * uy
    t = ((p[0] - a[0]) * ux + (p[1] - a[1]) * uy) / n2
    return (a[0] + t * ux, a[1] + t * uy)


def check_lemmas(result: ConstructionResult, sol: AngleSolution) -> LemmaReport:
    """Evaluate the construction's proved identities on actual coordinates.

    Uses only vertex positions, so it applies to any net carrying the
    canonical 29 labels, not just a freshly built one.
    """
    P = result.landmarks
    alpha, beta = sol.alpha, sol.beta
    nxt = {1: 2, 2: 3, 3: 4, 4: 1}
    prv = {1: 4, 2: 1, 3: 2, 4: 3}

    # (a) the larger angle at a_i1 between the c_i edge and the ring edge
    reflex_dev = 0.0
    for i in (1, 2, 3, 4):
        inner = _angle_at(P[f"a{i}1"], P[f"c{i}"], P[f"a{i}2"])
        reflex_dev = max(reflex_dev, abs((2.0 * math.pi - inner) - alpha))

    # (b) corner triangles c_i d_i d_(i-1): spread apex, no angle reaching 2pi/3
    tri_max = 0.0
    apex_min = math.inf
    for i in (1, 2, 3, 4):
        c, di, dj = P[f"c{i}"], P[f"d{i}"], P[f"d{prv[i]}"]
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
    a22p = line_intersection(d2, a22, a31, a12)
    a21p = line_intersection(d2, a21, a31, a12)
    a31p = line_intersection(a22, a21, a31, d2)
    a12p = line_intersection(a22, a21, a12, d2)
    a22pp = _project(a22, a31, a12)
    a31pp = _project(a31p, a31, a12)

    ang_c = math.atan2(c2[1] - a21[1], c2[0] - a21[0])
    ang_a = math.atan2(a22[1] - a21[1], a22[0] - a21[0])
    th = (ang_c - ang_a) % (2.0 * math.pi)
    alpha_meas = th if th > math.pi else 2.0 * math.pi - th

    cot = lambda x: 1.0 / math.tan(x)
    r6 = math.sqrt(6.0)
    long_side = side_long(alpha, beta)
    side = dist(a21p, a22p)
    eq = (
        abs(dist(a31p, a22) / dist(a31, a22p) - dist(a21, a22) / side),
        abs(dist(a21, a22)
            - r6 * (1.0 - math.tan(alpha)) / (math.tan(alpha) * math.tan(beta) - 1.0)),
        abs(side - (long_side + r6 * cot(beta))),
        abs(dist(a31, a22p) - 0.5 * r6 * (1.0 - cot(beta))),
        abs(dist(a31p, a22) - 0.5 * r6 * (1.0 - cot(1.5 * math.pi - alpha_meas))),
    )
    m_dev = abs(dist(a22pp, a22p) - 0.5 * r6 * cot(beta))
    n_dev = abs(dist(a31, a31pp) - 0.5 * r6 * cot(1.5 * math.pi - alpha_meas))
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
