"""Balance, overlap, angle-identity, and irreducibility verification.

A net is verified structurally (interior degrees, overlaps) and metrically
(every interior vertex balanced within tol).  Irreducibility is decided by
an exhaustive backtracking search for a proper nonempty edge subset that
stays balanced at every interior vertex it touches; finding one yields a
witness subnet, exhausting the space proves there is none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .angles import AngleSolution, side_long
from .builder import ConstructionResult
from .errors import SearchBudgetExceeded
from .geom import Point, dist, line_intersection, unit_toward
from .net import (
    BOUNDARY,
    INTERIOR,
    EmbeddedNet,
    NetTopology,
    OverlapFinding,
    detect_overlaps,
    total_report,
)

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
    """Check balance, overlaps, and interior degrees; never raises.

    allow_collinear_degree2 admits interior vertices of degree two whose
    edges balance (i.e. form a straight line); subnet witnesses need this.
    """
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
    norm one).  Subsets come ordered by size then lexicographically.
    """
    n = len(dirs)
    if not 1 <= n <= 16:
        raise ValueError(f"need between 1 and 16 directions, got {n}")
    out: list[tuple[int, ...]] = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if size == 1:
                continue
            sx = 0.0
            sy = 0.0
            for k in combo:
                sx += dirs[k][0]
                sy += dirs[k][1]
            if math.sqrt(sx * sx + sy * sy) <= tol:
                out.append(combo)
    return out


class _SubnetSearch:
    """Backtracking over retained-edge assignments with unit propagation.

    Seeds partition the space by the first excluded edge: seed s forces
    edges 0..s-1 retained and edge s dropped, so the full-edge-set solution
    is never visited and every proper subset is visited exactly once.
    """

    def __init__(self, net: EmbeddedNet, tol: float, budget: int) -> None:
        self.net = net
        self.tol = tol
        self.budget = budget
        self.nodes = 0
        self.eps = net.eps_deg  # one bounding-box scan per search, not per edge
        topo = net.topology
        self.edges = sorted(topo.edges)
        self.m = len(self.edges)
        self.incident: dict[str, list[int]] = {vid: [] for vid in topo.ids}
        for k, (a, b) in enumerate(self.edges):
            self.incident[a].append(k)
            self.incident[b].append(k)
        self.tables: dict[str, list[frozenset[int]]] = {}
        for vid in topo.interior_ids:
            inc = self.incident[vid]
            dirs = [unit_toward(net.positions[vid],
                                net.positions[self._other(k, vid)], self.eps)
                    for k in inc]
            subs = balanced_subsets(dirs, tol)
            self.tables[vid] = [frozenset(inc[j] for j in combo) for combo in subs]
        self.assign = [-1] * self.m

    def _other(self, k: int, vid: str) -> str:
        a, b = self.edges[k]
        return b if a == vid else a

    def _spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(
                f"irreducibility search exceeded {self.budget} nodes")

    def _set(self, k: int, val: int, trail: list[int]) -> bool:
        cur = self.assign[k]
        if cur != -1:
            return cur == val
        self.assign[k] = val
        trail.append(k)
        return True

    def _undo(self, trail: list[int], mark: int) -> None:
        while len(trail) > mark:
            self.assign[trail.pop()] = -1

    def _propagate(self, trail: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for vid, cands in self.tables.items():
                inc = self.incident[vid]
                ins = frozenset(k for k in inc if self.assign[k] == 1)
                outs = frozenset(k for k in inc if self.assign[k] == 0)
                viable = [S for S in cands if outs.isdisjoint(S) and ins <= S]
                if not viable:
                    return False
                forced_in = frozenset.intersection(*viable)
                forced_out = frozenset(inc) - frozenset.union(*viable)
                for k in forced_in - ins:
                    if not self._set(k, 1, trail):
                        return False
                    changed = True
                for k in forced_out - outs:
                    if not self._set(k, 0, trail):
                        return False
                    changed = True
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
        unbalanced: list[str] = []
        for vid in sorted(verts):
            sx = 0.0
            sy = 0.0
            for w in adj[vid]:
                ux, uy = unit_toward(verts[vid], verts[w], self.eps)
                sx += ux
                sy += uy
            if math.sqrt(sx * sx + sy * sy) > self.tol:
                unbalanced.append(vid)
        return Subnet(tuple(self.edges[k] for k in comp), tuple(unbalanced))

    def search(self, cap: int | None = None) -> Subnet | None:
        for seed in range(self.m):
            if cap is not None and seed > cap:
                break
            self._spend()
            trail: list[int] = []
            ok = self._set(seed, 0, trail)
            for k in range(seed):
                ok = ok and self._set(k, 1, trail)
            if ok and self._propagate(trail):
                found = self._branch(trail, cap)
                if found is not None:
                    return found
            self._undo(trail, 0)
        return None

    def _branch(self, trail: list[int], cap: int | None) -> Subnet | None:
        if cap is not None and sum(1 for a in self.assign if a == 1) > cap:
            return None
        free = next((k for k in range(self.m) if self.assign[k] == -1), None)
        if free is None:
            retained = [k for k in range(self.m) if self.assign[k] == 1]
            if not retained:
                return None
            return self._witness(retained)
        for val in (1, 0):
            self._spend()
            mark = len(trail)
            if self._set(free, val, trail) and self._propagate(trail):
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
    after exhausting the space.  With minimal=True the search re-runs under
    increasing edge-count caps so the returned witness has minimum size.
    Raises SearchBudgetExceeded when the node budget runs out, which is a
    distinct outcome from both verdicts.
    """
    search = _SubnetSearch(net, tol, budget)
    if minimal:
        for cap in range(2, search.m):
            witness = search.search(cap)
            if witness is not None:
                return IRR_NO, witness
        return IRR_YES, None
    witness = search.search()
    if witness is not None:
        return IRR_NO, witness
    return IRR_YES, None


def witness_net(net: EmbeddedNet, witness: Subnet) -> EmbeddedNet:
    """Re-embed a witness as its own net, boundary = its unbalanced vertices."""
    boundary = set(witness.boundary)
    vertices = tuple((vid, BOUNDARY if vid in boundary else INTERIOR)
                     for vid in witness.vertex_ids())
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


def _circ_gap(x: float, y: float) -> float:
    d = abs(x - y) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


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
        j = min(range(len(remaining)), key=lambda k: _circ_gap(remaining[k], want))
        multiset_dev = max(multiset_dev, _circ_gap(remaining[j], want))
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
