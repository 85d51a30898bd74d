"""Output checks that share no code with the package under test.

Every check works on plain numpy arrays (PlainNet) built from vertex ids,
positions, edges and boundary flags, and raises CheckFailed when the output
is wrong.  None of them calls into geonets: the imbalance, overlap, length
and alignment computations here are written from their definitions, so a
fault in the package cannot hide itself by being checked with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong; the benchmark run must stop."""


@dataclass(frozen=True)
class PlainNet:
    ids: tuple[str, ...]  # sorted
    pos: np.ndarray  # (n, 2) float64, row k is ids[k]
    edges: np.ndarray  # (m, 2) int64 indices into ids, rows sorted by id pair
    boundary: np.ndarray  # (n,) bool

    @classmethod
    def build(cls, positions: dict, edges, boundary_ids) -> "PlainNet":
        ids = tuple(sorted(positions))
        index = {vid: k for k, vid in enumerate(ids)}
        pairs = sorted({(a, b) if a < b else (b, a) for a, b in edges})
        pos = np.array([positions[vid] for vid in ids], dtype=np.float64).reshape(-1, 2)
        idx = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
        bnd = np.zeros(len(ids), dtype=bool)
        for vid in boundary_ids:
            bnd[index[vid]] = True
        return cls(ids, pos, idx, bnd)

    @classmethod
    def from_doc(cls, doc: dict) -> "PlainNet":
        """From the JSON document of a net file, read without the package."""
        positions = {v["id"]: (v["pos"][0], v["pos"][1]) for v in doc["vertices"]}
        boundary = [v["id"] for v in doc["vertices"] if v["boundary"]]
        return cls.build(positions, [tuple(e) for e in doc["edges"]], boundary)

    @classmethod
    def from_net(cls, net) -> "PlainNet":
        """From an EmbeddedNet, reading only its stored attributes."""
        return cls.build(net.positions, net.topology.edges, net.topology.boundary_ids)

    def positions(self) -> dict[str, tuple[float, float]]:
        return {vid: (float(x), float(y)) for vid, (x, y) in zip(self.ids, self.pos)}

    def edge_pairs(self) -> list[tuple[str, str]]:
        return [(self.ids[a], self.ids[b]) for a, b in self.edges]

    def with_pos(self, pos: np.ndarray) -> "PlainNet":
        return PlainNet(self.ids, pos, self.edges, self.boundary)


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def imbalance_norms(net: PlainNet) -> np.ndarray:
    """Norm of the sum of unit edge vectors at each vertex (0 on the boundary),
    accumulated over the edge list in one vectorised pass."""
    a, b = net.edges[:, 0], net.edges[:, 1]
    d = net.pos[b] - net.pos[a]
    u = d / _row_norms(d)[:, None]
    acc = np.zeros_like(net.pos)
    np.add.at(acc, a, u)
    np.add.at(acc, b, -u)
    norms = _row_norms(acc)
    norms[net.boundary] = 0.0
    return norms


def check_balanced(net: PlainNet, tol: float, what: str) -> float:
    """Every interior vertex balanced within tol; returns the worst norm."""
    worst = float(imbalance_norms(net).max(initial=0.0))
    if not worst <= tol:
        raise CheckFailed(f"{what}: max interior imbalance {worst:.3e} > {tol:.1e}")
    return worst


def check_report_matches(net: PlainNet, per_vertex: dict, max_norm: float, what: str,
                         tol: float = 1e-12) -> None:
    """An imbalance report (vertex -> norm) agrees with the recompute."""
    norms = imbalance_norms(net)
    want = {vid: float(norms[k]) for k, vid in enumerate(net.ids) if not net.boundary[k]}
    if set(per_vertex) != set(want):
        raise CheckFailed(f"{what}: report covers {len(per_vertex)} vertices, "
                          f"the net has {len(want)} interior ones")
    gap = max((abs(per_vertex[v] - want[v]) for v in want), default=0.0)
    gap = max(gap, abs(max_norm - max(want.values(), default=0.0)))
    if not gap <= tol:
        raise CheckFailed(f"{what}: reported imbalance differs from the recompute by {gap:.3e}")


def overlap_items(net: PlainNet, tol: float | None = None) -> set[frozenset]:
    """Brute-force scan of every edge pair and vertex pair.

    An edge pair overlaps when each segment's endpoints lie within tol of the
    other's line and their projections share more than tol of length; a
    vertex pair overlaps when closer than tol.  tol defaults to 1e-6 of the
    bounding-box diagonal.  Items are frozensets of two edges or two ids.
    """
    if tol is None:
        span = net.pos.max(axis=0) - net.pos.min(axis=0)
        tol = 1e-6 * math.hypot(span[0], span[1])
    p = net.pos[net.edges[:, 0]]
    q = net.pos[net.edges[:, 1]]
    d = q - p
    length = _row_norms(d)
    u = d / length[:, None]
    # off[i, j, e]: distance of endpoint e of segment j from the line of segment i
    rel_p = p[None, :, :] - p[:, None, :]
    rel_q = q[None, :, :] - p[:, None, :]
    off_p = np.abs(rel_p[..., 0] * u[:, None, 1] - rel_p[..., 1] * u[:, None, 0])
    off_q = np.abs(rel_q[..., 0] * u[:, None, 1] - rel_q[..., 1] * u[:, None, 0])
    near = (off_p <= tol) & (off_q <= tol)
    near &= near.T
    s_p = np.einsum("ijk,ik->ij", rel_p, u)
    s_q = np.einsum("ijk,ik->ij", rel_q, u)
    shared = np.minimum(length[:, None], np.maximum(s_p, s_q)) - np.maximum(0.0, np.minimum(s_p, s_q))
    hit = near & (shared > tol)
    pairs = net.edge_pairs()
    items: set[frozenset] = set()
    for i, j in zip(*np.nonzero(np.triu(hit, 1))):
        items.add(frozenset((pairs[i], pairs[j])))
    gap = net.pos[:, None, :] - net.pos[None, :, :]
    close = np.sqrt(np.einsum("ijk,ijk->ij", gap, gap)) < tol
    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        items.add(frozenset((net.ids[i], net.ids[j])))
    return items


def check_overlaps_match(net: PlainNet, reported: list[tuple], what: str) -> set[frozenset]:
    """The program's overlap findings (item pairs) equal the brute-force
    scan; returns the scan's items."""
    got = {frozenset(items) for items in reported}
    want = overlap_items(net)
    if got != want:
        raise CheckFailed(f"{what}: overlap findings {len(got)} != brute-force scan {len(want)}: "
                          f"missed {sorted(map(sorted, want - got))[:3]}, "
                          f"spurious {sorted(map(sorted, got - want))[:3]}")
    return want


def check_no_overlaps(net: PlainNet, what: str) -> None:
    found = overlap_items(net)
    if found:
        raise CheckFailed(f"{what}: {len(found)} overlap(s), e.g. {sorted(map(sorted, found))[:2]}")


def check_positions_bitwise(want: dict, got: dict, what: str) -> None:
    """Same ids and the same float bits for every coordinate."""
    if set(want) != set(got):
        raise CheckFailed(f"{what}: vertex ids differ")
    keys = sorted(want)
    a = np.array([want[k] for k in keys], dtype=np.float64)
    b = np.array([got[k] for k in keys], dtype=np.float64)
    moved = np.nonzero(np.any(a.view(np.uint64) != b.view(np.uint64), axis=1))[0]
    if moved.size:
        raise CheckFailed(f"{what}: {moved.size} vertex position(s) changed, first {keys[moved[0]]!r}")


def check_boundary_unchanged(before: PlainNet, after: PlainNet, what: str) -> None:
    """Boundary vertices of after sit bitwise where they were in before."""
    if before.ids != after.ids or not np.array_equal(before.boundary, after.boundary):
        raise CheckFailed(f"{what}: vertex set or boundary flags changed")
    old = before.pos[before.boundary]
    new = after.pos[after.boundary]
    if not np.array_equal(old.view(np.uint64), new.view(np.uint64)):
        raise CheckFailed(f"{what}: a boundary vertex moved")


def rigid_rmsd(ref: dict, got: dict) -> float:
    """RMSD after the best proper rigid motion of got onto ref (Kabsch)."""
    if set(ref) != set(got):
        raise CheckFailed("rmsd: vertex ids differ from the reference")
    keys = sorted(ref)
    P = np.array([got[k] for k in keys], dtype=np.float64)
    Q = np.array([ref[k] for k in keys], dtype=np.float64)
    P = P - P.mean(axis=0)
    Q = Q - Q.mean(axis=0)
    U, _, Vt = np.linalg.svd(P.T @ Q)
    flip = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, flip]) @ U.T
    diff = P @ R.T - Q
    return float(np.sqrt(np.einsum("ij,ij->", diff, diff) / len(keys)))


def check_rmsd(ref: dict, got: dict, tol: float, what: str) -> float:
    rmsd = rigid_rmsd(ref, got)
    if not rmsd < tol:
        raise CheckFailed(f"{what}: RMSD {rmsd:.3e} to the reference >= {tol:.1e}")
    return rmsd


def length_change(net: PlainNet, delta: np.ndarray) -> float:
    """Total edge length at pos + delta minus at pos.

    Each edge's change is (2 d.dd + dd.dd) / (|d + dd| + |d|), which keeps
    full relative precision when the change is far below the total length.
    """
    a, b = net.edges[:, 0], net.edges[:, 1]
    d = net.pos[b] - net.pos[a]
    dd = delta[b] - delta[a]
    num = 2.0 * np.einsum("ij,ij->i", d, dd) + np.einsum("ij,ij->i", dd, dd)
    den = _row_norms(d + dd) + _row_norms(d)
    return math.fsum((num / den).tolist())


def check_strict_minimum(net: PlainNet, rng: np.random.Generator, what: str,
                         trials: int = 16, scale: float = 1e-8) -> float:
    """Total length rises under random interior moves of norm scale, in both
    signs of each direction, as it must at a strict minimum.  Returns the
    smallest rise divided by scale**2.

    At scale 1e-8 the rise of a strict minimum (about lambda_min * 1e-16) is
    still 30 times the first-order change left by a relax tolerance of 1e-10,
    while a net 1e-6 off its minimum shows a first-order fall.
    """
    interior = ~net.boundary
    worst = math.inf
    for _ in range(trials):
        delta = np.zeros_like(net.pos)
        delta[interior] = rng.standard_normal((int(interior.sum()), 2))
        delta *= scale / np.linalg.norm(delta)
        for sign in (1.0, -1.0):
            rise = length_change(net, sign * delta)
            if not rise > 0.0:
                raise CheckFailed(f"{what}: total length changes by {rise:.3e} under an "
                                  f"interior move of norm {scale:.0e}; not a strict minimum")
            worst = min(worst, rise / scale**2)
    return worst


def check_witness(parent: PlainNet, witness_edges, what: str, tol: float = 1e-7) -> None:
    """A reducibility witness is a proper nonempty subset of the parent's
    edges on which every parent-interior vertex it touches stays balanced."""
    parent_edges = set(parent.edge_pairs())
    sub = {(a, b) if a < b else (b, a) for a, b in witness_edges}
    if not sub or not sub < parent_edges:
        raise CheckFailed(f"{what}: witness is not a proper nonempty subset of the edges")
    ids = {v for e in sub for v in e}
    parent_boundary = {vid for vid, flag in zip(parent.ids, parent.boundary) if flag}
    pos = parent.positions()
    subnet = PlainNet.build({v: pos[v] for v in ids}, sub, ids & parent_boundary)
    norms = imbalance_norms(subnet)
    if not norms.max(initial=0.0) <= tol:
        k = int(np.argmax(norms))
        raise CheckFailed(f"{what}: witness leaves {subnet.ids[k]!r} unbalanced "
                          f"({norms[k]:.3e} > {tol:.0e})")


def check_equal(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def rigid_motion(positions: dict, rng: np.random.Generator) -> dict:
    """Rotate by a random angle and translate by a random offset in [-1, 1]^2."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    tx, ty = (float(t) for t in rng.uniform(-1.0, 1.0, size=2))
    return {vid: (c * x - s * y + tx, s * x + c * y + ty) for vid, (x, y) in positions.items()}


def relabel(ids, rng: np.random.Generator) -> dict[str, str]:
    """Random bijection from ids to fresh names v000, v001, ..."""
    ids = sorted(ids)
    perm = rng.permutation(len(ids))
    return {vid: f"v{int(k):03d}" for vid, k in zip(ids, perm)}
