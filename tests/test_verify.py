"""Verification logic: balance/overlap/degree reports, balanced subsets,
the irreducibility search, and the construction's angle/length identities."""

from __future__ import annotations

import dataclasses
import logging
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonets import (
    AngleSolution,
    BOUNDARY,
    INTERIOR,
    EmbeddedNet,
    InvariantViolation,
    NetFamily,
    NetTopology,
    Point,
    RING_EXPERIMENTAL,
    SearchBudgetExceeded,
    Subnet,
    balanced_subsets,
    build_net25,
    check_lemmas,
    dist,
    is_irreducible,
    topology_template,
    unit_toward,
    verify_geodesic_net,
    witness_net,
)
from geonets.verify import (
    DEFAULT_SUBSET_TOL,
    IRR_NO,
    IRR_NOT_CHECKED,
    IRR_YES,
    _SubnetSearch,
)

from conftest import make_two_tree_net, make_x_net

TWO_THIRDS = 2.0 * math.pi / 3.0


# ---------------------------------------------------------------- reports


def test_verify_exact_net_passes(net25):
    rep = verify_geodesic_net(net25)
    assert rep.balance_pass
    assert rep.offending_vertices == ()
    assert rep.max_imbalance < 1e-12
    assert rep.overlap_pass
    assert rep.overlap_findings == ()
    assert rep.degree_pass
    assert rep.degree_offenders == ()
    assert rep.irreducible == IRR_NOT_CHECKED
    assert rep.witness is None
    assert rep.all_pass


def test_verify_flags_displaced_vertex(net25):
    pos = dict(net25.positions)
    x, y = pos["e1"]
    pos["e1"] = (x + 0.01, y)
    rep = verify_geodesic_net(net25.with_positions(pos))
    assert not rep.balance_pass
    assert "e1" in rep.offending_vertices
    assert rep.max_imbalance > 1e-3
    assert not rep.all_pass
    # neighbors of the displaced vertex go off balance with it
    assert set(rep.offending_vertices) <= {"e1", "c1", "d1", "d4"}


def test_verify_tolerance_is_respected(net25):
    assert verify_geodesic_net(net25, tol=1e-16).balance_pass is False
    assert verify_geodesic_net(net25, tol=1e-6).balance_pass is True


def _straight_path_net(bend=0.0):
    topo = NetTopology(
        vertices=(("a", BOUNDARY), ("b", BOUNDARY), ("v", INTERIOR)),
        edges=frozenset({("a", "v"), ("v", "b")}),
        allow_degree2=True,
    )
    return EmbeddedNet(topo, {"a": (0.0, 0.0), "b": (1.0, 0.0), "v": (0.5, bend)})


def test_verify_degree2_policy():
    net = _straight_path_net()
    strict = verify_geodesic_net(net)
    assert not strict.degree_pass
    assert strict.degree_offenders == ("v",)
    assert strict.balance_pass  # collinear, so the vectors cancel

    relaxed = verify_geodesic_net(net, allow_collinear_degree2=True)
    assert relaxed.degree_pass
    assert relaxed.all_pass


def test_verify_degree2_must_be_collinear():
    bent = verify_geodesic_net(_straight_path_net(bend=0.3), allow_collinear_degree2=True)
    assert not bent.degree_pass
    assert not bent.balance_pass


def test_verify_reports_overlaps():
    topo = NetTopology(
        vertices=(
            ("b1", BOUNDARY),
            ("b2", BOUNDARY),
            ("b3", BOUNDARY),
            ("b4", BOUNDARY),
            ("c", BOUNDARY),
        ),
        edges=frozenset({("b1", "b3"), ("b2", "b4"), ("b2", "c"), ("b3", "c")}),
    )
    net = EmbeddedNet(
        topo,
        {"b1": (0.0, 0.0), "b2": (1.0, 0.0), "b3": (2.0, 0.0), "b4": (3.0, 0.0), "c": (1.5, 1.0)},
    )
    rep = verify_geodesic_net(net)
    assert not rep.overlap_pass
    assert rep.overlap_findings[0].kind == "edges"
    assert not rep.all_pass


def test_all_pass_tracks_irreducibility(x_net):
    rep = verify_geodesic_net(x_net)
    assert rep.all_pass
    assert dataclasses.replace(rep, irreducible=IRR_YES).all_pass
    assert not dataclasses.replace(rep, irreducible=IRR_NO).all_pass


# ------------------------------------------------------- balanced subsets


def _naive_balanced(dirs, tol=1e-7):
    n = len(dirs)
    out = set()
    for mask in range(1 << n):
        picked = [k for k in range(n) if mask >> k & 1]
        sx = sum(dirs[k][0] for k in picked)
        sy = sum(dirs[k][1] for k in picked)
        if math.hypot(sx, sy) <= tol:
            out.add(tuple(picked))
    return out


def test_balanced_subsets_fermat_triple():
    dirs = [(math.cos(a), math.sin(a)) for a in (0.0, TWO_THIRDS, 2.0 * TWO_THIRDS)]
    assert balanced_subsets(dirs) == [(), (0, 1, 2)]


def test_balanced_subsets_two_axes():
    dirs = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    assert balanced_subsets(dirs) == [(), (0, 2), (1, 3), (0, 1, 2, 3)]


def test_balanced_subsets_rejects_silly_sizes():
    with pytest.raises(ValueError):
        balanced_subsets([])
    with pytest.raises(ValueError):
        balanced_subsets([(1.0, 0.0)] * 17)


def test_balanced_subsets_singleton_never_balances():
    assert balanced_subsets([(1.0, 0.0)]) == [()]


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_balanced_subsets_rejects_a_bad_tolerance(tol):
    # such a tol drops the empty set, which every table must hold
    with pytest.raises(ValueError, match="tol must be >= 0"):
        balanced_subsets([(1.0, 0.0), (-1.0, 0.0)], tol)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_is_irreducible_rejects_a_bad_tolerance(x_net, tol):
    # with empty tables the search found no subnet and answered "yes"
    assert is_irreducible(x_net)[0] == IRR_NO
    with pytest.raises(ValueError, match="tol must be >= 0"):
        is_irreducible(x_net, tol)
    with pytest.raises(ValueError, match="tol must be >= 0"):
        is_irreducible(x_net, tol, minimal=True)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_verify_geodesic_net_rejects_a_bad_tolerance(tol):
    # ring4's max imbalance is about 0.61, yet a NaN tolerance passed balance
    template = topology_template(NetFamily(RING_EXPERIMENTAL, 4))
    ring4 = EmbeddedNet(template.topology, template.positions)
    assert not verify_geodesic_net(ring4).balance_pass
    with pytest.raises(ValueError, match="tol must be >= 0"):
        verify_geodesic_net(ring4, tol)


def test_balanced_subsets_matches_naive_on_net25(net25):
    pos = net25.positions
    for vid in net25.topology.interior_ids:
        dirs = [unit_toward(pos[vid], pos[w]) for w in net25.topology.neighbors(vid)]
        assert set(balanced_subsets(dirs)) == _naive_balanced(dirs)


def test_balanced_subset_counts_on_net25(net25):
    """Vertex type dictates the subset table: the crossing vertices c_i sit
    on three straight lines (8 subsets), p on two (4), everything else is
    all-or-nothing (2)."""
    pos = net25.positions
    counts = {}
    for vid in net25.topology.interior_ids:
        dirs = [unit_toward(pos[vid], pos[w]) for w in net25.topology.neighbors(vid)]
        counts[vid] = len(balanced_subsets(dirs))
    for vid, count in counts.items():
        if vid.startswith("c"):
            assert count == 8, vid
        elif vid == "p":
            assert count == 4
        else:
            assert count == 2, vid


# -------------------------------------------------------- irreducibility


def test_net25_is_irreducible(net25):
    verdict, witness = is_irreducible(net25)
    assert verdict == IRR_YES
    assert witness is None


def test_x_net_is_reducible(x_net):
    verdict, witness = is_irreducible(x_net)
    assert verdict == IRR_NO
    assert witness is not None
    assert len(witness.edges) == 2
    # a single diagonal through the center, unbalanced only at its far ends
    (a1, b1), (a2, b2) = witness.edges
    assert {a1, a2} == {"o"} or {b1, b2} == {"o"} or "o" in (a1, b1, a2, b2)
    assert set(witness.boundary) <= {"p1", "p2", "p3", "p4"}
    assert len(witness.boundary) == 2


def test_x_net_witness_reverifies(x_net):
    _, witness = is_irreducible(x_net)
    sub = witness_net(x_net, witness)
    assert sub.topology.boundary_ids == tuple(sorted(witness.boundary))
    rep = verify_geodesic_net(sub, allow_collinear_degree2=True)
    assert rep.all_pass


def test_two_tree_witness_is_one_tree(two_tree_net):
    verdict, witness = is_irreducible(two_tree_net)
    assert verdict == IRR_NO
    assert len(witness.edges) == 6
    names = set()
    for a, b in witness.edges:
        names.update((a, b))
    # exactly one of the two trees, never a mix
    assert names in (
        {"ne", "nw", "se", "sw", "w1", "w2", "o"},
        {"ne", "nw", "se", "sw", "u", "v", "o"},
    )
    assert set(witness.boundary) == {"ne", "nw", "se", "sw"}
    rep = verify_geodesic_net(witness_net(two_tree_net, witness), allow_collinear_degree2=True)
    assert rep.all_pass


def test_witness_boundary_is_within_parent_boundary(two_tree_net, x_net):
    for net in (two_tree_net, x_net):
        _, witness = is_irreducible(net)
        assert set(witness.boundary) <= set(net.topology.boundary_ids)


@pytest.mark.parametrize("edges, boundary, message", [
    # a forged witness of two edges the net lacks was re-embedded without complaint
    ((("p", "a12"), ("a11", "p")), (), "witness edge ('a11', 'p') is not an edge of the net"),
    # an unknown vertex raised a bare KeyError
    ((("f1", "p"), ("zz", "p")), ("f1",), "witness edge ('p', 'zz') is not an edge of the net"),
    # a boundary id off the edges was dropped without a word
    ((("f1", "p"), ("f2", "p")), ("zz", "f1", "d1"),
     "witness boundary vertex 'd1' is not on its edges"),
])
def test_witness_net_rejects_what_the_net_does_not_have(net25, edges, boundary, message):
    with pytest.raises(InvariantViolation) as caught:
        witness_net(net25, Subnet(edges, boundary))
    assert str(caught.value) == message


def test_minimal_witness_sizes(x_net, two_tree_net):
    _, w1 = is_irreducible(x_net, minimal=True)
    assert len(w1.edges) == 2
    _, w2 = is_irreducible(two_tree_net, minimal=True)
    assert len(w2.edges) == 6


def test_budget_exhaustion_raises(net25):
    with pytest.raises(SearchBudgetExceeded):
        is_irreducible(net25, budget=1)


def test_single_edge_net_is_trivially_irreducible():
    topo = NetTopology(
        vertices=(("a", BOUNDARY), ("b", BOUNDARY)), edges=frozenset({("a", "b")})
    )
    net = EmbeddedNet(topo, {"a": (0.0, 0.0), "b": (1.0, 0.0)})
    assert is_irreducible(net) == (IRR_YES, None)


def _transformed(net, theta=0.7, scale=2.3, shift=(5.0, -3.0)):
    c, s = math.cos(theta), math.sin(theta)
    pos = {
        k: (scale * (c * x - s * y) + shift[0], scale * (s * x + c * y) + shift[1])
        for k, (x, y) in net.positions.items()
    }
    return net.with_positions(pos)


def test_verdicts_are_rigid_motion_invariant(net25):
    assert is_irreducible(_transformed(make_x_net()))[0] == IRR_NO
    assert is_irreducible(_transformed(make_two_tree_net()))[0] == IRR_NO
    assert is_irreducible(_transformed(net25))[0] == IRR_YES


def test_witness_respects_all_or_none_tables(two_tree_net):
    """A vertex whose only balanced subsets are none-or-all can never appear
    partially in a witness."""
    _, witness = is_irreducible(two_tree_net)
    wedges = set(witness.edges)
    pos = two_tree_net.positions
    topo = two_tree_net.topology
    checked = 0
    for vid in topo.interior_ids:
        nbrs = topo.neighbors(vid)
        dirs = [unit_toward(pos[vid], pos[w]) for w in nbrs]
        if balanced_subsets(dirs) == [(), tuple(range(len(dirs)))]:
            inc = [tuple(sorted((vid, w))) for w in nbrs]
            kept = sum(1 for e in inc if e in wedges)
            assert kept in (0, len(inc)), vid
            checked += 1
    assert checked >= 4  # u, v, w1, w2 are all-or-nothing vertices


def test_cascade_annihilates_every_seed_on_net25(net25):
    """Dropping any single edge forces the empty subnet by unit propagation
    alone; this is the all-or-nothing chain around the ring, run literally."""
    from geonets.verify import _SubnetSearch

    search = _SubnetSearch(net25, 1e-7, 10**8)
    for seed in range(search.m):
        trail = []
        assert search._set(seed, 0, trail)
        assert search._propagate(trail)
        assert set(search.assign) == {0}
        search._undo(trail, 0)
        assert set(search.assign) == {-1}


def test_verdict_is_relabeling_invariant(two_tree_net):
    names = {vid: f"z{k}" for k, vid in enumerate(sorted(two_tree_net.positions))}
    topo = two_tree_net.topology
    renamed = EmbeddedNet(
        NetTopology(
            tuple((names[v], kind) for v, kind in topo.vertices),
            frozenset((names[a], names[b]) for a, b in topo.edges),
        ),
        {names[v]: p for v, p in two_tree_net.positions.items()},
    )
    verdict, witness = is_irreducible(renamed)
    assert verdict == IRR_NO
    assert len(witness.edges) == 6


def test_search_node_counts_are_pinned(net25, two_tree_net):
    """The uncapped search visits the same tree whatever the bookkeeping:
    one node per seed on the 25-net, where every seed dies in propagation."""
    for net, nodes in ((net25, 64), (two_tree_net, 2)):
        search = _SubnetSearch(net, DEFAULT_SUBSET_TOL, 10**8)
        search.search()
        assert search.nodes == nodes
        assert set(search.assign) == {-1}


@pytest.mark.parametrize("n, nodes", [(4, 72), (8, 104), (16, 168), (32, 296)])
def test_ring_template_node_counts_are_pinned(n, nodes):
    """Every seed of a ring template dies in propagation: one node each."""
    template = topology_template(NetFamily(family=RING_EXPERIMENTAL, n=n))
    net = EmbeddedNet(template.topology, template.positions)
    search = _SubnetSearch(net, DEFAULT_SUBSET_TOL, 10**8)
    assert search.search() is None
    assert (search.nodes, search.seeds) == (nodes, nodes)
    assert set(search.assign) == {-1}
    ref = _RescanSearch(net)
    assert ref.search() is None
    assert (ref.nodes, ref.seeds) == (nodes, nodes)


def test_minimal_search_skips_the_cap_ladder_on_irreducible_nets(net25, x_net, caplog):
    with caplog.at_level(logging.DEBUG, logger="geonets.verify"):
        assert is_irreducible(net25, minimal=True) == (IRR_YES, None)
        assert is_irreducible(x_net, minimal=True)[0] == IRR_NO
    first, second = (r.getMessage() for r in caplog.records)
    assert first == ("is_irreducible: 64 edges, 64 nodes, 64 seeds, cap ladder not run, "
                     "verdict yes")
    assert second == ("is_irreducible: 4 edges, 8 nodes, 4 seeds, cap ladder stopped at "
                      "cap 2, verdict no")


def test_minimal_verdict_agrees_on_a_two_edge_net():
    # a boundary path a-b-c: each single edge is a balanced proper subnet
    topo = NetTopology(((v, BOUNDARY) for v in "abc"), frozenset({("a", "b"), ("b", "c")}))
    net = EmbeddedNet(topo, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (2.0, 0.0)})
    witness = Subnet(edges=(("b", "c"),), boundary=("b", "c"))
    assert is_irreducible(net) == (IRR_NO, witness)
    assert is_irreducible(net, minimal=True) == (IRR_NO, witness)


class _RescanSearch:
    """Reference for the uncapped search: the same seeds and branching, with
    unit propagation that rescans every interior vertex until nothing
    changes.  Counts nodes and seeds; search() returns the retained edge
    ids of the first balanced assignment, or None."""

    def __init__(self, net: EmbeddedNet, tol: float = DEFAULT_SUBSET_TOL) -> None:
        topo = net.topology
        self.edges = sorted(topo.edges)
        self.m = len(self.edges)
        self.nodes = 0
        self.seeds = 0
        self.incident: dict[str, list[int]] = {vid: [] for vid in topo.ids}
        for k, (a, b) in enumerate(self.edges):
            self.incident[a].append(k)
            self.incident[b].append(k)
        self.tables: dict[str, list[frozenset[int]]] = {}
        for vid in topo.interior_ids:
            inc = self.incident[vid]
            dirs = []
            for k in inc:
                a, b = self.edges[k]
                dirs.append(unit_toward(net.positions[vid], net.positions[b if a == vid else a],
                                        net.eps_deg))
            subs = balanced_subsets(dirs, tol)
            self.tables[vid] = [frozenset(inc[j] for j in combo) for combo in subs]
        self.assign = [-1] * self.m

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

    def search(self) -> list[int] | None:
        trail: list[int] = []
        prefix = 0  # trail[:prefix] retains exactly edges 0..seed-1
        for seed in range(self.m):
            self.nodes += 1
            self.seeds += 1
            self._set(seed, 0, trail)
            if self._propagate(trail):
                found = self._branch(trail)
                if found is not None:
                    return found
            self._undo(trail, prefix)
            self._set(seed, 1, trail)
            prefix = len(trail)
        return None

    def _branch(self, trail: list[int]) -> list[int] | None:
        free = next((k for k in range(self.m) if self.assign[k] == -1), None)
        if free is None:
            retained = [k for k in range(self.m) if self.assign[k] == 1]
            return retained or None
        for val in (1, 0):
            self.nodes += 1
            mark = len(trail)
            if self._set(free, val, trail) and self._propagate(trail):
                found = self._branch(trail)
                if found is not None:
                    return found
            self._undo(trail, mark)
        return None


def _balanced_masks(net: EmbeddedNet) -> tuple[list[tuple[str, str]], set[int]]:
    """Every nonempty proper edge subset, as a bit mask over the sorted
    edges, that balances at each interior vertex it touches."""
    edges = sorted(net.topology.edges)
    m = len(edges)
    masks = np.arange(1, 2**m - 1)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(np.float64)
    ok = np.ones(len(masks), dtype=bool)
    pos = net.positions
    for v in net.topology.interior_ids:
        u = np.zeros((m, 2))
        for k, (a, b) in enumerate(edges):
            if v in (a, b):
                u[k] = unit_toward(pos[v], pos[b if v == a else a])
        s = bits @ u
        touched = bits @ (u != 0).any(axis=1)
        ok &= (touched == 0) | (np.hypot(s[:, 0], s[:, 1]) <= DEFAULT_SUBSET_TOL)
    return edges, {int(x) for x in masks[ok]}


@st.composite
def planted_nets(draw) -> EmbeddedNet:
    """A tree grown from a Fermat star or an X crossing: boundary leaves are
    turned interior as straight degree-2 pass-throughs, new Fermat stars, X
    crossings or unbalanced bends, with at most one leaf-to-leaf chord.
    Stars and straight chains alone make the net irreducible; X crossings,
    chords and coincidences make balanced proper subnets."""
    angle = st.floats(0.0, 2.0 * math.pi)
    length = st.floats(0.5, 2.0)
    pos = {"v00": (0.0, 0.0)}
    interior = {"v00"}
    edges: set[tuple[str, str]] = set()
    leaves: list[tuple[str, float]] = []

    def grow(frm: str, direction: float) -> None:
        name = f"v{len(pos):02d}"
        r = draw(length)
        pos[name] = (pos[frm][0] + r * math.cos(direction), pos[frm][1] + r * math.sin(direction))
        edges.add((frm, name))
        leaves.append((name, direction))

    theta = draw(angle)
    if draw(st.booleans()):
        first = [theta, theta + TWO_THIRDS, theta - TWO_THIRDS]
    else:
        phi = draw(angle)
        first = [theta, theta + math.pi, phi, phi + math.pi]
    for d in first:
        grow("v00", d)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["straight", "star", "x", "bend"]))
        leaf, din = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        if kind == "straight":
            out = [din]
        elif kind == "star":
            out = [din - math.pi / 3.0, din + math.pi / 3.0]
        elif kind == "x":
            phi = draw(angle)
            out = [din, phi, phi + math.pi]
        else:
            out = [draw(angle), draw(angle)]
        if len(edges) + len(out) > 14:
            leaves.append((leaf, din))
            break
        interior.add(leaf)
        for d in out:
            grow(leaf, d)
    if len(edges) < 14 and draw(st.booleans()):
        (p, _), (q, _) = draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=2,
                                       unique=True))
        if dist(pos[p], pos[q]) > 1e-3:
            edges.add((p, q) if p < q else (q, p))
    topo = NetTopology(tuple((v, INTERIOR if v in interior else BOUNDARY) for v in pos),
                       frozenset(edges), allow_degree2=True)
    return EmbeddedNet(topo, pos)


@settings(max_examples=150, deadline=None)
@given(planted_nets())
def test_irreducibility_matches_brute_force(net):
    edges, balanced = _balanced_masks(net)
    verdict, witness = is_irreducible(net)
    assert verdict == (IRR_NO if balanced else IRR_YES)
    # the incremental propagation walks the tree the full rescan walks
    search = _SubnetSearch(net, DEFAULT_SUBSET_TOL, 10**8)
    ref = _RescanSearch(net)
    assert search.search() == witness
    retained = ref.search()
    assert (search.nodes, search.seeds) == (ref.nodes, ref.seeds)
    assert (retained is None) == (witness is None)
    if retained is not None:
        assert set(witness.edges) <= {edges[k] for k in retained}
    if not balanced:
        assert witness is None
        assert is_irreducible(net, minimal=True) == (IRR_YES, None)
        return
    bit = {e: 1 << k for k, e in enumerate(edges)}
    assert sum(bit[e] for e in witness.edges) in balanced
    _, smallest = is_irreducible(net, minimal=True)
    assert sum(bit[e] for e in smallest.edges) in balanced
    assert len(smallest.edges) == min(bin(mask).count("1") for mask in balanced)


# ------------------------------------------------------ subset-sum index


# balanced_subsets and the per-vertex set-up of _SubnetSearch before the
# search index and the subset-sum kernel, kept verbatim as the references.
def _reference_balanced_subsets(dirs: list[Point], tol: float = DEFAULT_SUBSET_TOL) -> list[tuple[int, ...]]:
    """All index subsets of unit vectors summing to norm <= tol.

    The empty set always qualifies; singletons never do (a unit vector has
    norm one).  Subsets come ordered by size then lexicographically.  A tol
    below 0 or NaN, which would drop the empty set, raises ValueError.
    """
    if not (tol >= 0.0):
        raise ValueError(f"tol must be >= 0, got {tol}")
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


class _ReferenceSetUp(_SubnetSearch):
    def __init__(self, net: EmbeddedNet, tol: float, budget: int) -> None:
        self.net = net
        self.tol = tol
        self.budget = budget
        self.nodes = 0
        self.seeds = 0
        self.eps = net.eps_deg  # one bounding-box scan per search, not per edge
        topo = net.topology
        self.edges = sorted(topo.edges)
        self.m = len(self.edges)
        self.full = (1 << self.m) - 1
        incident: dict[str, list[int]] = {vid: [] for vid in topo.ids}
        for k, (a, b) in enumerate(self.edges):
            incident[a].append(k)
            incident[b].append(k)
        vbit = {vid: 1 << i for i, vid in enumerate(topo.interior_ids)}
        self.all_interior = (1 << len(vbit)) - 1
        # per edge: the mask of its interior ends
        self.ends = [vbit.get(a, 0) | vbit.get(b, 0) for a, b in self.edges]
        # per interior vertex: its edge mask and its balanced subsets as edge masks
        self.inc: list[int] = []
        self.tables: list[list[int]] = []
        for vid in vbit:
            here = net.positions[vid]
            inc = incident[vid]
            dirs = []
            for k in inc:
                a, b = self.edges[k]
                dirs.append(unit_toward(here, net.positions[b if a == vid else a], self.eps))
            ebits = [1 << k for k in inc]
            self.inc.append(sum(ebits))
            self.tables.append([sum([ebits[j] for j in combo])
                                for combo in _reference_balanced_subsets(dirs, tol)])
        self.ins = 0  # retained edges
        self.outs = 0  # dropped edges


# grid offsets: the axis-aligned ones give unit vectors with signed zeros
_OFFSETS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 1.0)]


@st.composite
def hub_nets(draw) -> EmbeddedNet:
    """One to three interior hubs on a coarse grid, joined in a row by
    axis-aligned links and each to pins, up to degree 8.  A pin goes out
    along a grid offset or at a free angle, or the pins come as planted
    balanced subsets: a pair at o and -2o, whose unit vectors cancel
    exactly, or a Fermat triple, which cancels within rounding."""
    hubs = draw(st.integers(1, 3))
    pos: dict[str, Point] = {}
    edges: set[tuple[str, str]] = set()
    for h in range(hubs):
        hub = f"h{h}"
        cx, cy = pos[hub] = (40.0 * h, 0.0)
        if h:
            edges.add((f"h{h - 1}", hub))
        room = 8 - (h > 0) - (h < hubs - 1)
        pins: list[Point] = []
        while len(pins) < 2 or (len(pins) < room and draw(st.booleans())):
            kind = draw(st.sampled_from(["grid", "free", "pair", "triple"]))
            sx, sy = draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([1.0, -1.0]))
            ox, oy = draw(st.sampled_from(_OFFSETS))
            ox, oy = sx * ox, sy * oy
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            if kind == "grid":
                scale = draw(st.sampled_from([1.0, 2.0, 3.0]))
                pins.append((cx + scale * ox, cy + scale * oy))
            elif kind == "free":
                pins.append((cx + 1.5 * math.cos(angle), cy + 1.5 * math.sin(angle)))
            elif kind == "pair":
                pins += [(cx + ox, cy + oy), (cx - 2.0 * ox, cy - 2.0 * oy)]
            else:
                pins += [(cx + 2.0 * math.cos(angle + t), cy + 2.0 * math.sin(angle + t))
                         for t in (0.0, TWO_THIRDS, -TWO_THIRDS)]
        for k, p in enumerate(pins[:room]):
            pos[f"h{h}p{k}"] = p
            edges.add((hub, f"h{h}p{k}"))
    topo = NetTopology(tuple((v, INTERIOR if len(v) == 2 else BOUNDARY) for v in pos),
                       frozenset(edges), allow_degree2=True)
    return EmbeddedNet(topo, pos)


@settings(max_examples=200, deadline=None)
@given(hub_nets())
def test_search_tables_match_the_reference_set_up(net):
    for tol in (0.0, 1e-7, 0.3, 0.9):
        search = _SubnetSearch(net, tol, 10**6)
        ref = _ReferenceSetUp(net, tol, 10**6)
        assert (search.edges, search.m, search.full, search.all_interior) == (
            tuple(ref.edges), ref.m, ref.full, ref.all_interior)
        assert (search.ends, search.inc) == (ref.ends, ref.inc)
        assert [set(t) for t in search.tables] == [set(t) for t in ref.tables]
        assert all(len(t) == len(set(t)) for t in search.tables)
        assert search.search() == ref.search()
        assert (search.nodes, search.seeds) == (ref.nodes, ref.seeds)


@pytest.mark.parametrize("n", range(1, 17))
def test_balanced_subsets_equals_the_reference(n):
    rng = np.random.default_rng([29, n])
    dirs = []
    while len(dirs) < n:  # free angles, axis-aligned vectors and exact opposites
        kind = rng.integers(3)
        if kind == 0:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dirs.append((math.cos(angle), math.sin(angle)))
        elif kind == 1:
            dirs.append([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-0.0, 1.0)][rng.integers(5)])
        elif dirs:
            x, y = dirs[rng.integers(len(dirs))]
            dirs.append((-x, -y))
    for tol in (0.0, 1e-7, 0.9, 1.5):  # at 1.5 singletons pass the norm test, yet stay out
        assert balanced_subsets(dirs, tol) == _reference_balanced_subsets(dirs, tol)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_a_bad_tolerance_raises_only_with_an_interior_vertex(x_net, tol):
    topo = NetTopology(((v, BOUNDARY) for v in "abc"), frozenset({("a", "b"), ("b", "c")}))
    path = EmbeddedNet(topo, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (2.0, 0.0)})
    assert is_irreducible(path, tol)[0] == IRR_NO  # each single edge is a subnet
    assert _SubnetSearch(path, tol, 10**6).search() == _ReferenceSetUp(path, tol, 10**6).search()
    for setup in (_SubnetSearch, _ReferenceSetUp):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            setup(x_net, tol, 10**6)


def test_a_vertex_of_degree_17_raises_as_the_reference_does():
    pins = [f"p{k:02d}" for k in range(17)]
    topo = NetTopology(tuple((p, BOUNDARY) for p in pins) + (("o", INTERIOR),),
                       frozenset(("o", p) for p in pins))
    pos = {p: (math.cos(0.3 * k), math.sin(0.3 * k)) for k, p in enumerate(pins)}
    star = EmbeddedNet(topo, {**pos, "o": (0.0, 0.0)})
    messages = []
    for setup in (_SubnetSearch, _ReferenceSetUp):
        with pytest.raises(ValueError) as caught:
            setup(star, DEFAULT_SUBSET_TOL, 10**6)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == "need between 1 and 16 directions, got 17"
    with pytest.raises(ValueError, match="tol must be >= 0"):  # the tolerance is checked first
        is_irreducible(star, -1.0)


# ---------------------------------------------------------------- lemmas


def test_lemma_report_on_exact_construction(construction, sol):
    rep = check_lemmas(construction, sol)
    assert rep.reflex_angle_deviation < 1e-9
    assert rep.corner_triangle_max_angle < TWO_THIRDS
    assert rep.corner_triangle_min_apex > math.pi / 2.0
    assert rep.direction_multiset_deviation < 1e-9
    assert max(rep.distance_identity_deviations) < 1e-9
    assert rep.m_deviation < 1e-9
    assert rep.n_deviation < 1e-9
    assert rep.diagonal_deviation < 1e-9
    assert 0.02 < rep.crossing_margin < 0.03
    assert set(rep.aux_points) == {"a22p", "a21p", "a31p", "a12p", "a22pp", "a31pp"}


def test_lemma_direction_multiset_values(construction, sol):
    rep = check_lemmas(construction, sol)
    expected = sorted(
        [0.0, sol.beta, sol.alpha, 13.0 * math.pi / 12.0, 11.0 * math.pi / 6.0]
    )
    assert len(rep.direction_multiset) == 5
    for got, want in zip(sorted(rep.direction_multiset), expected):
        assert got == pytest.approx(want, abs=1e-9)


def test_lemma_checks_all_pass(construction, sol):
    checks = check_lemmas(construction, sol).checks(tol=1e-9)
    assert [c.name for c in checks] == [
        "reflex_angle",
        "corner_triangles",
        "direction_multiset",
        "distance_identities",
        "crossing_beyond_corner",
    ]
    assert all(c.passed for c in checks)
    assert all(c.max_deviation >= 0.0 for c in checks)


def _detuned(sol, dbeta=0.01):
    return AngleSolution(
        alpha=sol.alpha,
        beta=sol.beta + dbeta,
        K=sol.K,
        residual_cos=sol.residual_cos,
        residual_sin=sol.residual_sin,
    )


def test_lemma_checks_fail_for_detuned_beta(sol):
    # geometry built with beta + 0.01, judged against the true solution:
    # the measured direction fan at a32 no longer matches {0, beta, alpha, ...}
    rep = check_lemmas(build_net25(_detuned(sol)), sol)
    by_name = {c.name: c for c in rep.checks(tol=1e-9)}
    assert not by_name["direction_multiset"].passed
    assert rep.direction_multiset_deviation > 1e-6


def test_detuned_beta_breaks_balance_not_the_parametric_identities(sol):
    """The incidence and length identities are intrinsic to the parametric
    construction, so a consistently detuned rebuild keeps them; what the
    detuning destroys is the balance that only the solved root delivers."""
    detuned = _detuned(sol)
    result = build_net25(detuned)
    rep = check_lemmas(result, detuned)
    assert all(c.passed for c in rep.checks(tol=1e-9))
    assert not verify_geodesic_net(result.net).balance_pass


def test_lemma_diagonal_is_sqrt3(net25):
    assert dist(net25.positions["a31"], net25.positions["a22"]) == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )
