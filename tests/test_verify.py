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
    ConstructionResult,
    DegenerateConfiguration,
    INTERIOR,
    EmbeddedNet,
    IdMismatch,
    InvariantViolation,
    NetFamily,
    NetTopology,
    Point,
    RING_EXPERIMENTAL,
    SearchBudgetExceeded,
    Subnet,
    T2_OCTAGON,
    T3_DODECAGON,
    balanced_subsets,
    build_net25,
    check_lemmas,
    cli,
    dist,
    is_irreducible,
    params_from_solution,
    save_net,
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
    _TableSearch,
    _angle_at,
    _aux_point,
    _project,
    _search_tables,
    _witness,
)
from geonets.net import _reached

from conftest import lemma_degenerate_positions, make_two_tree_net, make_x_net

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
    # o is balanced exactly (norm 0.0), so not even a tolerance of 0 lists it
    assert is_irreducible(x_net, 0.0)[1] == witness == Subnet(
        (("o", "p2"), ("o", "p4")), ("p2", "p4"))


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


@pytest.mark.parametrize("edges", [
    # the exact repeat was dropped silently, giving a two-edge net
    (("o", "p2"), ("o", "p2"), ("o", "p4")),
    (("o", "p2"), ("p2", "o"), ("o", "p4")),
])
def test_witness_net_rejects_a_repeated_edge(x_net, edges):
    with pytest.raises(InvariantViolation) as caught:
        witness_net(x_net, Subnet(edges, ("p2", "p4")))
    assert str(caught.value) == "duplicate edge ('o', 'p2')"


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
    search, _ = _core(net25, 1e-7)
    for seed in range(search.m):
        trail = []
        assert search._set(seed, 0, trail)
        assert search._propagate(trail)
        assert (search.ins, search.outs) == (0, search.full)
        search._undo(trail, 0)
        assert (search.ins, search.outs) == (0, 0)


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
        search, _ = _core(net)
        search.search()
        assert search.nodes == nodes
        assert (search.ins, search.outs) == (0, 0)


@pytest.mark.parametrize("n, nodes", [(4, 72), (8, 104), (16, 168), (32, 296)])
def test_ring_template_node_counts_are_pinned(n, nodes):
    """Every seed of a ring template dies in propagation: one node each."""
    template = topology_template(NetFamily(family=RING_EXPERIMENTAL, n=n))
    net = EmbeddedNet(template.topology, template.positions)
    search, _ = _core(net)
    assert search.search() is None
    assert (search.nodes, search.seeds) == (nodes, nodes)
    assert (search.ins, search.outs) == (0, 0)
    ref = _RescanSearch(*_reference_tables(net)[:3])
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


def _core(net: EmbeddedNet, tol: float = DEFAULT_SUBSET_TOL, budget: int = 10**8,
          core: type = _TableSearch, tables=_search_tables) -> tuple:
    """The search core, or a subclass, on the tables that tables() forms of
    the net at tol, and the witness that a mask it returns forms (None for
    None) from the unit vectors that came with them."""
    inc, ends, masks, unit = tables(net, tol)
    return (core(inc, ends, masks, budget),
            lambda mask: None if mask is None else _witness(net, unit, tol, mask))


class _RescanSearch:
    """Reference for the uncapped search: the same seeds and branching, with
    unit propagation that rescans every interior vertex until nothing
    changes, on tables as _TableSearch takes them, held as sets of edge
    ids.  Counts nodes and seeds; search() returns the retained edge ids of
    the first balanced assignment, or None."""

    def __init__(self, inc, ends, tables) -> None:
        self.m = len(ends)
        self.nodes = 0
        self.seeds = 0
        self.incident = [[k for k in range(self.m) if mask >> k & 1] for mask in inc]
        self.tables = [[frozenset(k for k in edges if s >> k & 1) for s in table]
                       for edges, table in zip(self.incident, tables)]
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
            for inc, cands in zip(self.incident, self.tables):
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
    _assert_search_matches_brute_force(net)


def _assert_search_matches_brute_force(net: EmbeddedNet) -> None:
    """The verdict is "no" exactly when some proper subnet balances; the
    witness and the smallest witness are such subnets, the smallest of
    least size, and the search walks the tree the full rescan walks."""
    edges, balanced = _balanced_masks(net)
    verdict, witness = is_irreducible(net)
    assert verdict == (IRR_NO if balanced else IRR_YES)
    # the incremental propagation walks the tree the full rescan walks
    search, witness_of = _core(net)
    ref = _RescanSearch(*_reference_tables(net)[:3])
    assert witness_of(search.search()) == witness
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
    for found in (witness, smallest):
        assert found.boundary == _unbalanced_ends(net, found.edges)


def _unbalanced_ends(net: EmbeddedNet, edges) -> tuple[str, ...]:
    """The ends of the edges, in id order, whose unit vectors along them
    do not cancel within DEFAULT_SUBSET_TOL."""
    pos = net.positions
    out = []
    for v in sorted({end for edge in edges for end in edge}):
        sx = sy = 0.0
        for a, b in edges:
            if v in (a, b):
                ux, uy = unit_toward(pos[v], pos[b if a == v else a], net.eps_deg)
                sx += ux
                sy += uy
        if math.hypot(sx, sy) > DEFAULT_SUBSET_TOL:
            out.append(v)
    return tuple(out)


def lattice_net(radius: int, seed: int, p_keep: float = 0.65, core=None) -> EmbeddedNet:
    """A hexagon of radius 2 or 3 cut from the unit triangular lattice, each
    lattice edge kept with probability p_keep by numpy's generator seeded
    with seed.  The net is the kept edges joined to the first one; its boundary
    is the outer ring and every vertex left with fewer than three edges.
    Straight lines, opposite pairs and 120-degree triples balance, so the
    search branches often, and on a few percent of draws an assignment
    leaves a vertex with no balanced subset at all.
    With core, a tuple of lattice cells (q, r), only the lattice edges at a
    core cell are drawn, and every vertex but the core cells is boundary."""
    cells = [(q, r) for q in range(-radius, radius + 1) for r in range(-radius, radius + 1)
             if abs(q + r) <= radius]
    name = {cell: f"v{k:02d}" for k, cell in enumerate(cells)}
    pos = {name[(q, r)]: (q + 0.5 * r, 0.5 * math.sqrt(3.0) * r) for q, r in cells}
    if core is None:
        outer = {name[(q, r)] for q, r in cells if max(abs(q), abs(r), abs(q + r)) == radius}
    else:
        outer = set(pos) - {name[cell] for cell in core}
    pairs = [(name[(q, r)], name[(q + dq, r + dr)]) for q, r in cells
             for dq, dr in ((1, 0), (0, 1), (-1, 1)) if (q + dq, r + dr) in name
             if core is None or not {name[(q, r)], name[(q + dq, r + dr)]} <= outer]
    keep = np.random.default_rng(seed).random(len(pairs)) < p_keep
    kept = [pair for pair, k in zip(pairs, keep.tolist()) if k]
    edges = _first_component(kept)
    degree: dict[str, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    kinds = tuple((v, BOUNDARY if v in outer or d < 3 else INTERIOR) for v, d in degree.items())
    return EmbeddedNet(NetTopology(kinds, frozenset(edges)), {v: pos[v] for v in degree})


def _first_component(edges) -> tuple:
    """The edges joined to the first end of the first edge, in order."""
    reached, grew = {edges[0][0]}, True
    while grew:
        grew = False
        for a, b in edges:
            if (a in reached) != (b in reached):
                reached |= {a, b}
                grew = True
    return tuple(e for e in edges if e[0] in reached)


class _CountingSearch(_TableSearch):
    """_TableSearch that counts the propagations ending in a conflict,
    the only ones that return False."""

    conflicts = 0

    def _propagate(self, *args, **kwargs) -> bool:
        ok = super()._propagate(*args, **kwargs)
        self.conflicts += not ok
        return ok


def _assert_search_matches_the_rescan(net: EmbeddedNet) -> _CountingSearch:
    """The verdict, witness, node and seed counts of the search equal the
    rescan's, and a witness is a nonempty proper subnet that balances at
    every interior vertex it touches."""
    verdict, witness = is_irreducible(net)
    search, witness_of = _core(net, core=_CountingSearch)
    ref = _RescanSearch(*_reference_tables(net)[:3])
    assert witness_of(search.search()) == witness
    retained = ref.search()
    assert (search.nodes, search.seeds) == (ref.nodes, ref.seeds)
    assert verdict == (IRR_YES if retained is None else IRR_NO)
    if retained is None:
        assert witness is None
        return search
    edges = sorted(net.topology.edges)
    assert witness.edges == _first_component([edges[k] for k in retained])
    assert 0 < len(witness.edges) < len(edges)
    assert witness.boundary == _unbalanced_ends(net, witness.edges)
    assert not set(witness.boundary) & set(net.topology.interior_ids)
    return search


# draws of lattice_net whose search meets a conflict
_CONFLICTING_LATTICES = [(3, 8), (2, 24), (2, 25), (2, 56), (3, 83)]


@pytest.mark.parametrize("radius, seed", _CONFLICTING_LATTICES)
def test_search_leaves_a_conflicting_assignment_as_the_rescan_does(radius, seed):
    search = _assert_search_matches_the_rescan(lattice_net(radius, seed))
    assert search.conflicts > 0


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_search_matches_the_rescan_on_thinned_lattices(radius, seed):
    _assert_search_matches_the_rescan(lattice_net(radius, seed))


def test_a_conflicting_lattice_matches_brute_force():
    # the one draw of seeds 0-2999 at radius 2 and p_keep 0.5 that has at
    # most 16 edges, an interior vertex and a conflict: small enough for
    # _balanced_masks' 2^m enumeration
    net = lattice_net(2, 1048, p_keep=0.5)
    assert (len(net.topology.edges), len(net.topology.interior_ids)) == (15, 3)
    assert _assert_search_matches_the_rescan(net).conflicts == 1
    assert is_irreducible(net)[0] == IRR_NO
    _assert_search_matches_brute_force(net)


# lattice_net(2, seed, p_keep=0.8, core=_DOWNWARD_TRIANGLE) meets a conflict at
# exactly these 13 of seeds 0-1499; every draw has at most 15 edges.  The core
# ((0, 0), (1, 0), (0, 1)), a triangle pointing the other way, met none.
_DOWNWARD_TRIANGLE = ((0, 0), (-1, 0), (0, -1))
_CONFLICTING_TRIANGLES = [90, 128, 149, 151, 224, 246, 397, 442, 558, 1120, 1185, 1196, 1336]


@pytest.mark.parametrize("seed", _CONFLICTING_TRIANGLES)
def test_conflicting_triangle_cores_match_brute_force(seed):
    net = lattice_net(2, seed, p_keep=0.8, core=_DOWNWARD_TRIANGLE)
    assert len(net.topology.edges) <= 13 and len(net.topology.interior_ids) == 3
    assert _assert_search_matches_the_rescan(net).conflicts == 1
    _assert_search_matches_brute_force(net)


# ------------------------------------------------------ table systems


@st.composite
def table_systems(draw) -> tuple[list[int], list[int], list[list[int]]]:
    """inc, ends and tables of 1 to 12 edges and 1 to 4 interior vertices,
    drawn directly: each vertex has a nonempty edge mask, each edge the
    mask of the vertices whose masks hold it, and each table the empty mask
    first, then each nonempty sub-mask of the vertex's edges, kept with
    probability 0.3."""
    m = draw(st.integers(1, 12))
    inc = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=4))
    ends = [sum(1 << v for v, mask in enumerate(inc) if mask >> k & 1) for k in range(m)]
    rng = draw(st.randoms(use_true_random=False))
    tables = []
    for mask in inc:
        table, sub = [0], mask
        while sub:  # every nonempty sub-mask, from mask down
            if rng.random() < 0.3:
                table.append(sub)
            sub = (sub - 1) & mask
        tables.append(table)
    return inc, ends, tables


def _assert_core_matches_brute_force(inc, ends, tables) -> int:
    """The core's verdict is brute force's over all 2^m masks, its witness a
    nonempty proper mask that every table holds at its vertex, and the
    first cap that finds one the least size brute force finds; its nodes,
    seeds and witness are the rescan's.  Returns its conflicting
    propagations."""
    m = len(ends)
    held = [set(table) for table in tables]
    balanced = [mask for mask in range(1, (1 << m) - 1)
                if all(mask & edges in table for edges, table in zip(inc, held))]
    search = _CountingSearch(inc, ends, tables, 10**8)
    found = search.search()
    assert (found is None) == (not balanced)
    assert (search.ins, search.outs) == (0, 0)
    ref = _RescanSearch(inc, ends, tables)
    retained = ref.search()
    assert (search.nodes, search.seeds) == (ref.nodes, ref.seeds)
    assert retained == (None if found is None else [k for k in range(m) if found >> k & 1])
    conflicts = search.conflicts
    if found is not None:
        assert 0 < found < (1 << m) - 1
        assert all(found & edges in table for edges, table in zip(inc, held))
        least = next(cap for cap in range(1, m) if search.search(cap) is not None)
        assert least == min(mask.bit_count() for mask in balanced)
        assert (search.ins, search.outs) == (0, 0)
    return conflicts


def test_the_core_matches_brute_force_on_drawn_tables():
    """A fixed batch of 300 drawn table systems; some of them reach the
    conflict exit of propagation, which nets reach rarely."""
    conflicting = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(table_systems())
    def check(system):
        conflicting.append(_assert_core_matches_brute_force(*system) > 0)

    check()
    assert any(conflicting)


# ------------------------------------------------------ subset-sum index


# balanced_subsets and the search's per-vertex set-up before the search
# index and the subset-sum kernel, kept verbatim as the references; the
# set-up returns inc, ends, tables and unit as _search_tables does.
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


def _reference_tables(net: EmbeddedNet, tol: float = DEFAULT_SUBSET_TOL) -> tuple:
    eps = net.eps_deg  # one bounding-box scan per search, not per edge
    topo = net.topology
    edges = sorted(topo.edges)
    incident: dict[str, list[int]] = {vid: [] for vid in topo.ids}
    for k, (a, b) in enumerate(edges):
        incident[a].append(k)
        incident[b].append(k)
    vbit = {vid: 1 << i for i, vid in enumerate(topo.interior_ids)}
    # per edge: the mask of its interior ends
    ends = [vbit.get(a, 0) | vbit.get(b, 0) for a, b in edges]
    # per interior vertex: its edge mask and its balanced subsets as edge masks
    inc: list[int] = []
    tables: list[list[int]] = []
    for vid in vbit:
        here = net.positions[vid]
        dirs = []
        for k in incident[vid]:
            a, b = edges[k]
            dirs.append(unit_toward(here, net.positions[b if a == vid else a], eps))
        ebits = [1 << k for k in incident[vid]]
        inc.append(sum(ebits))
        tables.append([sum([ebits[j] for j in combo])
                       for combo in _reference_balanced_subsets(dirs, tol)])
    # every edge's unit vector from a to b, which the witness sums
    unit = np.array([unit_toward(net.positions[a], net.positions[b], eps)
                     for a, b in edges]).reshape(-1, 2)
    return inc, ends, tables, unit


# The search's _component and _witness before the witness summed the
# search's unit vectors, kept verbatim as the reference but for taking the
# net and tol as arguments.
def _reference_witness(net: EmbeddedNet, tol: float, retained: list[int]) -> Subnet:
    edges = net.topology.edge_order.edges

    def _component(retained: list[int]) -> list[int]:
        """The retained edges joined to the first one's a end, in order."""
        topo = net.topology
        a, b = topo.edge_order.a[retained], topo.edge_order.b[retained]
        seen = _reached(len(topo.ids), a, b, int(a[0]))
        return [k for k, v in zip(retained, a.tolist()) if seen[v]]

    comp = _component(retained)
    verts: dict[str, tuple[float, float]] = {}
    adj: dict[str, list[str]] = {}
    for k in comp:
        a, b = edges[k]
        for v in (a, b):
            verts.setdefault(v, net.positions[v])
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    unbalanced: list[str] = []
    for vid in sorted(verts):
        sx = 0.0
        sy = 0.0
        for w in adj[vid]:
            ux, uy = unit_toward(verts[vid], verts[w], 0.0)  # no edge has length 0
            sx += ux
            sy += uy
        if math.sqrt(sx * sx + sy * sy) > tol:
            unbalanced.append(vid)
    return Subnet(tuple(edges[k] for k in comp), tuple(unbalanced))


def _witnesses_match_the_reference(net: EmbeddedNet) -> int:
    """How many witnesses the search forms, each _witness's equal to
    _reference_witness's, at four tolerances, uncapped and under caps 1 to 5."""
    count = 0
    for tol in (0.0, 1e-7, 0.3, 0.9):
        search, witness_of = _core(net, tol)
        for cap in (None, 1, 2, 3, 4, 5):
            mask = search.search(cap)
            if mask is not None:
                retained = [k for k in range(search.m) if mask >> k & 1]
                assert witness_of(mask) == _reference_witness(net, tol, retained)
                count += 1
    return count


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
        inc, ends, tables, _ = _search_tables(net, tol)
        ref_inc, ref_ends, ref_tables, _ = _reference_tables(net, tol)
        assert net.topology.edge_order.edges == tuple(sorted(net.topology.edges))
        assert (ends, inc) == (tuple(ref_ends), tuple(ref_inc))
        assert [set(t) for t in tables] == [set(t) for t in ref_tables]
        assert all(len(t) == len(set(t)) for t in tables)
        search, witness_of = _core(net, tol, 10**6)
        ref, ref_witness_of = _core(net, tol, 10**6, tables=_reference_tables)
        assert witness_of(search.search()) == ref_witness_of(ref.search())
        assert (search.nodes, search.seeds) == (ref.nodes, ref.seeds)
    _witnesses_match_the_reference(net)


def test_witnesses_match_the_reference_on_lattices():
    draws = ([(radius, seed, 0.65) for radius in (2, 3) for seed in range(100)]
             + [(2, seed, 0.5) for seed in range(100)])
    # 7128 of the 7200 searches form a witness
    assert sum(_witnesses_match_the_reference(lattice_net(*draw)) for draw in draws) == 7128


def test_an_unbalanced_witness_never_leaves_the_search(x_net, tmp_path, monkeypatch, capsys):
    """A forged table at o, holding the edge to p2 alone, leads the search
    to one retained edge at an interior vertex; the witness check names it."""

    def forged(net: EmbeddedNet, tol: float) -> tuple:
        inc, ends, tables, unit = _search_tables(net, tol)
        tables[0] = [0, 0b0010]
        return inc, ends, tables, unit

    monkeypatch.setattr("geonets.verify._search_tables", forged)
    message = "witness leaves interior vertex 'o' unbalanced: norm 1.000e+00 above tol 1e-07"
    with pytest.raises(InvariantViolation) as caught:
        is_irreducible(x_net)
    assert str(caught.value) == message
    path = tmp_path / "x.json"
    save_net(x_net, str(path))
    assert cli(["verify", "--in", str(path), "--irreducibility"]) == 2
    assert capsys.readouterr().err == f"geonets: {message}\n"


# ------------------------------------------------------- seed closure


# The search before runs of decided seeds closed in one step, and before
# the initial drop of dead edges visited only the vertices it left with free
# edges, kept verbatim as the reference but for returning the mask.
def _reference_search(self: _TableSearch, cap: int | None = None) -> int | None:
    """First witness under the cap, or None; leaves every edge unassigned."""
    trail: list[int] = []
    try:
        # drops every edge that no balanced subset at its ends contains
        self._propagate(trail, todo=(1 << len(self.inc)) - 1)
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


class _ReferenceSearch(_TableSearch):
    search = _reference_search


def _assert_search_matches_the_reference_loop(net: EmbeddedNet) -> None:
    """Witness (and so verdict), nodes and seeds equal the seed-by-seed
    loop's at three tolerances, uncapped and under caps 0 to 5, with the
    counts carried from one cap to the next as the cap ladder does."""
    for tol in (0.0, 1e-7, 0.3):
        search, _ = _core(net, tol)
        ref, _ = _core(net, tol, core=_ReferenceSearch)
        for cap in (None, 0, 1, 2, 3, 4, 5):
            assert search.search(cap) == ref.search(cap)
            assert (search.nodes, search.seeds) == (ref.nodes, ref.seeds)
            assert (search.ins, search.outs) == (0, 0)


@settings(max_examples=200, deadline=None)
@given(hub_nets())
def test_seed_closure_matches_the_reference_loop_on_hubs(net):
    _assert_search_matches_the_reference_loop(net)


def test_seed_closure_matches_the_reference_loop_on_lattices():
    for radius, p_keep in ((2, 0.65), (3, 0.65), (2, 0.5)):
        for seed in range(100):
            _assert_search_matches_the_reference_loop(lattice_net(radius, seed, p_keep))
    for radius, seed in _CONFLICTING_LATTICES:
        _assert_search_matches_the_reference_loop(lattice_net(radius, seed))
    for seed in _CONFLICTING_TRIANGLES[:5]:
        _assert_search_matches_the_reference_loop(
            lattice_net(2, seed, p_keep=0.8, core=_DOWNWARD_TRIANGLE))


@pytest.mark.parametrize("fam", [NetFamily(T3_DODECAGON, 3), NetFamily(T2_OCTAGON, 2)]
                         + [NetFamily(RING_EXPERIMENTAL, n) for n in (4, 5, 8, 16, 32)],
                         ids=lambda fam: f"{fam.family}-{fam.n}")
def test_seed_closure_matches_the_reference_loop_on_the_family(fam):
    template = topology_template(fam)
    _assert_search_matches_the_reference_loop(EmbeddedNet(template.topology, template.positions))


@pytest.mark.parametrize("fam, nodes", [(NetFamily(T3_DODECAGON, 3), 64),
                                        (NetFamily(RING_EXPERIMENTAL, 32), 296)])
def test_a_closed_run_of_seeds_spends_the_budget_one_node_per_seed(fam, nodes):
    """The 25-net closes seeds 1-63 as one run the retained prefix holds, and
    ring32 closes seeds 2-295 after its prefix conflicts: each one node."""
    template = topology_template(fam)
    net = EmbeddedNet(template.topology, template.positions)
    assert is_irreducible(net, budget=nodes) == (IRR_YES, None)
    with pytest.raises(SearchBudgetExceeded, match=f"exceeded {nodes - 1} nodes"):
        is_irreducible(net, budget=nodes - 1)


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
    # each single edge is a subnet, and both its ends are unbalanced: NaN is
    # not "at most tol", so it lists them as tol -1 and 1e-7 do
    witness = Subnet(edges=(("b", "c"),), boundary=("b", "c"))
    assert is_irreducible(path, tol) == is_irreducible(path) == (IRR_NO, witness)
    search, witness_of = _core(path, tol, 10**6)
    ref, ref_witness_of = _core(path, tol, 10**6, tables=_reference_tables)
    assert witness_of(search.search()) == ref_witness_of(ref.search())
    for tables in (_search_tables, _reference_tables):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            tables(x_net, tol)


def test_a_vertex_of_degree_17_raises_as_the_reference_does():
    pins = [f"p{k:02d}" for k in range(17)]
    topo = NetTopology(tuple((p, BOUNDARY) for p in pins) + (("o", INTERIOR),),
                       frozenset(("o", p) for p in pins))
    pos = {p: (math.cos(0.3 * k), math.sin(0.3 * k)) for k, p in enumerate(pins)}
    star = EmbeddedNet(topo, {**pos, "o": (0.0, 0.0)})
    # no verdict, as when the budget runs out; the reference rejects it as balanced_subsets does
    with pytest.raises(SearchBudgetExceeded) as caught:
        _search_tables(star, DEFAULT_SUBSET_TOL)
    assert str(caught.value) == "interior vertex 'o' has degree 17, above the search's limit of 16"
    with pytest.raises(ValueError) as caught:
        _reference_tables(star, DEFAULT_SUBSET_TOL)
    assert str(caught.value) == "need between 1 and 16 directions, got 17"
    with pytest.raises(ValueError, match="tol must be >= 0"):  # the tolerance is checked first
        is_irreducible(star, -1.0)


# ---------------------------------------------------------------- lemmas


def test_angle_at_is_symmetric_and_exact_near_zero():
    # (0.0 - 1e-15) % 2pi rounds near 2pi, which gave 8.9e-16 one way round
    v, p, q = (0.0, 0.0), (1.0, 1e-15), (1.0, 0.0)
    assert _angle_at(v, p, q) == _angle_at(v, q, p) == 1e-15
    for p, q in [((1.0, 0.0), (-1.0, 1e-3)), ((0.3, -2.0), (-0.7, -0.1)), ((2.0, 5.0), (2.0, 5.0))]:
        assert _angle_at(v, p, q) == _angle_at(v, q, p)


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


@pytest.mark.parametrize("case", ["beyond a22", "on a12"])
def test_check_lemmas_names_a_degenerate_auxiliary_point(net25, sol, case):
    positions, message = lemma_degenerate_positions(net25)[case]
    net = net25.with_positions(positions)
    result = ConstructionResult(net=net, params=params_from_solution(sol),
                                landmarks=dict(net.positions))
    with pytest.raises(DegenerateConfiguration) as exc:
        check_lemmas(result, sol)
    assert str(exc.value).startswith(message)


def test_check_lemmas_names_the_first_missing_canonical_label(sol):
    t2 = topology_template(NetFamily(T2_OCTAGON, 2))
    result = ConstructionResult(net=EmbeddedNet(t2.topology, t2.positions),
                                params=params_from_solution(sol), landmarks=dict(t2.positions))
    with pytest.raises(IdMismatch, match="'a12' is missing"):
        check_lemmas(result, sol)


def test_a_projection_onto_no_line_names_its_auxiliary_point():
    with pytest.raises(DegenerateConfiguration, match="auxiliary point a22pp is undefined"):
        _aux_point("a22pp", _project, (1.0, 2.0), (0.5, 0.5), (0.5, 0.5))


def _moved(construction, vid, point):
    """The construction with one vertex moved: net and landmarks agree."""
    net = construction.net.with_positions({**construction.net.positions, vid: point})
    return ConstructionResult(net=net, params=construction.params, landmarks=dict(net.positions))


def _lemma_check(report, name):
    return {c.name: c for c in report.checks(tol=1e-9)}[name]


# The exact 25-net is C4-symmetric, so its four corners always agree.  Each
# test below breaks one corner alone and asserts that its check fails.


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_a_corner_vertex_beyond_its_crossing_fails_at_that_corner(construction, sol, i):
    P = construction.landmarks
    p, c = P["p"], P[f"c{i}"]
    # b_i on the ray from p through c_i, a tenth of |p c_i| beyond c_i
    moved = (p[0] + 1.1 * (c[0] - p[0]), p[1] + 1.1 * (c[1] - p[1]))
    rep = check_lemmas(_moved(construction, f"b{i}", moved), sol)
    assert rep.crossing_margin == pytest.approx(-0.1 * dist(c, p), rel=1e-12)
    assert not _lemma_check(rep, "crossing_beyond_corner").passed


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_a_broken_reflex_angle_fails_at_that_corner(construction, sol, i):
    P = construction.landmarks
    a, c = P[f"a{i}1"], P[f"c{i}"]
    # a_i1 moved across its c_i edge by a twentieth of that edge
    moved = (a[0] - 0.05 * (c[1] - a[1]), a[1] + 0.05 * (c[0] - a[0]))
    rep = check_lemmas(_moved(construction, f"a{i}1", moved), sol)
    inner = _angle_at(moved, c, P[f"a{i}2"])
    assert rep.reflex_angle_deviation == abs((2.0 * math.pi - inner) - sol.alpha) > 1e-3
    assert not _lemma_check(rep, "reflex_angle").passed


@pytest.mark.parametrize("i, base", [(i, d) for i in (1, 2, 3, 4) for d in ("d_i", "d_i-1")])
def test_a_wide_base_angle_of_a_corner_triangle_fails_at_that_corner(construction, sol, i, base):
    P = construction.landmarks
    j = i - 1 if i > 1 else 4
    d, other = (P[f"d{i}"], P[f"d{j}"]) if base == "d_i" else (P[f"d{j}"], P[f"d{i}"])
    # c_i moved so that the triangle's angle at d is 130 degrees, above 2pi/3
    wide = math.radians(130.0)
    ux, uy = 0.1 * (other[0] - d[0]), 0.1 * (other[1] - d[1])
    moved = (d[0] + ux * math.cos(wide) - uy * math.sin(wide),
             d[1] + ux * math.sin(wide) + uy * math.cos(wide))
    rep = check_lemmas(_moved(construction, f"c{i}", moved), sol)
    assert rep.corner_triangle_max_angle == pytest.approx(wide, rel=1e-12)
    assert rep.corner_triangle_max_angle > TWO_THIRDS
    assert not _lemma_check(rep, "corner_triangles").passed


def test_lemma_diagonal_is_sqrt3(net25):
    assert dist(net25.positions["a31"], net25.positions["a22"]) == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )
