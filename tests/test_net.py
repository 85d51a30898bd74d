"""Topology/embedding invariants, imbalance values, overlap detection."""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geonets import (
    BOUNDARY,
    INTERIOR,
    RING_EXPERIMENTAL,
    DegenerateEdge,
    EmbeddedNet,
    InvariantViolation,
    NetFamily,
    NetTopology,
    UnknownVertex,
    OverlapFinding,
    canonical_edge,
    detect_overlaps,
    dist,
    imbalance,
    is_irreducible,
    relax,
    topology_template,
    total_report,
)

from geonets.net import PackedNet, TopologyLayout, _collinear_overlap_length
from geonets.verify import _SubnetSearch

from conftest import make_corner_net, make_x_net

# imbalance of the corner net's interior vertex at (0.4, 0.2), evaluated by
# hand from the three unit directions
CORNER_SX = 0.20273623790951212
CORNER_SY = 0.22547402957595053
CORNER_NORM = 0.3032169523211374


def _topo(vertices, edges, **kw):
    return NetTopology(vertices=tuple(vertices), edges=frozenset(edges), **kw)


def test_canonical_edge_orders_ids():
    assert canonical_edge("b", "a") == ("a", "b")
    assert canonical_edge("a", "b") == ("a", "b")


def test_topology_normalizes_edges_and_sorts_vertices():
    t = _topo(
        [("v", INTERIOR), ("a", BOUNDARY), ("b", BOUNDARY), ("c", BOUNDARY)],
        [("v", "a"), ("v", "b"), ("c", "v")],
    )
    assert [i for i, _ in t.vertices] == ["a", "b", "c", "v"]
    assert ("c", "v") in t.edges and ("v", "c") not in t.edges
    assert t.neighbors("v") == ("a", "b", "c")
    assert t.degree("v") == 3
    assert t.boundary_ids == ("a", "b", "c")
    assert t.interior_ids == ("v",)


def test_topology_rejects_duplicate_ids():
    with pytest.raises(InvariantViolation, match="duplicate vertex"):
        _topo([("a", BOUNDARY), ("a", INTERIOR), ("b", BOUNDARY)], [("a", "b")])


def test_topology_rejects_self_loop():
    with pytest.raises(InvariantViolation, match="self-loop"):
        _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "a"), ("a", "b")])


def test_topology_rejects_unknown_endpoint():
    with pytest.raises(InvariantViolation, match="unknown vertex"):
        _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "z")])


def test_topology_rejects_duplicate_edge_across_orientations():
    with pytest.raises(InvariantViolation, match="duplicate edge"):
        _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "b"), ("b", "a")])


def test_topology_rejects_unknown_kind():
    with pytest.raises(InvariantViolation, match="kind"):
        _topo([("a", "outer"), ("b", BOUNDARY)], [("a", "b")])


def test_topology_rejects_low_degree_interior():
    with pytest.raises(InvariantViolation, match="degree"):
        _topo(
            [("a", BOUNDARY), ("v", INTERIOR), ("b", BOUNDARY)],
            [("a", "v"), ("v", "b")],
        )


def test_topology_allow_degree2_admits_pass_through():
    t = _topo(
        [("a", BOUNDARY), ("v", INTERIOR), ("b", BOUNDARY)],
        [("a", "v"), ("v", "b")],
        allow_degree2=True,
    )
    assert t.degree("v") == 2
    # degree 1 is still too low even in the relaxed mode
    with pytest.raises(InvariantViolation, match="degree"):
        _topo([("a", BOUNDARY), ("v", INTERIOR)], [("a", "v")], allow_degree2=True)


def test_topology_rejects_disconnected_graph():
    with pytest.raises(InvariantViolation, match="connected"):
        _topo(
            [("a", BOUNDARY), ("b", BOUNDARY), ("c", BOUNDARY), ("d", BOUNDARY)],
            [("a", "b"), ("c", "d")],
        )


def test_topology_unknown_vertex_lookup():
    t = _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "b")])
    with pytest.raises(UnknownVertex):
        t.neighbors("zz")


def test_embedding_requires_all_positions():
    t = _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "b")])
    with pytest.raises(InvariantViolation, match="missing"):
        EmbeddedNet(t, {"a": (0.0, 0.0)})


def test_embedding_rejects_positions_of_unknown_vertices(net25):
    # a stray point was scanned for overlaps and set the degeneracy scale
    pos = dict(net25.positions)
    pos["zz"] = pos["p"]
    with pytest.raises(InvariantViolation, match=r"unknown vertices \['zz'\]"):
        EmbeddedNet(net25.topology, pos)
    with pytest.raises(InvariantViolation, match="unknown vertices"):
        net25.with_positions({**net25.positions, "far": (1e6, 1e6)})


def test_embedding_rejects_nonfinite_coordinate():
    t = _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "b")])
    with pytest.raises(InvariantViolation, match="finite"):
        EmbeddedNet(t, {"a": (0.0, 0.0), "b": (math.nan, 1.0)})


def test_embedding_rejects_zero_length_edge():
    t = _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "b")])
    with pytest.raises(InvariantViolation, match="length"):
        EmbeddedNet(t, {"a": (0.5, 0.5), "b": (0.5, 0.5)})


def test_embedding_names_the_first_zero_length_edge_in_sorted_order():
    # frozenset order follows the string hash; under seed 2 it puts c-d first
    code = (
        "from geonets import BOUNDARY, EmbeddedNet, InvariantViolation, NetTopology\n"
        "t = NetTopology(tuple((v, BOUNDARY) for v in 'abcd'),\n"
        "                frozenset({('a', 'b'), ('b', 'c'), ('c', 'd')}))\n"
        "try:\n"
        "    EmbeddedNet(t, {'a': (0.0, 0.0), 'b': (0.0, 0.0), 'c': (1.0, 0.0), 'd': (1.0, 0.0)})\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED="2", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "edge ('a', 'b') has (near-)zero length\n"


def test_imbalance_matches_hand_computation(corner_net):
    (sx, sy), norm = imbalance(corner_net, "v")
    assert sx == pytest.approx(CORNER_SX, abs=1e-15)
    assert sy == pytest.approx(CORNER_SY, abs=1e-15)
    assert norm == pytest.approx(CORNER_NORM, abs=1e-15)


def test_imbalance_zero_at_the_balanced_point():
    # the equilateral triangle's Fermat point sees all corners at 2*pi/3
    net = make_corner_net(seed_pos=(0.5, math.sqrt(3.0) / 6.0))
    _, norm = imbalance(net, "v")
    assert norm < 1e-12


def test_imbalance_unknown_vertex(corner_net):
    with pytest.raises(UnknownVertex):
        imbalance(corner_net, "nope")


def test_imbalance_norm_bounded_by_degree(x_net):
    for v in x_net.positions:
        _, norm = imbalance(x_net, v)
        assert norm <= x_net.topology.degree(v) + 1e-12


def test_total_report_covers_interior_only(corner_net):
    rep = total_report(corner_net)
    assert set(rep.per_vertex) == {"v"}
    vec, norm = rep.per_vertex["v"]
    assert rep.total_loss == norm
    assert rep.max_norm == norm
    assert vec == pytest.approx((CORNER_SX, CORNER_SY), abs=1e-15)


def test_total_report_on_balanced_net(x_net):
    rep = total_report(x_net)
    assert rep.max_norm < 1e-15
    assert rep.total_loss < 1e-15


@pytest.mark.parametrize("ring", [None, 4, 8, 16, 32])
def test_total_report_matches_per_vertex_imbalance(ring, net25):
    """The edge-array report equals the scalar per-vertex sum: both add the
    same unit vectors in the same order (by neighbour id)."""
    if ring is None:
        net = net25
    else:
        tpl = topology_template(NetFamily(family=RING_EXPERIMENTAL, n=ring))
        net = EmbeddedNet(tpl.topology, tpl.positions)
    rep = total_report(net)
    assert set(rep.per_vertex) == set(net.topology.interior_ids)
    for v, got in rep.per_vertex.items():
        assert got == imbalance(net, v)
    assert rep.max_norm == max(n for _, n in rep.per_vertex.values())


def test_total_report_names_the_vertex_at_a_degenerate_edge(corner_net):
    # EmbeddedNet rejects such an edge, so move a pin onto v behind its back
    pos = dict(corner_net.positions)
    pos["p2"] = pos["v"]
    object.__setattr__(corner_net, "positions", pos)
    with pytest.raises(DegenerateEdge, match=r"at vertex 'v': edge \('v', 'p2'\)"):
        total_report(corner_net)


def test_detect_overlaps_clean_nets(corner_net, x_net):
    assert detect_overlaps(corner_net) == []
    # the two diagonals of the X touch at the center without overlapping
    assert detect_overlaps(x_net) == []


def test_detect_overlaps_flags_collinear_overlap():
    t = _topo(
        [("b1", BOUNDARY), ("b2", BOUNDARY), ("b3", BOUNDARY), ("b4", BOUNDARY), ("c", BOUNDARY)],
        [("b1", "b3"), ("b2", "b4"), ("b2", "c"), ("b3", "c")],
    )
    net = EmbeddedNet(
        t,
        {
            "b1": (0.0, 0.0),
            "b2": (1.0, 0.0),
            "b3": (2.0, 0.0),
            "b4": (3.0, 0.0),
            "c": (1.5, 1.0),
        },
    )
    findings = detect_overlaps(net)
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "edges"
    assert f.items == (("b1", "b3"), ("b2", "b4"))
    assert "1.0" in f.detail or "1.00" in f.detail


def test_detect_overlaps_flags_near_coincident_vertices():
    net = make_x_net()
    t = net.topology
    verts = t.vertices + (("p5", BOUNDARY),)
    edges = frozenset(set(t.edges) | {("o", "p5")})
    pos = dict(net.positions)
    pos["p5"] = (1.0 + 1e-8, 1.0)
    crowded = EmbeddedNet(NetTopology(verts, edges), pos)
    kinds = {f.kind for f in detect_overlaps(crowded)}
    assert "vertices" in kinds
    pairs = [f.items for f in detect_overlaps(crowded) if f.kind == "vertices"]
    assert ("p1", "p5") in pairs


def _reference_hessian(net, packed, u, length):
    """The Hessian block by block: per interior vertex in id order and its
    neighbours by id, +K on its diagonal block and -K toward an interior one."""
    slot = {v: k for k, v in enumerate(packed.interior)}
    edge = {}
    for e, (a, b) in enumerate(zip(packed.ea.tolist(), packed.eb.tolist())):
        edge[packed.ids[a], packed.ids[b]] = edge[packed.ids[b], packed.ids[a]] = e
    h = np.zeros((2 * len(slot), 2 * len(slot)))
    for v, i in slot.items():
        for w in net.topology.neighbors(v):
            e = edge[v, w]
            k = (np.eye(2) - np.outer(u[e], u[e])) / length[e]
            h[2 * i:2 * i + 2, 2 * i:2 * i + 2] += k
            if w in slot:
                h[2 * i:2 * i + 2, 2 * slot[w]:2 * slot[w] + 2] -= k
    return h


def test_hessian_matches_the_block_by_block_sum(net25):
    # u-v is horizontal, so its K has zero entries; -K there must be +0.0
    topo = _topo([("p1", BOUNDARY), ("p2", BOUNDARY), ("p3", BOUNDARY), ("p4", BOUNDARY),
                  ("u", INTERIOR), ("v", INTERIOR)],
                 [("p1", "u"), ("p2", "u"), ("u", "v"), ("p3", "v"), ("p4", "v")])
    ladder = EmbeddedNet(topo, {"p1": (-1.0, -1.0), "p2": (-1.0, 1.0), "p3": (2.0, -1.0),
                                "p4": (2.0, 1.0), "u": (0.0, 0.0), "v": (1.0, 0.0)})
    ring = topology_template(NetFamily(family=RING_EXPERIMENTAL, n=8))
    rng = np.random.default_rng(3)
    for net in (ladder, net25, EmbeddedNet(ring.topology, ring.positions)):
        packed = PackedNet(net)
        for pos in (packed.pos, packed.pos + rng.uniform(-1e-3, 1e-3, packed.pos.shape)):
            d, length = packed.edges(pos)
            u = d / length[:, None]
            assert (packed.hessian(u, length).tobytes()
                    == _reference_hessian(net, packed, u, length).tobytes())


def _unit_and_length(packed):
    d, length = packed.edges(packed.pos)
    return d / length[:, None], length


def _fresh_net25(net25):
    """net25 on a topology equal to its own but with no layout built yet."""
    topo = net25.topology
    return EmbeddedNet(NetTopology(topo.vertices, topo.edges), net25.positions)


def test_nets_on_one_topology_share_one_layout(net25):
    a = _fresh_net25(net25)
    b = a.with_positions({v: (x + 1.0, y) for v, (x, y) in a.positions.items()})
    pa, pb = PackedNet(a), PackedNet(b)
    assert pa.layout is pb.layout is a.topology.layout
    assert pa.order is pb.order and pa.ea is pb.ea
    assert pa.pos is not pb.pos


def test_total_report_leaves_the_hessian_bins_unbuilt(net25):
    net = _fresh_net25(net25)
    total_report(net)
    assert "layout" in vars(net.topology)
    assert "hessian_bins" not in vars(net.topology.layout)
    packed = PackedNet(net)
    packed.hessian(*_unit_and_length(packed))
    assert "hessian_bins" in vars(net.topology.layout)


def test_a_built_layout_leaves_equality_hash_repr_and_pickling_alone(net25):
    built, plain = _fresh_net25(net25).topology, _fresh_net25(net25).topology
    before = repr(built)
    packed = PackedNet(EmbeddedNet(built, net25.positions))
    packed.hessian(*_unit_and_length(packed))
    assert "layout" in vars(built) and "layout" not in vars(plain)
    assert built == plain and hash(built) == hash(plain)
    assert repr(built) == repr(plain) == before
    again = pickle.loads(pickle.dumps(built))
    assert again == built and hash(again) == hash(built)
    u, length = _unit_and_length(PackedNet(net25))
    for topo in (again, pickle.loads(pickle.dumps(plain))):
        packed = PackedNet(EmbeddedNet(topo, net25.positions))
        assert packed.imbalance(u).tobytes() == PackedNet(net25).imbalance(u).tobytes()
        assert (packed.hessian(u, length).tobytes()
                == PackedNet(net25).hessian(u, length).tobytes())


def test_edge_order_lists_each_edge_once_in_sorted_order(net25):
    topo = _fresh_net25(net25).topology
    order = topo.edge_order
    assert order.edges == tuple(sorted(topo.edges))
    assert [(topo.ids[i], topo.ids[j]) for i, j in zip(order.a, order.b)] == list(order.edges)
    assert topo.edge_order is order and topo.ids is topo.ids
    assert topo.interior_ids is topo.interior_ids


def test_nets_on_one_topology_share_one_search_index(net25):
    a = _fresh_net25(net25)
    topo = a.topology
    b = a.with_positions({v: (2.0 * x - 1.0, 2.0 * y) for v, (x, y) in a.positions.items()})
    total_report(a)
    relax(b)
    assert "search_index" not in vars(topo)  # balance and relax never build it
    assert is_irreducible(a) == is_irreducible(b) == ("yes", None)
    index = topo.search_index
    assert is_irreducible(b, minimal=True) == ("yes", None)
    assert topo.search_index is index
    search = _SubnetSearch(b, 1e-7, 10**6)
    assert search.inc is index.inc and search.ends is index.ends


def test_a_built_search_index_leaves_equality_hash_repr_and_pickling_alone(net25):
    built, plain = _fresh_net25(net25).topology, _fresh_net25(net25).topology
    before = repr(built)
    verdict = is_irreducible(EmbeddedNet(built, net25.positions))
    assert "search_index" in vars(built) and "search_index" not in vars(plain)
    assert built == plain and hash(built) == hash(plain)
    assert repr(built) == repr(plain) == before
    for topo in (pickle.loads(pickle.dumps(built)), pickle.loads(pickle.dumps(plain))):
        assert topo == built and hash(topo) == hash(built)
        assert is_irreducible(EmbeddedNet(topo, net25.positions)) == verdict


def test_full_subset_sums_of_the_terms_equal_the_imbalance(net25):
    """The search sums subsets of the terms that imbalance() bincounts;
    each vertex's full subset adds them in the same order from +0.0."""
    ring = topology_template(NetFamily(family=RING_EXPERIMENTAL, n=8))
    rng = np.random.default_rng(11)
    for net in (net25, EmbeddedNet(ring.topology, ring.positions)):
        packed = PackedNet(net)
        plan = net.topology.search_index.sums
        column = np.argsort(plan.order)  # group -> column
        # a vertex of degree n has its full subset 2^n - 1 in block k = n - 1,
        # as row 2^k + (2^k - 1)
        k = np.bincount(packed.layout.grad_rows) - 1
        at = plan.block[k] + ((1 << k) - 1) * plan.count[k] + column
        d, length = packed.edges(packed.pos)
        # the net's own unit vectors, free ones, and a grid of -1, 0 and 1,
        # whose zeros the sign turns into -0.0
        for u in (d / length[:, None], rng.normal(size=d.shape),
                  rng.integers(-1, 2, size=d.shape).astype(np.float64)):
            full = plan.sums(packed.terms(u).view(np.complex128).ravel())[at]
            s = packed.imbalance(u)
            assert full.real.tobytes() == s[:, 0].tobytes()
            assert full.imag.tobytes() == s[:, 1].tobytes()


def test_a_search_index_builds_and_reuses_the_layout(net25, monkeypatch):
    built = []
    init = TopologyLayout.__init__
    monkeypatch.setattr(TopologyLayout, "__init__",
                        lambda self, topo: built.append(topo) or init(self, topo))
    topo = _fresh_net25(net25).topology
    index = topo.search_index
    assert built == [topo] and vars(topo)["layout"] is topo.layout
    assert is_irreducible(EmbeddedNet(topo, net25.positions)) == ("yes", None)
    total_report(EmbeddedNet(topo, net25.positions))
    assert built == [topo] and topo.search_index is index


def test_search_index_masks_count_the_edges_between_boundary_vertices():
    # p1-p2 and p3-p4 have no interior end and no term, yet hold bits of the masks
    topo = _topo([("p1", BOUNDARY), ("p2", BOUNDARY), ("p3", BOUNDARY), ("p4", BOUNDARY),
                  ("u", INTERIOR), ("v", INTERIOR)],
                 [("p1", "p2"), ("p1", "u"), ("p2", "u"), ("u", "v"), ("p3", "p4"),
                  ("p3", "v"), ("p4", "v")])
    edges, interior = topo.edge_order.edges, topo.interior_ids
    index = topo.search_index
    assert index.inc == [sum(1 << k for k, e in enumerate(edges) if v in e) for v in interior]
    assert index.ends == [sum(1 << j for j, v in enumerate(interior) if v in e) for e in edges]


# The np.add.at assembly that np.bincount replaced, kept verbatim as the reference.
def _add_at_imbalance(self, u):
    s = np.zeros((len(self.interior), 2), dtype=np.float64)
    np.add.at(s, self.grad_rows, self.grad_sign[:, None] * u[self.grad_edges])
    return s


def _add_at_hessian(self, u, length):
    k = (np.eye(2) - u[:, :, None] * u[:, None, :]) / length[:, None, None]
    n = len(self.interior)
    # a boundary end's slot -1 hits the spare last row or column; 0.0 - K avoids -0.0
    blocks = np.zeros((n + 1, n + 1, 2, 2), dtype=np.float64)
    np.add.at(blocks, (self.grad_rows, self.grad_rows), k[self.grad_edges])
    blocks[self.sa, self.sb] = blocks[self.sb, self.sa] = 0.0 - k
    return blocks[:n, :n].transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


# a coarse grid makes axis-aligned edges, whose K has zero entries, common
_grid_coord = st.one_of(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                        st.integers(min_value=-2, max_value=2).map(float))


@settings(max_examples=100, deadline=None)
@given(
    pins=st.lists(st.tuples(_grid_coord, _grid_coord), min_size=3, max_size=6),
    inner=st.lists(st.tuples(_grid_coord, _grid_coord), min_size=1, max_size=5),
    picks=st.lists(st.integers(min_value=0, max_value=5), min_size=15, max_size=15),
    links=st.lists(st.booleans(), min_size=10, max_size=10),
)
def test_bincount_assembly_equals_the_add_at_reference(pins, inner, picks, links):
    """Interior vertex j joins three distinct pins; links join interior pairs."""
    verts = [(f"b{k}", BOUNDARY) for k in range(len(pins))]
    verts += [(f"v{j}", INTERIOR) for j in range(len(inner))]
    edges = set()
    for j in range(len(inner)):
        chosen = {f"b{p % len(pins)}" for p in picks[3 * j:3 * j + 3]}
        k = 0
        while len(chosen) < 3:
            chosen.add(f"b{k}")
            k += 1
        edges |= {(b, f"v{j}") for b in chosen}
    pairs = [(i, j) for i in range(len(inner)) for j in range(i + 1, len(inner))]
    edges |= {(f"v{i}", f"v{j}") for (i, j), on in zip(pairs, links) if on}
    pos = {f"b{k}": p for k, p in enumerate(pins)}
    pos.update({f"v{j}": p for j, p in enumerate(inner)})
    try:
        net = EmbeddedNet(_topo(verts, edges), pos)
    except InvariantViolation:
        assume(False)
    packed = PackedNet(net)
    u, length = _unit_and_length(packed)
    assert packed.imbalance(u).tobytes() == _add_at_imbalance(packed.layout, u).tobytes()
    assert (packed.hessian(u, length).tobytes()
            == _add_at_hessian(packed.layout, u, length).tobytes())


def test_checked_edges_rejects_what_embedded_net_rejects():
    # q1-q2 joins two pins 2e-11 apart: above the threshold while the net is
    # about 1.4 across, at or below it once v moves out to x = 50
    topo = _topo([("q1", BOUNDARY), ("q2", BOUNDARY), ("r1", BOUNDARY), ("r2", BOUNDARY),
                  ("v", INTERIOR)],
                 [("q1", "q2"), ("q1", "v"), ("r1", "v"), ("r2", "v")])
    net = EmbeddedNet(topo, {"q1": (0.0, 0.0), "q2": (2e-11, 0.0), "r1": (1.0, 0.0),
                             "r2": (0.0, 1.0), "v": (0.3, 0.3)})
    packed = PackedNet(net)
    for xy, embeds in [((0.4, 0.2), True), ((50.0, 0.2), False), ((1.0, 0.0), False),
                       ((2e150, 0.0), False), ((math.nan, 0.0), False)]:
        pos = packed.pos.copy()
        pos[packed.order[0]] = xy
        try:
            EmbeddedNet(topo, packed.positions_dict(pos))
        except InvariantViolation:
            assert not embeds
        else:
            assert embeds
        assert (packed.checked_edges(pos, 0.0) is not None) == embeds
    # the shortest edge from v at (0.4, 0.2) is v-q1, about 0.447 long
    pos[packed.order[0]] = (0.4, 0.2)
    assert packed.checked_edges(pos, 0.44) is not None
    assert packed.checked_edges(pos, 0.45) is None


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_detect_overlaps_rejects_a_bad_tolerance(corner_net, tol):
    # an empty list would read as overlap-free
    with pytest.raises(ValueError, match="tol_overlap"):
        detect_overlaps(corner_net, tol_overlap=tol)


def test_detect_overlaps_custom_tolerance(corner_net):
    # with an absurdly large tolerance everything looks coincident
    findings = detect_overlaps(corner_net, tol_overlap=10.0)
    assert any(f.kind == "vertices" for f in findings)


def _reference_overlaps(net, tol_overlap=None):
    """The plain pairwise loop over every edge pair and vertex pair."""
    tol = 1e-6 * net.bbox_diagonal if tol_overlap is None else tol_overlap
    findings = []
    edges = sorted(net.topology.edges)
    pos = net.positions
    for i in range(len(edges)):
        a1, b1 = edges[i]
        for j in range(i + 1, len(edges)):
            a2, b2 = edges[j]
            ov = _collinear_overlap_length(pos[a1], pos[b1], pos[a2], pos[b2], tol)
            if ov > tol:
                findings.append(OverlapFinding(
                    "edges", (edges[i], edges[j]),
                    f"collinear segments overlap over length {ov:.6e}"))
    ids = sorted(pos)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = dist(pos[ids[i]], pos[ids[j]])
            if d < tol:
                findings.append(OverlapFinding("vertices", (ids[i], ids[j]),
                                               f"vertices {d:.6e} apart"))
    return findings


# multiples of the tolerance that sit on either side of each decision
NEAR_TOL = (0.0, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0 - 1e-9, 2.0 + 1e-9, 3.0)


# exact unit directions along the axes
AXES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@st.composite
def overlap_nets(draw, axes=False, tols=(1e-6, 1e-3, 0.05)):
    """All-boundary nets with planted collinear overlaps, collinear segments
    that only touch, and vertex pairs at multiples of the tolerance, joined
    to one hub vertex so the graph is connected.  With axes=True every
    planted segment runs along an axis, so its bounding box has zero width
    unless lifted."""
    tol = draw(st.sampled_from(tols))
    coord = st.floats(-5.0, 5.0)
    pos = {}
    edges = set()

    def vertex(x, y):
        name = f"v{len(pos):02d}"
        pos[name] = (x, y)
        edges.add(("hub", name))
        return name

    for _ in range(draw(st.integers(1, 5))):
        x0, y0 = draw(coord), draw(coord)
        if axes:
            c, s = draw(st.sampled_from(AXES))
        else:
            theta = draw(st.floats(0.0, 2.0 * math.pi))
            c, s = math.cos(theta), math.sin(theta)
        kind = draw(st.sampled_from(["overlap", "touch", "pair"]))
        if kind == "pair":
            r = tol * draw(st.sampled_from(NEAR_TOL[1:]))
            vertex(x0, y0)
            vertex(x0 + r * c, y0 + r * s)
            continue
        t1 = draw(st.floats(0.5, 3.0))
        t2 = t1 if kind == "touch" else t1 - tol * draw(st.sampled_from(NEAR_TOL + (1e3,)))
        t3 = t2 + draw(st.floats(0.5, 3.0))
        lift = [tol * draw(st.sampled_from(NEAR_TOL)) for _ in range(2)]
        a = vertex(x0, y0)
        b = vertex(x0 + t1 * c, y0 + t1 * s)
        p = vertex(x0 + t2 * c - lift[0] * s, y0 + t2 * s + lift[0] * c)
        q = vertex(x0 + t3 * c - lift[1] * s, y0 + t3 * s + lift[1] * c)
        edges.update({(a, b), (p, q)})
    pos["hub"] = (draw(coord), 20.0)  # above every planted vertex
    topo = NetTopology(tuple((v, BOUNDARY) for v in pos),
                       frozenset(canonical_edge(*e) for e in edges))
    return EmbeddedNet(topo, pos), tol


@settings(max_examples=200, deadline=None)
@given(overlap_nets())
def test_detect_overlaps_matches_the_pairwise_loop(case):
    net, tol = case
    assert detect_overlaps(net, tol_overlap=tol) == _reference_overlaps(net, tol)
    assert detect_overlaps(net) == _reference_overlaps(net)


@settings(max_examples=200, deadline=None)
@given(overlap_nets(axes=True, tols=(0.0, 1e-6, 1e-3, 0.05)))
def test_detect_overlaps_matches_the_pairwise_loop_along_the_axes(case):
    net, tol = case
    assert detect_overlaps(net, tol_overlap=tol) == _reference_overlaps(net, tol)
    assert detect_overlaps(net, tol_overlap=0.0) == _reference_overlaps(net, 0.0)


def _segment_pairs_net(pairs):
    """All-boundary net of the given segments, each joined at its first end
    to a hub above them so the graph is connected."""
    pos = {"hub": (0.5, 50.0)}
    edges = set()
    for k, segment in enumerate(p for pair in pairs for p in pair):
        ends = [f"s{k:02d}{end}" for end in "ab"]
        pos.update(zip(ends, segment))
        edges.update({tuple(ends), ("hub", ends[0])})
    topo = NetTopology(tuple((v, BOUNDARY) for v in pos),
                       frozenset(canonical_edge(*e) for e in edges))
    return EmbeddedNet(topo, pos)


def test_detect_overlaps_sweep_edge_cases():
    tol = 1e-3
    lift = 0.9 * tol  # within tol of the other line, so boxes meet only by the slack
    net = _segment_pairs_net([
        # horizontal and vertical overlaps: boxes of zero width
        (((0.0, 0.0), (2.0, 0.0)), ((1.0, 0.0), (3.0, 0.0))),
        (((10.0, 0.0), (10.0, 2.0)), ((10.0, 1.0), (10.0, 3.0))),
        # parallel overlaps lifted off each other by less than tol
        (((0.0, 5.0), (2.0, 5.0)), ((1.0, 5.0 + lift), (3.0, 5.0 + lift))),
        (((20.0, 0.0), (20.0, 2.0)), ((20.0 + lift, 1.0), (20.0 + lift, 3.0))),
        # end to end with a gap below tol: the ends are near-coincident
        # vertices, the segments do not overlap
        (((0.0, 8.0), (1.0, 8.0)), ((1.0 + lift, 8.0), (2.0, 8.0))),
        # a slanted overlap
        (((30.0, 0.0), (31.0, 1.0)), ((30.5, 0.5), (32.0, 2.0))),
    ])
    found = detect_overlaps(net, tol_overlap=tol)
    assert found == _reference_overlaps(net, tol)
    assert [f.items for f in found] == [
        (("s00a", "s00b"), ("s01a", "s01b")),
        (("s02a", "s02b"), ("s03a", "s03b")),
        (("s04a", "s04b"), ("s05a", "s05b")),
        (("s06a", "s06b"), ("s07a", "s07b")),
        (("s10a", "s10b"), ("s11a", "s11b")),
        ("s08b", "s09a"),
    ]
    # at tol = 0 only the exactly collinear overlaps remain
    exact = detect_overlaps(net, tol_overlap=0.0)
    assert exact == _reference_overlaps(net, 0.0)
    assert [f.items[0][0] for f in exact] == ["s00a", "s02a", "s10a"]


def test_detect_overlaps_on_ring32_in_order():
    tpl = topology_template(NetFamily(RING_EXPERIMENTAL, 32))
    net = EmbeddedNet(tpl.topology, tpl.positions)
    found = detect_overlaps(net)
    assert found == _reference_overlaps(net)
    assert [f.items for f in found] == [
        ((f"b{k}", f"c{k}"), (f"c{k}", f"e{k}")) for k in range(1, 5)
    ]


def test_with_positions_rechecks_invariants(corner_net):
    moved = corner_net.with_positions({**corner_net.positions, "v": (0.45, 0.21)})
    assert moved.positions["v"] == (0.45, 0.21)
    assert moved.topology is corner_net.topology
    with pytest.raises(InvariantViolation):
        corner_net.with_positions({**corner_net.positions, "v": (0.0, 0.0)})
