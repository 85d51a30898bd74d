"""Topology/embedding invariants, imbalance values, overlap detection."""

from __future__ import annotations

import math

import pytest

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
    canonical_edge,
    detect_overlaps,
    imbalance,
    topology_template,
    total_report,
)

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


def test_embedding_rejects_nonfinite_coordinate():
    t = _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "b")])
    with pytest.raises(InvariantViolation, match="finite"):
        EmbeddedNet(t, {"a": (0.0, 0.0), "b": (math.nan, 1.0)})


def test_embedding_rejects_zero_length_edge():
    t = _topo([("a", BOUNDARY), ("b", BOUNDARY)], [("a", "b")])
    with pytest.raises(InvariantViolation, match="length"):
        EmbeddedNet(t, {"a": (0.5, 0.5), "b": (0.5, 0.5)})


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


def test_detect_overlaps_custom_tolerance(corner_net):
    # with an absurdly large tolerance everything looks coincident
    findings = detect_overlaps(corner_net, tol_overlap=10.0)
    assert any(f.kind == "vertices" for f in findings)


def test_with_positions_rechecks_invariants(corner_net):
    moved = corner_net.with_positions({**corner_net.positions, "v": (0.45, 0.21)})
    assert moved.positions["v"] == (0.45, 0.21)
    assert moved.topology is corner_net.topology
    with pytest.raises(InvariantViolation):
        corner_net.with_positions({**corner_net.positions, "v": (0.0, 0.0)})
