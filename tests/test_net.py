"""Topology/embedding invariants, imbalance values, overlap detection."""

from __future__ import annotations

import copy
import json
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
    EmbeddedNet,
    InvariantViolation,
    NetFamily,
    NetTopology,
    UnknownVertex,
    OverlapFinding,
    Point,
    canonical_edge,
    detect_overlaps,
    dist,
    imbalance,
    is_irreducible,
    relax,
    topology_template,
    total_report,
    verify_geodesic_net,
)

from geonets.io import FORMAT_VERSION, SvgStyle, _json_list, _net_text, _write_text, export_svg
from geonets.net import (COORD_BOUND, ImbalanceReport, TopologyLayout, _bbox_diagonal,
                         _degeneracy_threshold, _sweep_pairs, _vertex_entry)
from geonets.verify import _search_tables

from conftest import make_corner_net, make_x_net, topologies
from test_verify import lattice_net, planted_nets

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
    vertices = (("a", BOUNDARY), ("b", BOUNDARY))
    with pytest.raises(InvariantViolation, match="duplicate edge"):
        _topo(vertices, [("a", "b"), ("b", "a")])
    # a list or tuple keeps an exact repeat, which a frozenset would hide
    for edges in ((("a", "b"), ("a", "b")), (("a", "b"), ("b", "a")), (("b", "a"), ("b", "a"))):
        for given in (edges, list(edges)):
            with pytest.raises(InvariantViolation) as exc:
                NetTopology(vertices, given)
            assert str(exc.value) == "duplicate edge ('a', 'b')"
    topo = NetTopology(vertices, [("b", "a")])
    assert topo.edges == frozenset({("a", "b")}) and isinstance(topo.edges, frozenset)


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


# The constructor that built an adjacency dict and walked it, kept verbatim
# as the oracle of the one that works on index arrays.
def _reference_topology(vertices, edges, allow_degree2=False):
    """Sorted vertices, normalised edges and sorted neighbour tuples, or
    InvariantViolation."""
    verts = tuple(sorted(_vertex_entry(e) for e in vertices))
    ids = [i for i, _ in verts]
    if len(set(ids)) != len(ids):
        raise InvariantViolation("duplicate vertex ids")
    known = set(ids)
    for _, kind in verts:
        if kind not in (BOUNDARY, INTERIOR):
            raise InvariantViolation(f"unknown vertex kind {kind!r}")
    norm_edges, bad = set(), []  # (repr of the edge, message) per bad edge
    for e in edges:
        if not (isinstance(e, tuple) and len(e) == 2):  # a 2-character str unpacks too
            bad.append((repr(e), f"edge {e!r} is not a pair of vertex ids"))
            continue
        a, b = e
        if a == b:
            bad.append((repr((a, b)), f"self-loop at {a!r}"))
        elif a not in known or b not in known:
            bad.append((repr((a, b)), f"edge ({a!r}, {b!r}) references unknown vertex"))
        elif (e := canonical_edge(a, b)) in norm_edges:
            bad.append((repr(e), f"duplicate edge {e!r}"))
        else:
            norm_edges.add(e)
    if bad:  # the least by repr: the same edge under any hash seed
        raise InvariantViolation(min(bad)[1])
    adj: dict[str, list[str]] = {i: [] for i in ids}
    for a, b in norm_edges:
        adj[a].append(b)
        adj[b].append(a)
    adj = {i: tuple(sorted(ns)) for i, ns in adj.items()}

    min_deg = 2 if allow_degree2 else 3
    for i, kind in verts:
        if kind == INTERIOR and len(adj[i]) < min_deg:
            raise InvariantViolation(
                f"interior vertex {i!r} has degree {len(adj[i])} < {min_deg}"
            )
    if ids:
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(ids):
            raise InvariantViolation("graph is not connected")
    return verts, frozenset(norm_edges), adj


def _reference_edge_order(verts, edges):
    edges = tuple(sorted(edges))
    index = {vid: k for k, (vid, _) in enumerate(verts)}
    ends = np.array([index[v] for e in edges for v in e], dtype=np.int64).reshape(-1, 2)
    return edges, ends[:, 0], ends[:, 1]


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_topology_matches_the_adjacency_dict_reference(args):
    try:
        verts, edges, adj = _reference_topology(*args)
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation) as caught:
            NetTopology(*args)
        assert str(caught.value) == str(exc)
        return
    t = NetTopology(*args)
    assert (t.vertices, t.edges) == (verts, edges)
    assert hash(t) == hash((verts, edges, args[2]))
    assert repr(t) == f"NetTopology(vertices={verts!r}, edges={edges!r}, allow_degree2={args[2]!r})"
    assert {v: t.neighbors(v) for v in t.ids} == adj
    assert {v: t.degree(v) for v in t.ids} == {v: len(ns) for v, ns in adj.items()}
    order, a, b = _reference_edge_order(verts, edges)
    assert t.edge_order.edges == order
    for got, want in zip(t.edge_order[1:], (a, b)):
        assert got.dtype == want.dtype == np.int64 and got.tolist() == want.tolist()


def test_a_path_of_10000_vertices_constructs():
    ids = [f"v{k:05d}" for k in range(10_000)]
    kinds = [BOUNDARY] + [INTERIOR] * (len(ids) - 2) + [BOUNDARY]
    t = _topo(zip(ids, kinds), zip(ids[1:], ids), allow_degree2=True)
    assert t.neighbors("v05000") == ("v04999", "v05001") and t.degree("v09999") == 1
    with pytest.raises(InvariantViolation, match="not connected"):  # cut in two
        _topo(((v, BOUNDARY) for v in ids), (e for e in zip(ids, ids[1:]) if e[0] != "v05000"))


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


def _messages_under_hash_seeds(code, seeds):
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        out.add(done.stdout)
    return out


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
    assert _messages_under_hash_seeds(code, [2]) == {"edge ('a', 'b') has (near-)zero length\n"}


def test_topology_names_the_first_bad_edge_in_sorted_order():
    # in hash order, seeds 1 to 6 named five different edges of the first input
    code = (
        "from geonets import BOUNDARY, InvariantViolation, NetTopology\n"
        "for edges in ([('c', 'z'), ('d', 'y'), ('e', 'x'), ('f', 'w'), ('g', 'v'), ('a', 'b')],\n"
        "              [(1, 'a'), ('a', 'b'), ('b', 2)], [('b', 'a'), ('a', 'z'), ('a', 'b')]):\n"
        "    try:\n"
        "        NetTopology(tuple((v, BOUNDARY) for v in 'abcdefgh'), frozenset(edges))\n"
        "    except InvariantViolation as exc:\n"
        "        print(exc)\n"
    )
    assert _messages_under_hash_seeds(code, range(1, 7)) == {
        "edge ('c', 'z') references unknown vertex\n"
        "edge ('b', 2) references unknown vertex\n"
        "duplicate edge ('a', 'b')\n"
    }


def test_embedding_names_the_first_vertex_beyond_the_bound_in_id_order():
    t = _topo([("a", BOUNDARY), ("b", BOUNDARY), ("c", BOUNDARY)], [("a", "b"), ("b", "c")])
    with pytest.raises(InvariantViolation, match=r"vertex 'b' has coordinate -2e\+150 beyond"):
        EmbeddedNet(t, {"c": (0.0, 3e150), "b": (-2e150, 0.0), "a": (0.0, 0.0)})
    with pytest.raises(InvariantViolation, match="non-finite"):
        EmbeddedNet(t, {"c": (0.0, 3e150), "b": (1.0, math.inf), "a": (0.0, 0.0)})


_NOT_A_POSITION = "vertex 'c' has a position that is not two numbers within float range"


class _Pair(tuple):
    """A tuple subclass: EmbeddedNet's fast path takes only a plain tuple."""


@pytest.mark.parametrize("where, value, message", [
    ("edge", ("a", "b", "c"), "edge ('a', 'b', 'c') is not a pair of vertex ids"),
    ("edge", "ab", "edge 'ab' is not a pair of vertex ids"),
    ("edge", None, "edge None is not a pair of vertex ids"),
    ("vertex", ("c", BOUNDARY, "x"),
     "vertex entry ('c', 'boundary', 'x') is not a pair (id, kind)"),
    ("vertex", (1, BOUNDARY), "vertex id 1 is not a str"),
    ("key", 1, "position key 1 is not a vertex id (a str)"),
    ("position", (0.0, 0.0, 1.0), _NOT_A_POSITION),
    ("position", "xy", _NOT_A_POSITION),
    ("position", "12", _NOT_A_POSITION),
    ("position", None, _NOT_A_POSITION),
    ("position", (10**400, 0.0), _NOT_A_POSITION),
    ("position", (0.0, True), _NOT_A_POSITION),
    ("position", (True, 1.0), _NOT_A_POSITION),
    ("position", _Pair((2.0, True)), _NOT_A_POSITION),
    ("position", (np.float64(2.0), True), _NOT_A_POSITION),
    ("position", (math.nan, 1.0), "non-finite coordinate"),
    ("position", _Pair((np.float64(math.nan), 1.0)), "non-finite coordinate"),
    ("position", (2.0, -2e150),
     "vertex 'c' has coordinate -2e+150 beyond the bound 1e+150"),
    ("position", (np.float64(3e150), 1.0),
     "vertex 'c' has coordinate 3e+150 beyond the bound 1e+150"),
], ids=["edge-3-items", "edge-str", "edge-None", "vertex-3-items", "vertex-int-id",
        "position-int-key", "position-3-items",
        "position-xy", "position-12", "position-None", "position-overflow", "position-bool",
        "position-bool-first", "position-tuple-subclass", "position-float64-bool",
        "position-nan", "position-subclass-float64-nan", "position-beyond-bound",
        "position-float64-beyond-bound"])
def test_malformed_input_raises_invariant_violation_naming_it(where, value, message):
    # a path a-b-c with one edge, vertex entry or position replaced
    vertices = [("a", BOUNDARY), ("b", BOUNDARY), value if where == "vertex" else ("c", BOUNDARY)]
    edges = [("a", "b"), ("b", "c")] + ([value] if where == "edge" else [])
    positions = {"a": (0.0, 0.0), "b": (1.0, 0.0),
                 value if where == "key" else "c": value if where == "position" else (2.0, 1.0)}
    with pytest.raises(InvariantViolation) as exc:
        EmbeddedNet(_topo(vertices, edges), positions)
    assert str(exc.value) == message


def test_positions_and_xy_are_read_only(net25):
    assert net25.xy.dtype == np.float64 and net25.xy.shape == (len(net25.topology.ids), 2)
    assert net25.xy.tolist() == [list(net25.positions[v]) for v in net25.topology.ids]
    # a write here once left verify_geodesic_net passing a NaN vertex
    with pytest.raises(TypeError):
        net25.positions["c1"] = (math.nan, math.nan)
    with pytest.raises(ValueError):
        net25.xy[0, 0] = math.nan
    assert verify_geodesic_net(net25).all_pass


def test_pickle_and_deepcopy_give_an_equal_read_only_net(net25):
    for again in (pickle.loads(pickle.dumps(net25)), copy.deepcopy(net25)):
        assert again == net25 and again is not net25
        assert again.xy.tobytes() == net25.xy.tobytes()
        assert again.bbox_diagonal == net25.bbox_diagonal
        with pytest.raises(TypeError):
            again.positions["p"] = (0.0, 0.0)
        with pytest.raises(ValueError):
            again.xy[0, 0] = 0.0


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


def _reference_hessian(net, layout, u, length):
    """The Hessian block by block: per interior vertex in id order and its
    neighbours by id, +K on its diagonal block and -K toward an interior one."""
    slot = {v: k for k, v in enumerate(layout.interior)}
    edge = {}
    for e, (a, b) in enumerate(zip(layout.ea.tolist(), layout.eb.tolist())):
        edge[layout.ids[a], layout.ids[b]] = edge[layout.ids[b], layout.ids[a]] = e
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
        layout = net.topology.layout
        for pos in (net.xy, net.xy + rng.uniform(-1e-3, 1e-3, net.xy.shape)):
            d, length = layout.edges(pos)
            u = d / length[:, None]
            assert (layout.hessian(u, length).tobytes()
                    == _reference_hessian(net, layout, u, length).tobytes())


def _unit_and_length(net):
    d, length = net.topology.layout.edges(net.xy)
    return d / length[:, None], length


def _fresh_net25(net25):
    """net25 on a topology equal to its own but with no layout built yet."""
    topo = net25.topology
    return EmbeddedNet(NetTopology(topo.vertices, topo.edges), net25.positions)


def test_nets_on_one_topology_share_one_layout(net25):
    a = _fresh_net25(net25)
    b = a.with_positions({v: (x + 1.0, y) for v, (x, y) in a.positions.items()})
    la, lb = a.topology.layout, b.topology.layout
    assert la is lb is a.topology.layout
    assert la.order is lb.order and la.ea is lb.ea
    assert a.xy is not b.xy


def test_total_report_leaves_the_hessian_bins_unbuilt(net25):
    net = _fresh_net25(net25)
    total_report(net)
    assert "layout" in vars(net.topology)
    assert "hessian_bins" not in vars(net.topology.layout)
    net.topology.layout.hessian(*_unit_and_length(net))
    assert "hessian_bins" in vars(net.topology.layout)


def test_a_built_layout_leaves_equality_hash_repr_and_pickling_alone(net25):
    built, plain = _fresh_net25(net25).topology, _fresh_net25(net25).topology
    before = repr(built)
    built.layout.hessian(*_unit_and_length(EmbeddedNet(built, net25.positions)))
    assert "layout" in vars(built) and "layout" not in vars(plain)
    assert built == plain and hash(built) == hash(plain)
    assert repr(built) == repr(plain) == before
    again = pickle.loads(pickle.dumps(built))
    assert again == built and hash(again) == hash(built)
    u, length = _unit_and_length(net25)
    for topo in (again, pickle.loads(pickle.dumps(plain))):
        layout = EmbeddedNet(topo, net25.positions).topology.layout
        assert layout.imbalance(u).tobytes() == net25.topology.layout.imbalance(u).tobytes()
        assert (layout.hessian(u, length).tobytes()
                == net25.topology.layout.hessian(u, length).tobytes())


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
    assert "search_plan" not in vars(topo.layout)  # balance and relax never build it
    assert is_irreducible(a) == is_irreducible(b) == ("yes", None)
    plan = vars(topo.layout)["search_plan"]  # built by the first search
    assert is_irreducible(b, minimal=True) == ("yes", None)
    assert topo.layout.search_plan is plan
    inc, ends, _, _ = _search_tables(b, 1e-7)
    assert inc is plan[1] and ends is plan[2]


def test_a_built_search_index_leaves_equality_hash_repr_and_pickling_alone(net25):
    built, plain = _fresh_net25(net25).topology, _fresh_net25(net25).topology
    before = repr(built)
    verdict = is_irreducible(EmbeddedNet(built, net25.positions))
    assert "search_plan" in vars(built.layout) and "layout" not in vars(plain)
    assert built == plain and hash(built) == hash(plain)
    assert repr(built) == repr(plain) == before
    for topo in (pickle.loads(pickle.dumps(built)), pickle.loads(pickle.dumps(plain))):
        assert topo == built and hash(topo) == hash(built)
        assert is_irreducible(EmbeddedNet(topo, net25.positions)) == verdict


def test_pickle_and_deepcopy_rebuild_a_read_only_topology_without_its_caches(net25):
    topo = _fresh_net25(net25).topology
    assert is_irreducible(EmbeddedNet(topo, net25.positions)) == ("yes", None)
    assert "layout" in vars(topo) and "search_plan" in vars(topo.layout)
    for again in (pickle.loads(pickle.dumps(topo)), copy.deepcopy(topo)):
        assert again == topo and hash(again) == hash(topo) and again is not topo
        assert "layout" not in vars(again)  # nor, with it, the search's plan
        assert again.edge_order.edges == topo.edge_order.edges
        for got, want in ((again.edge_order.a, topo.edge_order.a),
                          (again.edge_order.b, topo.edge_order.b), (again._degree, topo._degree)):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
            with pytest.raises(ValueError):
                got[0] = 1
        assert is_irreducible(EmbeddedNet(again, net25.positions)) == ("yes", None)


def test_full_subset_sums_of_the_terms_equal_the_imbalance(net25):
    """The search sums subsets of the terms that imbalance() bincounts;
    each vertex's full subset adds them in the same order from +0.0."""
    ring = topology_template(NetFamily(family=RING_EXPERIMENTAL, n=8))
    rng = np.random.default_rng(11)
    for net in (net25, EmbeddedNet(ring.topology, ring.positions)):
        layout = net.topology.layout
        plan = layout.search_plan[0]
        column = np.argsort(plan.order)  # group -> column
        # a vertex of degree n has its full subset 2^n - 1 in block k = n - 1,
        # as row 2^k + (2^k - 1)
        k = np.bincount(layout.grad_rows) - 1
        at = plan.block[k] + ((1 << k) - 1) * plan.count[k] + column
        d, length = layout.edges(net.xy)
        # the net's own unit vectors, free ones, and a grid of -1, 0 and 1,
        # whose zeros the sign turns into -0.0
        for u in (d / length[:, None], rng.normal(size=d.shape),
                  rng.integers(-1, 2, size=d.shape).astype(np.float64)):
            full = plan.sums(layout.terms(u).view(np.complex128).ravel())[at]
            s = layout.imbalance(u)
            assert full.real.tobytes() == s[:, 0].tobytes()
            assert full.imag.tobytes() == s[:, 1].tobytes()


def test_a_search_index_builds_and_reuses_the_layout(net25, monkeypatch):
    built = []
    init = TopologyLayout.__init__
    monkeypatch.setattr(TopologyLayout, "__init__",
                        lambda self, topo: built.append(topo) or init(self, topo))
    topo = _fresh_net25(net25).topology
    plan = topo.layout.search_plan
    assert built == [topo] and vars(topo)["layout"] is topo.layout
    assert is_irreducible(EmbeddedNet(topo, net25.positions)) == ("yes", None)
    total_report(EmbeddedNet(topo, net25.positions))
    assert built == [topo] and topo.layout.search_plan is plan


def test_search_index_masks_count_the_edges_between_boundary_vertices():
    # p1-p2 and p3-p4 have no interior end and no term, yet hold bits of the masks
    topo = _topo([("p1", BOUNDARY), ("p2", BOUNDARY), ("p3", BOUNDARY), ("p4", BOUNDARY),
                  ("u", INTERIOR), ("v", INTERIOR)],
                 [("p1", "p2"), ("p1", "u"), ("p2", "u"), ("u", "v"), ("p3", "p4"),
                  ("p3", "v"), ("p4", "v")])
    edges, interior = topo.edge_order.edges, topo.interior_ids
    _, inc, ends = topo.layout.search_plan
    assert topo.layout.degree.tolist() == [topo.degree(v) for v in interior]
    assert inc == tuple(sum(1 << k for k, e in enumerate(edges) if v in e) for v in interior)
    assert ends == tuple(sum(1 << j for j, v in enumerate(interior) if v in e) for e in edges)


def test_a_shared_layout_and_what_it_builds_are_read_only():
    """A template's topology is shared by every later template and load of
    it, so no write may reach its layout, Hessian bins or search plan."""
    tpl = topology_template(NetFamily(RING_EXPERIMENTAL, 4))
    net = EmbeddedNet(tpl.topology, tpl.positions)
    layout = net.topology.layout
    layout.hessian(*_unit_and_length(net))
    sums, inc, ends = layout.search_plan
    assert type(inc) is tuple and type(ends) is tuple
    arrays = {name: a for name, a in vars(layout).items()
              if isinstance(a, np.ndarray) and not name.startswith("_")}
    assert set(arrays) == {"order", "degree", "inner", "fixed_a", "fixed_b", "ea", "eb", "sa",
                           "sb", "grad_rows", "grad_edges", "grad_sign", "grad_sign_xy",
                           "grad_bins"}
    bins = [a for a in layout.hessian_bins if isinstance(a, np.ndarray)]
    steps = [a for step in sums.steps for a in step[1:]]
    assert len(bins) == 5 and len(steps) == 2 * len(sums.steps) > 0
    for a in (*arrays.values(), *bins, sums.order, sums.count, sums.block, *steps):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


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
    layout = net.topology.layout
    u, length = _unit_and_length(net)
    assert layout.imbalance(u).tobytes() == _add_at_imbalance(layout, u).tobytes()
    assert (layout.hessian(u, length).tobytes()
            == _add_at_hessian(layout, u, length).tobytes())


# The bincount assembly, trial check and positions_dict as they were before
# each weight became one flat gather and the trial check skipped the bounding
# box when it can, kept verbatim as the reference of the rewritten ones, but
# for reading the arrays of a TopologyLayout where they read those of a net
# packed on it, and for the trial check's fixed_min, now an argument.
def _reference_within_bound(xy):
    return np.abs(xy) <= COORD_BOUND  # False for NaN too


def _reference_bbox_diagonal(xy):
    return math.hypot(*np.ptp(xy, axis=0).tolist())


def _reference_edges(self, pos):
    d = pos[self.eb] - pos[self.ea]
    return d, np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def _reference_terms(self, u):
    return self.grad_sign[:, None] * u[self.grad_edges]


def _reference_imbalance(self, u):
    n = len(self.interior)
    return np.bincount(self.grad_bins, _reference_terms(self, u).ravel(),
                       minlength=2 * n).reshape(n, 2)


def _reference_hessian_bins(self):
    n, m = len(self.interior), len(self.ea)
    pair = np.flatnonzero((self.sa >= 0) & (self.sb >= 0))
    rows = np.concatenate([self.grad_rows, self.sa[pair], self.sb[pair]])
    cols = np.concatenate([self.grad_rows, self.sb[pair], self.sa[pair]])
    terms = np.concatenate([self.grad_edges, m + pair, m + pair])
    i, j = np.divmod(np.arange(4), 2)  # entry (i, j) of a 2x2 block
    bins = ((2 * rows[:, None] + i) * (2 * n) + 2 * cols[:, None] + j).ravel()
    return terms, bins


def _reference_bincount_hessian(self, u, length):
    k = (np.eye(2) - u[:, :, None] * u[:, None, :]) / length[:, None, None]
    terms, bins = _reference_hessian_bins(self)
    n2 = 2 * len(self.interior)
    weights = np.concatenate((k, -k))[terms].ravel()
    return np.bincount(bins, weights, minlength=n2 * n2).reshape(n2, n2)


def _reference_checked_edges(self, pos, floor, fixed_min):
    if not _reference_within_bound(pos).all():
        return None
    d, length = _reference_edges(self, pos)
    eps = _degeneracy_threshold(_reference_bbox_diagonal(pos))
    shortest = length.min(initial=math.inf)
    return (d, length) if shortest >= floor and min(shortest, fixed_min) > eps else None


def _reference_positions_dict(self, arr):
    return {vid: (float(arr[k, 0]), float(arr[k, 1])) for k, vid in enumerate(self.ids)}


def _trial_positions(layout, pos, rng):
    """Positions a trial step can produce: the net's own, moved a little or
    far, shifted to a far origin, scaled up toward the coordinate bound,
    with an interior vertex pulled to within 1e-14 to 1e-6 of a neighbour
    (at a far origin, possibly onto it), beyond the bound, and NaN."""
    out = [pos, pos + rng.uniform(-1e-3, 1e-3, pos.shape),
           pos + rng.uniform(-0.3, 0.3, pos.shape), pos + 1e6, pos * 1e140 - 3e149]
    interior = set(layout.order.tolist())
    for r in (1e-14, 1e-12, 1.01e-12, 1e-9, 1e-6):
        for base in (pos, pos * 1e4, pos + 1e6):
            k = int(rng.integers(len(layout.ea)))
            v, w = (layout.eb[k], layout.ea[k]) if int(layout.eb[k]) in interior else (
                layout.ea[k], layout.eb[k])
            near = base.copy()
            near[v] = base[w] + r * np.array([math.cos(k), math.sin(k)])
            out.append(near)
    nan = pos.copy()
    nan[layout.order[-1], 1] = math.nan
    return out + [pos * 1e151, nan]


def test_rewritten_pieces_equal_the_reference(net25, t2_template):
    ring = topology_template(NetFamily(family=RING_EXPERIMENTAL, n=8))
    nets = [net25, EmbeddedNet(t2_template.topology, t2_template.positions),
            EmbeddedNet(ring.topology, ring.positions), make_corner_net()]
    rng = np.random.default_rng(16)
    interior = set(net25.topology.interior_ids)
    nets += [net25.with_positions({v: (x + rng.uniform(-0.05, 0.05), y + rng.uniform(-0.05, 0.05))
                                   if v in interior else (x, y)
                                   for v, (x, y) in net25.positions.items()})
             for _ in range(5)]
    for net in nets:
        layout = net.topology.layout
        fixed_min = layout.fixed_min(net.xy)
        for pos in _trial_positions(layout, net.xy, rng):
            for floor in (0.0, 1e-9, 1e-3, 0.3):
                got = layout.checked_edges(pos, floor, fixed_min)
                want = _reference_checked_edges(layout, pos, floor, fixed_min)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
            got, want = layout.positions_dict(pos), _reference_positions_dict(layout, pos)
            assert list(got.items()) == list(want.items()) or not np.isfinite(pos).all()
            assert all(type(p) is tuple and type(p[0]) is type(p[1]) is float
                       for p in got.values())
            if not np.abs(pos).max() <= COORD_BOUND:
                continue
            d, length = layout.edges(pos)
            d_ref, length_ref = _reference_edges(layout, pos)
            assert d.tobytes() == d_ref.tobytes() and length.tobytes() == length_ref.tobytes()
            if length.min() == 0.0:  # no unit vector
                continue
            u = d / length[:, None]
            assert layout.terms(u).tobytes() == _reference_terms(layout, u).tobytes()
            assert layout.imbalance(u).tobytes() == _reference_imbalance(layout, u).tobytes()
            assert (layout.hessian(u, length).tobytes()
                    == _reference_bincount_hessian(layout, u, length).tobytes())


def test_checked_edges_rejects_what_embedded_net_rejects():
    # q1-q2 joins two pins 2e-11 apart: above the threshold while the net is
    # about 1.4 across, at or below it once v moves out to x = 50
    topo = _topo([("q1", BOUNDARY), ("q2", BOUNDARY), ("r1", BOUNDARY), ("r2", BOUNDARY),
                  ("v", INTERIOR)],
                 [("q1", "q2"), ("q1", "v"), ("r1", "v"), ("r2", "v")])
    net = EmbeddedNet(topo, {"q1": (0.0, 0.0), "q2": (2e-11, 0.0), "r1": (1.0, 0.0),
                             "r2": (0.0, 1.0), "v": (0.3, 0.3)})
    for xy, embeds in [((0.4, 0.2), True), ((50.0, 0.2), False), ((1.0, 0.0), False),
                       ((2e150, 0.0), False), ((math.nan, 0.0), False)]:
        assert _embeds_with_v_at(net, xy) == embeds
    layout, fixed_min = topo.layout, topo.layout.fixed_min(net.xy)
    # the shortest edge from v at (0.4, 0.2) is v-q1, about 0.447 long
    pos = net.xy.copy()
    pos[layout.order[0]] = (0.4, 0.2)
    assert layout.checked_edges(pos, 0.44, fixed_min) is not None
    assert layout.checked_edges(pos, 0.45, fixed_min) is None
    # v-q1 is just above the threshold by sqrt(x*x + y*y) and at it by
    # math.hypot, with which EmbeddedNet once rejected what checked_edges
    # accepted
    w = 850519.6527387904
    assert _embeds_with_v_at(_three_pin_star(w, 0.0),
                             (4.94076389772654e-07, 6.922948799204954e-07))
    # a coordinate of size COORD_BOUND is admitted, a larger one is not
    star = _three_pin_star(1.0, 1.0)
    assert _embeds_with_v_at(star, (COORD_BOUND, -COORD_BOUND))
    assert not _embeds_with_v_at(star, (np.nextafter(COORD_BOUND, math.inf), 0.0))


def _three_pin_star(w, h, off=0.0):
    """Pins q1 = (0, 0), q2 = (w, 0) and q3 = (w/2, h), each joined to v,
    all moved by (off, off)."""
    topo = _topo([("q1", BOUNDARY), ("q2", BOUNDARY), ("q3", BOUNDARY), ("v", INTERIOR)],
                 [("q1", "v"), ("q2", "v"), ("q3", "v")])
    return EmbeddedNet(topo, {"q1": (off, off), "q2": (w + off, off),
                              "q3": (w / 2.0 + off, h + off),
                              "v": (w / 2.0 + off, w / 4.0 + h + off)})


def _embeds_with_v_at(net, xy):
    """Whether EmbeddedNet accepts the net with its one interior vertex
    moved to xy, asserting that checked_edges agrees."""
    layout = net.topology.layout
    pos = net.xy.copy()
    pos[layout.order[0]] = xy
    try:
        net.with_positions(layout.positions_dict(pos))
    except InvariantViolation:
        embeds = False
    else:
        embeds = True
    assert (layout.checked_edges(pos, 0.0, layout.fixed_min(net.xy)) is not None) == embeds
    return embeds


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 2.0 * math.pi),
       st.integers(-3, 3), st.sampled_from([(1.0, 0.0), (1.0, 1e6), (1e140, 0.0), (1e-8, 0.0)]))
def test_checked_edges_agrees_with_embedded_net_at_the_threshold(w, h, theta, ulps, frame):
    # v sits about `ulps` ulps from the threshold's distance to q1, in
    # direction theta, on a star scaled and moved by frame.  Within 0.25 of
    # the origin (scale 1e-8) the threshold is EPS_DEG for every box, so the
    # check that skips the box decides at it; elsewhere the box is measured.
    # At origin 1e6 the coordinates' ulps can put v onto q1.
    scale, off = frame
    w, h = scale * w, scale * h
    net = _three_pin_star(w, h, off)
    xy = np.array([[off, off], [w + off, off], [w / 2.0 + off, h + off], [off, off]])
    r = _degeneracy_threshold(_bbox_diagonal(xy)) * (1.0 + ulps * 2.0**-52)
    _embeds_with_v_at(net, (off + r * math.cos(theta), off + r * math.sin(theta)))


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_detect_overlaps_rejects_a_bad_tolerance(corner_net, tol):
    # an empty list would read as overlap-free
    with pytest.raises(ValueError, match="tol_overlap"):
        detect_overlaps(corner_net, tol_overlap=tol)


def test_detect_overlaps_custom_tolerance(corner_net):
    # with an absurdly large tolerance everything looks coincident
    findings = detect_overlaps(corner_net, tol_overlap=10.0)
    assert any(f.kind == "vertices" for f in findings)


# The scalar overlap tests detect_overlaps once ran on each screened pair,
# kept verbatim as the oracle of its one numpy pass.
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


def test_detect_overlaps_drops_a_pair_at_a_later_failed_test():
    """Two pairs pass the first two point-line tests, the ends of the second
    segment within tol of the first's line, and fail the third or the fourth:
    the second segment's line passes far from an end of the first.  Neither
    is a finding; a third pair passes all four and is one."""
    tol = 1e-3
    net = _segment_pairs_net([
        # tilted by 0.9 tol over its length: 3.6 tol from (0, 0)
        (((0.0, 0.0), (10.0, 0.0)), ((4.0, 0.0), (5.0, 0.9 * tol))),
        # through (0, 5) to within rounding, 1.5 tol from (10, 5)
        (((0.0, 5.0), (10.0, 5.0)), ((1.0, 5.0 + 0.15 * tol), (2.0, 5.0 + 0.3 * tol))),
        (((0.0, 10.0), (10.0, 10.0)), ((4.0, 10.0), (12.0, 10.0))),
    ])
    pos = net.positions

    def offset(point: str, segment: int) -> float:
        return _point_line_dist(pos[point], pos[f"s{segment:02d}a"], pos[f"s{segment:02d}b"])

    for first, fails in ((0, "s00a"), (2, "s02b")):
        assert max(offset(f"s{first + 1:02d}{end}", first) for end in "ab") <= tol
        assert offset(fails, first + 1) > tol
    assert offset("s02a", 3) <= tol
    found = detect_overlaps(net, tol_overlap=tol)
    assert found == _reference_overlaps(net, tol)
    assert [f.items for f in found] == [(("s04a", "s04b"), ("s05a", "s05b"))]


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


def _ring32():
    tpl = topology_template(NetFamily(RING_EXPERIMENTAL, 32))
    return EmbeddedNet(tpl.topology, tpl.positions)


def _report_tuple(report):
    return dict(report.per_vertex), report.total_loss, report.max_norm


def test_a_net_hands_out_its_kept_report_and_findings_in_fresh_containers():
    net = _ring32()
    fresh = EmbeddedNet(net.topology, net.positions)  # the same net, nothing kept yet
    want = _report_tuple(total_report(fresh)), detect_overlaps(fresh), verify_geodesic_net(fresh)
    assert want[1] and want[2].offending_vertices  # the ring's collinear pairs, its imbalance
    cleared, zeroed = total_report(net), total_report(net)
    cleared.per_vertex.clear()
    for v in zeroed.per_vertex:
        zeroed.per_vertex[v] = ((0.0, 0.0), 0.0)
    detect_overlaps(net).append(OverlapFinding("vertices", ("b1", "c1"), "planted"))
    detect_overlaps(net).clear()
    for _ in range(2):
        assert (_report_tuple(total_report(net)), detect_overlaps(net),
                verify_geodesic_net(net)) == want


def test_an_explicit_tol_overlap_never_reads_the_default_findings():
    """Two collinear segments lifted 5e-4 off each other overlap within a
    tolerance of 1e-3 but not within the default, 1e-6 of the 50-unit
    bounding-box diagonal; whichever call comes first, each gets its own."""
    segments = [(((0.0, 0.0), (2.0, 0.0)), ((1.0, 5e-4), (3.0, 5e-4)))]
    items = [(("s00a", "s00b"), ("s01a", "s01b"))]
    for default_first in (False, True):
        net = _segment_pairs_net(segments)
        if default_first:
            default = detect_overlaps(net)
        explicit = detect_overlaps(net, tol_overlap=1e-3)
        if not default_first:
            default = detect_overlaps(net)
        assert default == [] == _reference_overlaps(net)
        assert [f.items for f in explicit] == items
        assert explicit == _reference_overlaps(net, 1e-3) == detect_overlaps(net, 1e-3)
        assert detect_overlaps(net) == []


def test_a_net_with_kept_results_pickles_and_copies_without_them(tmp_path):
    net = _ring32()
    before = pickle.dumps(net)
    report, findings, text = _report_tuple(total_report(net)), detect_overlaps(net), _net_text(net)
    export_svg(net, SvgStyle(), str(tmp_path / "net.svg"))
    kept = {"_imbalance", "_overlaps", "_coordinate_text"}
    assert kept <= set(vars(net))
    after = pickle.dumps(net)
    assert len(after) == len(before)
    for again in (pickle.loads(after), copy.copy(net)):
        assert again == net and again is not net
        assert not kept & set(vars(again))
        assert _report_tuple(total_report(again)) == report
        assert detect_overlaps(again) == findings
        assert _net_text(again) == text
        export_svg(again, SvgStyle(), str(tmp_path / "again.svg"))
        assert (tmp_path / "again.svg").read_bytes() == (tmp_path / "net.svg").read_bytes()


# total_report, detect_overlaps, _net_text and export_svg as they were
# before a net kept its report, default findings and coordinate text,
# verbatim: the reference for first and later calls.
def _reference_total_report(net: EmbeddedNet) -> ImbalanceReport:
    """Imbalance of every interior vertex; boundary vertices are exempt.

    Every edge is longer than net.eps_deg, as EmbeddedNet checked it on the
    same read-only array with the same formula.
    """
    layout = net.topology.layout
    d, length = layout.edges(net.xy)
    s = layout.imbalance(d / length[:, None]).tolist()
    per: dict[str, tuple[Point, float]] = {}
    total = 0.0
    worst = 0.0
    for v, (sx, sy) in zip(layout.interior, s):
        norm = math.hypot(sx, sy)
        per[v] = ((sx, sy), norm)
        total += norm
        worst = max(worst, norm)
    return ImbalanceReport(per_vertex=per, total_loss=total, max_norm=worst)


def _reference_detect_overlaps(net: EmbeddedNet,
                               tol_overlap: float | None = None) -> list[OverlapFinding]:
    """Find coincident or collinear-overlapping edge pairs and near-coincident
    vertex pairs.  An empty list means the embedding is overlap-free.

    tol_overlap defaults to 1e-6 of the bounding-box diagonal; below 0 or NaN it raises ValueError.

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
    if tol_overlap is not None and not (tol_overlap >= 0.0):
        raise ValueError(f"tol_overlap must be >= 0, got {tol_overlap}")
    tol = 1e-6 * net.bbox_diagonal if tol_overlap is None else tol_overlap
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


def _reference_net_text(net: EmbeddedNet) -> str:
    """The net file's text: byte for byte json.dumps(doc, indent=1) plus a
    newline, where doc holds format_version, the vertices in topology order
    as {"id", "pos": [x, y], "boundary"} and the edges in edge order as
    [a, b].  It is written out directly because json's indenting encoder
    runs in pure Python.  Ids go through the same escaping function as
    json's default ensure_ascii, and coordinates through repr, which is
    what json writes for a finite float (EmbeddedNet admits no other)."""
    quote = json.encoder.encode_basestring_ascii
    pos = net.positions
    flag = {BOUNDARY: "true", INTERIOR: "false"}
    vertices = [
        f'  {{\n   "id": {quote(vid)},\n   "pos": [\n    {pos[vid][0]!r},\n'
        f'    {pos[vid][1]!r}\n   ],\n   "boundary": {flag[kind]}\n  }}'
        for vid, kind in net.topology.vertices
    ]
    edges = [f'  [\n   {quote(a)},\n   {quote(b)}\n  ]' for a, b in net.topology.edge_order.edges]
    return (f'{{\n "format_version": {FORMAT_VERSION},\n "vertices": {_json_list(vertices)},\n'
            f' "edges": {_json_list(edges)}\n}}\n')


def _reference_export_svg(net: EmbeddedNet, style: SvgStyle, path: str) -> None:
    """Deterministic standalone SVG; boundary vertices drawn larger.
    Raises ValueError, and writes nothing, when the viewBox overflows."""
    (x_lo, y_lo), (x_hi, y_hi) = net.xy.min(axis=0).tolist(), net.xy.max(axis=0).tolist()
    margin = style.margin_fraction * max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    x0, y0 = x_lo - margin, -(y_hi + margin)
    w, h = (x_hi - x_lo) + 2.0 * margin, (y_hi - y_lo) + 2.0 * margin
    if not all(map(math.isfinite, (x0, y0, w, h))):  # a finite margin_fraction can overflow
        raise ValueError(f"margin_fraction {style.margin_fraction!r} overflows the viewBox")
    # each coordinate and style attribute is formatted once
    xy = {vid: (repr(x), repr(y)) for vid, (x, y) in net.positions.items()}
    stroke = f'stroke="#333333" stroke-width="{style.stroke_width!r}"/>'
    dots = {BOUNDARY: f'r="{style.boundary_radius!r}" fill="#c0392b"/>',
            INTERIOR: f'r="{style.balanced_radius!r}" fill="#2c3e50"/>'}
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0!r} {y0!r} {w!r} {h!r}">',
        # flip y so the mathematical orientation is preserved on screen
        '<g transform="scale(1,-1)">',
    ]
    for a, b in net.topology.edge_order.edges:
        (ax, ay), (bx, by) = xy[a], xy[b]
        lines.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" {stroke}')
    for vid, kind in net.topology.vertices:
        x, y = xy[vid]
        lines.append(f'<circle cx="{x}" cy="{y}" {dots[kind]}')
    lines += ("</g>", "</svg>\n")
    _write_text(path, "\n".join(lines))


def _report_bits(report) -> tuple:
    """Every float of a report by float.hex, with the vertices in order."""
    return ([(v, sx.hex(), sy.hex(), norm.hex()) for v, ((sx, sy), norm) in report.per_vertex.items()],
            report.total_loss.hex(), report.max_norm.hex())


KEPT_CALLS = ("report", "overlaps", "overlaps at 1e-3", "text", "svg")


@st.composite
def kept_result_cases(draw):
    """A planted, overlap or lattice net and an order of the calls that
    read or fill what it keeps."""
    source = draw(st.sampled_from(["planted", "overlap", "lattice"]))
    if source == "planted":
        net = draw(planted_nets())
    elif source == "overlap":
        net, _ = draw(overlap_nets())
    else:
        net = lattice_net(draw(st.integers(2, 3)), draw(st.integers(0, 10**6)))
    return net, draw(st.permutations(KEPT_CALLS))


@settings(max_examples=150, deadline=None)
@given(kept_result_cases())
def test_kept_results_equal_the_reference_on_every_call(tmp_path_factory, case):
    net, order = case
    tmp = tmp_path_factory.mktemp("kept")
    _reference_export_svg(net, SvgStyle(), str(tmp / "want.svg"))
    want = {"report": _report_bits(_reference_total_report(net)),
            "overlaps": _reference_detect_overlaps(net),
            "overlaps at 1e-3": _reference_detect_overlaps(net, 1e-3),
            "text": _reference_net_text(net),
            "svg": (tmp / "want.svg").read_bytes()}

    def got(call: str):
        if call == "report":
            return _report_bits(total_report(net))
        if call == "overlaps":
            return detect_overlaps(net)
        if call == "overlaps at 1e-3":
            return detect_overlaps(net, 1e-3)
        if call == "text":
            return _net_text(net)
        export_svg(net, SvgStyle(), str(tmp / "got.svg"))
        return (tmp / "got.svg").read_bytes()

    for _ in range(2):  # the first call of each fills what the net keeps, the second reads it
        for call in order:
            assert got(call) == want[call], call
