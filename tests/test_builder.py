"""Exact construction of the 25-net and the topology template families."""

from __future__ import annotations

import importlib
import math
import re

import numpy as np
import pytest

from geonets import (
    AngleSolution,
    ConstructionParams,
    InvariantViolation,
    NetFamily,
    NoFermatPoint,
    RING_EXPERIMENTAL,
    T2_OCTAGON,
    T3_DODECAGON,
    UnsupportedFamily,
    align_rigid,
    build_dodecagon,
    build_net25,
    compute_K,
    dist,
    fermat_point,
    params_from_solution,
    solve_angles,
    topology_template,
    total_report,
)
from geonets.builder import MAX_RING_ORDER
from geonets.relax import MAX_INTERIOR

RING_ORDER = ["b1", "a11", "a12", "b2", "a21", "a22", "b3", "a31", "a32", "b4", "a41", "a42"]


def test_dodecagon_ring_order_and_anchor(sol):
    ring = build_dodecagon(params_from_solution(sol))
    assert [name for name, _ in ring] == RING_ORDER
    pos = dict(ring)
    assert pos["a11"] == (0.0, 0.0)
    assert pos["a12"][1] == pytest.approx(0.0, abs=1e-15)
    assert pos["a12"][0] > 0.0
    # interior of the ring sits in the upper half-plane
    assert all(p[1] > -1e-12 for p in pos.values())


def test_dodecagon_side_lengths_alternate(sol):
    params = params_from_solution(sol)
    ring = build_dodecagon(params)
    pos = dict(ring)
    for i, prev_b in (("1", "b1"), ("2", "b2"), ("3", "b3"), ("4", "b4")):
        a1, a2 = pos[f"a{i}1"], pos[f"a{i}2"]
        assert dist(pos[prev_b], a1) == pytest.approx(1.0, abs=1e-12)
        assert dist(a1, a2) == pytest.approx(params.side_long, abs=1e-12)


def test_dodecagon_rejects_nonpositive_side():
    with pytest.raises(InvariantViolation):
        build_dodecagon(
            ConstructionParams(alpha=3.38, beta=1.5, side_short=1.0, side_long=0.0, boundary_leg=1.0)
        )


@pytest.mark.parametrize(
    "side_long, side_short",
    [(2.5, 1.0), (1e6, 1.0), (1e9, 1.0), (1e12, 1.0), (None, 1e6)],
    ids=["long-2.5", "long-1e6", "long-1e9", "long-1e12", "short-1e6"],
)
def test_dodecagon_closure_is_independent_of_side_long(sol, side_long, side_short):
    # the four-fold turn pattern closes the ring for any positive sides; an
    # absolute gap bound once refused rings whose rounding alone opens one
    params = params_from_solution(sol)
    stretched = ConstructionParams(
        alpha=params.alpha,
        beta=params.beta,
        side_short=side_short,
        side_long=params.side_long if side_long is None else side_long,
        boundary_leg=params.boundary_leg,
    )
    ring = build_dodecagon(stretched)
    assert len(ring) == 12
    scale = max(stretched.side_long, side_short)
    for k, (name, point) in enumerate(ring):  # b1-a11 too, the side that closes the ring
        want = stretched.side_long if re.fullmatch(r"a\d1", name) else side_short
        assert abs(dist(point, ring[(k + 1) % 12][1]) - want) <= 1e-12 * scale, name


def test_net25_names_the_corner_triangle_without_a_fermat_point():
    # an angle pair off the root that leaves triangle c1 d1 d4 an angle of
    # at least 2*pi/3, found on a grid over (pi, 2*pi) x (0, pi/2)
    sol = AngleSolution(3.4101268646726326, 1.30243254177722, compute_K(), 0.0, 0.0)
    with pytest.raises(NoFermatPoint, match="triangle for e1"):
        build_net25(sol)


def test_net25_counts(net25):
    topo = net25.topology
    assert len(topo.ids) == 29
    assert len(topo.edges) == 64
    assert topo.boundary_ids == ("d1", "d2", "d3", "d4")
    assert len(topo.interior_ids) == 25


def test_net25_balance(net25):
    rep = total_report(net25)
    assert rep.max_norm < 1e-12


def test_net25_matches_reference_coordinates(net25, reference_coords):
    assert set(net25.positions) == set(reference_coords)
    worst = max(dist(net25.positions[k], reference_coords[k]) for k in reference_coords)
    assert worst < 1e-9


def test_net25_reference_congruence_via_alignment(net25, reference_coords):
    tf, rmsd = align_rigid(reference_coords, dict(net25.positions))
    assert rmsd < 1e-6
    assert not tf.reflected


def test_net25_quarter_turn_symmetry(net25):
    """Rotating a quarter turn about p advances every index by one."""
    pos = net25.positions
    px, py = pos["p"]

    def rot(q):
        return (px - (q[1] - py), py + (q[0] - px))

    for i in range(1, 5):
        nxt = 1 if i == 4 else i + 1
        for stem in ("a{}1", "a{}2", "b{}", "c{}", "d{}", "e{}", "f{}"):
            src = stem.format(i)
            dst = stem.format(nxt)
            assert dist(rot(pos[src]), pos[dst]) < 1e-9, (src, dst)


def test_net25_mirror_symmetry(net25):
    # reflection across the vertical axis through p swaps the two ring halves
    pos = net25.positions
    px = pos["p"][0]

    def mirror(q):
        return (2.0 * px - q[0], q[1])

    for src, dst in (("a11", "a12"), ("a21", "a42"), ("b2", "b1"), ("f2", "f4"), ("d2", "d4")):
        assert dist(mirror(pos[src]), pos[dst]) < 1e-9


def test_net25_landmarks_cover_all_vertices(construction):
    assert set(construction.landmarks) == set(construction.net.positions)
    assert construction.landmarks["a11"] == (0.0, 0.0)


def test_net25_edge_shape(net25):
    topo = net25.topology
    for i in range(1, 5):
        assert topo.degree(f"a{i}1") == 5
        assert topo.degree(f"a{i}2") == 5
        assert topo.degree(f"b{i}") == 3
        # anchors take two triangle legs, two chord ends, and two e-legs
        assert topo.degree(f"d{i}") == 6
        assert topo.degree(f"c{i}") == 6
        assert topo.degree(f"e{i}") == 3
        assert topo.degree(f"f{i}") == 3
    assert topo.neighbors("p") == ("f1", "f2", "f3", "f4")
    # the crossing vertex c_i joins its corner b_i to both anchor chords
    assert topo.neighbors("c1") == ("a11", "a42", "b1", "d1", "d4", "e1")


def test_family_validation():
    with pytest.raises(UnsupportedFamily):
        NetFamily("hexagon", 3)
    with pytest.raises(UnsupportedFamily):
        NetFamily(T3_DODECAGON, 2)
    with pytest.raises(UnsupportedFamily):
        NetFamily(T2_OCTAGON, 3)
    with pytest.raises(UnsupportedFamily):
        NetFamily(RING_EXPERIMENTAL, 1)


@pytest.mark.parametrize("n", [4.0, 4.5, "4", None, 4 + 0j])
def test_family_rejects_an_order_that_is_not_an_integer(n):
    with pytest.raises(UnsupportedFamily, match=re.escape(f"ring order {n!r} is not an integer")):
        NetFamily(RING_EXPERIMENTAL, n)


def test_family_order_is_kept_as_an_int():
    fam = NetFamily(RING_EXPERIMENTAL, np.int64(5))
    assert fam == NetFamily(RING_EXPERIMENTAL, 5) and type(fam.n) is int
    assert topology_template(fam) == topology_template(NetFamily(RING_EXPERIMENTAL, 5))
    with pytest.raises(UnsupportedFamily, match="ring order 3.0 is not an integer"):
        NetFamily(T3_DODECAGON, 3.0)
    with pytest.raises(UnsupportedFamily, match="ring order 1 < 2"):
        NetFamily(RING_EXPERIMENTAL, True)


def test_every_seed_triangle_has_a_fermat_point(monkeypatch):
    """The seeds once fell back to the centroid where a corner angle reached
    2*pi/3.  No order reaches it: with the fallback put back, the seed layout
    of every admitted order is bit-identical."""
    builder = importlib.import_module("geonets.builder")
    orders = range(2, MAX_RING_ORDER + 1)
    now = [builder._template_positions(n) for n in orders]

    def fermat_or_centroid(t):
        try:
            return fermat_point(t)
        except NoFermatPoint:
            return (sum(p[0] for p in t) / 3.0, sum(p[1] for p in t) / 3.0)

    monkeypatch.setattr(builder, "fermat_point", fermat_or_centroid)
    for n, pos in zip(orders, now):
        before = builder._template_positions(n)
        assert list(before) == list(pos)
        assert np.array(list(before.values())).tobytes() == np.array(list(pos.values())).tobytes()


def test_ring_order_limit_admits_every_template_that_relax_takes():
    # checked on counts: the largest template is never built
    for n in (4, 8):
        topo = topology_template(NetFamily(RING_EXPERIMENTAL, n)).topology
        assert len(topo.interior_ids) == 4 * n + 13
    assert 32 <= MAX_RING_ORDER and 4 * MAX_RING_ORDER + 13 <= MAX_INTERIOR
    assert NetFamily(RING_EXPERIMENTAL, MAX_RING_ORDER).n == MAX_RING_ORDER
    with pytest.raises(UnsupportedFamily, match=f"ring order {MAX_RING_ORDER + 1} > "):
        NetFamily(RING_EXPERIMENTAL, MAX_RING_ORDER + 1)


def test_template_order3_is_the_exact_net(net25):
    tpl = topology_template(NetFamily(T3_DODECAGON, 3))
    assert not tpl.experimental
    assert tpl.topology == net25.topology
    assert tpl.positions == net25.positions
    # the construction's own floats, in its order, to the bit
    built = build_net25(solve_angles()).net
    assert list(tpl.positions) == list(built.positions)
    assert (np.array(list(tpl.positions.values())).tobytes()
            == np.array(list(built.positions.values())).tobytes())


def test_template_order2_shape(t2_template):
    assert not t2_template.experimental
    topo = t2_template.topology
    assert len(topo.ids) == 20
    assert len(topo.edges) == 44
    assert len(topo.interior_ids) == 16
    assert topo.boundary_ids == ("d1", "d2", "d3", "d4")
    # order 2 has no central vertex: the ring is b_i and a_i1 only
    assert "p" not in topo.ids
    assert set(topo.ids) == {
        f"{stem}{i}" for stem in ("b", "c", "d", "e") for i in range(1, 5)
    } | {f"a{i}1" for i in range(1, 5)}


def test_template_ring_overlap_orders_rejected():
    for n in (2, 3, 2, 3):  # on every call: the template cache keeps no failure
        with pytest.raises(UnsupportedFamily, match=f"ring order {n} overlaps the named families"):
            topology_template(NetFamily(RING_EXPERIMENTAL, n))


_TEMPLATE_FAMILIES = [NetFamily(T3_DODECAGON, 3), NetFamily(T2_OCTAGON, 2),
                      NetFamily(RING_EXPERIMENTAL, 4), NetFamily(RING_EXPERIMENTAL, 16)]


@pytest.mark.parametrize("fam", _TEMPLATE_FAMILIES, ids=lambda fam: f"{fam.family}-{fam.n}")
def test_a_template_is_built_once_and_handed_out_in_a_fresh_dict(fam):
    first, second = topology_template(fam), topology_template(fam)
    assert first == second and first.topology is second.topology
    assert first.positions is not second.positions
    # editing one caller's dict changes no later template
    vid = next(iter(first.positions))
    first.positions[vid] = (1e3, 1e3)
    first.positions["stray"] = (0.0, 0.0)
    del second.positions[vid]
    third = topology_template(fam)
    assert third.positions is not first.positions
    assert len(third.positions) == len(third.topology.ids) and third.positions[vid] != (1e3, 1e3)
    assert third == topology_template(fam)


def test_template_ring_order4_is_experimental():
    tpl = topology_template(NetFamily(RING_EXPERIMENTAL, 4))
    assert tpl.experimental
    topo = tpl.topology
    # 4n ring vertices + 4 anchors + 4 corners-c + 4 e + 4 f + center
    assert len(topo.ids) == 16 + 4 + 4 + 4 + 4 + 1
    assert topo.boundary_ids == ("d1", "d2", "d3", "d4")
    assert set(tpl.positions) == set(topo.ids)
    assert all(math.isfinite(x) and math.isfinite(y) for x, y in tpl.positions.values())


def test_dodecagon_rejects_nonfinite_sides():
    with pytest.raises(InvariantViolation):
        build_dodecagon(
            ConstructionParams(
                alpha=3.38, beta=1.5, side_short=1.0, side_long=math.inf, boundary_leg=1.0
            )
        )
    with pytest.raises(InvariantViolation):
        build_dodecagon(
            ConstructionParams(
                alpha=3.38, beta=1.5, side_short=math.nan, side_long=0.75, boundary_leg=1.0
            )
        )
