"""Planar primitive checks: angles, intersections, Fermat points, alignment."""

from __future__ import annotations

import math

import numpy as np
import pytest

from geonets import (
    DegenerateConfiguration,
    DegenerateEdge,
    GeonetsError,
    IdMismatch,
    NoFermatPoint,
    ParallelLines,
    align_rigid,
    angle_ccw,
    dist,
    fermat_point,
    interior_angles,
    line_intersection,
    unit_toward,
)
from geonets.geom import FERMAT_ANGLE, circ_dist

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
points = st.tuples(coords, coords)


def fermat_point_median(t, iters=200):
    """Geometric-median iteration (reweighted averaging) for the Fermat
    point: slower and approximate, an independent cross-check of
    fermat_point."""
    pts = np.asarray(t, dtype=float)
    x = pts.mean(axis=0)
    for _ in range(iters):
        d = np.sqrt(((pts - x) ** 2).sum(axis=1))
        if (d < 1e-15).any():
            break
        w = 1.0 / d
        x_new = (pts * w[:, None]).sum(axis=0) / w.sum()
        if np.hypot(*(x_new - x)) < 1e-15:
            x = x_new
            break
        x = x_new
    return (float(x[0]), float(x[1]))


def _reference_fermat_point(t):
    """The isogonic construction fermat_point used before its closed form,
    kept verbatim as the reference: erect an equilateral apex outward on
    two sides, connect each apex to the opposite corner, and intersect.  The
    third connecting line is used as a consistency check."""
    angs = interior_angles(t)
    if max(angs) >= FERMAT_ANGLE - 1e-12:
        raise NoFermatPoint(f"max interior angle {max(angs):.6f} >= 2*pi/3")
    a, b, c = t
    la = _outward_apex(b, c, a)
    lb = _outward_apex(c, a, b)
    lc = _outward_apex(a, b, c)
    x = line_intersection(a, la, b, lb)
    # the third line must agree; its deviation is pure rounding
    x2 = line_intersection(a, la, c, lc)
    if dist(x, x2) > 1e-6 * max(1.0, dist(a, b) + dist(b, c)):
        raise NoFermatPoint("isogonic lines failed to meet at one point")
    return x


def _outward_apex(p, q, opposite):
    # equilateral apex on side (p, q), on the side away from `opposite`
    s = math.sqrt(3.0) / 2.0
    for sin_t in (s, -s):
        apex = _rotate_about(p, q, 0.5, sin_t)
        if _cross(p[0], p[1], q[0], q[1], *opposite) * _cross(
            p[0], p[1], q[0], q[1], *apex
        ) < 0.0:
            return apex
    raise NoFermatPoint("could not place an apex; triangle is degenerate")


def _rotate_about(p, q, cos_t, sin_t):
    vx, vy = q[0] - p[0], q[1] - p[1]
    return (p[0] + cos_t * vx - sin_t * vy, p[1] + sin_t * vx + cos_t * vy)


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def test_dist_basic():
    assert dist((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert dist((1.5, -2.0), (1.5, -2.0)) == 0.0


def test_unit_toward_axis_directions():
    assert unit_toward((0.0, 0.0), (2.0, 0.0)) == (1.0, 0.0)
    assert unit_toward((1.0, 1.0), (1.0, -3.0)) == (0.0, -1.0)


def test_unit_toward_rejects_coincident_points():
    with pytest.raises(DegenerateEdge):
        unit_toward((0.5, 0.5), (0.5, 0.5))
    with pytest.raises(DegenerateEdge):
        unit_toward((0.0, 0.0), (1e-15, 0.0))


@given(points, points)
def test_unit_toward_has_unit_norm(p, q):
    if dist(p, q) < 1e-6:
        return
    ux, uy = unit_toward(p, q)
    assert math.hypot(ux, uy) == pytest.approx(1.0, abs=1e-12)


def test_angle_ccw_quarter_turns():
    v = (0.0, 0.0)
    east, north = (1.0, 0.0), (0.0, 1.0)
    assert angle_ccw(v, east, north) == pytest.approx(math.pi / 2.0)
    assert angle_ccw(v, north, east) == pytest.approx(3.0 * math.pi / 2.0)
    assert angle_ccw(v, east, east) == 0.0


@given(points, points, points)
def test_angle_ccw_range_and_complement(v, p, q):
    if dist(v, p) < 1e-6 or dist(v, q) < 1e-6:
        return
    fwd = angle_ccw(v, p, q)
    back = angle_ccw(v, q, p)
    assert 0.0 <= fwd < 2.0 * math.pi
    # the two sweeps close the full circle, except for the aligned case
    assert (fwd + back) % (2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_circ_dist_wraps():
    assert circ_dist(0.1, 2.0 * math.pi - 0.1) == pytest.approx(0.2)
    assert circ_dist(1.0, 1.0) == 0.0


def test_circ_dist_is_symmetric_and_exact_near_zero():
    # (0.0 - 1e-15) % 2pi rounds near 2pi, which gave 8.9e-16
    assert circ_dist(0.0, 1e-15) == circ_dist(1e-15, 0.0) == 1e-15
    for a, b in [(0.1, 2.0 * math.pi - 0.1), (-3.0, 3.0), (1.0, 1.0 + 2.0**-40), (7.0, -0.5)]:
        assert circ_dist(a, b) == circ_dist(b, a)


def test_interior_angles_of_right_triangle():
    t = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    a, b, c = interior_angles(t)
    assert a == pytest.approx(math.pi / 2.0)
    assert b == pytest.approx(math.pi / 4.0)
    assert c == pytest.approx(math.pi / 4.0)
    assert a + b + c == pytest.approx(math.pi)


def test_line_intersection_crossing():
    p = line_intersection((0.0, 0.0), (2.0, 2.0), (0.0, 2.0), (2.0, 0.0))
    assert p == pytest.approx((1.0, 1.0))


def test_line_intersection_parallel_raises():
    with pytest.raises(ParallelLines):
        line_intersection((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    # near-parallel within the normalized threshold counts as parallel too
    with pytest.raises(ParallelLines):
        line_intersection((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0 + 1e-14))


def test_line_intersection_degenerate_segment():
    with pytest.raises(DegenerateEdge):
        line_intersection((0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0))


def test_fermat_point_equilateral_is_centroid():
    t = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
    fp = fermat_point(t)
    cx = (t[0][0] + t[1][0] + t[2][0]) / 3.0
    cy = (t[0][1] + t[1][1] + t[2][1]) / 3.0
    assert fp == pytest.approx((cx, cy), abs=1e-12)


def test_fermat_point_sees_corners_at_equal_angles():
    t = ((0.0, 0.0), (4.0, 0.0), (1.0, 2.5))
    fp = fermat_point(t)
    third = 2.0 * math.pi / 3.0
    assert angle_ccw(fp, t[0], t[1]) == pytest.approx(third, abs=1e-9) or angle_ccw(
        fp, t[1], t[0]
    ) == pytest.approx(third, abs=1e-9)
    for i in range(3):
        a = angle_ccw(fp, t[i], t[(i + 1) % 3])
        assert min(a, 2.0 * math.pi - a) == pytest.approx(third, abs=1e-9)


def test_fermat_point_matches_median_iteration():
    t = ((0.0, 0.0), (4.0, 0.0), (1.0, 2.5))
    fp = fermat_point(t)
    med = fermat_point_median(t, iters=4000)
    assert dist(fp, med) < 1e-9


def test_fermat_point_refuses_obtuse_corner():
    # 150 degrees at the first corner, no interior equiangular point
    t = ((0.0, 0.0), (1.0, 0.0), (-math.sqrt(3.0) / 2.0, 0.5))
    with pytest.raises(NoFermatPoint):
        fermat_point(t)


@settings(max_examples=60)
@given(st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=0.5, max_value=2.0))
def test_fermat_point_angle_property(base, height):
    """For a safely acute isosceles triangle the three sight angles are 2*pi/3."""
    t = ((0.0, 0.0), (base, 0.0), (base / 2.0, height))
    if max(interior_angles(t)) >= 2.0 * math.pi / 3.0 - 1e-6:
        return
    fp = fermat_point(t)
    for i in range(3):
        a = angle_ccw(fp, t[i], t[(i + 1) % 3])
        assert min(a, 2.0 * math.pi - a) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-8)


def _shaped_triangle(angles, scale, theta, ox, oy):
    """The triangle with interior angles angles[0] and angles[1] at its first
    two corners, first side of length scale, turned by theta and moved by
    (ox, oy) * scale."""
    angle_a, angle_b = angles
    reach = scale * math.sin(angle_b) / math.sin(math.pi - angle_a - angle_b)
    local = ((0.0, 0.0), (scale, 0.0),
             (reach * math.cos(angle_a), reach * math.sin(angle_a)))
    c, s = math.cos(theta), math.sin(theta)
    return tuple((ox * scale + c * x - s * y, oy * scale + s * x + c * y) for x, y in local)


corner_angles = st.one_of(
    st.floats(min_value=1e-9, max_value=1e-2),  # thin
    st.floats(min_value=-1e-6, max_value=1e-6).map(lambda d: FERMAT_ANGLE + d),
    st.floats(min_value=1e-2, max_value=3.0),
)
# the offset is a few sides at most: a coordinate far larger than the
# triangle rounds away digits that neither construction can recover
shaped_triangles = st.builds(
    _shaped_triangle,
    st.tuples(corner_angles, corner_angles).filter(lambda ab: ab[0] + ab[1] < math.pi - 1e-9),
    st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=-5.0, max_value=5.0),
)


def _outcome(f, t):
    try:
        return f(t)
    except GeonetsError as exc:
        return type(exc)


@settings(max_examples=400)
@given(st.one_of(st.tuples(points, points, points), shaped_triangles))
def test_fermat_point_matches_the_isogonic_construction(t):
    got, want = _outcome(fermat_point, t), _outcome(_reference_fermat_point, t)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    longest = max(dist(t[0], t[1]), dist(t[1], t[2]), dist(t[2], t[0]))
    assert dist(got, want) <= 1e-12 * longest
    # the balance the old third-line check stood for; a corner very close to
    # the point turns the rounding of both into a large direction error
    if min(dist(got, v) for v in t) >= 1e-2 * longest:
        units = [unit_toward(got, v) for v in t]
        assert math.hypot(sum(u[0] for u in units), sum(u[1] for u in units)) <= 1e-12


def _rigid(pts, theta, tx, ty, mirror=False):
    c, s = math.cos(theta), math.sin(theta)
    out = {}
    for k, (x, y) in pts.items():
        if mirror:
            x = -x
        out[k] = (c * x - s * y + tx, s * x + c * y + ty)
    return out


def _apply(tf, p):
    """Transform tf applied to point p: rotation @ p + translation."""
    (r00, r01), (r10, r11) = tf.rotation
    return (
        r00 * p[0] + r01 * p[1] + tf.translation[0],
        r10 * p[0] + r11 * p[1] + tf.translation[1],
    )


CLOUD = {"a": (0.0, 0.0), "b": (2.0, 0.0), "c": (1.0, 1.5), "d": (-0.5, 0.7)}


def test_align_rigid_recovers_rotation():
    moved = _rigid(CLOUD, 0.7, 3.0, -1.0)
    tf, rmsd = align_rigid(CLOUD, moved)
    assert rmsd < 1e-12
    assert not tf.reflected
    for k in CLOUD:
        assert _apply(tf, moved[k]) == pytest.approx(CLOUD[k], abs=1e-12)


def test_align_rigid_detects_reflection():
    moved = _rigid(CLOUD, -0.3, 0.5, 2.0, mirror=True)
    tf, rmsd = align_rigid(CLOUD, moved)
    assert rmsd < 1e-12
    assert tf.reflected


def test_align_rigid_id_mismatch():
    other = dict(CLOUD)
    other["z"] = other.pop("a")
    with pytest.raises(IdMismatch):
        align_rigid(CLOUD, other)


def test_align_rigid_needs_noncollinear_reference():
    line = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (2.0, 0.0)}
    with pytest.raises(DegenerateConfiguration):
        align_rigid(line, line)
    with pytest.raises(DegenerateConfiguration):
        align_rigid({"a": (0.0, 0.0), "b": (1.0, 0.0)}, {"a": (0.0, 0.0), "b": (1.0, 0.0)})


@settings(max_examples=40)
@given(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.booleans(),
)
def test_align_rigid_roundtrip_property(theta, tx, ty, mirror):
    moved = _rigid(CLOUD, theta, tx, ty, mirror=mirror)
    tf, rmsd = align_rigid(CLOUD, moved)
    assert rmsd < 1e-9
    assert tf.reflected == mirror
