"""Planar primitives: unit vectors, angles, Fermat points, line intersection,
and rigid alignment of labelled point sets.

Points are plain ``(x, y)`` tuples of floats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateEdge,
    IdMismatch,
    NoFermatPoint,
    ParallelLines,
)

Point = tuple[float, float]
Triangle = tuple[Point, Point, Point]

TWO_PI = 2.0 * math.pi
FERMAT_ANGLE = 2.0 * math.pi / 3.0

# absolute fallback guard; callers working at a known scale pass their own
EPS_DEG = 1e-12
# threshold on the normalized cross product below which lines count as parallel
EPS_PAR = 1e-12


def dist(p: Point, q: Point) -> float:
    return math.hypot(q[0] - p[0], q[1] - p[1])


def unit_toward(p: Point, q: Point, eps: float = EPS_DEG) -> Point:
    """Unit vector pointing from p to q.

    Raises DegenerateEdge if the points are closer than eps.
    """
    dx, dy = q[0] - p[0], q[1] - p[1]
    d = math.hypot(dx, dy)
    if d <= eps:
        raise DegenerateEdge(f"points {p} and {q} are {d:.3e} apart")
    return (dx / d, dy / d)


def angle_ccw(v: Point, p: Point, q: Point, eps: float = EPS_DEG) -> float:
    """Counterclockwise angle at v from the direction toward p to the
    direction toward q, in [0, 2*pi)."""
    up = unit_toward(v, p, eps)
    uq = unit_toward(v, q, eps)
    a = (math.atan2(uq[1], uq[0]) - math.atan2(up[1], up[0])) % TWO_PI
    # a negative difference below half an ulp of TWO_PI rounds up to TWO_PI
    return a if a < TWO_PI else 0.0


def circ_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def interior_angles(t: Triangle) -> tuple[float, float, float]:
    """Interior angle at each corner, in corner order."""
    a, b, c = t
    return (_corner_angle(a, b, c), _corner_angle(b, c, a), _corner_angle(c, a, b))


def _corner_angle(v: Point, p: Point, q: Point) -> float:
    th = angle_ccw(v, p, q)
    return min(th, TWO_PI - th)


def line_intersection(a1: Point, a2: Point, b1: Point, b2: Point) -> Point:
    """Intersection of the infinite lines through (a1, a2) and (b1, b2).

    Raises ParallelLines when the normalized direction cross product falls
    below EPS_PAR.
    """
    d1x, d1y = a2[0] - a1[0], a2[1] - a1[1]
    d2x, d2y = b2[0] - b1[0], b2[1] - b1[1]
    n1 = math.hypot(d1x, d1y)
    n2 = math.hypot(d2x, d2y)
    if n1 <= EPS_DEG or n2 <= EPS_DEG:
        raise DegenerateEdge("a defining segment has (near-)zero length")
    den = d1x * d2y - d1y * d2x
    if abs(den) <= EPS_PAR * n1 * n2:
        raise ParallelLines(f"normalized cross product {abs(den) / (n1 * n2):.3e}")
    t = ((b1[0] - a1[0]) * d2y - (b1[1] - a1[1]) * d2x) / den
    return (a1[0] + t * d1x, a1[1] + t * d1y)


def fermat_point(t: Triangle) -> Point:
    """The point at which the three corner directions are pairwise 2*pi/3 apart.

    Closed form of the first isogonic centre, X(13) in Kimberling's
    Encyclopedia of Triangle Centers: the mean of the corners weighted by
    |opposite side| / sin(angle + pi/3).

    Raises NoFermatPoint when some interior angle is >= 2*pi/3 (minus a
    1e-12 slack), where the minimizer sits at a corner instead.
    """
    angs = interior_angles(t)
    if max(angs) >= FERMAT_ANGLE - 1e-12:
        raise NoFermatPoint(f"max interior angle {max(angs):.6f} >= 2*pi/3")
    a, b, c = t
    wa = dist(b, c) / math.sin(angs[0] + math.pi / 3.0)
    wb = dist(c, a) / math.sin(angs[1] + math.pi / 3.0)
    wc = dist(a, b) / math.sin(angs[2] + math.pi / 3.0)
    w = wa + wb + wc
    return ((wa * a[0] + wb * b[0] + wc * c[0]) / w, (wa * a[1] + wb * b[1] + wc * c[1]) / w)


@dataclass(frozen=True)
class Transform:
    """Rigid (optionally reflected) map q -> rotation @ q + translation."""

    rotation: tuple[tuple[float, float], tuple[float, float]]
    translation: tuple[float, float]
    reflected: bool


def align_rigid(
    reference: dict[str, Point], candidate: dict[str, Point]
) -> tuple[Transform, float]:
    """Best rigid motion taking candidate onto reference, plus its rmsd.

    Both proper rotations and reflections are tried; the smaller rmsd wins
    and the choice is reported via Transform.reflected.
    """
    if set(reference) != set(candidate):
        raise IdMismatch(
            f"id sets differ: {sorted(set(reference) ^ set(candidate))[:6]} ..."
        )
    ids = sorted(reference)
    if len(ids) < 3:
        raise DegenerateConfiguration("need at least 3 labelled points")
    r = np.array([reference[i] for i in ids], dtype=float)
    c = np.array([candidate[i] for i in ids], dtype=float)
    rc, cc = r.mean(axis=0), c.mean(axis=0)
    r0, c0 = r - rc, c - cc
    span = np.linalg.svd(r0, compute_uv=False)
    if span[-1] <= 1e-12 * max(span[0], 1.0):
        raise DegenerateConfiguration("reference points are (near-)collinear")

    best: tuple[float, np.ndarray, bool] | None = None
    h = c0.T @ r0
    u, _, vt = np.linalg.svd(h)
    for reflected in (False, True):
        d = np.diag([1.0, (-1.0 if reflected else 1.0) * np.sign(np.linalg.det(vt.T @ u.T))])
        rot = vt.T @ d @ u.T
        resid = r0 - c0 @ rot.T
        rmsd = float(np.sqrt((resid**2).sum() / len(ids)))
        if best is None or rmsd < best[0]:
            best = (rmsd, rot, reflected)
    rmsd, rot, reflected = best
    tr = rc - rot @ cc
    transform = Transform(
        rotation=((float(rot[0, 0]), float(rot[0, 1])), (float(rot[1, 0]), float(rot[1, 1]))),
        translation=(float(tr[0]), float(tr[1])),
        reflected=reflected,
    )
    return transform, rmsd
