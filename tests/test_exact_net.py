"""The float 25-net against the same construction rebuilt at 60 digits.

_reference_net25_mp repeats build_net25 in mpmath, starting from the closed
form of the angle system: e^(i alpha) + e^(i beta) = w with
w = -(1 + e^(i 13pi/12) + e^(i 11pi/6)) gives alpha, beta = arg w +- arccos(|w|/2).
At 60 digits every identity the construction proves holds to about 1e-60,
so a tolerance of 1e-50 separates "exact" from "small", and the rebuild is
an outside reference for the float build, its lemma identities, the
irreducibility search's tables and relax's end point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import mpmath
import pytest

from geonets import LemmaReport, RelaxConfig, check_lemmas, relax
from geonets.builder import _prev
from geonets.relax import STATUS_CONVERGED
from geonets.verify import _TableSearch, _search_tables

from test_relax import jittered_net25

mp = mpmath.MPContext()  # a private context, so no other test sees its precision
mp.dps = 60
EXACT = mp.mpf(10) ** -50


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _dist(p, q):
    return mp.hypot(q[0] - p[0], q[1] - p[1])


def _angle_at(v, p, q):
    """The angle at v between the directions toward p and q, in [0, pi]."""
    (ux, uy), (wx, wy) = _sub(p, v), _sub(q, v)
    return mp.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)


def _line_intersection(a1, a2, b1, b2):
    (d1x, d1y), (d2x, d2y) = _sub(a2, a1), _sub(b2, b1)
    t = ((b1[0] - a1[0]) * d2y - (b1[1] - a1[1]) * d2x) / (d1x * d2y - d1y * d2x)
    return (a1[0] + t * d1x, a1[1] + t * d1y)


def _project(p, a, b):
    ux, uy = _sub(b, a)
    t = ((p[0] - a[0]) * ux + (p[1] - a[1]) * uy) / (ux * ux + uy * uy)
    return (a[0] + t * ux, a[1] + t * uy)


def _fermat_point(a, b, c):
    """The first isogonic centre: the corners weighted by
    |opposite side| / sin(angle + pi/3), as geom.fermat_point forms it."""
    weights = [_dist(q, r) / mp.sin(_angle_at(v, q, r) + mp.pi / 3)
               for v, q, r in ((a, b, c), (b, c, a), (c, a, b))]
    total = sum(weights)
    return tuple(sum(w * v[k] for w, v in zip(weights, (a, b, c))) / total for k in (0, 1))


def _reference_net25_mp():
    """(alpha, beta, positions) of the 25-net at 60 digits, built from the
    closed-form angles in build_net25's steps and canonical placement."""
    wx = -1 - mp.cos(13 * mp.pi / 12) - mp.cos(11 * mp.pi / 6)
    wy = -mp.sin(13 * mp.pi / 12) - mp.sin(11 * mp.pi / 6)
    half = mp.acos(mp.hypot(wx, wy) / 2)
    alpha = (mp.atan2(wy, wx) + half) % (2 * mp.pi)
    beta = mp.atan2(wy, wx) - half
    side_long = mp.sqrt(6) * (1 - mp.tan(alpha)) / (mp.tan(alpha) * mp.tan(beta) - 1)

    # the dodecagon from a11 at the origin, a12 on the +x axis: sides 1,
    # side_long, 1 around each side, turns of pi/12 at a's and pi/3 at b's
    order = ["a11", "a12", "b2", "a21", "a22", "b3", "a31", "a32", "b4", "a41", "a42", "b1"]
    pos = {}
    cur, heading = (mp.zero, mp.zero), mp.zero
    for j, name in enumerate(order):
        pos[name] = cur
        step = side_long if name[0] == "a" and name[-1] == "1" else mp.one
        cur = (cur[0] + step * mp.cos(heading), cur[1] + step * mp.sin(heading))
        heading += mp.pi / 12 if order[(j + 1) % 12][0] == "a" else mp.pi / 3

    pos["p"] = _line_intersection(pos["b1"], pos["b3"], pos["b2"], pos["b4"])
    half_h = side_long / 2 * mp.tan(beta)
    for i in range(1, 5):
        a1, a2 = pos[f"a{i}1"], pos[f"a{i}2"]
        ux, uy = _sub(a2, a1)
        ln = mp.hypot(ux, uy)
        # ring runs counterclockwise, so the right normal points outward
        pos[f"d{i}"] = ((a1[0] + a2[0]) / 2 + uy / ln * half_h,
                        (a1[1] + a2[1]) / 2 - ux / ln * half_h)
    for i in range(1, 5):
        j = _prev(i)
        pos[f"c{i}"] = _line_intersection(pos[f"a{j}2"], pos[f"d{i}"], pos[f"a{i}1"], pos[f"d{j}"])
    for i in range(1, 5):
        j = _prev(i)
        pos[f"f{i}"] = _fermat_point(pos[f"a{i}1"], pos[f"a{i}2"], pos["p"])
        pos[f"e{i}"] = _fermat_point(pos[f"c{i}"], pos[f"d{i}"], pos[f"d{j}"])
    return alpha, beta, pos


def _lemmas_mp(P, alpha, beta):
    """check_lemmas' angle and length identities evaluated at 60 digits:
    each LemmaReport field named *deviation(s), plus the crossing margin and
    the corner triangles' largest angle and smallest apex."""
    two_pi = 2 * mp.pi

    def circ_dist(a, b):
        d = abs(a - b) % two_pi
        return min(d, two_pi - d)

    def direction(v, q):
        return mp.atan2(q[1] - v[1], q[0] - v[0])

    reflex = max(abs(two_pi - _angle_at(P[f"a{i}1"], P[f"c{i}"], P[f"a{i}2"]) - alpha)
                 for i in (1, 2, 3, 4))
    apexes, angles = [], []
    for i in (1, 2, 3, 4):
        c, di, dj = P[f"c{i}"], P[f"d{i}"], P[f"d{_prev(i)}"]
        apexes.append(_angle_at(c, di, dj))
        angles += [apexes[-1], _angle_at(di, c, dj), _angle_at(dj, c, di)]

    a32 = P["a32"]
    ref = direction(a32, P["a31"])
    remaining = [(direction(a32, P[q]) - ref) % two_pi for q in ("a31", "d3", "c4", "b4", "f3")]
    multiset = mp.zero
    for want in (mp.zero, beta, alpha, 13 * mp.pi / 12, 11 * mp.pi / 6):
        j = min(range(len(remaining)), key=lambda k: circ_dist(remaining[k], want))
        multiset = max(multiset, circ_dist(remaining.pop(j), want))

    a12, a21, a22, a31, d2, c2 = (P[v] for v in ("a12", "a21", "a22", "a31", "d2", "c2"))
    a22p = _line_intersection(d2, a22, a31, a12)
    a21p = _line_intersection(d2, a21, a31, a12)
    a31p = _line_intersection(a22, a21, a31, d2)
    a22pp = _project(a22, a31, a12)
    a31pp = _project(a31p, a31, a12)
    th = (direction(a21, c2) - direction(a21, a22)) % two_pi
    alpha_meas = th if th > mp.pi else two_pi - th
    cot_beta = 1 / mp.tan(beta)
    cot_meas = 1 / mp.tan(3 * mp.pi / 2 - alpha_meas)
    r6 = mp.sqrt(6)
    long_side = r6 * (1 - mp.tan(alpha)) / (mp.tan(alpha) * mp.tan(beta) - 1)
    side = _dist(a21p, a22p)
    p = P["p"]
    return {
        "reflex_angle_deviation": reflex,
        "direction_multiset_deviation": multiset,
        "distance_identity_deviations": (
            abs(_dist(a31p, a22) / _dist(a31, a22p) - _dist(a21, a22) / side),
            abs(_dist(a21, a22) - long_side),
            abs(side - (long_side + r6 * cot_beta)),
            abs(_dist(a31, a22p) - r6 / 2 * (1 - cot_beta)),
            abs(_dist(a31p, a22) - r6 / 2 * (1 - cot_meas)),
        ),
        "m_deviation": abs(_dist(a22pp, a22p) - r6 / 2 * cot_beta),
        "n_deviation": abs(_dist(a31, a31pp) - r6 / 2 * cot_meas),
        "diagonal_deviation": abs(_dist(a31, a22) - mp.sqrt(3)),
        "crossing_margin": min(_dist(P[f"c{i}"], p) - _dist(P[f"b{i}"], p) for i in (1, 2, 3, 4)),
        "corner_triangle_max_angle": max(angles),
        "corner_triangle_min_apex": min(apexes),
    }


@pytest.fixture(scope="module")
def exact():
    return _reference_net25_mp()


def _units_mp(P, topo):
    """Each edge's unit vector at 60 digits from either end, keyed by (end, edge id)."""
    units = {}
    for k, (a, b) in enumerate(topo.edge_order.edges):
        ln = _dist(P[a], P[b])
        u = tuple(c / ln for c in _sub(P[b], P[a]))
        units[a, k] = u
        units[b, k] = (-u[0], -u[1])
    return units


def _farthest(positions, P):
    """The largest difference of a float coordinate from the 60-digit one."""
    return max(abs(mp.mpf(c) - e) for vid, xy in positions.items() for c, e in zip(xy, P[vid]))


def test_the_closed_form_angles_round_to_the_solved_pair(exact, sol):
    alpha, beta, _ = exact
    assert math.pi < alpha < sol.K
    # the pinned alpha is the float whose computed |h| is least, 1.45 ulp below
    # alpha (6.4e-16); beta = f(alpha) inherits that, 4.9e-16 off
    assert abs(alpha - mp.mpf(sol.alpha)) < 1e-15
    assert abs(beta - mp.mpf(sol.beta)) < 1e-15


def test_the_float_build_lies_within_1e_13_of_the_60_digit_net(exact, net25):
    assert set(exact[2]) == set(net25.positions)
    assert _farthest(net25.positions, exact[2]) < 1e-13  # 5.1e-14 measured


def test_the_60_digit_net_balances_and_meets_every_identity(exact, net25):
    alpha, beta, P = exact
    topo = net25.topology
    units = _units_mp(P, topo)
    star = {}
    for (v, _), u in units.items():
        star.setdefault(v, []).append(u)
    for vid in topo.interior_ids:  # 3.9e-59 measured
        assert mp.hypot(sum(u[0] for u in star[vid]), sum(u[1] for u in star[vid])) < EXACT

    lemmas = _lemmas_mp(P, alpha, beta)
    deviations = {name for name in LemmaReport.__dataclass_fields__ if "deviation" in name}
    assert deviations <= set(lemmas)  # every identity the float report carries is recomputed
    for name in deviations:
        values = lemmas[name] if isinstance(lemmas[name], tuple) else (lemmas[name],)
        assert max(values) < EXACT, name  # 6.2e-61 measured, at the reflex angle
    assert lemmas["crossing_margin"] > 0
    assert lemmas["corner_triangle_max_angle"] < 2 * mp.pi / 3
    assert lemmas["corner_triangle_min_apex"] > mp.pi / 2


@pytest.mark.parametrize("tol", [1e-12, 1e-7, 0.03])
def test_the_search_tables_are_the_60_digit_nets(exact, net25, tol):
    _, _, P = exact
    units = _units_mp(P, net25.topology)
    inc_masks, ends, tables, _ = _search_tables(net25, tol)
    exact_tables = []
    for v, (vid, inc) in enumerate(zip(net25.topology.layout.interior, inc_masks)):
        edges = [k for k in range(len(ends)) if inc >> k & 1]
        table = []
        for r in range(len(edges) + 1):
            for subset in itertools.combinations(edges, r):
                total = [sum(units[vid, k][c] for k in subset) for c in (0, 1)]
                if mp.hypot(*total) <= tol:
                    table.append(sum(1 << k for k in subset))
        assert tables[v][0] == 0
        assert sorted(tables[v]) == sorted(table), vid
        exact_tables.append(table)
    # the core on the 60-digit tables proves the exact net irreducible, as on the float net
    search = _TableSearch(inc_masks, ends, exact_tables, budget=64)
    assert search.search() is None
    assert (search.nodes, search.seeds) == (64, 64)


def test_the_60_digit_identities_are_the_ones_check_lemmas_evaluates(construction, sol):
    # on the unrelaxed jitter every identity is off by 1e-4 to 0.14, and both
    # evaluations agree to float accuracy, so the reference tests what check_lemmas does
    pos = jittered_net25(7).positions
    report = check_lemmas(replace(construction, landmarks=pos), sol)
    lemmas = _lemmas_mp({vid: tuple(map(mp.mpf, xy)) for vid, xy in pos.items()},
                        mp.mpf(sol.alpha), mp.mpf(sol.beta))
    for name, value in lemmas.items():
        assert getattr(report, name) == pytest.approx(
            tuple(map(float, value)) if isinstance(value, tuple) else float(value), abs=1e-12), name


def test_relax_of_the_seed_7_jitter_reaches_the_60_digit_net(exact):
    # criterion 7's seed-7 jitter; relaxed, it is the benchmark's fixed input to verify --lemmas
    out = relax(jittered_net25(7), RelaxConfig())
    assert out.status == STATUS_CONVERGED
    assert _farthest(out.net.positions, exact[2]) < 1e-8  # 4.3e-12 measured
