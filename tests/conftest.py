"""Shared fixtures: the solved angle system, the exact 25-vertex net, and a
few tiny hand-made nets used across the suite."""

from __future__ import annotations

import math

import pytest
from hypothesis import strategies as st

from geonets import (
    BOUNDARY,
    INTERIOR,
    EmbeddedNet,
    NetFamily,
    NetTopology,
    T2_OCTAGON,
    build_net25,
    solve_angles,
    topology_template,
)

SQRT3 = math.sqrt(3.0)

# Independently surveyed vertex coordinates for the canonical 25-net figure,
# in the same frame the builder uses (a11 at the origin, a12 on the +x axis).
REFERENCE_COORDS = {
    "a11": (0.0, 0.0),
    "a12": (0.753334985772626, 0.0),
    "b2": (1.7192608120616921, 0.2588190451025174),
    "a21": (1.9780798571642149, 1.2247448713915854),
    "a22": (1.9780798571642162, 1.9780798571642115),
    "b3": (1.7192608120616968, 2.9440056834532804),
    "a31": (0.7533349857726285, 3.2028247285558025),
    "a32": (0.0, 3.2028247285558034),
    "b4": (-0.9659258262890664, 2.9440056834532835),
    "a41": (-1.224744871391588, 1.9780798571642153),
    "a42": (-1.2247448713915885, 1.2247448713915894),
    "b1": (-0.9659258262890682, 0.258819045102521),
    "p": (0.3766674928863143, 1.6014123642779008),
    "d1": (0.376667492886313, -5.291460857506463),
    "d2": (7.269540714670677, 1.6014123642778986),
    "d3": (0.3766674928863153, 8.494285586062267),
    "d4": (-6.516205728898051, 1.6014123642779023),
    "c1": (-0.9831319305486067, 0.24161294084298168),
    "c2": (1.7364669163212336, 0.24161294084298132),
    "c3": (1.7364669163212336, 2.961211787712821),
    "c4": (-0.9831319305486066, 2.9612117877128212),
    "e1": (-1.0799680129622857, 0.14477685842930255),
    "e2": (1.8333029987349128, 0.14477685842930033),
    "e3": (1.8333029987349136, 3.0580478701265),
    "e4": (-1.079968012962285, 3.0580478701265017),
    "f1": (0.376667492886313, 0.21746907841289428),
    "f2": (1.7606107787513212, 1.6014123642778983),
    "f3": (0.37666749288631535, 2.9853556501429086),
    "f4": (-1.0072757929786942, 1.6014123642779021),
}


@pytest.fixture(scope="session")
def sol():
    return solve_angles()


@pytest.fixture(scope="session")
def construction(sol):
    return build_net25(sol)


@pytest.fixture(scope="session")
def net25(construction):
    return construction.net


@pytest.fixture(scope="session")
def reference_coords():
    return dict(REFERENCE_COORDS)


@pytest.fixture(scope="session")
def t2_template():
    return topology_template(NetFamily(T2_OCTAGON, 2))


def make_corner_net(seed_pos=(0.4, 0.2)):
    """Equilateral triangle of boundary pins with one interior vertex."""
    topo = NetTopology(
        vertices=(
            ("p1", BOUNDARY),
            ("p2", BOUNDARY),
            ("p3", BOUNDARY),
            ("v", INTERIOR),
        ),
        edges=frozenset({("p1", "v"), ("p2", "v"), ("p3", "v")}),
    )
    positions = {
        "p1": (0.0, 0.0),
        "p2": (1.0, 0.0),
        "p3": (0.5, SQRT3 / 2.0),
        "v": seed_pos,
    }
    return EmbeddedNet(topo, positions)


def make_x_net():
    """Four boundary corners of a square joined to one center vertex.

    Balanced but reducible: either diagonal is a subnet on its own.
    """
    topo = NetTopology(
        vertices=(
            ("o", INTERIOR),
            ("p1", BOUNDARY),
            ("p2", BOUNDARY),
            ("p3", BOUNDARY),
            ("p4", BOUNDARY),
        ),
        edges=frozenset({("o", "p1"), ("o", "p2"), ("o", "p3"), ("o", "p4")}),
    )
    positions = {
        "o": (0.0, 0.0),
        "p1": (1.0, 1.0),
        "p2": (-1.0, 1.0),
        "p3": (-1.0, -1.0),
        "p4": (1.0, -1.0),
    }
    return EmbeddedNet(topo, positions)


def make_two_tree_net():
    """Two balanced trees sharing only the vertex o.

    Each tree alone is a geodesic subnet, so the union is reducible even
    though every interior vertex of the union is balanced.
    """
    a = 3.0 - SQRT3
    topo = NetTopology(
        vertices=(
            ("ne", BOUNDARY),
            ("nw", BOUNDARY),
            ("sw", BOUNDARY),
            ("se", BOUNDARY),
            ("u", INTERIOR),
            ("v", INTERIOR),
            ("w1", INTERIOR),
            ("w2", INTERIOR),
            ("o", INTERIOR),
        ),
        edges=frozenset(
            {
                ("nw", "u"),
                ("sw", "u"),
                ("ne", "v"),
                ("se", "v"),
                ("u", "o"),
                ("o", "v"),
                ("ne", "w1"),
                ("nw", "w1"),
                ("se", "w2"),
                ("sw", "w2"),
                ("w1", "o"),
                ("o", "w2"),
            }
        ),
    )
    positions = {
        "ne": (3.0, 3.0),
        "nw": (-3.0, 3.0),
        "sw": (-3.0, -3.0),
        "se": (3.0, -3.0),
        "u": (-a, 0.0),
        "v": (a, 0.0),
        "w1": (0.0, a),
        "w2": (0.0, -a),
        "o": (0.0, 0.0),
    }
    return EmbeddedNet(topo, positions)


@pytest.fixture()
def corner_net():
    return make_corner_net()


@pytest.fixture()
def x_net():
    return make_x_net()


@pytest.fixture()
def two_tree_net():
    return make_two_tree_net()


def star_doc(reach):
    """Net file document of an unbalanced star: the interior vertex o at the
    origin joined to pins at (+-reach, 0) and (0, reach)."""
    return {
        "format_version": 1,
        "vertices": [
            {"id": "o", "pos": [0.0, 0.0], "boundary": False},
            {"id": "e", "pos": [reach, 0.0], "boundary": True},
            {"id": "w", "pos": [-reach, 0.0], "boundary": True},
            {"id": "n", "pos": [0.0, reach], "boundary": True},
        ],
        "edges": [["e", "o"], ["n", "o"], ["o", "w"]],
    }


def lemma_degenerate_positions(net):
    """Positions of the canonical 25-net with a31 moved where the lemmas'
    auxiliary point a22p, the meet of d2-a22 with a31-a12, is no point apart
    from a31, by case: the expected message."""
    p = net.positions
    (dx, dy), (ax, ay) = p["d2"], p["a22"]
    return {
        # on the line d2-a22 beyond a22: a22p is a31 itself
        "beyond a22": ({**p, "a31": (dx + 1.3 * (ax - dx), dy + 1.3 * (ay - dy))},
                       "lemma divisor is zero: a22p coincides with a31"),
        # onto a12, with which it shares no edge: the line a31-a12 is no line
        "on a12": ({**p, "a31": p["a12"]}, "lemma auxiliary point a22p is undefined"),
    }


# edges the topologies() strategy can add to break a graph
TOPOLOGY_FAULTS = ("self-loop", "reversed duplicate", "unknown end", "low degree",
                   "second component", "not a pair")


@st.composite
def topologies(draw):
    """NetTopology arguments (vertices, edges, allow_degree2).  Most draws
    (about four in five) are a connected graph whose interior vertices have
    degree 3 or more (2 or more with allow_degree2); the rest carry one or
    two of TOPOLOGY_FAULTS.  The ids are not in sorted order and edges come
    in either orientation."""
    n = draw(st.integers(min_value=2, max_value=12))
    ids = [f"v{k}" for k in draw(st.permutations(range(n)))]  # "v10" sorts before "v2"
    pairs = {(k, draw(st.integers(min_value=0, max_value=k - 1))) for k in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if a != b and (b, a) not in pairs:
            pairs.add((a, b))
    edges = [(ids[a], ids[b]) if draw(st.booleans()) else (ids[b], ids[a])
             for a, b in sorted(pairs)]
    degree = [sum(k in pair for pair in pairs) for k in range(n)]
    allow_degree2 = draw(st.booleans())
    low = 2 if allow_degree2 else 3
    kinds = [INTERIOR if degree[k] >= low and draw(st.booleans()) else BOUNDARY
             for k in range(n)]
    faults = []
    if draw(st.integers(min_value=0, max_value=2)) == 1:
        faults = draw(st.lists(st.sampled_from(TOPOLOGY_FAULTS), min_size=1, max_size=2))
    for fault in faults:
        k = draw(st.integers(min_value=0, max_value=n - 1))
        if fault == "self-loop":
            edges.append((ids[k], ids[k]))
        elif fault == "reversed duplicate":
            a, b = edges[k % len(pairs)]
            edges.append((b, a))
        elif fault == "unknown end":
            edges.append((ids[k], draw(st.sampled_from(["zz", "v", 1]))))
        elif fault == "low degree":  # degree 2 passes with allow_degree2
            ids.append(f"w{len(ids)}")
            kinds.append(INTERIOR)
            edges += [(ids[k], ids[-1]), (ids[-1], ids[(k + 1) % n])][:draw(st.integers(1, 2))]
        elif fault == "second component":
            ids += [f"w{len(ids)}", f"w{len(ids) + 1}"]
            kinds += [BOUNDARY, BOUNDARY]
            edges.append((ids[-2], ids[-1]))
        else:
            edges.append(draw(st.sampled_from([(ids[k], ids[0], ids[-1]), ids[k][:2], None])))
    return tuple(zip(ids, kinds)), frozenset(edges), allow_degree2
