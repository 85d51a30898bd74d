"""Relaxation semantics: the damped Newton contracts, convergence, tracing
and degeneration."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geonets import (
    BOUNDARY,
    INTERIOR,
    ConstructionResult,
    DomainError,
    EmbeddedNet,
    InvariantViolation,
    RING_EXPERIMENTAL,
    NetFamily,
    NetTopology,
    NoTrace,
    RelaxConfig,
    build_net25,
    check_lemmas,
    dist,
    export_trace_frames,
    imbalance,
    load_net,
    params_from_solution,
    relax,
    save_net,
    solve_angles,
    topology_template,
    total_report,
    verify_geodesic_net,
)
from geonets.relax import (
    GUARD,
    STATUS_CONVERGED,
    STATUS_DEGENERATED,
    STATUS_MAX_ITERS,
    STATUS_STALLED,
)
from geonets.net import COORD_BOUND

from conftest import make_corner_net

FERMAT = (0.5, math.sqrt(3.0) / 6.0)


def jittered_net25(seed, scale=0.05):
    net = build_net25(solve_angles()).net
    rng = np.random.default_rng(seed)
    pos = dict(net.positions)
    for vid in sorted(net.topology.interior_ids):
        dx, dy = rng.uniform(-scale, scale, size=2)
        x, y = pos[vid]
        pos[vid] = (x + dx, y + dy)
    return net.with_positions(pos)


def test_relax_corner_net_converges(corner_net):
    out = relax(corner_net)
    assert out.status == STATUS_CONVERGED
    assert out.iterations > 0
    assert dist(out.net.positions["v"], FERMAT) < 1e-8
    assert total_report(out.net).max_norm <= 1e-10


def test_relax_already_balanced_is_a_noop(x_net):
    out = relax(x_net)
    assert out.status == STATUS_CONVERGED
    assert out.iterations == 0
    assert out.net.positions == x_net.positions


def test_relax_already_balanced_still_traces_initial_state(x_net):
    out = relax(x_net, RelaxConfig(trace_every=5))
    assert out.iterations == 0
    assert len(out.trace) == 1
    assert out.trace[0].iteration == 0


def test_trace_cadence_exact():
    cfg = RelaxConfig(max_iters=10, trace_every=5, tol_balance=1e-280)
    out = relax(jittered_net25(7), cfg)
    assert out.status == STATUS_MAX_ITERS
    assert out.iterations == 10
    assert [tp.iteration for tp in out.trace] == [0, 5, 10]


def test_trace_records_offcadence_final_state():
    cfg = RelaxConfig(max_iters=7, trace_every=5, tol_balance=1e-280)
    out = relax(jittered_net25(7), cfg)
    assert out.iterations == 7
    assert [tp.iteration for tp in out.trace] == [0, 5, 7]
    assert out.trace[-1].positions == out.net.positions
    assert out.trace[-1].max_norm < out.trace[0].max_norm


def test_trace_positions_match_outcome(corner_net):
    out = relax(corner_net, RelaxConfig(trace_every=50))
    assert out.trace[-1].positions == out.net.positions
    frames = export_trace_frames(out)
    assert len(frames) == len(out.trace)
    assert frames[0].positions == corner_net.positions
    assert frames[-1].positions == out.net.positions


def test_no_trace_raises(corner_net):
    out = relax(corner_net)
    assert out.trace == ()
    with pytest.raises(NoTrace):
        export_trace_frames(out)


def _touching_pair_net():
    topo = NetTopology(
        vertices=(
            ("ne", BOUNDARY),
            ("nw", BOUNDARY),
            ("se", BOUNDARY),
            ("sw", BOUNDARY),
            ("u", INTERIOR),
            ("v", INTERIOR),
        ),
        edges=frozenset(
            {("nw", "u"), ("sw", "u"), ("ne", "v"), ("se", "v"), ("u", "v")}
        ),
    )
    pos = {
        "ne": (3.0, 3.0),
        "nw": (-3.0, 3.0),
        "sw": (-3.0, -3.0),
        "se": (3.0, -3.0),
        "u": (-1e-10, 0.0),
        "v": (1e-10, 0.0),
    }
    return EmbeddedNet(topo, pos)


def test_relax_jittered_net25_returns_to_the_exact_net():
    exact = build_net25(solve_angles()).net
    out = relax(jittered_net25(7))
    assert out.status == STATUS_CONVERGED
    assert total_report(out.net).max_norm < 1e-8
    sq = sum(
        dist(out.net.positions[v], exact.positions[v]) ** 2 for v in exact.positions
    )
    assert math.sqrt(sq / len(exact.positions)) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        RelaxConfig(max_iters=-1)
    with pytest.raises(ValueError):
        RelaxConfig(tol_balance=0.0)
    with pytest.raises(ValueError):
        RelaxConfig(trace_every=-1)


@pytest.mark.parametrize("name", ["max_iters", "trace_every"])
@pytest.mark.parametrize("value", [1.5, math.nan, "3"])
def test_config_step_counts_must_be_integers(name, value):
    # a count that is not an integer runs or traces steps no integer gives:
    # max_iters=1.5 would run two and nan none, trace_every=0.5 would trace
    # every step and nan none
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        RelaxConfig(**{name: value})


@pytest.mark.parametrize("count", [3, np.int64(3)])
def test_config_takes_python_and_numpy_integers(count):
    cfg = RelaxConfig(max_iters=count, trace_every=count, tol_balance=1e-280)
    assert type(cfg.max_iters) is int and type(cfg.trace_every) is int
    out = relax(jittered_net25(7), cfg)
    assert out.status == STATUS_MAX_ITERS
    assert out.iterations == 3
    assert [tp.iteration for tp in out.trace] == [0, 3]


def test_imbalance_is_gradient_of_negative_total_length():
    """s(v) equals the finite-difference gradient of -sum of edge lengths."""
    rng = np.random.default_rng(12)
    h = 1e-5
    for _ in range(20):
        k = int(rng.integers(3, 8))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=k))
        radii = rng.uniform(0.8, 2.0, size=k)
        verts = [(f"b{j}", BOUNDARY) for j in range(k)] + [("v", INTERIOR)]
        edges = frozenset((f"b{j}", "v") for j in range(k))
        pos = {
            f"b{j}": (radii[j] * math.cos(angles[j]), radii[j] * math.sin(angles[j]))
            for j in range(k)
        }
        pos["v"] = (float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2)))
        net = EmbeddedNet(NetTopology(tuple(verts), edges), pos)

        def neg_length(p):
            return -sum(dist(p, pos[f"b{j}"]) for j in range(k))

        (sx, sy), _ = imbalance(net, "v")
        x, y = pos["v"]
        gx = (neg_length((x + h, y)) - neg_length((x - h, y))) / (2.0 * h)
        gy = (neg_length((x, y + h)) - neg_length((x, y - h))) / (2.0 * h)
        assert sx == pytest.approx(gx, abs=1e-6)
        assert sy == pytest.approx(gy, abs=1e-6)


def test_newton_degenerate_start_returns_input():
    net = _touching_pair_net()
    out = relax(net)
    assert out.status == STATUS_DEGENERATED
    assert out.iterations == 0
    assert out.net.positions == net.positions


def test_newton_never_moves_the_boundary():
    net = jittered_net25(4)
    out = relax(net)
    assert out.status == STATUS_CONVERGED
    for vid in net.topology.boundary_ids:
        assert out.net.positions[vid] == net.positions[vid]


def test_newton_is_deterministic():
    net = jittered_net25(3)
    a = relax(net)
    b = relax(net)
    assert a.iterations == b.iterations
    assert a.net.positions == b.net.positions  # bitwise


def test_relax_is_deterministic():
    net = jittered_net25(8)
    a = relax(net, RelaxConfig(trace_every=1))
    b = relax(net, RelaxConfig(trace_every=1))
    assert a.status == b.status == STATUS_CONVERGED
    assert a.iterations == b.iterations
    assert [tp.positions for tp in a.trace] == [tp.positions for tp in b.trace]
    assert a.net.positions == b.net.positions  # bitwise


def test_relax_never_moves_the_boundary():
    net = jittered_net25(9)
    out = relax(net, RelaxConfig(trace_every=1))
    assert out.status == STATUS_CONVERGED
    for tp in out.trace:
        for vid in net.topology.boundary_ids:
            assert tp.positions[vid] == net.positions[vid]


def test_newton_traces_every_accepted_step(corner_net):
    out = relax(corner_net, RelaxConfig(trace_every=1))
    assert out.status == STATUS_CONVERGED
    assert [tp.iteration for tp in out.trace] == list(range(out.iterations + 1))
    assert out.trace[-1].positions == out.net.positions


def test_newton_zero_max_iters(corner_net):
    out = relax(corner_net, RelaxConfig(max_iters=0))
    assert out.status == STATUS_MAX_ITERS
    assert out.iterations == 0
    assert out.net.positions == corner_net.positions


def test_relax_zero_max_iters():
    net = jittered_net25(10)
    out = relax(net, RelaxConfig(max_iters=0, trace_every=1))
    assert out.status == STATUS_MAX_ITERS
    assert out.iterations == 0
    assert out.net.positions == net.positions
    assert [tp.iteration for tp in out.trace] == [0]


def test_newton_unreachable_tolerance_stalls_explicitly():
    # float noise keeps the imbalance near 1e-15, so the damping runs out
    out = relax(jittered_net25(5), RelaxConfig(tol_balance=1e-300))
    assert out.status == STATUS_STALLED
    assert out.iterations > 0
    assert total_report(out.net).max_norm < 1e-12


def test_net_without_boundary_stalls_and_stays_valid(tmp_path):
    """The 25-net with every vertex interior: nothing is pinned, so the outer
    corners are unbalanced and total length falls only as the net shrinks."""
    path = tmp_path / "free.json"
    save_net(build_net25(solve_angles()).net, str(path))
    doc = json.loads(path.read_text())
    for vertex in doc["vertices"]:
        vertex["boundary"] = False
    path.write_text(json.dumps(doc))
    net = load_net(str(path))
    assert net.topology.boundary_ids == ()
    report = verify_geodesic_net(net)
    assert not report.balance_pass
    assert report.offending_vertices == ("d1", "d2", "d3", "d4")
    out = relax(net)
    assert out.status == STATUS_STALLED
    assert out.iterations == 120
    assert isinstance(out.net, EmbeddedNet)
    assert out.net.topology == net.topology
    assert all(math.isfinite(c) for p in out.net.positions.values() for c in p)
    assert total_report(out.net).max_norm > 1.0


def _collapsing_pair_net(scale=1.0):
    """u and v share the same three pins, so the minimum puts both on the
    Fermat point and shrinks the edge between them to zero."""
    topo = NetTopology(
        vertices=(
            ("p1", BOUNDARY),
            ("p2", BOUNDARY),
            ("p3", BOUNDARY),
            ("u", INTERIOR),
            ("v", INTERIOR),
        ),
        edges=frozenset(
            {("p1", "u"), ("p2", "u"), ("p3", "u"), ("p1", "v"), ("p2", "v"), ("p3", "v"),
             ("u", "v")}
        ),
    )
    pos = {"p1": (0.0, 0.0), "p2": (1.0, 0.0), "p3": (0.5, math.sqrt(3.0) / 2.0),
           "u": (0.3, 0.2), "v": (0.6, 0.4)}
    return EmbeddedNet(topo, {vid: (scale * x, scale * y) for vid, (x, y) in pos.items()})


def test_newton_collapsing_minimum_degenerates_above_the_guard():
    out = relax(_collapsing_pair_net())
    assert out.status == STATUS_DEGENERATED
    assert out.iterations > 0
    assert dist(out.net.positions["u"], out.net.positions["v"]) >= GUARD


def test_newton_guard_below_the_embedding_threshold_still_degenerates():
    # EmbeddedNet rejects an edge of at most max(1e-12, 1e-12 * bbox diagonal),
    # about 1.1e-8 at this scale and so above the guard; relax must stop
    # short of it, not raise
    out = relax(_collapsing_pair_net(1e4))
    assert out.net.eps_deg > GUARD
    assert out.status == STATUS_DEGENERATED
    assert out.iterations > 0
    assert dist(out.net.positions["u"], out.net.positions["v"]) > out.net.eps_deg


def test_newton_rejects_a_trial_beyond_the_coordinate_bound():
    # from o the undamped first step lands at x = 1.09e150, past the pins
    # and past COORD_BOUND, yet it shortens the net; it must be refused
    topo = NetTopology((("a", BOUNDARY), ("b", BOUNDARY), ("c", BOUNDARY), ("o", INTERIOR)),
                       frozenset({("a", "o"), ("b", "o"), ("c", "o")}))
    net = EmbeddedNet(topo, {"a": (-1e150, -8e149), "b": (1e150, 0.0), "c": (7e149, 1e150),
                             "o": (-9e149, 4.5e149)})
    one = relax(net, RelaxConfig(max_iters=1))
    assert one.status == STATUS_MAX_ITERS and one.iterations == 1
    assert max(abs(c) for c in one.net.positions["o"]) <= COORD_BOUND
    assert relax(net).status == STATUS_CONVERGED


def test_newton_stalls_when_the_worst_imbalance_stops_falling():
    # the ring n = 8 template's minimum collapses edges: relax creeps toward
    # it with the worst imbalance near 2.76 and must give up, not run on
    template = topology_template(NetFamily(family=RING_EXPERIMENTAL, n=8))
    out = relax(EmbeddedNet(template.topology, template.positions))
    assert out.status == STATUS_STALLED
    assert out.iterations < 1000
    assert total_report(out.net).max_norm > 1.0


@pytest.mark.parametrize("seed", range(100, 130))
def test_newton_relaxed_jitter_passes_the_lemma_battery(seed, construction, sol):
    # relax must stop close enough to the exact net for the identities at 1e-9
    out = relax(jittered_net25(seed))
    assert out.status == STATUS_CONVERGED
    result = ConstructionResult(
        net=out.net, params=params_from_solution(sol), landmarks=dict(out.net.positions),
    )
    failed = [c.name for c in check_lemmas(result, sol).checks() if not c.passed]
    assert failed == []


@pytest.mark.parametrize("seed", [100, 105])
def test_a_tolerance_equal_to_a_reached_imbalance_converges_at_that_step(seed):
    # balance is "worst imbalance <= tol_balance": at a tolerance equal to the
    # worst imbalance of a state relax reaches, the run ends converged there
    net = jittered_net25(seed)
    traced = relax(net, RelaxConfig(trace_every=1))
    assert traced.status == STATUS_CONVERGED
    worst = [tp.max_norm for tp in traced.trace]
    assert [tp.iteration for tp in traced.trace] == list(range(len(worst)))
    # the steps where the worst imbalance falls below every earlier one
    records = [k for k in range(1, len(worst) - 1) if worst[k] < min(worst[:k])]
    assert len(records) >= 3
    for k in records:
        out = relax(net, RelaxConfig(tol_balance=worst[k], trace_every=1))
        assert (out.status, out.iterations) == (STATUS_CONVERGED, k)
        assert out.trace == traced.trace[:k + 1]
        assert out.net.positions == dict(traced.trace[k].positions)
    start = relax(net, RelaxConfig(tol_balance=worst[0]))
    assert (start.status, start.iterations) == (STATUS_CONVERGED, 0) and start.net is net
    below = relax(net, RelaxConfig(tol_balance=np.nextafter(worst[0], 0.0), max_iters=0))
    assert (below.status, below.iterations) == (STATUS_MAX_ITERS, 0)


def test_t2_template_converges_in_three_steps(t2_template):
    # a change to the trial logic (damping, acceptance, guards) moves this count
    out = relax(EmbeddedNet(t2_template.topology, t2_template.positions))
    assert (out.status, out.iterations) == (STATUS_CONVERGED, 3)


def test_relax_rejects_more_interior_vertices_than_its_limit(monkeypatch):
    # checked on a count: a lowered limit stands in for a net too large to build
    net, module = jittered_net25(100), sys.modules["geonets.relax"]  # the function shadows it
    monkeypatch.setattr(module, "MAX_INTERIOR", 24)
    with pytest.raises(DomainError, match="at most 24 interior vertices, got 25"):
        relax(net)
    monkeypatch.setattr(module, "MAX_INTERIOR", 25)
    assert relax(net).status == STATUS_CONVERGED


@pytest.mark.parametrize("seed, iterations", [
    (100, 14), (101, 17), (102, 15), (103, 13), (104, 13),
    (105, 8), (106, 10), (107, 8), (108, 12), (109, 13),
])
def test_jittered_net25_step_counts_are_pinned(seed, iterations):
    out = relax(jittered_net25(seed))
    assert (out.status, out.iterations) == (STATUS_CONVERGED, iterations)


_coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    pins=st.lists(st.floats(min_value=0.0, max_value=2.0 * math.pi), min_size=3, max_size=5),
    inner=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=3),
    picks=st.lists(st.integers(min_value=0, max_value=4), min_size=9, max_size=9),
    chain=st.booleans(),
    max_iters=st.integers(min_value=0, max_value=200),
    tol_exp=st.floats(min_value=-14.0, max_value=-1.0),
    trace_every=st.integers(min_value=0, max_value=5),
)
def test_newton_keeps_boundary_and_embedding_on_random_nets(
        pins, inner, picks, chain, max_iters, tol_exp, trace_every):
    """Interior vertex j joins three distinct pins (and, with chain, vertex
    j + 1); whatever relax returns under any config keeps the boundary and a
    valid embedding."""
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
        if chain and j + 1 < len(inner):
            edges.add((f"v{j}", f"v{j + 1}"))
    pos = {f"b{k}": (2.0 * math.cos(t), 2.0 * math.sin(t)) for k, t in enumerate(pins)}
    pos.update({f"v{j}": p for j, p in enumerate(inner)})
    try:
        net = EmbeddedNet(NetTopology(tuple(verts), frozenset(edges)), pos)
    except InvariantViolation:
        assume(False)
    cfg = RelaxConfig(max_iters=max_iters, tol_balance=10.0 ** tol_exp, trace_every=trace_every)
    out = relax(net, cfg)
    assert out.status in (STATUS_CONVERGED, STATUS_MAX_ITERS, STATUS_DEGENERATED, STATUS_STALLED)
    assert out.iterations <= max_iters
    for vid in net.topology.boundary_ids:
        assert out.net.positions[vid] == net.positions[vid]
    assert EmbeddedNet(out.net.topology, out.net.positions).positions == out.net.positions
    if out.net is not net:  # a moved net keeps every edge above the guard
        for a, b in net.topology.edges:
            assert dist(out.net.positions[a], out.net.positions[b]) >= GUARD
    if trace_every:
        assert out.trace[-1].iteration == out.iterations
        assert out.trace[-1].positions == out.net.positions
    else:
        assert out.trace == ()
    if out.status == STATUS_CONVERGED:
        assert total_report(out.net).max_norm <= cfg.tol_balance
