"""Each benchmark check accepts a correct output and rejects a wrong one.

Run: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import geonets as G  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed, PlainNet  # noqa: E402
from reference import REFERENCE_COORDS  # noqa: E402
from workloads import VerifyScale, _check_verdict, parse_verify  # noqa: E402


@pytest.fixture(scope="module")
def net25():
    return G.build_net25(G.solve_angles()).net


@pytest.fixture(scope="module")
def plain25(net25):
    return PlainNet.from_net(net25)


def _moved(plain: PlainNet, vid: str, dx: float, dy: float = 0.0) -> PlainNet:
    pos = plain.pos.copy()
    pos[plain.ids.index(vid)] += (dx, dy)
    return plain.with_pos(pos)


def _ring(n: int):
    tpl = G.topology_template(G.NetFamily(G.RING_EXPERIMENTAL, n))
    return G.EmbeddedNet(tpl.topology, tpl.positions)


def test_imbalance_recompute_matches_the_package_report():
    for net in (_ring(4), _ring(16)):
        rep = G.total_report(net)
        checks.check_report_matches(PlainNet.from_net(net),
                                    {v: n for v, (_, n) in rep.per_vertex.items()},
                                    rep.max_norm, "ring")


def test_imbalance_report_off_by_a_little_is_rejected():
    net = _ring(4)
    rep = G.total_report(net)
    per = {v: n for v, (_, n) in rep.per_vertex.items()}
    per[next(iter(per))] += 1e-9
    with pytest.raises(CheckFailed):
        checks.check_report_matches(PlainNet.from_net(net), per, rep.max_norm, "ring")


def test_net_moved_by_1e6_is_not_balanced_nor_a_strict_minimum(plain25):
    assert checks.check_balanced(plain25, 1e-9, "exact") < 1e-12
    checks.check_strict_minimum(plain25, np.random.default_rng(0), "exact")
    moved = _moved(plain25, "p", 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_balanced(moved, 1e-9, "moved")
    with pytest.raises(CheckFailed):
        checks.check_strict_minimum(moved, np.random.default_rng(0), "moved")


def test_moved_boundary_vertex_is_rejected(plain25):
    checks.check_boundary_unchanged(plain25, _moved(plain25, "p", 1e-3), "interior move")
    d1 = plain25.pos[plain25.ids.index("d1"), 0]
    with pytest.raises(CheckFailed):
        checks.check_boundary_unchanged(plain25, _moved(plain25, "d1", math.ulp(d1)), "d1")


def test_rmsd_is_rigid_invariant_and_rejects_a_moved_vertex(net25, plain25):
    moved = checks.rigid_motion(net25.positions, np.random.default_rng(1))
    assert checks.check_rmsd(REFERENCE_COORDS, moved, 1e-6, "moved rigidly") < 1e-12
    with pytest.raises(CheckFailed):
        checks.check_rmsd(REFERENCE_COORDS, _moved(plain25, "c1", 1e-5).positions(), 1e-6, "c1")
    mirrored = {v: (-x, y) for v, (x, y) in net25.positions.items()}
    with pytest.raises(CheckFailed):
        checks.check_rmsd(REFERENCE_COORDS, mirrored, 1e-6, "mirror image")


def test_overlap_scan_agrees_with_the_package_on_rings():
    for n in (4, 8, 16):
        net = _ring(n)
        checks.check_overlaps_match(PlainNet.from_net(net),
                                    [f.items for f in G.detect_overlaps(net)], f"ring{n}")


def test_hidden_overlap_is_found(plain25):
    checks.check_no_overlaps(plain25, "exact")
    # one more boundary vertex above p, joined to f1: the new edge runs
    # through p along p-f1 (all three sit on the vertical line x = p.x)
    pos = plain25.positions()
    px, py = pos["p"]
    pos["z"] = (px, py + 0.5 * (py - pos["f1"][1]))
    edges = plain25.edge_pairs() + [("f1", "z")]
    bnd = [v for v, b in zip(plain25.ids, plain25.boundary) if b] + ["z"]
    hidden = PlainNet.build(pos, edges, bnd)
    with pytest.raises(CheckFailed):
        checks.check_no_overlaps(hidden, "hidden")
    with pytest.raises(CheckFailed):
        checks.check_overlaps_match(hidden, [], "a scan that missed it")


def test_non_verifying_witness_is_rejected(tmp_path):
    wl = VerifyScale(G, tmp_path, 0)
    wl.prepare()
    net = wl.fixed["reducible"]
    verdict, witness = G.is_irreducible(net)
    assert verdict == "no"
    plain = PlainNet.from_net(net)
    checks.check_witness(plain, witness.edges, "witness")
    with pytest.raises(CheckFailed):
        checks.check_witness(plain, witness.edges[1:], "witness minus an edge")
    with pytest.raises(CheckFailed):
        checks.check_witness(plain, plain.edge_pairs(), "the whole net")


def test_bit_exact_round_trip(net25, tmp_path):
    path = tmp_path / "net.json"
    G.save_net(net25, str(path))
    on_disk = PlainNet.from_doc(json.loads(path.read_text())).positions()
    checks.check_positions_bitwise(net25.positions, on_disk, "saved")
    x, y = on_disk["a12"]
    on_disk["a12"] = (math.nextafter(x, math.inf), y)
    with pytest.raises(CheckFailed):
        checks.check_positions_bitwise(net25.positions, on_disk, "one ulp off")


def test_verdict_that_a_moved_copy_contradicts_is_rejected(net25):
    rng = np.random.default_rng(0)
    _check_verdict(G, net25, "yes", None, rng, "net25", expected="yes")
    with pytest.raises(CheckFailed):
        _check_verdict(G, net25, "no", None, rng, "net25")


def test_lemma_outcomes_are_classified():
    from workloads import Jitter25

    lines = ["balance     : PASS (max imbalance 1e-11)", "overlaps    : PASS (0 finding(s))",
             "degrees     : PASS", "irreducible : yes"]
    names = ["reflex_angle", "corner_triangles", "direction_multiset",
             "distance_identities", "crossing_beyond_corner"]

    def text(failing):
        return "\n".join(lines + [f"identity    : {n}: {'FAIL' if n in failing else 'PASS'} "
                                  f"(deviation 1e-12)" for n in names])

    assert parse_verify(text(()))["identity"]["distance_identities"] is True
    assert Jitter25._lemma_failed(0, text(())) is False
    assert Jitter25._lemma_failed(1, text(("distance_identities",))) is True
    with pytest.raises(CheckFailed):
        Jitter25._lemma_failed(1, text(("reflex_angle",)))


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
