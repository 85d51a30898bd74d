"""Serialization round trips, SVG determinism, and report export."""

from __future__ import annotations

import copy
import json
import math
import re
import warnings
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonets import (
    BOUNDARY,
    INTERIOR,
    RING_EXPERIMENTAL,
    T2_OCTAGON,
    EmbeddedNet,
    InvariantViolation,
    IoError,
    NetFamily,
    NetTopology,
    ParseError,
    SvgStyle,
    canonical_edge,
    detect_overlaps,
    export_report,
    export_svg,
    load_net,
    save_net,
    topology_template,
    total_report,
    verify_geodesic_net,
)
from geonets.io import _net_doc, _net_text
from geonets.net import COORD_BOUND

from conftest import make_two_tree_net, make_x_net, star_doc


def _segment_net():
    topo = NetTopology(
        vertices=(("a", BOUNDARY), ("b", BOUNDARY)), edges=frozenset({("a", "b")})
    )
    return EmbeddedNet(topo, {"a": (0.0, 0.0), "b": (1.0, 0.5)})


def test_round_trip_is_bit_exact(net25, tmp_path):
    path = tmp_path / "net.json"
    save_net(net25, str(path))
    loaded = load_net(str(path))
    assert loaded.positions == net25.positions  # float equality, not approx
    assert loaded.topology == net25.topology


def test_save_is_deterministic(net25, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_net(net25, str(p1))
    save_net(net25, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_save_fixed_point(net25, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_net(net25, str(p1))
    save_net(load_net(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_file_shape(net25, tmp_path):
    path = tmp_path / "net.json"
    save_net(net25, str(path))
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert len(doc["vertices"]) == 29
    assert len(doc["edges"]) == 64
    flags = {v["id"]: v["boundary"] for v in doc["vertices"]}
    assert sum(flags.values()) == 4
    assert flags["d1"] and not flags["p"]


def test_load_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_net(str(tmp_path / "absent.json"))


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1,\n  "vertices": [}')
    with pytest.raises(ParseError, match="line 2"):
        load_net(str(path))


def test_load_wrong_version(tmp_path):
    # true and 1.0 compare equal to 1 in Python, but are not version 1
    for text, shown in (("9", "9"), ("true", "True"), ("1.0", "1.0")):
        path = tmp_path / "v.json"
        path.write_text(f'{{"format_version": {text}, "vertices": [], "edges": []}}')
        with pytest.raises(ParseError, match=f"format_version {shown}"):
            load_net(str(path))


def test_load_top_level_must_be_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParseError, match="top-level"):
        load_net(str(path))


def _doc(vertices, edges):
    return {"format_version": 1, "vertices": vertices, "edges": edges}


def _write(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_field_errors(tmp_path):
    cases = [
        ({"pos": [0, 0], "boundary": True}, "missing field 'id'"),
        ({"id": "a", "boundary": True}, "missing field 'pos'"),
        ({"id": "a", "pos": [0, 0], "boundary": 1}, "boolean"),
        ({"id": "a", "pos": [0], "boundary": True}, r"\[x, y\]"),
        ({"id": 7, "pos": [0, 0], "boundary": True}, "string"),
        ({"id": "a", "pos": [True, False], "boundary": True}, r"\[x, y\] numbers"),
        ({"id": "a", "pos": [0, 10**400], "boundary": True}, "too large for a float"),
    ]
    for bad, pattern in cases:
        with pytest.raises(ParseError, match=pattern):
            load_net(_write(tmp_path, _doc([bad], [])))


def test_load_bad_edge_entry(tmp_path):
    doc = _doc(
        [
            {"id": "a", "pos": [0.0, 0.0], "boundary": True},
            {"id": "b", "pos": [1.0, 0.0], "boundary": True},
        ],
        [["a", "b", "c"]],
    )
    with pytest.raises(ParseError, match=r"edges\[0\]"):
        load_net(_write(tmp_path, doc))


def test_load_duplicate_edge_is_an_invariant_violation(tmp_path):
    doc = _doc(
        [
            {"id": "a", "pos": [0.0, 0.0], "boundary": True},
            {"id": "b", "pos": [1.0, 0.0], "boundary": True},
        ],
        [["a", "b"], ["b", "a"]],
    )
    with pytest.raises(InvariantViolation, match="duplicate edge"):
        load_net(_write(tmp_path, doc))


def test_load_structural_violations_surface(tmp_path):
    # degree-2 interior vertex
    doc = _doc(
        [
            {"id": "a", "pos": [0.0, 0.0], "boundary": True},
            {"id": "v", "pos": [0.5, 0.0], "boundary": False},
            {"id": "b", "pos": [1.0, 0.0], "boundary": True},
        ],
        [["a", "v"], ["v", "b"]],
    )
    with pytest.raises(InvariantViolation, match="degree"):
        load_net(_write(tmp_path, doc))


@pytest.mark.parametrize("reach", [1e200, 1.5e308])
def test_load_rejects_coordinates_beyond_the_bound(tmp_path, reach):
    message = f"vertex 'e' has coordinate {reach!r} beyond the bound 1e+150"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        load_net(_write(tmp_path, star_doc(reach)))


def test_load_accepts_coordinates_at_the_bound(tmp_path):
    net = load_net(_write(tmp_path, star_doc(COORD_BOUND)))
    assert net.positions["w"] == (-COORD_BOUND, 0.0)
    assert total_report(net).max_norm == pytest.approx(1.0)


def test_load_rejects_an_empty_net(tmp_path):
    with pytest.raises(InvariantViolation, match="at least one vertex"):
        load_net(_write(tmp_path, _doc([], [])))


# Field values of the wrong type, out of range or not finite.
ODD_VALUES = (None, True, False, 0, 2.5, 10**400, "", "o", [], ["o"], ["o", "p1"], {})
ODD_COORDS = (True, 10**400, 10**300, 1e200, -1e200, COORD_BOUND, -COORD_BOUND,
              math.nextafter(COORD_BOUND, math.inf), 5e-324, -0.0, math.nan, math.inf, "1")
MUTATIONS = ("field", "vertex field", "coordinate", "coordinate", "coordinate", "move",
             "move", "copy vertex", "drop vertex", "copy edge", "new edge", "new edge",
             "odd edge")


@st.composite
def mutated_docs(draw):
    """Net file documents of a small net, each changed in a few places:
    fields dropped or given odd values, coordinates made huge, tiny or not
    numbers, vertices moved, copied or dropped, edges copied, looped,
    pointed elsewhere or not lists."""
    doc = _net_doc(draw(st.sampled_from([make_x_net(), make_two_tree_net()])))
    verts, edges = doc["vertices"], doc["edges"]
    ids = [v["id"] for v in verts]
    odd = st.sampled_from(ODD_VALUES)
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(MUTATIONS))
        if how == "field":
            key = draw(st.sampled_from(sorted(doc)))
            if draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = draw(odd)
        elif how == "vertex field" and verts:
            vertex = draw(st.sampled_from(verts))
            key = draw(st.sampled_from(["id", "pos", "boundary"]))
            if draw(st.booleans()):
                vertex.pop(key, None)
            else:
                vertex[key] = draw(odd)
        elif how == "coordinate" and verts:
            pos = draw(st.sampled_from(verts)).get("pos")
            if isinstance(pos, list) and pos:
                pos[draw(st.integers(0, len(pos) - 1))] = draw(st.sampled_from(ODD_COORDS))
        elif how == "move" and verts:
            # onto another vertex, far out, or to a tiny offset
            vertex = draw(st.sampled_from(verts))
            vertex["pos"] = draw(st.sampled_from(
                [copy.copy(v.get("pos")) for v in verts]
                + [[0.0, 5e-324], [1e150, -1e150], [1e-300, 0.0]]))
        elif how == "copy vertex" and verts:
            verts.append(copy.deepcopy(draw(st.sampled_from(verts))))
        elif how == "drop vertex" and verts:
            verts.pop(draw(st.integers(0, len(verts) - 1)))
        elif how == "copy edge" and edges:
            edge = draw(st.sampled_from(edges))
            reverse = isinstance(edge, list) and draw(st.booleans())
            edges.append(edge[::-1] if reverse else copy.deepcopy(edge))
        elif how == "new edge":
            a = draw(st.sampled_from(ids + ["ghost"]))
            edges.append(draw(st.sampled_from([[a, a], [a, draw(st.sampled_from(ids))]])))
        elif how == "odd edge" and edges:
            edges[draw(st.integers(0, len(edges) - 1))] = draw(odd)
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_docs())
def test_loader_fuzz_fails_only_with_package_errors(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "net.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            net = load_net(str(path))
        except (ParseError, InvariantViolation):
            return
        # whatever loads stays finite through the battery
        report = total_report(net)
        assert math.isfinite(report.total_loss)
        detect_overlaps(net)


def test_save_to_unwritable_path(net25, tmp_path):
    with pytest.raises(IoError):
        save_net(net25, str(tmp_path))  # a directory, not a file


def test_svg_element_counts(net25, tmp_path):
    path = tmp_path / "net.svg"
    export_svg(net25, SvgStyle(), str(path))
    text = path.read_text()
    assert text.count("<line ") == 64
    assert text.count("<circle ") == 29
    assert text.count('fill="#c0392b"') == 4  # boundary dots
    assert text.count('fill="#2c3e50"') == 25
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")


def test_svg_single_segment(tmp_path):
    path = tmp_path / "seg.svg"
    export_svg(_segment_net(), SvgStyle(), str(path))
    text = path.read_text()
    assert text.count("<line ") == 1
    assert text.count("<circle ") == 2


def test_svg_deterministic_bytes(net25, tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    export_svg(net25, SvgStyle(), str(p1))
    export_svg(net25, SvgStyle(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_style_is_applied(tmp_path):
    path = tmp_path / "styled.svg"
    export_svg(_segment_net(), SvgStyle(stroke_width=0.125, boundary_radius=0.75), str(path))
    text = path.read_text()
    assert 'stroke-width="0.125"' in text
    assert 'r="0.75"' in text


def test_svg_style_validation():
    with pytest.raises(ValueError):
        SvgStyle(stroke_width=0.0)
    with pytest.raises(ValueError):
        SvgStyle(margin_fraction=-0.1)


@pytest.mark.parametrize("name", ["stroke_width", "balanced_radius", "boundary_radius",
                                  "margin_fraction"])
@pytest.mark.parametrize("value, message", [(math.nan, "must be positive"),
                                            (-math.inf, "must be positive"),
                                            (math.inf, "must be finite")])
def test_svg_style_rejects_nan_and_infinity(name, value, message):
    # a NaN or infinite margin wrote viewBox="nan nan nan nan"
    with pytest.raises(ValueError, match=f"{name} {message}"):
        SvgStyle(**{name: value})


def test_an_overflowing_viewbox_raises_and_writes_nothing(net25, tmp_path):
    # every style value is finite, but margin_fraction times the extent is not;
    # this wrote viewBox="-inf -inf inf inf"
    path = tmp_path / "big.svg"
    with pytest.raises(ValueError) as caught:
        export_svg(net25, SvgStyle(margin_fraction=1e308), str(path))
    assert str(caught.value) == "margin_fraction 1e+308 overflows the viewBox"
    assert not path.exists()
    export_svg(net25, SvgStyle(margin_fraction=1e300), str(path))
    assert "inf" not in path.read_text()


def test_imbalance_report_csv(tmp_path, corner_net):
    path = tmp_path / "imb.csv"
    export_report(total_report(corner_net), str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "id,norm,sum_x,sum_y"
    assert len(rows) == 2
    assert rows[1].startswith("v,0.3032169523211374,")


def test_verification_report_csv_header_only_when_clean(net25, tmp_path):
    path = tmp_path / "clean.csv"
    export_report(verify_geodesic_net(net25), str(path))
    rows = path.read_text().strip().splitlines()
    assert rows == ["kind,item,detail"]


def test_verification_report_rows_for_failures(net25, tmp_path):
    pos = dict(net25.positions)
    x, y = pos["e1"]
    pos["e1"] = (x + 0.01, y)
    report = verify_geodesic_net(net25.with_positions(pos))
    path = tmp_path / "bad.csv"
    export_report(report, str(path))
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 1 + len(report.offending_vertices)
    assert all(r.startswith("balance,") for r in rows[1:])


def test_report_json_format(tmp_path, corner_net):
    path = tmp_path / "imb.json"
    export_report(total_report(corner_net), str(path), format="json")
    data = json.loads(path.read_text())
    assert data == [
        {
            "id": "v",
            "norm": pytest.approx(0.3032169523211374),
            "sum_x": pytest.approx(0.20273623790951212),
            "sum_y": pytest.approx(0.22547402957595053),
        }
    ]


def test_report_unknown_format(tmp_path, corner_net):
    with pytest.raises(IoError, match="format"):
        export_report(total_report(corner_net), str(tmp_path / "x.tsv"), format="tsv")


def _reference_export_svg(net: EmbeddedNet, style: SvgStyle, path: str) -> None:
    """export_svg as it was before it formatted each coordinate once."""
    xs = [p[0] for p in net.positions.values()]
    ys = [p[1] for p in net.positions.values()]
    margin = style.margin_fraction * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    x0 = min(xs) - margin
    y0 = -(max(ys) + margin)
    w = (max(xs) - min(xs)) + 2.0 * margin
    h = (max(ys) - min(ys)) + 2.0 * margin
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0!r} {y0!r} {w!r} {h!r}">',
        # flip y so the mathematical orientation is preserved on screen
        '<g transform="scale(1,-1)">',
    ]
    for a, b in sorted(net.topology.edges):
        (ax, ay), (bx, by) = net.positions[a], net.positions[b]
        lines.append(
            f'<line x1="{ax!r}" y1="{ay!r}" x2="{bx!r}" y2="{by!r}" '
            f'stroke="#333333" stroke-width="{style.stroke_width!r}"/>'
        )
    for vid, kind in net.topology.vertices:
        x, y = net.positions[vid]
        if kind == BOUNDARY:
            r, fill = style.boundary_radius, "#c0392b"
        else:
            r, fill = style.balanced_radius, "#2c3e50"
        lines.append(f'<circle cx="{x!r}" cy="{y!r}" r="{r!r}" fill="{fill}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def _assert_writers_match_json_and_the_reference(net, style, tmp_path):
    assert _net_text(net) == json.dumps(_net_doc(net), indent=1) + "\n"
    save_net(net, str(tmp_path / "net.json"))
    assert (tmp_path / "net.json").read_text(encoding="utf-8") == _net_text(net)
    export_svg(net, style, str(tmp_path / "a.svg"))
    _reference_export_svg(net, style, str(tmp_path / "b.svg"))
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


SPECIAL_COORDS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -3.0, 2.0**53, 1e16, 1e22,
                  0.1, 1 / 3, COORD_BOUND, -COORD_BOUND, math.nextafter(COORD_BOUND, 0.0),
                  9.999999999999999e149)
ODD_IDS = ('"', "\\", '\\"', "é", "\u00ff", "\u2028", "\U0001f600", "\ud800", "\x00",
           "\x1f", "\x7f", "\n\t", "a b", "</svg>")


@st.composite
def writer_nets(draw):
    """Nets with ids that json must escape and coordinates at the edges of
    float formatting: signed zeros, subnormals, integral floats and values
    at the coordinate bound."""
    ids = draw(st.lists(st.one_of(st.sampled_from(ODD_IDS), st.text(max_size=4)),
                        min_size=2, max_size=7, unique=True))
    coords = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_COORDS),
                                     st.floats(-COORD_BOUND, COORD_BOUND),
                                     st.integers(-10**6, 10**6).map(float)),
                           min_size=len(ids), max_size=len(ids)))
    # the other axis spaces the vertices out beyond EmbeddedNet's
    # degeneracy threshold, which grows with the bounding box
    step = 1e139 if max(abs(c) for c in coords) > 1e11 else 1.0
    swap = draw(st.booleans())
    pos = {vid: (k * step, c) if swap else (c, k * step)
           for k, (vid, c) in enumerate(zip(ids, coords))}
    edges = {canonical_edge(ids[0], vid) for vid in ids[1:]}
    for a, b in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=6)):
        if a != b:
            edges.add(canonical_edge(a, b))
    degree = {vid: sum(vid in e for e in edges) for vid in ids}
    kinds = {vid: INTERIOR if degree[vid] >= 3 and draw(st.booleans()) else BOUNDARY
             for vid in ids}
    topo = NetTopology(tuple(kinds.items()), frozenset(edges))
    style = SvgStyle(*draw(st.lists(st.sampled_from([0.02, 0.125, 1.0, 3e-7, 2.5, 7]),
                                    min_size=4, max_size=4)))
    return EmbeddedNet(topo, pos), style


@settings(max_examples=200, deadline=None)
@given(writer_nets())
def test_writers_match_json_and_the_reference_svg(tmp_path_factory, case):
    net, style = case
    _assert_writers_match_json_and_the_reference(net, style, tmp_path_factory.mktemp("w"))


@pytest.mark.parametrize("family, n", [(RING_EXPERIMENTAL, 4), (RING_EXPERIMENTAL, 8),
                                       (RING_EXPERIMENTAL, 16), (RING_EXPERIMENTAL, 32),
                                       (T2_OCTAGON, 2), (None, None)])
def test_writers_match_json_and_the_reference_svg_on_templates(net25, tmp_path, family, n):
    if family is None:
        net = net25
    else:
        tpl = topology_template(NetFamily(family, n))
        net = EmbeddedNet(tpl.topology, tpl.positions)
    _assert_writers_match_json_and_the_reference(net, SvgStyle(), tmp_path)
