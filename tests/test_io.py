"""Serialization round trips, SVG determinism, and report export."""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import os
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
    LemmaCheck,
    NetFamily,
    NetTopology,
    ParseError,
    SvgStyle,
    canonical_edge,
    detect_overlaps,
    export_report,
    export_svg,
    is_irreducible,
    load_net,
    save_net,
    topology_template,
    total_report,
    verify_geodesic_net,
)
from geonets.io import FORMAT_VERSION, _net_text, _report_rows
from geonets.net import COORD_BOUND, TOPOLOGY_CACHE_SIZE, shared_topology

from conftest import make_corner_net, make_two_tree_net, make_x_net, star_doc


def _net_doc(net: EmbeddedNet) -> dict:
    """The net file's document, the json.dumps oracle of _net_text."""
    return {
        "format_version": FORMAT_VERSION,
        "vertices": [
            {
                "id": vid,
                "pos": [net.positions[vid][0], net.positions[vid][1]],
                "boundary": kind == BOUNDARY,
            }
            for vid, kind in net.topology.vertices
        ],
        "edges": [list(e) for e in net.topology.edge_order.edges],
    }


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
        (["a", [0, 0], True], r"vertices\[0\]: expected an object"),
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
    # the exact repeat as well as the reversed pair: NetTopology names both
    for repeat in (["a", "b"], ["b", "a"]):
        doc = _doc(
            [
                {"id": "a", "pos": [0.0, 0.0], "boundary": True},
                {"id": "b", "pos": [1.0, 0.0], "boundary": True},
            ],
            [["a", "b"], repeat],
        )
        with pytest.raises(InvariantViolation) as exc:
            load_net(_write(tmp_path, doc))
        assert str(exc.value) == "duplicate edge ('a', 'b')"


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
        if how == "field" and doc:  # three deletions can empty it
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


def _reference_parse_vertex(entry: object, k: int) -> tuple[str, str, tuple[float, float]]:
    """The vertex parser of the loader that load_net replaced, kept verbatim."""
    where = f"vertices[{k}]"
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        vid = entry["id"]
        raw = entry["pos"]
        boundary = entry["boundary"]
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None
    if not isinstance(vid, str):
        raise ParseError(f"{where}.id: expected a string")
    if not isinstance(boundary, bool):
        raise ParseError(f"{where}.boundary: expected a boolean")
    if (not isinstance(raw, list)) or len(raw) != 2 \
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in raw):
        raise ParseError(f"{where}.pos: expected [x, y] numbers")
    try:
        pos = (float(raw[0]), float(raw[1]))
    except OverflowError:
        raise ParseError(f"{where}.pos: coordinate too large for a float") from None
    kind = BOUNDARY if boundary else INTERIOR
    return vid, kind, pos


def _reference_load_net(path: str) -> EmbeddedNet:
    """The loader that load_net replaced, kept verbatim: it checked each
    entry's types, then found a duplicate edge by comparing lengths after
    frozenset() had merged it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a top-level object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # True == 1.0 == 1
        raise ParseError(f"{path}: unknown format_version {version!r}")
    raw_vertices = doc.get("vertices")
    raw_edges = doc.get("edges")
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise ParseError(f"{path}: 'vertices' and 'edges' must be lists")
    vertices = []
    positions: dict[str, tuple[float, float]] = {}
    for k, entry in enumerate(raw_vertices):
        vid, kind, pos = _reference_parse_vertex(entry, k)
        vertices.append((vid, kind))
        positions[vid] = pos
    edges = []
    for k, pair in enumerate(raw_edges):
        if (not isinstance(pair, list)) or len(pair) != 2 \
                or not all(isinstance(v, str) for v in pair):
            raise ParseError(f"edges[{k}]: expected [idA, idB]")
        edges.append((pair[0], pair[1]))
    topo = NetTopology(vertices=tuple(vertices), edges=frozenset(edges))
    # a duplicate edge hides inside frozenset(); re-check against the raw list
    if len(edges) != len(topo.edges):
        raise InvariantViolation(f"{path}: duplicate edge in file")
    return EmbeddedNet(topology=topo, positions=positions)


def _outcome(loader, path: str):
    """("net", the net) or (the exception's type, its message)."""
    try:
        return "net", loader(path)
    except Exception as exc:  # any type: the type is part of the outcome
        return type(exc), str(exc)


def _holds_duplicate_edge(doc) -> bool:
    edges = doc.get("edges")
    if not isinstance(edges, list):
        return False
    pairs = [tuple(sorted(e)) for e in edges
             if isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)]
    return len(set(pairs)) < len(pairs)


@settings(max_examples=400, deadline=None)
@given(mutated_docs())
def test_loader_agrees_with_the_reference_loader(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("equal") / "net.json"
    path.write_text(json.dumps(doc))
    got, want = _outcome(load_net, str(path)), _outcome(_reference_load_net, str(path))
    if got[0] == want[0] == "net":
        assert got[1] == want[1]
        assert got[1].xy.tobytes() == want[1].xy.tobytes()  # -0.0 is not 0.0 here
    elif got != want:
        # The one named difference: NetTopology names a duplicate edge
        # where the reference loader, whose frozenset() merged an exact
        # repeat, raised another InvariantViolation or its generic
        # "duplicate edge in file".
        assert _holds_duplicate_edge(doc)
        assert got[0] is InvariantViolation and got[1].startswith("duplicate edge (")
        assert want[0] is InvariantViolation


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


def test_verification_report_rows_for_degree_and_failed_identities(tmp_path):
    # m is a straight degree-2 pass-through: balanced, but below degree 3
    topo = NetTopology((("a", BOUNDARY), ("m", INTERIOR), ("b", BOUNDARY)),
                       [("a", "m"), ("m", "b")], allow_degree2=True)
    net = EmbeddedNet(topo, {"a": (0.0, 0.0), "m": (1.0, 0.0), "b": (2.0, 0.0)})
    report = dataclasses.replace(
        verify_geodesic_net(net),
        lemma_checks=(LemmaCheck("reflex_angle", True, 1e-16),
                      LemmaCheck("distance_identities", False, 2.5e-3)))
    assert report.balance_pass and report.degree_offenders == ("m",)
    export_report(report, str(tmp_path / "r.csv"))
    assert (tmp_path / "r.csv").read_text().splitlines() == [
        "kind,item,detail",
        "degree,m,interior vertex of degree < 3",
        "identity,distance_identities,deviation 2.500000e-03",
    ]
    export_report(report, str(tmp_path / "r.json"), format="json")
    assert json.loads((tmp_path / "r.json").read_text()) == [
        {"kind": "degree", "item": "m", "detail": "interior vertex of degree < 3"},
        {"kind": "identity", "item": "distance_identities", "detail": "deviation 2.500000e-03"},
    ]


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


def _reference_export_report(report, path: str, format: str = "csv") -> None:
    """export_report as it was before it wrote through one in-place writer:
    the rows through csv.writer or json.dump on a file opened with "w"."""
    header, rows = _report_rows(report)
    try:
        if format == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        elif format == "json":
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([dict(zip(header, row)) for row in rows], fh, indent=1)
                fh.write("\n")
        else:
            raise IoError(f"unknown report format {format!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def _assert_report_matches_the_reference(report, tmp_path):
    for fmt in ("csv", "json"):
        new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
        new.unlink(missing_ok=True)
        try:
            _reference_export_report(report, str(old), fmt)
        except UnicodeEncodeError:  # a lone surrogate id in a csv row
            with pytest.raises(IoError, match=f"cannot write {re.escape(str(new))}: 'utf-8'"):
                export_report(report, str(new), fmt)
            assert not new.exists()
            continue
        export_report(report, str(new), fmt)
        assert new.read_bytes() == old.read_bytes()


def _perturbed25(net25):
    pos = dict(net25.positions)
    for vid in ("e1", "f3", "p"):
        x, y = pos[vid]
        pos[vid] = (x + 0.01, y - 0.003)
    return net25.with_positions(pos)


def _corner_net_with_id(vid: str) -> EmbeddedNet:
    net = make_corner_net()
    rename = {"v": vid}.get
    topo = NetTopology(tuple((rename(v, v), kind) for v, kind in net.topology.vertices),
                       [(rename(a, a), rename(b, b)) for a, b in net.topology.edges])
    return EmbeddedNet(topo, {rename(v, v): p for v, p in net.positions.items()})


def test_reports_match_the_reference_writers(net25, tmp_path):
    x_net = make_x_net()
    irreducible, witness = is_irreducible(x_net)
    reports = [
        total_report(make_corner_net()),
        verify_geodesic_net(net25),  # the header alone
        total_report(_perturbed25(net25)),
        verify_geodesic_net(_perturbed25(net25)),
        dataclasses.replace(verify_geodesic_net(x_net), irreducible=irreducible,
                            witness=witness),
        total_report(_corner_net_with_id('a,"b"\r\né')),  # quoted by csv, escaped by json
        total_report(_corner_net_with_id("\ud800")),
    ]
    for report in reports:
        _assert_report_matches_the_reference(report, tmp_path)


@settings(max_examples=100, deadline=None)
@given(writer_nets())
def test_reports_match_the_reference_writers_on_odd_ids(tmp_path_factory, case):
    net, _ = case
    tmp_path = tmp_path_factory.mktemp("r")
    for report in (total_report(net), verify_geodesic_net(net)):
        _assert_report_matches_the_reference(report, tmp_path)


# every writer in the package, each given a net and a path
WRITERS = {
    "save_net": save_net,
    "export_svg": lambda net, path: export_svg(net, SvgStyle(), path),
    "report_csv": lambda net, path: export_report(verify_geodesic_net(net), path),
    "report_json": lambda net, path: export_report(total_report(net), path, format="json"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("old_size", ["longer", "shorter", "equal"])
def test_a_writer_overwrites_an_existing_file_with_exactly_the_new_bytes(
        net25, tmp_path, writer, old_size):
    net = _perturbed25(net25)
    fresh, path, link = tmp_path / "fresh", tmp_path / "out", tmp_path / "link"
    WRITERS[writer](net, str(fresh))
    want = fresh.read_bytes()
    old = {"longer": b"#" * (2 * len(want)), "shorter": b"#" * (len(want) // 2),
           "equal": b"#" * len(want)}[old_size]
    path.write_bytes(old)
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    WRITERS[writer](net, str(path))
    assert path.read_bytes() == want
    assert link.read_bytes() == want  # the same file, written in place
    after = path.stat()
    assert (after.st_ino, after.st_mode, after.st_nlink) == (
        before.st_ino, before.st_mode, before.st_nlink)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_writer_writes_to_devnull_and_refuses_a_directory(net25, tmp_path, writer):
    WRITERS[writer](net25, os.devnull)
    with pytest.raises(IoError, match=f"cannot write {re.escape(str(tmp_path))}: "):
        WRITERS[writer](net25, str(tmp_path))


def test_a_failing_write_leaves_an_existing_file_byte_identical(net25, tmp_path):
    path = tmp_path / "kept"
    old = b"older bytes\n" * 100
    path.write_bytes(old)
    with pytest.raises(ValueError, match="overflows the viewBox"):
        export_svg(net25, SvgStyle(margin_fraction=1e308), str(path))
    assert path.read_bytes() == old
    with pytest.raises(IoError, match="unknown report format 'tsv'"):
        export_report(total_report(net25), str(path), format="tsv")
    assert path.read_bytes() == old
    with pytest.raises(IoError, match="surrogates not allowed"):
        export_report(total_report(_corner_net_with_id("\ud800")), str(path))
    assert path.read_bytes() == old


# ------------------------------------------------------ shared topologies


def test_a_loaded_template_shares_the_template_topology(tmp_path):
    """construct -> save -> load returns the template's own topology, and so
    does every later load of that content, whatever the positions."""
    fam = NetFamily(RING_EXPERIMENTAL, 6)
    tpl = topology_template(fam)
    path, moved_path = tmp_path / "ring6.json", tmp_path / "moved.json"
    save_net(EmbeddedNet(tpl.topology, tpl.positions), str(path))
    first = load_net(str(path))
    moved = first.with_positions({v: (x + 1.0, y) for v, (x, y) in first.positions.items()})
    save_net(moved, str(moved_path))
    again = load_net(str(moved_path))
    assert first.topology is tpl.topology is again.topology is topology_template(fam).topology
    assert first.positions == tpl.positions and again.positions == moved.positions
    # the same content listed in another order, or built directly, is equal but not shared
    doc = json.loads(path.read_text())
    doc["edges"].reverse()
    path.write_text(json.dumps(doc))
    for other in (load_net(str(path)).topology, NetTopology(tpl.topology.vertices,
                                                            tpl.topology.edges)):
        assert other == tpl.topology and other is not tpl.topology


def test_load_net_raises_on_every_call_and_caches_no_failure(tmp_path):
    doc = star_doc(1.0)
    doc["edges"].append(["o", "e"])
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    before = shared_topology.cache_info()
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="duplicate edge"):
            load_net(str(path))
    after = shared_topology.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 2, before.currsize)


def test_the_topology_cache_keeps_at_most_its_bound(tmp_path):
    assert shared_topology.cache_info().maxsize == TOPOLOGY_CACHE_SIZE
    paths = []
    for k in range(TOPOLOGY_CACHE_SIZE + 1):  # stars whose hubs are named apart
        doc = star_doc(1.0)
        doc["vertices"][0]["id"] = hub = f"o{k}"
        doc["edges"] = [[pin, hub] for pin in "enw"]
        paths.append(tmp_path / f"star{k}.json")
        paths[-1].write_text(json.dumps(doc))
    nets = [load_net(str(path)) for path in paths]
    assert shared_topology.cache_info().currsize == TOPOLOGY_CACHE_SIZE
    assert load_net(str(paths[-1])).topology is nets[-1].topology
    assert load_net(str(paths[0])).topology is not nets[0].topology  # dropped, built anew
