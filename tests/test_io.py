"""Serialization round trips, SVG determinism, and report export."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from geonets import (
    BOUNDARY,
    EmbeddedNet,
    InvariantViolation,
    IoError,
    NetTopology,
    ParseError,
    SvgStyle,
    export_report,
    export_svg,
    load_net,
    save_net,
    total_report,
    verify_geodesic_net,
)


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
    path = tmp_path / "v9.json"
    path.write_text('{"format_version": 9, "vertices": [], "edges": []}')
    with pytest.raises(ParseError, match="format_version"):
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
