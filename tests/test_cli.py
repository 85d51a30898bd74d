"""End-to-end command line coverage through the in-process entry point."""

from __future__ import annotations

import json

import pytest

from geonets import (
    T2_OCTAGON,
    EmbeddedNet,
    NetFamily,
    cli,
    load_net,
    save_net,
    topology_template,
    total_report,
    verify_geodesic_net,
)
from geonets.io import _build_parser

from conftest import make_x_net, star_doc


@pytest.fixture()
def net25_file(net25, tmp_path):
    path = tmp_path / "net25.json"
    save_net(net25, str(path))
    return str(path)


def test_solve_angles_output(capsys):
    assert cli(["solve-angles"]) == 0
    out = capsys.readouterr().out
    assert "alpha        = 3.382575265855467" in out
    assert "beta         = 1.49973216925628" in out
    assert "residual_cos" in out and "residual_sin" in out


def test_solve_angles_rejects_bad_tol(capsys):
    assert cli(["solve-angles", "--tol", "1e-20"]) == 1
    assert "geonets:" in capsys.readouterr().err


def test_construct_t3_to_file_verifies(tmp_path, capsys):
    out = tmp_path / "t3.json"
    assert cli(["construct", "--family", "t3", "--out", str(out)]) == 0
    net = load_net(str(out))
    assert len(net.topology.ids) == 29
    assert total_report(net).max_norm < 1e-9


def test_construct_t2_to_stdout(capsys):
    assert cli(["construct", "--family", "t2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format_version"] == 1
    assert len(doc["vertices"]) == 20
    assert len(doc["edges"]) == 44


def test_construct_to_stdout_matches_save_net(tmp_path, capsys):
    template = topology_template(NetFamily(T2_OCTAGON, 2))
    path = tmp_path / "t2.json"
    save_net(EmbeddedNet(template.topology, template.positions), str(path))
    assert cli(["construct", "--family", "t2"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()


def test_construct_ring_needs_n(capsys):
    assert cli(["construct", "--family", "ring"]) == 2
    assert "--n is required" in capsys.readouterr().err


def test_construct_ring_overlapping_order_rejected(capsys):
    assert cli(["construct", "--family", "ring", "--n", "3"]) == 2
    assert "geonets:" in capsys.readouterr().err


def test_construct_ring_order4_warns_experimental(tmp_path, capsys):
    out = tmp_path / "r4.json"
    assert cli(["construct", "--family", "ring", "--n", "4", "--out", str(out)]) == 0
    assert "experimental" in capsys.readouterr().err
    assert load_net(str(out)).topology.interior_ids  # parses back fine


def test_verify_exact_net(net25_file, capsys):
    assert cli(["verify", "--in", net25_file]) == 0
    out = capsys.readouterr().out
    assert "balance     : PASS" in out
    assert "overlaps    : PASS" in out
    assert "degrees     : PASS" in out


def test_verify_with_irreducibility_and_lemmas(net25_file, capsys):
    assert cli(["verify", "--in", net25_file, "--irreducibility", "--lemmas"]) == 0
    out = capsys.readouterr().out
    assert "irreducible : yes" in out
    assert out.count(": PASS") >= 8  # 3 structural + 5 identity lines


def test_verify_lemmas_need_canonical_labels(tmp_path, capsys):
    t2 = tmp_path / "t2.json"
    cli(["construct", "--family", "t2", "--out", str(t2)])
    assert cli(["verify", "--in", str(t2), "--lemmas"]) == 2
    assert "canonical" in capsys.readouterr().err


def test_verify_perturbed_net_fails_with_report(net25, tmp_path, capsys):
    pos = dict(net25.positions)
    x, y = pos["f2"]
    pos["f2"] = (x + 0.01, y)
    bad = tmp_path / "bad.json"
    save_net(net25.with_positions(pos), str(bad))
    report = tmp_path / "findings.csv"
    assert cli(["verify", "--in", str(bad), "--report", str(report)]) == 1
    assert "balance     : FAIL" in capsys.readouterr().out
    rows = report.read_text().strip().splitlines()
    assert rows[0] == "kind,item,detail"
    assert any(r.startswith("balance,f2") for r in rows)


def test_verify_reducible_net_reports_witness(tmp_path, capsys):
    xfile = tmp_path / "x.json"
    save_net(make_x_net(), str(xfile))
    report = tmp_path / "findings.json"
    code = cli(["verify", "--in", str(xfile), "--irreducibility", "--report", str(report)])
    assert code == 1
    out = capsys.readouterr().out
    assert "irreducible : no" in out
    assert "witness edges" in out
    data = json.loads(report.read_text())
    assert any(row["kind"] == "reducible" for row in data)


def test_verify_unloadable_coordinates_exit_2(net25_file, tmp_path, capsys):
    with open(net25_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    for bad in (10**400, True):
        doc["vertices"][0]["pos"][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli(["verify", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("geonets: vertices[0].pos:")


@pytest.mark.parametrize("reach, shown", [(1e200, "1e+200"), (1.5e308, "1.5e+308")])
def test_verify_coordinates_beyond_the_bound_exit_2(tmp_path, capsys, reach, shown):
    # the star is unbalanced; unbounded, its squared lengths overflowed and
    # it passed balance at 1e200 or failed as "(near-)zero length" at 1.5e308
    path = tmp_path / "star.json"
    path.write_text(json.dumps(star_doc(reach)))
    assert cli(["verify", "--irreducibility", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"geonets: vertex 'e' has coordinate {shown} "
                            "beyond the bound 1e+150\n")


def test_verify_missing_file(tmp_path, capsys):
    assert cli(["verify", "--in", str(tmp_path / "ghost.json")]) == 2
    assert "geonets:" in capsys.readouterr().err


def test_relax_t2_template_converges(tmp_path, capsys):
    t2 = tmp_path / "t2.json"
    relaxed = tmp_path / "relaxed.json"
    cli(["construct", "--family", "t2", "--out", str(t2)])
    assert cli(["relax", "--in", str(t2), "--out", str(relaxed)]) == 0
    out = capsys.readouterr().out
    assert "status     = converged" in out
    net = load_net(str(relaxed))
    assert total_report(net).max_norm <= 1e-10
    assert verify_geodesic_net(net).all_pass


def test_relax_iteration_budget_exit_code(net25, tmp_path, capsys):
    pos = dict(net25.positions)
    x, y = pos["p"]
    pos["p"] = (x + 0.04, y - 0.02)
    start = tmp_path / "jittered.json"
    save_net(net25.with_positions(pos), str(start))
    assert cli(["relax", "--in", str(start), "--max-iters", "1"]) == 1
    assert "status     = max_iters_reached" in capsys.readouterr().out


def test_relax_frames(tmp_path, capsys):
    t2 = tmp_path / "t2.json"
    frames = tmp_path / "frames"
    cli(["construct", "--family", "t2", "--out", str(t2)])
    assert (
        cli(["relax", "--in", str(t2), "--trace-every", "1", "--frames", str(frames)]) == 0
    )
    names = sorted(p.name for p in frames.iterdir())
    assert names[0] == "frame_00000.svg"
    assert len(names) >= 3
    capsys.readouterr()


def test_relax_frames_require_tracing(net25_file, tmp_path, capsys):
    frames = tmp_path / "frames"
    assert cli(["relax", "--in", net25_file, "--frames", str(frames)]) == 2
    assert "trace" in capsys.readouterr().err


def test_export_svg_cli(net25_file, tmp_path):
    out = tmp_path / "net.svg"
    assert cli(["export-svg", "--in", net25_file, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg ")
    assert text.count("<line ") == 64


def test_export_svg_style_flags(net25_file, tmp_path):
    out = tmp_path / "thick.svg"
    code = cli(
        ["export-svg", "--in", net25_file, "--out", str(out), "--stroke-width", "0.5"]
    )
    assert code == 0
    assert 'stroke-width="0.5"' in out.read_text()


def test_usage_errors_exit_2(capsys):
    assert cli(["no-such-command"]) == 2
    assert cli(["relax"]) == 2  # --in is required
    assert cli(["construct", "--family", "hexagon"]) == 2
    assert cli([]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_call(net25_file, capsys):
    _build_parser.cache_clear()
    assert cli(["verify", "--in", net25_file, "--lemmas"]) == 0
    assert capsys.readouterr().out.count("identity    :") == 5
    assert cli(["verify", "--in", net25_file]) == 0
    assert "identity" not in capsys.readouterr().out  # no flag leaks from the last call
    assert cli(["verify", "--in", net25_file, "--no-such-flag"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert cli(["verify", "--in", net25_file]) == 0
    assert "balance     : PASS" in capsys.readouterr().out
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("argv, message", [
    (["relax", "--tol", "-1"], "tol_balance must be positive, got -1.0"),
    (["relax", "--max-iters", "-1"], "max_iters must be >= 0, got -1"),
    (["export-svg", "--out", "x.svg", "--stroke-width", "0"], "stroke_width must be positive"),
    # a NaN tolerance passed balance on every net
    (["verify", "--tol", "nan"], "tol must be >= 0, got nan"),
    (["verify", "--tol", "-1"], "tol must be >= 0, got -1.0"),
    # each style value is finite, but the margin times the extent overflows
    (["export-svg", "--out", "x.svg", "--margin", "1e308"],
     "margin_fraction 1e+308 overflows the viewBox"),
])
def test_bad_option_values_exit_2_without_a_traceback(net25_file, tmp_path, monkeypatch,
                                                      capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli([*argv, "--in", net25_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"geonets: {message}\n"
    assert not (tmp_path / "x.svg").exists()


# every float option with the exit code README documents for a NaN value:
# 2 for a usage error, 1 for the angle solver's DomainError
_NAN_OPTIONS = [
    (["solve-angles", "--tol"], 1, "tol_root below 1e-14 is not resolvable in double precision"),
    (["relax", "--tol"], 2, "tol_balance must be positive, got nan"),
    (["verify", "--tol"], 2, "tol must be >= 0, got nan"),
    (["export-svg", "--stroke-width"], 2, "stroke_width must be positive"),
    (["export-svg", "--balanced-radius"], 2, "balanced_radius must be positive"),
    (["export-svg", "--boundary-radius"], 2, "boundary_radius must be positive"),
    (["export-svg", "--margin"], 2, "margin_fraction must be positive"),
]


def test_the_nan_sweep_covers_every_float_option():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    floats = sorted([name, opt.option_strings[0]]
                    for name, sub in subparsers.choices.items()
                    for opt in sub._actions if opt.type is float)
    assert floats == sorted(argv for argv, _, _ in _NAN_OPTIONS)


@pytest.mark.parametrize("option, code, message", _NAN_OPTIONS,
                         ids=[" ".join(argv) for argv, _, _ in _NAN_OPTIONS])
def test_a_nan_option_value_exits_with_a_message(net25_file, tmp_path, monkeypatch, capsys,
                                                  option, code, message):
    monkeypatch.chdir(tmp_path)
    inputs = [] if option[0] == "solve-angles" else ["--in", net25_file]
    if option[0] == "export-svg":
        inputs += ["--out", "x.svg"]
    assert cli([*option, "nan", *inputs]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"geonets: {message}\n"
    assert not (tmp_path / "x.svg").exists()
