"""Serialization, SVG rendering, report export, and the command line.

Net files are JSON with a format_version field; floats survive a round trip
bit-exactly because the writer emits shortest-repr decimals.  SVG output is
deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .angles import params_from_solution, solve_angles
from .builder import (
    RING_EXPERIMENTAL,
    T2_OCTAGON,
    T3_DODECAGON,
    ConstructionResult,
    NetFamily,
    _family_ids,
    build_net25,
    topology_template,
)
from .errors import (
    GeonetsError,
    InvariantViolation,
    IoError,
    ParseError,
    UnsupportedFamily,
)
from .net import BOUNDARY, INTERIOR, EmbeddedNet, ImbalanceReport, _is_coordinate, shared_topology
from .relax import STATUS_CONVERGED, RelaxConfig, export_trace_frames, relax
from .verify import (
    VerificationReport,
    check_lemmas,
    is_irreducible,
    verify_geodesic_net,
)

FORMAT_VERSION = 1


def _net_text(net: EmbeddedNet) -> str:
    """The net file's text: byte for byte json.dumps(doc, indent=1) plus a
    newline, where doc holds format_version, the vertices in topology order
    as {"id", "pos": [x, y], "boundary"} and the edges in edge order as
    [a, b].  It is written out directly because json's indenting encoder
    runs in pure Python.  Ids go through the same escaping function as
    json's default ensure_ascii, and coordinates through repr, which is
    what json writes for a finite float (EmbeddedNet admits no other): the
    net's kept text, which export_svg reads too."""
    quote = json.encoder.encode_basestring_ascii
    xs, ys = net._coordinate_text
    flag = {BOUNDARY: "true", INTERIOR: "false"}
    vertices = [
        f'  {{\n   "id": {quote(vid)},\n   "pos": [\n    {xs[vid]},\n'
        f'    {ys[vid]}\n   ],\n   "boundary": {flag[kind]}\n  }}'
        for vid, kind in net.topology.vertices
    ]
    edges = [f'  [\n   {quote(a)},\n   {quote(b)}\n  ]' for a, b in net.topology.edge_order.edges]
    return (f'{{\n "format_version": {FORMAT_VERSION},\n "vertices": {_json_list(vertices)},\n'
            f' "edges": {_json_list(edges)}\n}}\n')


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def _write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8 in place: no O_TRUNC, which costs far more
    than the rewrite on ext4, and a cut only when the old file was longer.
    The text is encoded first, so a failure to encode leaves the file as it was."""
    try:
        data = text.encode("utf-8")
        with open(path, "wb",  # the opener drops the O_TRUNC that "wb" asks for
                  opener=lambda p, _: os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)) as fh:
            longer = os.fstat(fh.fileno()).st_size > len(data)
            fh.write(data)
            if longer:  # never for a pipe, tty or /dev/null: they report size 0
                fh.truncate(len(data))
    except (OSError, UnicodeEncodeError) as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def save_net(net: EmbeddedNet, path: str) -> None:
    _write_text(path, _net_text(net))


def load_net(path: str) -> EmbeddedNet:
    """The net in a net file.  A fault in the file's shape (JSON, version, an
    entry's type) raises ParseError naming vertices[k] or edges[k]; every
    structural fault raises InvariantViolation from NetTopology or EmbeddedNet.
    Files that list the same vertices and edges in the same order share one
    topology (net.shared_topology)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from None
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
            except RecursionError:
                raise ParseError(f"{path}: JSON nested too deeply to read") from None
            except ValueError:  # an integer past Python's limit of 4300 digits
                raise ParseError(f"{path}: a number has too many digits to read") from None
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
        if not isinstance(entry, dict):
            raise ParseError(f"vertices[{k}]: expected an object")
        try:
            vid, raw, boundary = entry["id"], entry["pos"], entry["boundary"]
        except KeyError as exc:
            raise ParseError(f"vertices[{k}]: missing field {exc.args[0]!r}") from None
        if not isinstance(vid, str):
            raise ParseError(f"vertices[{k}].id: expected a string")
        if not isinstance(boundary, bool):
            raise ParseError(f"vertices[{k}].boundary: expected a boolean")
        if not (isinstance(raw, list) and len(raw) == 2
                and _is_coordinate(raw[0]) and _is_coordinate(raw[1])):
            raise ParseError(f"vertices[{k}].pos: expected [x, y] numbers")
        try:
            positions[vid] = (float(raw[0]), float(raw[1]))
        except OverflowError:  # an int like 10**400
            raise ParseError(f"vertices[{k}].pos: coordinate too large for a float") from None
        vertices.append((vid, BOUNDARY if boundary else INTERIOR))
    edges = []
    for k, pair in enumerate(raw_edges):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise ParseError(f"edges[{k}]: expected [idA, idB]")
        edges.append((pair[0], pair[1]))
    return EmbeddedNet(topology=shared_topology(tuple(vertices), tuple(edges)),
                       positions=positions)


@dataclass(frozen=True)
class SvgStyle:
    stroke_width: float = 0.02
    balanced_radius: float = 0.05
    boundary_radius: float = 0.09
    margin_fraction: float = 0.05

    def __post_init__(self):
        for name in ("stroke_width", "balanced_radius", "boundary_radius", "margin_fraction"):
            value = getattr(self, name)
            if not value > 0.0:  # also NaN
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")


def export_svg(net: EmbeddedNet, style: SvgStyle, path: str) -> None:
    """Deterministic standalone SVG; boundary vertices drawn larger.
    Raises ValueError, and writes nothing, when the viewBox overflows."""
    (x_lo, y_lo), (x_hi, y_hi) = net.xy.min(axis=0).tolist(), net.xy.max(axis=0).tolist()
    margin = style.margin_fraction * max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    x0, y0 = x_lo - margin, -(y_hi + margin)
    w, h = (x_hi - x_lo) + 2.0 * margin, (y_hi - y_lo) + 2.0 * margin
    if not all(map(math.isfinite, (x0, y0, w, h))):  # a finite margin_fraction can overflow
        raise ValueError(f"margin_fraction {style.margin_fraction!r} overflows the viewBox")
    # each coordinate is formatted once per net, each style attribute once per call
    xs, ys = net._coordinate_text
    stroke = f'stroke="#333333" stroke-width="{style.stroke_width!r}"/>'
    dots = {BOUNDARY: f'r="{style.boundary_radius!r}" fill="#c0392b"/>',
            INTERIOR: f'r="{style.balanced_radius!r}" fill="#2c3e50"/>'}
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0!r} {y0!r} {w!r} {h!r}">',
        # flip y so the mathematical orientation is preserved on screen
        '<g transform="scale(1,-1)">',
    ]
    for a, b in net.topology.edge_order.edges:
        lines.append(f'<line x1="{xs[a]}" y1="{ys[a]}" x2="{xs[b]}" y2="{ys[b]}" {stroke}')
    for vid, kind in net.topology.vertices:
        lines.append(f'<circle cx="{xs[vid]}" cy="{ys[vid]}" {dots[kind]}')
    lines += ("</g>", "</svg>\n")
    _write_text(path, "\n".join(lines))


def _report_rows(report: VerificationReport | ImbalanceReport) -> tuple[list[str], list[list]]:
    if isinstance(report, ImbalanceReport):
        header = ["id", "norm", "sum_x", "sum_y"]
        rows = [
            [vid, norm, vec[0], vec[1]]
            for vid, (vec, norm) in sorted(report.per_vertex.items())
        ]
        return header, rows
    header = ["kind", "item", "detail"]
    rows = []
    for vid in report.offending_vertices:
        rows.append(["balance", vid, f"imbalance above tolerance (max {report.max_imbalance:.6e})"])
    for finding in report.overlap_findings:
        rows.append(["overlap_" + finding.kind, "|".join(map(str, finding.items)), finding.detail])
    for vid in report.degree_offenders:
        rows.append(["degree", vid, "interior vertex of degree < 3"])
    for check in report.lemma_checks:
        if not check.passed:
            rows.append(["identity", check.name, f"deviation {check.max_deviation:.6e}"])
    if report.irreducible == "no" and report.witness is not None:
        rows.append([
            "reducible",
            ";".join("-".join(e) for e in report.witness.edges),
            "proper balanced subnet (unbalanced at: "
            + (",".join(report.witness.boundary) or "none") + ")",
        ])
    return header, rows


def export_report(report: VerificationReport | ImbalanceReport, path: str,
                  format: str = "csv") -> None:
    header, rows = _report_rows(report)
    if format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        text = buf.getvalue()
    elif format == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"
    else:
        raise IoError(f"unknown report format {format!r}")
    _write_text(path, text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every cli() call."""
    parser = argparse.ArgumentParser(
        prog="geonets",
        description="Construct, relax, and verify planar geodesic nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("solve-angles", help="solve the corner angle system")

    p_con = sub.add_parser("construct", help="build a net or topology template")
    p_con.add_argument("--family", required=True, choices=["t3", "t2", "ring"])
    p_con.add_argument("--n", type=int, default=None, help="ring order (>= 4 for ring)")
    p_con.add_argument("--out", default=None, help="output net file (default: stdout)")

    p_rel = sub.add_parser("relax", help="relax a net toward balance")
    p_rel.add_argument("--in", dest="infile", required=True)
    p_rel.add_argument("--out", default=None, help="write the relaxed net here")
    p_rel.add_argument("--max-iters", type=int, default=RelaxConfig.max_iters)
    p_rel.add_argument("--tol", type=float, default=RelaxConfig.tol_balance)
    p_rel.add_argument("--trace-every", type=int, default=0)
    p_rel.add_argument("--frames", default=None, help="directory for per-snapshot SVG frames")

    p_ver = sub.add_parser("verify", help="check balance, overlaps, and more")
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument("--irreducibility", action="store_true")
    p_ver.add_argument("--lemmas", action="store_true",
                       help="check the construction identities (canonical labels required)")
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.add_argument("--report", default=None, help="write findings to a .csv or .json file")

    p_svg = sub.add_parser("export-svg", help="render a net file to SVG")
    p_svg.add_argument("--in", dest="infile", required=True)
    p_svg.add_argument("--out", required=True)
    p_svg.add_argument("--stroke-width", type=float, default=SvgStyle.stroke_width)
    p_svg.add_argument("--balanced-radius", type=float, default=SvgStyle.balanced_radius)
    p_svg.add_argument("--boundary-radius", type=float, default=SvgStyle.boundary_radius)
    p_svg.add_argument("--margin", type=float, default=SvgStyle.margin_fraction)
    return parser


def _cmd_solve(args) -> int:
    sol = solve_angles()
    print(f"alpha        = {sol.alpha!r}")
    print(f"beta         = {sol.beta!r}")
    print(f"K            = {sol.K!r}")
    print(f"residual_cos = {sol.residual_cos!r}")
    print(f"residual_sin = {sol.residual_sin!r}")
    return 0


def _emit_net(net: EmbeddedNet, out: str | None) -> None:
    if out is None:
        sys.stdout.write(_net_text(net))
    else:
        save_net(net, out)


def _cmd_construct(args) -> int:
    name = {"t3": T3_DODECAGON, "t2": T2_OCTAGON, "ring": RING_EXPERIMENTAL}[args.family]
    n = args.n if args.n is not None else {"t3": 3, "t2": 2}.get(args.family)
    if n is None:
        print("construct: --n is required for the ring family", file=sys.stderr)
        return 2
    template = topology_template(NetFamily(family=name, n=n))
    net = EmbeddedNet(topology=template.topology, positions=template.positions)
    if template.experimental:
        print("note: experimental topology; balance is not guaranteed", file=sys.stderr)
    _emit_net(net, args.out)
    return 0


def _usage_error(exc: ValueError) -> int:
    print(f"geonets: {exc}", file=sys.stderr)
    return 2


def _cmd_relax(args) -> int:
    net = load_net(args.infile)
    try:
        config = RelaxConfig(
            max_iters=args.max_iters,
            tol_balance=args.tol,
            trace_every=args.trace_every,
        )
    except ValueError as exc:
        return _usage_error(exc)
    if args.frames is not None and config.trace_every == 0:
        print("relax: --frames needs a trace; pass --trace-every", file=sys.stderr)
        return 2
    outcome = relax(net, config)
    print(f"status     = {outcome.status}")
    print(f"iterations = {outcome.iterations}")
    if args.out is not None:
        save_net(outcome.net, args.out)
    if args.frames is not None:
        try:
            os.makedirs(args.frames, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create frames directory {args.frames}: {exc}") from None
        for k, frame in enumerate(export_trace_frames(outcome)):
            export_svg(frame, SvgStyle(), os.path.join(args.frames, f"frame_{k:05d}.svg"))
    return 0 if outcome.status == STATUS_CONVERGED else 1


def _cmd_verify(args) -> int:
    net = load_net(args.infile)
    try:
        report = verify_geodesic_net(net, args.tol)
    except ValueError as exc:  # a tolerance below 0 or NaN
        return _usage_error(exc)
    if args.lemmas:
        if set(net.topology.ids) != set(_family_ids(3)[2]):
            print("verify: --lemmas requires the canonical 25-net labels", file=sys.stderr)
            return 2
        sol = solve_angles()
        result = ConstructionResult(
            net=net, params=params_from_solution(sol), landmarks=dict(net.positions),
        )
        report = replace(report, lemma_checks=check_lemmas(result, sol).checks())
    if args.irreducibility:
        irreducible, witness = is_irreducible(net)
        report = replace(report, irreducible=irreducible, witness=witness)
    print(f"balance     : {'PASS' if report.balance_pass else 'FAIL'} "
          f"(max imbalance {report.max_imbalance:.3e})")
    print(f"overlaps    : {'PASS' if report.overlap_pass else 'FAIL'} "
          f"({len(report.overlap_findings)} finding(s))")
    print(f"degrees     : {'PASS' if report.degree_pass else 'FAIL'}")
    if args.lemmas:
        for check in report.lemma_checks:
            print(f"identity    : {check.name}: {'PASS' if check.passed else 'FAIL'} "
                  f"(deviation {check.max_deviation:.3e})")
    if args.irreducibility:
        print(f"irreducible : {report.irreducible}")
        if report.witness is not None:
            print(f"  witness edges: {report.witness.edges}")
    if args.report is not None:
        fmt = "json" if args.report.endswith(".json") else "csv"
        export_report(report, args.report, fmt)
    return 0 if report.all_pass else 1


def _cmd_export_svg(args) -> int:
    net = load_net(args.infile)
    try:
        style = SvgStyle(
            stroke_width=args.stroke_width,
            balanced_radius=args.balanced_radius,
            boundary_radius=args.boundary_radius,
            margin_fraction=args.margin,
        )
        export_svg(net, style, args.out)
    except ValueError as exc:  # a style value out of range, or a viewBox that overflows
        return _usage_error(exc)
    return 0


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "solve-angles": _cmd_solve,
        "construct": _cmd_construct,
        "relax": _cmd_relax,
        "verify": _cmd_verify,
        "export-svg": _cmd_export_svg,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, UnsupportedFamily, InvariantViolation) as exc:
        print(f"geonets: {exc}", file=sys.stderr)
        return 2
    except GeonetsError as exc:
        print(f"geonets: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
