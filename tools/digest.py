"""One hash per section of what geonets computes, and a total: a check that a
change kept its output.

    python3 tools/digest.py [--src DIR] [--verbose]
    python3 tools/digest.py --compare BEFORE AFTER

Each section writes lines of text, every float by float.hex, and hashes
them with blake2b.  The sections:
  angles   every AngleSolution and ConstructionParams field;
  nets     build_net25, the T3 and T2 templates and ring 4, 5, 8, 16 and 32;
  files    the save_net and export_svg bytes of each of those nets;
  reports  total_report, imbalance() at every vertex, verify's max_imbalance
           and export_report of the 25-net's report, on every inspected net;
  overlaps detect_overlaps at None, 0, 1e-6 and 1e-3 on every inspected net;
  verify   verify_geodesic_net at 1e-9 and 1e-3, all but max_imbalance;
  lemmas   check_lemmas on the 25-net and on relaxed jitters 100-129;
  search   is_irreducible on 188 nets at tol 0, 1e-7, 1e-3 and 0.3, minimal
           False and True: verdict, witness or error, and its DEBUG line; and
           the budget edges (the node count and one less) on the 25-net and ring 32;
  relax    status, steps and output coordinates of the 25-net jittered by
           +-0.05 (seeds 0-129), T2, the rings, and the 25-net and T2 with
           their boundary cycles, as given and jittered (seeds 0-4), and
           each trace's iterations and positions;
  trace    each trace's total_loss and max_norm;
  cli      exit code, stdout and stderr of a fixed set of commands, and the
           bytes of every file they write.
The inspected nets are those of "nets", the reducible 25-net plus a Fermat
star on d1, d2 and d3, and the 180 triangular-lattice nets of the search.

--src imports the geonets package under DIR (default: this checkout's src),
so one copy of this script digests any tree.  Hashes depend on numpy's
summation order and on the CPU: compare two trees on one machine.  With
--verbose every line is printed after its section's name and a tab;
--compare reads two such outputs and prints, per section, the lines that
differ and the largest distance in ulps between their floats.  Stdlib and
numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import logging
import math
import os
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOLS = (0.0, 1e-7, 1e-3, 0.3)
RINGS = (4, 5, 8, 16, 32)


def text(x) -> str:
    """x as a line: floats by float.hex, containers and dataclasses term by term."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(map(text, x)) + ")"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{text(k)}: {text(v)}" for k, v in x.items()) + "}"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + text({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    return repr(x)


def jitter(G, net, seed: int, scale: float = 0.05):
    """Every interior vertex moved by uniform +-scale, in id order."""
    rng = np.random.default_rng(seed)
    pos = dict(net.positions)
    for vid in sorted(net.topology.interior_ids):
        dx, dy = rng.uniform(-scale, scale, size=2)
        pos[vid] = (pos[vid][0] + dx, pos[vid][1] + dy)
    return net.with_positions(pos)


def lattice(G, radius: int, seed: int, p_keep: float = 0.65):
    """A hexagon of the unit triangular lattice, each edge kept with
    probability p_keep; the kept edges joined to the first one, with the
    outer ring and every vertex of degree below 3 as boundary."""
    cells = [(q, r) for q in range(-radius, radius + 1) for r in range(-radius, radius + 1)
             if abs(q + r) <= radius]
    name = {cell: f"v{k:02d}" for k, cell in enumerate(cells)}
    pos = {name[(q, r)]: (q + 0.5 * r, 0.5 * math.sqrt(3.0) * r) for q, r in cells}
    outer = {name[(q, r)] for q, r in cells if max(abs(q), abs(r), abs(q + r)) == radius}
    pairs = [(name[(q, r)], name[(q + dq, r + dr)]) for q, r in cells
             for dq, dr in ((1, 0), (0, 1), (-1, 1)) if (q + dq, r + dr) in name]
    keep = np.random.default_rng(seed).random(len(pairs)) < p_keep
    edges = [pair for pair, k in zip(pairs, keep.tolist()) if k]
    reached, grew = {edges[0][0]}, True
    while grew:
        grew = False
        for a, b in edges:
            if (a in reached) != (b in reached):
                reached |= {a, b}
                grew = True
    edges = [e for e in edges if e[0] in reached]
    degree: dict[str, int] = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    kinds = tuple((v, G.BOUNDARY if v in outer or d < 3 else G.INTERIOR) for v, d in degree.items())
    return G.EmbeddedNet(G.NetTopology(kinds, frozenset(edges)), {v: pos[v] for v in degree})


def boundary_cycle(G, net):
    """net with an edge from each boundary id to the next and from the last
    to the first: edges between two boundary vertices, which no relax step
    moves."""
    topo, b = net.topology, net.topology.boundary_ids
    cycle = {(b[k - 1], b[k]) for k in range(len(b))}
    return G.EmbeddedNet(G.NetTopology(topo.vertices, topo.edges | cycle), net.positions)


def reducible(G, net25):
    """The 25-net plus an interior vertex at the Fermat point of d1, d2, d3
    (Weiszfeld's iteration), joined to all three."""
    P = np.array([net25.positions[d] for d in ("d1", "d2", "d3")])
    x = P.mean(axis=0)
    for _ in range(2000):
        w = 1.0 / np.sqrt(((P - x) ** 2).sum(axis=1))
        nxt = (P * w[:, None]).sum(axis=0) / w.sum()
        if np.array_equal(nxt, x):
            break
        x = nxt
    topo = G.NetTopology(tuple(net25.topology.vertices) + (("s", G.INTERIOR),),
                         frozenset(net25.topology.edges) | {("s", d) for d in ("d1", "d2", "d3")})
    return G.EmbeddedNet(topo, {**net25.positions, "s": (float(x[0]), float(x[1]))})


def file_bytes(write, *args) -> str:
    """blake2b of what write(*args, path) leaves at path."""
    with tempfile.TemporaryDirectory(prefix="geonets-digest-") as tmp:
        path = os.path.join(tmp, "out")
        write(*args, path)
        return hashlib.blake2b(Path(path).read_bytes(), digest_size=8).hexdigest()


def sections(G, logs: list[str]):
    """(section, line) pairs in a fixed order."""
    sol = G.solve_angles()
    yield "angles", text(sol)
    yield "angles", text(G.params_from_solution(sol))
    built = G.build_net25(sol)
    net25 = built.net
    named = {"net25": net25}
    for key, fam, n in [("t3", G.T3_DODECAGON, 3), ("t2", G.T2_OCTAGON, 2)] + [
            (f"ring{n}", G.RING_EXPERIMENTAL, n) for n in RINGS]:
        t = G.topology_template(G.NetFamily(fam, n))
        named[key] = G.EmbeddedNet(t.topology, t.positions)
    for key, net in named.items():
        yield "nets", f"{key} {text(net.topology.vertices)} {text(sorted(net.topology.edges))}"
        yield "nets", f"{key} {text([net.positions[v] for v in net.topology.ids])}"
        yield "files", f"{key} save_net {file_bytes(G.save_net, net)}"
        yield "files", f"{key} export_svg {file_bytes(G.export_svg, net, G.SvgStyle())}"

    lattices = {f"lattice{radius}-{p}-{seed}": lattice(G, radius, seed, p)
                for radius, p in ((2, 0.65), (3, 0.65), (2, 0.5)) for seed in range(60)}
    inspected = {**named, "reducible": reducible(G, net25), **lattices}
    for key, net in inspected.items():
        r = G.total_report(net)
        yield "reports", f"{key} {text(r.per_vertex)} {text(r.total_loss)} {text(r.max_norm)}"
        yield "reports", f"{key} {text([G.imbalance(net, v) for v in net.topology.ids])}"
        for tol in (None, 0.0, 1e-6, 1e-3):
            yield "overlaps", f"{key} {text(tol)} {text(G.detect_overlaps(net, tol))}"
        for tol in (1e-9, 1e-3):
            v = G.verify_geodesic_net(net, tol)
            yield "reports", f"{key} {text(tol)} {text(v.max_imbalance)}"
            yield "verify", f"{key} {text(tol)} {text(dataclasses.replace(v, max_imbalance=0.0))}"
    yield "reports", f"net25 export_report {file_bytes(G.export_report, G.total_report(net25))}"

    searched = {k: inspected[k] for k in ("net25", "t2", *(f"ring{n}" for n in RINGS), "reducible")}
    searched.update(lattices)
    for key, net in searched.items():
        for tol in TOLS:
            for minimal in (False, True):
                yield "search", f"{key} {text(tol)} {minimal} {search(G, net, logs, tol=tol, minimal=minimal)}"
    for key in ("net25", "ring32"):
        yield "search", f"{key} default {search(G, searched[key], logs)}"
        nodes = int(re.search(r"(\d+) nodes", logs[-1]).group(1))
        for budget in (nodes, nodes - 1):
            yield "search", f"{key} budget {budget} {search(G, searched[key], logs, budget=budget)}"

    sol_params = G.params_from_solution(sol)
    yield "lemmas", text(G.check_lemmas(built, sol).checks())
    starts = {f"jitter{seed}": jitter(G, net25, seed) for seed in range(130)}
    starts.update((k, named[k]) for k in ("t2", *(f"ring{n}" for n in RINGS)))
    for key in ("net25", "t2"):
        cyc = boundary_cycle(G, named[key])
        starts[f"{key}cycle"] = cyc
        starts.update((f"{key}cycle-jitter{seed}", jitter(G, cyc, seed)) for seed in range(5))
    for key, net in starts.items():
        out = G.relax(net)
        yield "relax", f"{key} {out.status} {out.iterations} {text([out.net.positions[v] for v in net.topology.ids])}"
        traced = G.relax(net, G.RelaxConfig(trace_every=1))
        for tp in traced.trace:
            yield "relax", f"{key} trace {tp.iteration} {text([tp.positions[v] for v in net.topology.ids])}"
            yield "trace", f"{key} {tp.iteration} {text(tp.total_loss)} {text(tp.max_norm)}"
        if key.startswith("jitter") and int(key[6:]) >= 100:
            result = G.ConstructionResult(out.net, sol_params, dict(out.net.positions))
            yield "lemmas", f"{key} {text(G.check_lemmas(result, sol).checks())}"
    yield from (("cli", line) for line in cli_lines(G, jitter(G, net25, 7)))


def search(G, net, logs: list[str], **kwargs) -> str:
    """is_irreducible's verdict and witness or its error, and its DEBUG lines."""
    logs.clear()
    try:
        verdict, witness = G.is_irreducible(net, **kwargs)
        got = f"{verdict} {text(witness)}"
    except G.GeonetsError as exc:
        got = f"{type(exc).__name__}: {exc}"
    return " | ".join([got, *logs])


CLI_COMMANDS = [
    ["solve-angles"],
    ["construct", "--family", "t3", "--out", "t3.json"],
    ["construct", "--family", "t2", "--out", "t2.json"],
    ["construct", "--family", "ring", "--n", "8"],
    ["construct", "--family", "ring"],
    ["relax", "--in", "t2.json", "--out", "t2r.json"],
    ["relax", "--in", "t2.json", "--trace-every", "1", "--frames", "frames"],
    ["relax", "--in", "j.json", "--out", "jr.json"],
    ["relax", "--in", "j.json", "--max-iters", "1"],
    ["relax", "--in", "j.json", "--tol", "0"],
    ["verify", "--in", "t3.json", "--irreducibility", "--lemmas"],
    ["verify", "--in", "jr.json", "--irreducibility", "--lemmas", "--report", "jr.json.json"],
    ["verify", "--in", "j.json", "--report", "j.csv"],
    ["verify", "--in", "t2r.json", "--irreducibility", "--tol", "1e-3"],
    ["verify", "--in", "t2.json", "--tol", "-1"],
    ["verify", "--in", "missing.json"],
    ["export-svg", "--in", "t3.json", "--out", "t3.svg"],
]


def cli_lines(G, start):
    """Each command's exit code, stdout and stderr, run in a fresh directory
    from a saved jitter j.json, then the bytes of every file left there."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="geonets-digest-") as tmp:
        os.chdir(tmp)
        try:
            G.save_net(start, "j.json")
            for argv in CLI_COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = G.cli(argv)
                yield f"{' '.join(argv)} -> {code} {out.getvalue()!r} {err.getvalue()!r}"
            for path in sorted(Path(".").rglob("*")):
                if path.is_file():
                    yield f"{path} {hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()}"
        finally:
            os.chdir(here)


class _Lines(logging.Handler):
    def __init__(self, lines: list[str]) -> None:
        super().__init__(logging.DEBUG)
        self.lines = lines

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(record.getMessage())


def digest(src: Path, verbose: bool) -> None:
    sys.path.insert(0, str(src))
    import geonets as G

    logs: list[str] = []
    log = logging.getLogger("geonets.verify")
    log.setLevel(logging.DEBUG)
    log.addHandler(_Lines(logs))
    total = hashlib.blake2b(digest_size=8)
    hashes: dict[str, tuple] = {}
    for name, line in sections(G, logs):
        h, count = hashes.setdefault(name, (hashlib.blake2b(digest_size=8), [0]))
        h.update(line.encode() + b"\n")
        count[0] += 1
        if verbose:
            print(f"{name}\t{line}")
    for name, (h, count) in hashes.items():
        total.update(h.digest())
        print(f"{name:9s} {h.hexdigest()}  {count[0]} lines")
    print(f"{'total':9s} {total.hexdigest()}")


_HEX = re.compile(r"-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]\d+|-?inf|nan")


def _ordered(x: float) -> int:
    """x's bits as an integer that counts ulps across zero."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return bits if bits < 1 << 63 else (1 << 63) - bits


def compare(before: Path, after: Path) -> None:
    """Per section: how many --verbose lines differ, and the largest ulp
    distance between the floats of lines that differ only in floats."""
    def lines(path: Path) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for line in path.read_text().splitlines():
            if "\t" in line:
                name, rest = line.split("\t", 1)
                out.setdefault(name, []).append(rest)
        return out

    a, b = lines(before), lines(after)
    for name in dict.fromkeys([*a, *b]):
        la, lb = a.get(name, []), b.get(name, [])
        moved = [(x, y) for x, y in zip(la, lb) if x != y]
        ulps, other = 0, len(la) != len(lb)
        for x, y in moved:
            fx, fy = _HEX.findall(x), _HEX.findall(y)
            if _HEX.sub("#", x) != _HEX.sub("#", y) or len(fx) != len(fy):
                other = True
                continue
            for p, q in zip(fx, fy):
                if p != q:
                    ulps = max(ulps, abs(_ordered(float.fromhex(p)) - _ordered(float.fromhex(q))))
        note = "; other changes too" if other else ""
        print(f"{name:9s} {len(moved)} of {len(la)} lines differ, largest {ulps} ulp{note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        digest(args.src.resolve(), args.verbose)
    return 0


if __name__ == "__main__":
    sys.exit(main())
