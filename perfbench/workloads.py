"""The three workloads: inputs made from the seed, timed calls, output checks.

A workload prepares once (untimed), then runs rounds.  Round k draws its
inputs from numpy's generator seeded with (seed, k), so a round can be
replayed on the same inputs with tracing on.  Program calls run inside
_timed(), the only region that is traced; the checks run after it.  Every
call into the package goes through the module attribute (G.relax, ...) at
call time, so the tracer's replacements are the functions called.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed, PlainNet
from reference import REFERENCE_COORDS

JITTER = 0.05  # criterion 7: uniform +-0.05 on every interior coordinate
LEMMA_JITTER_SEED = 7  # the lemma step's fixed input: criterion 7's seed-7 jitter
BALANCE_TOL = 1e-9  # verify's default tolerance
RMSD_TOL = 1e-6
RING_ORDERS = (4, 8, 16, 32)


@dataclass
class Round:
    attempted: int  # program operations started in the round
    failed: int  # of those, operations that failed because of the program
    sample: float  # seconds: the round's end-to-end sample (op_s)
    timed: float  # seconds of all timed calls, the base of the tracing overhead


class Workload:
    name = ""

    def __init__(self, G, tmp: Path, seed: int) -> None:
        self.G = G
        self.tmp = tmp
        self.seed = seed
        self.tracer = None

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k])

    @contextlib.contextmanager
    def _timed(self):
        if self.tracer is None:
            yield
        else:
            with self.tracer.install():
                yield

    def _tag(self, tag: str | None) -> None:
        if self.tracer is not None:
            self.tracer.tag = tag

    def prepare(self) -> None:
        pass

    def round(self, k: int) -> Round:
        raise NotImplementedError


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def jittered(doc: dict, rng: np.random.Generator) -> dict:
    """Copy of a net document with every interior coordinate moved by
    uniform(-JITTER, JITTER), drawn in ascending-id order as criterion 7 does."""
    out = json.loads(json.dumps(doc))
    interior = sorted((v for v in out["vertices"] if not v["boundary"]), key=lambda v: v["id"])
    for v, (dx, dy) in zip(interior, rng.uniform(-JITTER, JITTER, size=(len(interior), 2))):
        v["pos"] = [v["pos"][0] + float(dx), v["pos"][1] + float(dy)]
    return out


_VERIFY_LINE = re.compile(r"^(balance|overlaps|degrees|identity|irreducible)\s*: (.*)$")


def parse_verify(text: str) -> dict:
    """The verdict lines of `geonets verify` as {check: PASS bool or value}."""
    found: dict = {"identity": {}}
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m is None:
            continue
        key, rest = m.groups()
        if key == "identity":
            name, verdict = rest.split(": ", 1)
            found["identity"][name] = verdict.startswith("PASS")
        elif key == "irreducible":
            found[key] = rest.strip()
        else:
            found[key] = rest.startswith("PASS")
    return found


class Jitter25(Workload):
    """construct -> jitter -> relax -> verify, all through geonets.cli.

    Each round builds the exact net with `construct --family t3`, jitters it
    with the round's generator, relaxes it and runs `verify
    --irreducibility` on the result.  It then runs `verify --irreducibility
    --lemmas` on one fixed input: the seed-7 jitter relaxed once in
    prepare().  That step fails the distance identities because relax
    stops 2e-9 short of the exact net; it is kept on a fixed input because
    on seeded inputs it fails on most seeds but not all, which would make
    the failed share depend on the seed.
    """

    name = "jitter25"

    def _cli(self, *argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["geonets.cli"].cli(list(argv))
        return code, out.getvalue() + err.getvalue()

    def _check_exact(self, path: Path, what: str) -> dict:
        doc = _read(path)
        net = PlainNet.from_doc(doc)
        if int(net.boundary.sum()) != 4 or len(net.ids) != 29 or len(net.edges) != 64:
            raise CheckFailed(f"{what}: expected 4 boundary + 25 interior vertices and 64 edges")
        checks.check_balanced(net, BALANCE_TOL, what)
        checks.check_rmsd(REFERENCE_COORDS, net.positions(), RMSD_TOL, what)
        return doc

    def _check_relaxed(self, code: int, text: str, before: dict, path: Path, what: str) -> None:
        if code != 0 or "status     = converged" not in text:
            raise CheckFailed(f"{what}: relax did not converge (exit {code}): {text.strip()}")
        after = PlainNet.from_doc(_read(path))
        checks.check_boundary_unchanged(PlainNet.from_doc(before), after, what)
        checks.check_balanced(after, BALANCE_TOL, what)
        checks.check_rmsd(REFERENCE_COORDS, after.positions(), RMSD_TOL, what)
        checks.check_no_overlaps(after, what)

    @staticmethod
    def _check_verify_pass(code: int, text: str, what: str) -> None:
        v = parse_verify(text)
        if code != 0 or not (v.get("balance") and v.get("overlaps") and v.get("degrees")) \
                or v.get("irreducible") != "yes":
            raise CheckFailed(f"{what}: expected balance, overlaps, degrees PASS and "
                              f"irreducible yes (exit {code}): {text.strip()}")

    @staticmethod
    def _lemma_failed(code: int, text: str) -> bool:
        """True for the known fault (only distance_identities fails), False
        for a full pass; any other outcome is a wrong output."""
        v = parse_verify(text)
        ident = v["identity"]
        sound = (v.get("balance") and v.get("overlaps") and v.get("degrees")
                 and v.get("irreducible") == "yes" and len(ident) == 5)
        failing = sorted(name for name, ok in ident.items() if not ok)
        if sound and code == 0 and not failing:
            return False
        if sound and code == 1 and failing == ["distance_identities"]:
            return True
        raise CheckFailed(f"verify --lemmas: unexpected outcome (exit {code}): {text.strip()}")

    def prepare(self) -> None:
        base, jit = self.tmp / "lemma_base.json", self.tmp / "lemma_jit.json"
        self.lemma_in = self.tmp / "lemma_in.json"
        code, text = self._cli("construct", "--family", "t3", "--out", str(base))
        if code != 0:
            raise CheckFailed(f"construct: exit {code}: {text.strip()}")
        doc = jittered(self._check_exact(base, "construct"),
                       np.random.default_rng(LEMMA_JITTER_SEED))
        _write(jit, doc)
        code, text = self._cli("relax", "--in", str(jit), "--out", str(self.lemma_in))
        self._check_relaxed(code, text, doc, self.lemma_in, "relax of the seed-7 jitter")

    def round(self, k: int) -> Round:
        base, jit, out = (self.tmp / f"{stem}.json" for stem in ("base", "jit", "relaxed"))
        for stale in (base, jit, out):
            stale.unlink(missing_ok=True)
        rng = self.rng(k)
        with self._timed():
            t0 = time.perf_counter()
            c_con, t_con = self._cli("construct", "--family", "t3", "--out", str(base))
            doc = jittered(_read(base), rng)
            _write(jit, doc)
            c_rel, t_rel = self._cli("relax", "--in", str(jit), "--out", str(out))
            c_ver, t_ver = self._cli("verify", "--in", str(out), "--irreducibility")
            c_lem, t_lem = self._cli("verify", "--in", str(self.lemma_in),
                                     "--irreducibility", "--lemmas")
            elapsed = time.perf_counter() - t0
        if c_con != 0:
            raise CheckFailed(f"construct: exit {c_con}: {t_con.strip()}")
        self._check_exact(base, "construct")
        self._check_relaxed(c_rel, t_rel, doc, out, f"relax (round {k})")
        self._check_verify_pass(c_ver, t_ver, f"verify (round {k})")
        failed = self._lemma_failed(c_lem, t_lem)
        return Round(attempted=4, failed=int(failed), sample=elapsed, timed=elapsed)


def _moved_copy(G, net, rng: np.random.Generator):
    """The net under a random rigid motion and a relabelling."""
    pos = checks.rigid_motion(net.positions, rng)
    names = checks.relabel(net.topology.ids, rng)
    topo = G.NetTopology(
        tuple((names[vid], kind) for vid, kind in net.topology.vertices),
        frozenset((names[a], names[b]) for a, b in net.topology.edges),
    )
    return G.EmbeddedNet(topo, {names[vid]: p for vid, p in pos.items()})


def _check_verdict(G, net, verdict: str, witness, rng, what: str,
                   expected: str | None = None) -> None:
    """Verdict as expected (when known) and unchanged under a rigid motion
    plus relabelling; a "no" verdict's witness re-verifies both through
    witness_net and independently."""
    if expected is not None:
        checks.check_equal(verdict, expected, f"{what}: irreducibility verdict")
    again, _ = G.is_irreducible(_moved_copy(G, net, rng))
    checks.check_equal(again, verdict, f"{what}: verdict after a rigid motion and relabelling")
    if verdict == "no":
        if witness is None:
            raise CheckFailed(f"{what}: verdict no without a witness")
        sub = G.witness_net(net, witness)
        if not G.verify_geodesic_net(sub, allow_collinear_degree2=True).all_pass:
            raise CheckFailed(f"{what}: witness_net of the witness does not verify")
        checks.check_witness(PlainNet.from_net(net), witness.edges, what)


class T2Relax(Workload):
    """relax of the T2 template from its schematic seed, then verify and
    irreducibility; round k moves the template by a seeded rigid motion."""

    name = "t2relax"

    def prepare(self) -> None:
        self.template = self.G.topology_template(self.G.NetFamily(self.G.T2_OCTAGON, 2))

    def round(self, k: int) -> Round:
        G = self.G
        rng = self.rng(k)
        net = G.EmbeddedNet(self.template.topology,
                            checks.rigid_motion(self.template.positions, rng))
        with self._timed():
            t0 = time.perf_counter()
            outcome = G.relax(net)
            t1 = time.perf_counter()
            report = G.verify_geodesic_net(outcome.net)
            verdict, witness = G.is_irreducible(outcome.net)
            t2 = time.perf_counter()
        what = f"t2 relax (round {k})"
        checks.check_equal(outcome.status, "converged", f"{what}: status")
        before, after = PlainNet.from_net(net), PlainNet.from_net(outcome.net)
        checks.check_boundary_unchanged(before, after, what)
        checks.check_balanced(after, BALANCE_TOL, what)
        checks.check_no_overlaps(after, what)
        if not report.all_pass:
            raise CheckFailed(f"{what}: verify_geodesic_net fails a net the checks accept")
        checks.check_strict_minimum(after, rng, what)
        _check_verdict(G, outcome.net, verdict, witness, rng, what)
        return Round(attempted=3, failed=0, sample=t1 - t0, timed=t2 - t0)


def fermat_star_point(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Weiszfeld iteration for the point minimising the summed distance."""
    P = np.array(points, dtype=np.float64)
    x = P.mean(axis=0)
    for _ in range(2000):
        w = 1.0 / np.sqrt(((P - x) ** 2).sum(axis=1))
        nxt = (P * w[:, None]).sum(axis=0) / w.sum()
        if np.array_equal(nxt, x):
            break
        x = nxt
    return float(x[0]), float(x[1])


class VerifyScale(Workload):
    """One battery pass per round over six nets, no relax.

    The nets: the exact 25-net, ring templates n = 4, 8, 16, 32 (built
    inside the pass, never relaxed), and the 25-net plus a Fermat star on
    d1, d2, d3, which is reducible by construction.  Round k moves every
    net by its own seeded rigid motion.
    """

    name = "verify-scale"

    def prepare(self) -> None:
        G = self.G
        net25 = G.build_net25(G.solve_angles()).net
        checks.check_rmsd(REFERENCE_COORDS, net25.positions, RMSD_TOL, "build_net25")
        anchors = ("d1", "d2", "d3")
        pos = dict(net25.positions)
        pos["s"] = fermat_star_point([pos[d] for d in anchors])
        topo = G.NetTopology(
            tuple(net25.topology.vertices) + (("s", G.INTERIOR),),
            frozenset(net25.topology.edges) | {("s", d) for d in anchors},
        )
        reducible = G.EmbeddedNet(topo, pos)
        checks.check_balanced(PlainNet.from_net(reducible), 1e-12, "reducible net input")
        self.fixed = {"net25": net25, "reducible": reducible}
        self.expected = {"net25": "yes", "reducible": "no"}

    def _battery(self, name: str, net, files: dict) -> dict:
        G = self.G
        self._tag(name)
        out = {"net": net, "report": G.total_report(net),
               "overlaps": G.detect_overlaps(net), "verify": G.verify_geodesic_net(net),
               "irr": G.is_irreducible(net)}
        if name == "net25":
            out["irr_min"] = G.is_irreducible(net, minimal=True)
        G.save_net(net, str(files["json"]))
        out["loaded"] = G.load_net(str(files["json"]))
        G.export_svg(net, G.SvgStyle(), str(files["svg"]))
        self._tag(None)
        return out

    def round(self, k: int) -> Round:
        G = self.G
        rng = self.rng(k)
        names = ["net25"] + [f"ring{n}" for n in RING_ORDERS] + ["reducible"]
        motion_rngs = dict(zip(names, rng.spawn(len(names))))
        fixed = {name: G.EmbeddedNet(net.topology, checks.rigid_motion(net.positions,
                                                                       motion_rngs[name]))
                 for name, net in self.fixed.items()}
        files = {name: {"json": self.tmp / f"{name}.json", "svg": self.tmp / f"{name}.svg"}
                 for name in names}
        results = {}
        with self._timed():
            t0 = time.perf_counter()
            for n in RING_ORDERS:
                name = f"ring{n}"
                self._tag(name)
                tpl = G.topology_template(G.NetFamily(G.RING_EXPERIMENTAL, n))
                net = G.EmbeddedNet(tpl.topology,
                                    checks.rigid_motion(tpl.positions, motion_rngs[name]))
                results[name] = self._battery(name, net, files[name])
            for name in ("net25", "reducible"):
                results[name] = self._battery(name, fixed[name], files[name])
            elapsed = time.perf_counter() - t0
        for name in names:
            self._check_battery(name, results[name], files[name], rng)
        attempted = len(RING_ORDERS) + 7 * len(names) + 1
        return Round(attempted=attempted, failed=0, sample=elapsed, timed=elapsed)

    def _check_battery(self, name: str, res: dict, files: dict, rng) -> None:
        G = self.G
        net = res["net"]
        plain = PlainNet.from_net(net)
        what = f"verify-scale {name}"
        rep = res["report"]
        checks.check_report_matches(plain, {v: n for v, (_, n) in rep.per_vertex.items()},
                                    rep.max_norm, f"{what}: total_report")
        overlaps = checks.check_overlaps_match(plain, [f.items for f in res["overlaps"]],
                                               f"{what}: detect_overlaps")
        norms = checks.imbalance_norms(plain)
        offending = tuple(v for k, v in enumerate(plain.ids)
                          if not plain.boundary[k] and norms[k] > BALANCE_TOL)
        degree = np.bincount(plain.edges.ravel(), minlength=len(plain.ids))
        vr = res["verify"]
        checks.check_equal(
            (vr.balance_pass, vr.offending_vertices, vr.overlap_pass, vr.degree_pass),
            (not offending, offending, not overlaps,
             bool(np.all(degree[~plain.boundary] >= 3))),
            f"{what}: verify_geodesic_net (balance, offenders, overlaps, degrees)")
        verdict, witness = res["irr"]
        _check_verdict(G, net, verdict, witness, rng, what, self.expected.get(name))
        if "irr_min" in res:
            checks.check_equal(res["irr_min"][0], "yes", f"{what}: minimal verdict")
        loaded = res["loaded"]
        checks.check_positions_bitwise(net.positions, loaded.positions, f"{what}: load(save)")
        checks.check_equal(loaded.topology == net.topology, True, f"{what}: loaded topology")
        on_disk = PlainNet.from_doc(_read(files["json"])).positions()
        checks.check_positions_bitwise(net.positions, on_disk, f"{what}: saved coordinates")
        again_json, again_svg = files["json"].with_suffix(".2.json"), files["svg"].with_suffix(".2.svg")
        G.save_net(loaded, str(again_json))
        G.export_svg(loaded, G.SvgStyle(), str(again_svg))
        checks.check_equal(again_json.read_bytes() == files["json"].read_bytes(), True,
                           f"{what}: save(load(save)) bytes")
        checks.check_equal(again_svg.read_bytes() == files["svg"].read_bytes(), True,
                           f"{what}: SVG bytes after the round trip")


WORKLOADS = {cls.name: cls for cls in (Jitter25, T2Relax, VerifyScale)}
