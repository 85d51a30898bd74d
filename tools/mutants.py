"""Run the test suite against hand-made mutants of the verdict, cache, writer, geometry and
solver code.

    python3 tools/mutants.py

Each mutant is a list of exact source substitutions (file, old text, new
text, how many times old text occurs).  For each one the script copies src/,
tests/, pyproject.toml and README.md (which a test runs) into a fresh
temporary directory, applies the substitutions there, and runs
`pytest -x -q tests` in that copy, two copies at a time; the working tree
is never written.  A mutant is killed when the suite fails on it and
survives when it passes.  The unmutated copy runs first, as "baseline": a
suite that fails unmutated would read every mutant as killed, so the script
then stops.  The score is printed at the end.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> [(file under src/geonets, old, new, occurrences of old)]
MUTANTS: dict[str, list[tuple[str, str, str, int]]] = {
    "crossing_margin min -> max": [
        ("verify.py", 'margin = min(dist(P[f"c{i}"], p)', 'margin = max(dist(P[f"c{i}"], p)', 1),
    ],
    "reflex-angle loop skips corner 4": [
        ("verify.py", "for i in (1, 2, 3, 4):\n        inner = _angle_at(",
         "for i in (1, 2, 3):\n        inner = _angle_at(", 1),
    ],
    "corner-triangle max drops a base angle": [
        ("verify.py", "apex, _angle_at(di, c, dj), _angle_at(dj, c, di))",
         "apex, _angle_at(di, c, dj))", 1),
    ],
    "_witness > tol -> >=": [
        ("verify.py", "np.flatnonzero(~(norm <= tol))", "np.flatnonzero(~(norm < tol))", 1),
    ],
    "witness postcondition skipped": [
        ("verify.py", "if topo.vertices[v][1] == INTERIOR:",
         "if False and topo.vertices[v][1] == INTERIOR:", 1),
    ],
    "relax measures its norms with np.hypot": [
        ("relax.py", "_lengths(s)", "np.hypot(s[:, 0], s[:, 1])", 1),
        ("relax.py", "_lengths(s_t)", "np.hypot(s_t[:, 0], s_t[:, 1])", 1),
    ],
    "relax convergence <= -> <": [
        ("relax.py", "if worst <= cfg.tol_balance:", "if worst < cfg.tol_balance:", 2),
    ],
    "in-place writer keeps a longer old tail": [
        ("io.py", "fh.truncate(len(data))", "pass", 1),
    ],
    "trial check ignores the boundary's fixed edges": [
        ("net.py", "least = min(shortest, fixed_min)", "least = shortest", 1),
    ],
    "Fermat weights use angle + pi/6": [
        ("geom.py", "+ math.pi / 3.0)", "+ math.pi / 6.0)", 3),
    ],
    "propagation ignores a conflict": [
        ("verify.py", "if meet & ~join:", "if False and meet & ~join:", 1),
    ],
    "angle solve keeps the neighbour with the largest |h|": [
        ("angles.py", "alpha = min((math.nextafter(", "alpha = max((math.nextafter(", 1),
    ],
    "bulk seed closure counts one node short": [
        ("verify.py", "self._count_seeds(closed)", "self._count_seeds(closed - 1)", 1),
    ],
    "bulk drop visits no vertex": [
        ("verify.py", "if inc & dead and inc & ~dead:", "if False:", 1),
    ],
    "template cache hands out its own positions dict": [
        ("builder.py", "tuple(net.positions.items())", "dict(net.positions)", 1),
        ("builder.py", "tuple(_template_positions(n).items())", "_template_positions(n)", 1),
        ("builder.py", "positions=dict(positions)", "positions=positions", 1),
    ],
    "overlap scan stops after the first point-line test": [
        ("net.py", "((False, ax, ay), (False, bx, by), (True, ax, ay), (True, bx, by))",
         "((False, ax, ay),)", 1),
    ],
    "total_report hands out the cached per_vertex dict": [
        ("net.py", "per_vertex=dict(r.per_vertex)", "per_vertex=r.per_vertex", 1),
    ],
    "an explicit tol_overlap reads the default-tolerance cache": [
        ("net.py", "if tol_overlap is None:", "if True:", 1),
    ],
}


def make_copy(into: Path, edits: list[tuple[str, str, str, int]]) -> None:
    """src/, tests/, pyproject.toml and README.md under into, with edits
    applied to src/geonets."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, into / name)
    for filename, old, new, count in edits:
        path = into / "src" / "geonets" / filename
        text = path.read_text()
        found = text.count(old)
        if found != count:
            raise SystemExit(f"mutants: {filename} has {found} of {old!r}, expected {count}")
        path.write_text(text.replace(old, new))


def run_suite(name: str, edits: list[tuple[str, str, str, int]]) -> tuple[str, bool, str]:
    """(name, whether the suite passed, its last output line) on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="geonets-mutant-") as tmp:
        copy = Path(tmp)
        make_copy(copy, edits)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return name, proc.returncode == 0, lines[-1] if lines else proc.stderr.strip()[-200:]


def main() -> int:
    _, passed, last = run_suite("baseline", [])
    print(f"baseline: {'passed' if passed else 'FAILED'} ({last})", flush=True)
    if not passed:
        return 1
    killed = 0
    with ThreadPoolExecutor(max_workers=2) as pool:  # each worker waits on one pytest
        for name, passed, last in pool.map(lambda item: run_suite(*item), MUTANTS.items()):
            killed += not passed
            print(f"{'survived' if passed else 'killed  '}  {name}  ({last})", flush=True)
    print(f"score: {killed}/{len(MUTANTS)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
