"""Interleaved rounds of one perfbench workload on two source trees.

    git archive HEAD~1 | tar -x -C /tmp/before      # any second checkout
    python3 tools/ab_rounds.py --a /tmp/before/src --b src --workload t2relax

Each tree's geonets package is imported under its own name (geonets_a,
geonets_b), and each side gets its own instance of the workload class from
perfbench/workloads.py.  Round k then runs on both sides back to back, on
the same inputs, alternating which side goes first, with the workload's
output checks as in perfbench/run.py.  For jitter25, which calls the CLI
through sys.modules["geonets.cli"], that entry is the running side's CLI
module.  The script prints each side's median round time (the workload's
own op_s sample, not scaled by perfbench's calibration loop) and the median
and quartiles of the per-round ratio b / a.

Both sides of a pair see the same host within milliseconds, so the ratio
resolves differences that the drift between separate perfbench runs hides.
It is supporting evidence only: a claimed gain rests on perfbench/run.py.
Nothing under perfbench/ is written; scratch files go to a temporary
directory.
"""

from __future__ import annotations

import os

# one BLAS thread, as perfbench/run.py sets before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_tree(src: Path, name: str) -> ModuleType:
    """The geonets package under src, imported as the top-level package name."""
    pkg = src / "geonets"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"ab_rounds: no package at {pkg}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


@contextlib.contextmanager
def as_geonets_cli(package: ModuleType):
    """sys.modules["geonets.cli"] is this package's CLI module inside the block."""
    saved = sys.modules.get("geonets.cli")
    sys.modules["geonets.cli"] = sys.modules[f"{package.__name__}.cli"]
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["geonets.cli"]
        else:
            sys.modules["geonets.cli"] = saved


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True, help="src directory of side a")
    ap.add_argument("--b", type=Path, required=True, help="src directory of side b")
    ap.add_argument("--workload", choices=("jitter25", "t2relax", "verify-scale"),
                    default="t2relax")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time, both sides")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(PERFBENCH))
    from checks import CheckFailed
    from workloads import WORKLOADS

    packages = {"a": load_tree(args.a.resolve(), "geonets_a"),
                "b": load_tree(args.b.resolve(), "geonets_b")}
    samples: dict[str, list[float]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(prefix="ab_rounds-") as tmp:
        sides = {}
        for side, package in packages.items():
            (Path(tmp) / side).mkdir()
            sides[side] = WORKLOADS[args.workload](package, Path(tmp) / side, args.seed)
        try:
            for side, wl in sides.items():
                with as_geonets_cli(packages[side]):
                    wl.prepare()
            start, k = time.perf_counter(), 0
            while k < 2 or time.perf_counter() - start < args.seconds:
                for side in ("a", "b") if k % 2 == 0 else ("b", "a"):
                    with as_geonets_cli(packages[side]):
                        samples[side].append(sides[side].round(k).sample)
                k += 1
        except CheckFailed as exc:
            print(f"ab_rounds: CHECK FAILED on {args.workload}: {exc}", file=sys.stderr)
            return 3

    ratios = [b / a for a, b in zip(samples["a"], samples["b"])]
    print(f"workload {args.workload}  seed {args.seed}  rounds {k} per side")
    for side, src in (("a", args.a), ("b", args.b)):
        q1, med, q3 = statistics.quantiles(samples[side], n=4)
        print(f"  {side}: median {med * 1e6:10.1f} us  "
              f"IQR [{q1 * 1e6:.1f}, {q3 * 1e6:.1f}]  ({src})")
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    lower = sum(r < 1.0 for r in ratios)
    print(f"  b / a: median {med:.4f}  IQR [{q1:.4f}, {q3:.4f}]  "
          f"b lower in {lower} of {len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
