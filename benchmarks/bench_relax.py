"""Benchmark relax: damped Newton against the first-order sweep kernels.

The sweep's kernel flavor is fixed at import time by GEONETS_NO_NUMBA, so
the parent process never imports geonets; it re-runs itself as a worker
and renders the combined table.  The first worker runs both methods with
whichever sweep kernels import; only when those are the numba ones does a
second worker rerun the sweep on the pure-Python fallback.  Each row is one
(workload, method, flavor) that actually ran.

Usage: python3 benchmarks/bench_relax.py [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def _workloads():
    import numpy as np

    from geonets import (
        EmbeddedNet,
        NetFamily,
        build_net25,
        solve_angles,
        topology_template,
    )
    from geonets import T2_OCTAGON

    exact = build_net25(solve_angles()).net
    rng = np.random.default_rng(7)
    pos = dict(exact.positions)
    for vid in sorted(exact.topology.interior_ids):
        dx, dy = rng.uniform(-0.05, 0.05, size=2)
        x, y = pos[vid]
        pos[vid] = (x + dx, y + dy)
    jittered = exact.with_positions(pos)

    tpl = topology_template(NetFamily(T2_OCTAGON, 2))
    t2 = EmbeddedNet(tpl.topology, tpl.positions)

    return [("jittered-25", jittered), ("t2-template", t2)]


def _run_worker(repeats: int, methods: list[str]) -> None:
    from geonets import RelaxConfig, relax
    from geonets._kernels import USING_NUMBA

    rows = []
    for method in methods:
        flavor = "numpy" if method == "newton" else ("numba" if USING_NUMBA else "pure python")
        cfg = RelaxConfig(method=method)
        for name, net in _workloads():
            times = []
            for _ in range(repeats + 1):
                t0 = time.perf_counter()
                outcome = relax(net, cfg)
                times.append(time.perf_counter() - t0)
            # times[0] includes any one-off compilation cost
            rows.append(
                {
                    "workload": name,
                    "method": method,
                    "flavor": flavor,
                    "first": times[0],
                    "best": min(times[1:]),
                    "median": statistics.median(times[1:]),
                    "iterations": outcome.iterations,
                    "status": outcome.status,
                }
            )
    json.dump(rows, sys.stdout)


def _collect(no_numba: bool, repeats: int, methods: list[str]) -> list[dict]:
    env = dict(os.environ)
    if no_numba:
        env["GEONETS_NO_NUMBA"] = "1"
    else:
        env.pop("GEONETS_NO_NUMBA", None)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--repeats", str(repeats),
         "--methods", ",".join(methods)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5, help="timed runs per workload (default 5)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--methods", default="newton,sweep", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        _run_worker(args.repeats, args.methods.split(","))
        return

    rows = _collect(False, args.repeats, ["newton", "sweep"])
    if any(r["flavor"] == "numba" for r in rows):
        rows += _collect(True, args.repeats, ["sweep"])
    hdr = (f"{'workload':<14}{'method':<8}{'flavor':<13}{'first call':>12}{'best':>10}"
           f"{'median':>10}{'steps':>8}  status")
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        print(
            f"{r['workload']:<14}{r['method']:<8}{r['flavor']:<13}"
            f"{r['first']:>11.4f}s{r['best']:>9.4f}s{r['median']:>9.4f}s"
            f"{r['iterations']:>8d}  {r['status']}"
        )
    print("(steps: accepted Newton steps, or sweeps)")
    by_key = {(r["workload"], r["method"], r["flavor"]): r["median"] for r in rows}
    for name in ("jittered-25", "t2-template"):
        newton = by_key[(name, "newton", "numpy")]
        for flavor in ("numba", "pure python"):
            sweep = by_key.get((name, "sweep", flavor))
            if sweep is not None and newton > 0:
                print(f"{name}: newton is {sweep / newton:.0f}x faster than the {flavor} sweep")
        numba = by_key.get((name, "sweep", "numba"))
        if numba:
            pure = by_key[(name, "sweep", "pure python")]
            print(f"{name}: the numba sweep is {pure / numba:.1f}x faster than pure python")


if __name__ == "__main__":
    main()
