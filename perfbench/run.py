"""geonets benchmark: three workloads, timed end to end and, traced, per layer.

    python3 perfbench/run.py                        # all workloads, untraced
    python3 perfbench/run.py --trace 1              # all workloads, per-layer
    python3 perfbench/run.py --workload jitter25 --seed 3 --seconds 25 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory.  A single-workload run prints its metrics and, as its last line,
{"correct", "attempted", "failed", "metrics"}; every run writes
BENCH_<label>.json at the repository root.  A failed output check stops
the run with exit code 3; a missing src/geonets exits 2.  See README.md.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy loads, so BLAS-backed code is
# measured on the same footing as the pure-Python kernels.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("jitter25", "t2relax", "verify-scale")
SETUP_REPEATS = 7
# op_s is scaled to a reference speed: the host's speed drifts by up to a
# third within minutes, and a fixed pure-Python loop run between the rounds
# slows down with it.  CALIBRATION_REF_S is the loop's median time on the
# 2-CPU sandbox the reference figures in README.md come from.
CALIBRATION_ITERS = 235_000
CALIBRATION_REF_S = 0.05
CALIBRATION_SHARE = 0.05  # of the run's time spent in the loop
EXIT_NO_PROGRAM = 2
EXIT_CHECK_FAILED = 3

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))
# what op_s is called on each workload
OP_NAME = {"jitter25": "pipeline_s", "t2relax": "time_to_balance_s",
           "verify-scale": "verify_pass_s"}
NETS = ("net25", "ring4", "ring8", "ring16", "ring32", "reducible")
PER_NET_LAYERS = ("net.total_report", "net.detect_overlaps",
                  "verify.verify_geodesic_net", "verify.is_irreducible")
PER_LAYER = (
    ("angles.solve_angles_s", "s"),
    ("builder.build_net25_s", "s"),
    ("builder.topology_template_s", "s"),
    ("relax.relax_s", "s"),
    ("relax.iterations", "count"),
    ("relax.iteration_us", "us"),
    ("relax.converged_ratio", "ratio"),
    ("net.total_report_s", "s"),
    ("net.detect_overlaps_s", "s"),
    ("verify.verify_geodesic_net_s", "s"),
    ("verify.is_irreducible_s", "s"),
    ("verify.is_irreducible_minimal_s", "s"),
    ("verify.check_lemmas_s", "s"),
    ("io.save_net_s", "s"),
    ("io.load_net_s", "s"),
    ("io.export_svg_s", "s"),
    ("io.cli_self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"{layer}_s.{net}", "s") for layer in PER_NET_LAYERS for net in NETS)

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import geonets
t1 = time.perf_counter()
sol = geonets.solve_angles()
t2 = time.perf_counter()
geonets.build_net25(sol)
t3 = time.perf_counter()
print(json.dumps({"file": geonets.__file__, "import_s": t1 - t0,
                  "solve_angles_s": t2 - t1, "build_net25_s": t3 - t2, "setup_s": t3 - t0}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(repeats: int) -> list[dict]:
    """Import geonets, solve the angles and build the 25-net in fresh processes."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(sample["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up process imported geonets from {sample['file']}")
        samples.append(sample)
    return samples


def calibration_chunk() -> float:
    """Wall seconds of a fixed loop of the work the kernels and checks do in
    pure Python: list and dict indexing and float arithmetic."""
    xs = [0.1 * i for i in range(64)]
    table = {i: xs[(7 * i) % 64] for i in range(64)}
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(CALIBRATION_ITERS):
        i = k & 63
        dx = xs[i] - table[i]
        acc += dx / math.sqrt(dx * dx + 1.0)
    return time.perf_counter() - t0


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    import geonets._kernels

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "numba_present": importlib.util.find_spec("numba") is not None,
        "using_numba": bool(geonets._kernels.USING_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": 1,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import geonets
    import geonets.cli  # noqa: F401  (the CLI module the jitter25 workload drives)

    if not Path(geonets.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: geonets imported from {geonets.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    from checks import CheckFailed
    from tracing import Tracer, relax_stats, round_totals
    from workloads import WORKLOADS

    setup = measure_setup(SETUP_REPEATS)
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](geonets, tmp, args.seed)
    tracer = Tracer() if args.trace else None
    samples, ratios, calibration = [], [], []
    attempted = failed = 0
    try:
        wl.prepare()
        start = time.perf_counter()
        k = 0
        while True:
            while tracer is None and (not calibration or sum(calibration)
                                      < CALIBRATION_SHARE * (time.perf_counter() - start)):
                calibration.append(calibration_chunk())
            # in a traced run each round runs twice on the same inputs,
            # traced second on even rounds and first on odd ones; the time
            # ratio of the two is the tracing overhead
            pair = {}
            order = (False,) if tracer is None else ((False, True), (True, False))[k % 2]
            for traced in order:
                if traced:
                    tracer.round = k
                wl.tracer = tracer if traced else None
                r = pair[traced] = wl.round(k)
                attempted += r.attempted
                failed += r.failed
            wl.tracer = None
            samples.append(pair[False].sample)
            if tracer is not None:
                ratios.append(pair[True].timed / pair[False].timed)
            k += 1
            if time.perf_counter() - start >= args.seconds:
                break
    except CheckFailed as exc:
        print(f"perfbench: CHECK FAILED on {args.workload}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            tmp.parent.rmdir()

    if tracer is None:
        metrics = {
            "setup_s": _metric(statistics.median(s["setup_s"] for s in setup), "s"),
            "op_s": _metric(statistics.median(samples) * CALIBRATION_REF_S
                            / statistics.median(calibration), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB"),
        }
    else:
        # set-up layers come from the fresh set-up processes, the rest from
        # the traced rounds: the median over rounds of each round's total
        values = {
            "angles.solve_angles_s": statistics.median(s["solve_angles_s"] for s in setup),
            "builder.build_net25_s": statistics.median(s["build_net25_s"] for s in setup),
            "trace.overhead_ratio": statistics.median(ratios) - 1.0,
            **{f"relax.{key}": v for key, v in relax_stats(tracer.spans).items()},
        }
        per_round = round_totals(tracer.spans)
        for name, _ in PER_LAYER:
            if name not in values:
                span = re.sub(r"_s(?=\.|$)", "", name)
                values[name] = statistics.median(per_round[j].get(span, 0.0) for j in range(k))
        metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER}

    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    label = args.label or (args.workload + ("-trace" if args.trace else ""))
    record = {
        "label": label, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": k, "environment": environment(args.seed),
        **result,
        "op_name": OP_NAME[args.workload],
        "op_samples_s": samples,
        "calibration_samples_s": calibration,
        "setup_samples": setup,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  rounds {k}")
    print(f"  attempted {attempted}  failed {failed}")
    for name, m in metrics.items():
        alias = f"  ({OP_NAME[args.workload]})" if name == "op_s" else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{alias}")
    if calibration:
        print(f"  wall-clock op median {statistics.median(samples):.6g} s, calibration loop "
              f"median {statistics.median(calibration):.6g} s (reference {CALIBRATION_REF_S} s)")
    print(f"  record: BENCH_{label}.json")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    label = args.label or ("all" + ("-trace" if args.trace else ""))
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--label", f"{label}.{name}"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    sys.path.insert(0, str(SRC))
    record = {"label": label, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "workloads": results}
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: BENCH_{label}.json")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default=None, help="record name: BENCH_<label>.json")
    args = ap.parse_args(argv)
    if not (SRC / "geonets" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'geonets'}; run from a full checkout",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
