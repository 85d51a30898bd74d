"""Spans around the package's public layer functions, recorded from outside.

install() replaces each listed function, in every geonets module that holds
a reference to it, with a wrapper that records a span (name, start, end,
parent, round) and restores the originals on exit.  Calls between modules
therefore nest: a span for verify.verify_geodesic_net has the
net.detect_overlaps span it caused as a child.  Nothing in the package is
edited; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs, named "<module>.<function>" in spans and metrics
LAYERS = (
    ("angles", "solve_angles"),
    ("builder", "build_net25"),
    ("builder", "topology_template"),
    ("relax", "relax"),
    ("net", "total_report"),
    ("net", "detect_overlaps"),
    ("verify", "verify_geodesic_net"),
    ("verify", "is_irreducible"),
    ("verify", "check_lemmas"),
    ("io", "save_net"),
    ("io", "load_net"),
    ("io", "export_svg"),
    ("io", "cli"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round: int | None = None
        self.tag: str | None = None  # input-net name for the spans that follow
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "verify.is_irreducible" and kwargs.get("minimal"):
                span_name = "verify.is_irreducible_minimal"
            span = {"name": span_name, "round": self.round, "tag": self.tag,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if name == "relax.relax":
                span["iterations"] = result.iterations
                span["status"] = result.status
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Trace every layer function for the duration of the block."""
        patched: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "geonets" or n.startswith("geonets."))]
        try:
            for mod_name, fn_name in LAYERS:
                original = getattr(sys.modules[f"geonets.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)


def round_totals(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per round: inclusive seconds per span name, per "name.tag" when the
    span carries an input-net tag, and io.cli_self (CLI time not covered by
    its child spans)."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for k, s in enumerate(spans):
        dur = s["end"] - s["start"]
        per = totals[s["round"]]
        per[s["name"]] += dur
        if s["tag"] is not None:
            per[f"{s['name']}.{s['tag']}"] += dur
        if s["name"] == "io.cli":
            per["io.cli_self"] += dur - children[k]
    return totals


def relax_stats(spans: list[dict]) -> dict[str, float]:
    """Medians over relax calls of sweeps and time per sweep, and the share
    of calls that converged; zeros when relax was never called."""
    calls = [s for s in spans if s["name"] == "relax.relax"]
    if not calls:
        return {"iterations": 0, "iteration_us": 0.0, "converged_ratio": 0.0}
    per_sweep = [(s["end"] - s["start"]) / s["iterations"] * 1e6
                 for s in calls if s["iterations"] > 0]
    return {
        "iterations": statistics.median(s["iterations"] for s in calls),
        "iteration_us": statistics.median(per_sweep) if per_sweep else 0.0,
        "converged_ratio": sum(s["status"] == "converged" for s in calls) / len(calls),
    }
