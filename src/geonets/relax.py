"""Relaxation toward a balanced (geodesic) net by shortening total edge length.

With the boundary pinned, total edge length E is a convex function of the
interior positions.  Its gradient at an interior vertex v is -s(v), where
s(v) is the sum of unit vectors from v toward its neighbors, and its Hessian
sums one 2x2 block (I - u u^T) / L per edge of length L and direction u.

The default method, "newton", takes damped Newton (Levenberg-Marquardt)
steps: it solves (H + lam I) d = s for the move d of all interior vertices
at once.  A step is accepted when it shortens the net or, once the change in
length is below the float resolution of E, when it lowers the worst
imbalance without lengthening the net; lam then falls, while a rejected
step raises it.  Near the minimum the steps are plain Newton steps and
converge quadratically: a jittered 25-net settles in about a dozen steps.
A topology whose minimum collapses an edge never balances; there the worst
imbalance stops falling and the run ends as stalled.

The method "sweep" is the first-order scheme: every interior vertex moves
by step * s(v), sequentially in ascending-id order, each seeing the moves
already made in the same sweep; synchronous mode computes all moves from
one snapshot instead.  The step must stay below 2 / (largest eigenvalue of
H), so on stiff nets the sweep needs thousands of passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import Degenerated, InvariantViolation, NoTrace
from .geom import EPS_DEG, Point, dist
from .net import EmbeddedNet

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters_reached"
STATUS_DEGENERATED = "degenerated"
STATUS_STALLED = "stalled"

METHODS = ("newton", "sweep")

# Levenberg-Marquardt damping in units of the mean diagonal of the Hessian
# at the start.  lam starts small, so a first step that is accepted is
# nearly a Newton step, and moves by a factor of ten either way (Marquardt
# 1963); a slower decrease left the end of the run linear instead of
# quadratic.  Past _LAM_CEIL a step lies far below the float resolution of
# the coordinates, so the run has no move left to make.
_LAM_START = 1e-6
_LAM_FLOOR = 1e-12
_LAM_CEIL = 1e16
_LAM_UP = 10.0
_LAM_DOWN = 10.0
# A run ends as stalled when its worst imbalance has not halved within this
# many accepted steps.  Over 202 jittered 25-nets (uniform jitter 0.05 and
# 0.2) the longest such stretch before convergence was 20 steps, while the
# ring templates, whose minima collapse edges, creep on for thousands.
_STALL_STEPS = 100

SWEEP_STEP = 0.02


@dataclass(frozen=True)
class RelaxConfig:
    """Knobs for relax / relax_sweep.

    method is "newton" (damped Newton, the default) or "sweep" (first-order
    sweeps).  step and synchronous apply to the sweep only, and setting
    either with method="newton" raises ValueError.  The default step is
    calibrated against the 25-vertex net: larger steps (0.04 and
    up) orbit a limit cycle around the minimum because the shortest
    equilibrium edges (about 0.024) make the energy too stiff, while 0.02
    converged for 100 of 100 jittered starts.
    """

    step: float = SWEEP_STEP
    max_iters: int = 1_000_000
    tol_balance: float = 1e-10
    guard: float = 1e-9
    trace_every: int = 0
    synchronous: bool = False
    method: str = "newton"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (self.tol_balance > 0.0):
            raise ValueError(f"tol_balance must be positive, got {self.tol_balance}")
        if not (self.guard > 0.0):
            raise ValueError(f"guard must be positive, got {self.guard}")
        if self.trace_every < 0:
            raise ValueError(f"trace_every must be >= 0, got {self.trace_every}")
        if self.method == "newton" and (self.synchronous or self.step != SWEEP_STEP):
            raise ValueError("step and synchronous apply to method='sweep' only")


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    total_loss: float
    max_norm: float
    positions: dict[str, Point] = field(repr=False)


@dataclass(frozen=True)
class RelaxOutcome:
    net: EmbeddedNet
    status: str
    iterations: int
    trace: tuple[TracePoint, ...] = ()


class _Packed:
    """Array layout of a net: positions, the interior CSR the sweep kernels
    read, and the edge index arrays the Newton step assembles from."""

    def __init__(self, net: EmbeddedNet) -> None:
        topo = net.topology
        self.ids: list[str] = sorted(topo.ids)
        index = {vid: k for k, vid in enumerate(self.ids)}
        self.pos = np.empty((len(self.ids), 2), dtype=np.float64)
        for vid, k in index.items():
            p = net.positions[vid]
            self.pos[k, 0] = p[0]
            self.pos[k, 1] = p[1]
        interior = sorted(topo.interior_ids)
        self.interior = interior
        self.order = np.array([index[vid] for vid in interior], dtype=np.int64)
        idx: list[int] = []
        off = [0]
        for vid in interior:
            for w in topo.neighbors(vid):
                idx.append(index[w])
            off.append(len(idx))
        self.nbr_idx = np.array(idx, dtype=np.int64)
        self.nbr_off = np.array(off, dtype=np.int64)
        self.prev = self.pos.copy()
        self.disp = np.zeros((len(interior), 2), dtype=np.float64)

        # Edges with at least one interior end, as index arrays a -> b, and
        # the interior ordinal of each end (-1 on the boundary).
        slot = {vid: t for t, vid in enumerate(interior)}
        edges = sorted(e for e in topo.edges if e[0] in slot or e[1] in slot)
        self.ea = np.array([index[a] for a, _ in edges], dtype=np.int64)
        self.eb = np.array([index[b] for _, b in edges], dtype=np.int64)
        sa = np.array([slot.get(a, -1) for a, _ in edges], dtype=np.int64)
        sb = np.array([slot.get(b, -1) for _, b in edges], dtype=np.int64)
        # s(v) gains +u at the a end and -u at the b end of each edge.
        ina, inb = np.flatnonzero(sa >= 0), np.flatnonzero(sb >= 0)
        self.grad_rows = np.concatenate([sa[ina], sb[inb]])
        self.grad_edges = np.concatenate([ina, inb])
        self.grad_sign = np.concatenate([np.ones(len(ina)), -np.ones(len(inb))])
        # Hessian blocks: +K on (a, a) and (b, b), -K on (a, b) and (b, a).
        both = np.flatnonzero((sa >= 0) & (sb >= 0))
        self.hess_rows = np.concatenate([self.grad_rows, sa[both], sb[both]])
        self.hess_cols = np.concatenate([self.grad_rows, sb[both], sa[both]])
        self.hess_edges = np.concatenate([self.grad_edges, both, both])
        self.hess_sign = np.concatenate([np.ones(len(self.grad_rows)), -np.ones(2 * len(both))])
        # The shortest edge between two pins; it never changes, but the
        # degeneracy threshold of EmbeddedNet grows with the bounding box.
        fixed = [dist(net.positions[a], net.positions[b])
                 for a, b in topo.edges if a not in slot and b not in slot]
        self.fixed_min = min(fixed, default=np.inf)

    def edges(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """b - a and its length, for every edge with an interior end."""
        d = pos[self.eb] - pos[self.ea]
        return d, np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])

    def imbalance(self, u: np.ndarray) -> np.ndarray:
        """s(v) for every interior vertex from the edges' unit vectors u."""
        s = np.zeros((len(self.interior), 2), dtype=np.float64)
        np.add.at(s, self.grad_rows, self.grad_sign[:, None] * u[self.grad_edges])
        return s

    def hessian(self, u: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Hessian of total length over the interior coordinates (x0, y0, x1, ...)."""
        k = (np.eye(2) - u[:, :, None] * u[:, None, :]) / length[:, None, None]
        n = len(self.interior)
        blocks = np.zeros((n, n, 2, 2), dtype=np.float64)
        np.add.at(blocks, (self.hess_rows, self.hess_cols),
                  self.hess_sign[:, None, None] * k[self.hess_edges])
        return blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)

    def positions_dict(self, arr: np.ndarray) -> dict[str, Point]:
        return {vid: (float(arr[k, 0]), float(arr[k, 1])) for k, vid in enumerate(self.ids)}

    def stats(self) -> tuple[float, float]:
        total, worst = _kernels.imbalance_stats(self.pos, self.order, self.nbr_idx, self.nbr_off)
        return float(total), float(worst)

    def min_incident_length(self, ordinal: int) -> tuple[str, float]:
        vid = self.interior[ordinal]
        v = self.order[ordinal]
        best = np.inf
        for e in range(self.nbr_off[ordinal], self.nbr_off[ordinal + 1]):
            w = self.nbr_idx[e]
            d = float(np.hypot(self.pos[w, 0] - self.pos[v, 0], self.pos[w, 1] - self.pos[v, 1]))
            best = min(best, d)
        return vid, best


def relax_sweep(net: EmbeddedNet, config: RelaxConfig | None = None) -> EmbeddedNet:
    """One full sweep over the interior; raises Degenerated on a guard trip."""
    cfg = config or RelaxConfig()
    packed = _Packed(net)
    if cfg.synchronous:
        bad = _kernels.sweep_once_sync(
            packed.pos, packed.disp, packed.order, packed.nbr_idx, packed.nbr_off,
            cfg.step, cfg.guard,
        )
    else:
        bad = _kernels.sweep_once(
            packed.pos, packed.order, packed.nbr_idx, packed.nbr_off, cfg.step, cfg.guard,
        )
    if bad >= 0:
        vid, length = packed.min_incident_length(int(bad))
        raise Degenerated(vid, length)
    return net.with_positions(packed.positions_dict(packed.pos))


def relax(net: EmbeddedNet, config: RelaxConfig | None = None) -> RelaxOutcome:
    """Move the interior until the worst imbalance is at most tol_balance.

    iterations counts accepted Newton steps, or completed sweeps with
    method="sweep".  A net that is already balanced returns converged with
    zero iterations, and the boundary never moves.  When trace_every is
    positive, the trace holds the state before the first iteration, after
    every trace_every-th iteration, and after the last one when that falls
    off the cadence.

    Newton: a start with an interior edge shorter than guard returns
    degenerated with zero iterations and the input net; a trial step that
    would shorten an edge below guard, or to a length EmbeddedNet rejects,
    is rejected.  When the damping runs out the run ends at its last
    accepted state, as degenerated if a trial since that state was rejected
    for an edge and as stalled otherwise.  It also ends as stalled when the
    worst imbalance has not halved within 100 accepted steps.

    Sweep: on degeneration the returned net is the state just before the
    offending sweep when that state is still a valid embedding, otherwise
    the input net.
    """
    cfg = config or RelaxConfig()
    if cfg.method == "newton":
        return _relax_newton(net, cfg)
    return _relax_sweeps(net, cfg)


def _relax_newton(net: EmbeddedNet, cfg: RelaxConfig) -> RelaxOutcome:
    packed = _Packed(net)
    pos = packed.pos
    d, length = packed.edges(pos)
    u = d / length[:, None]
    s = packed.imbalance(u)
    norms = np.hypot(s[:, 0], s[:, 1])
    worst = norms.max(initial=0.0)

    trace: list[TracePoint] = []

    def record(iteration: int) -> None:
        trace.append(TracePoint(iteration, float(norms.sum()), float(worst),
                                packed.positions_dict(pos)))

    if cfg.trace_every > 0:
        record(0)
    if worst <= cfg.tol_balance:
        return RelaxOutcome(net, STATUS_CONVERGED, 0, tuple(trace))
    if length.min(initial=np.inf) < cfg.guard:
        return RelaxOutcome(net, STATUS_DEGENERATED, 0, tuple(trace))

    energy = length.sum()
    hess = packed.hessian(u, length)
    eye = np.eye(hess.shape[0])
    scale = float(np.mean(np.diag(hess)))
    lam = _LAM_START * scale
    done = 0
    status = STATUS_MAX_ITERS
    guard_hit = False  # a trial since the last accepted step was rejected for an edge
    mark, mark_done = worst, 0  # the last halving of the worst imbalance
    while done < cfg.max_iters:
        step = np.linalg.solve(hess + lam * eye, s.reshape(-1))
        trial = pos.copy()
        trial[packed.order] += step.reshape(-1, 2)
        d_t, length_t = packed.edges(trial)
        extent = np.ptp(trial, axis=0)
        eps = max(EPS_DEG, EPS_DEG * math.hypot(extent[0], extent[1]))
        shortest = length_t.min()
        # also rejects a non-finite step
        tripped = not (shortest >= cfg.guard and min(shortest, packed.fixed_min) > eps)
        if not tripped:
            u_t = d_t / length_t[:, None]
            s_t = packed.imbalance(u_t)
            norms_t = np.hypot(s_t[:, 0], s_t[:, 1])
            energy_t = length_t.sum()
            # Below float resolution a length comparison is noise, so there
            # the worst imbalance decides.
            resolution = len(length) * np.finfo(np.float64).eps * energy
            accepted = energy_t < energy or (
                energy_t - energy <= resolution and norms_t.max() < worst
            )
        if tripped or not accepted:
            guard_hit = guard_hit or tripped
            lam *= _LAM_UP
            if lam > _LAM_CEIL * scale:
                status = STATUS_DEGENERATED if guard_hit else STATUS_STALLED
                break
            continue
        pos, u, length, s, norms, energy = trial, u_t, length_t, s_t, norms_t, energy_t
        worst = norms.max()
        done += 1
        guard_hit = False
        lam = max(lam / _LAM_DOWN, _LAM_FLOOR * scale)
        if cfg.trace_every > 0 and done % cfg.trace_every == 0:
            record(done)
        if worst <= cfg.tol_balance:
            status = STATUS_CONVERGED
            break
        if worst <= mark / 2:
            mark, mark_done = worst, done
        elif done - mark_done >= _STALL_STEPS:
            status = STATUS_STALLED
            break
        hess = packed.hessian(u, length)

    if cfg.trace_every > 0 and trace[-1].iteration != done:
        record(done)
    out = net.with_positions(packed.positions_dict(pos)) if done else net
    return RelaxOutcome(out, status, done, tuple(trace))


def _relax_sweeps(net: EmbeddedNet, cfg: RelaxConfig) -> RelaxOutcome:
    packed = _Packed(net)
    runner = _kernels.run_sync if cfg.synchronous else _kernels.run_seq

    trace: list[TracePoint] = []

    def record(iteration: int) -> float:
        total, worst = packed.stats()
        trace.append(TracePoint(iteration, total, worst, packed.positions_dict(packed.pos)))
        return worst

    total0, worst0 = packed.stats()
    if cfg.trace_every > 0:
        trace.append(TracePoint(0, total0, worst0, packed.positions_dict(packed.pos)))
    if worst0 <= cfg.tol_balance:
        return RelaxOutcome(net, STATUS_CONVERGED, 0, tuple(trace))

    done = 0
    code = 1
    while done < cfg.max_iters:
        if cfg.trace_every > 0:
            chunk = min(cfg.trace_every, cfg.max_iters - done)
        else:
            chunk = cfg.max_iters - done
        if cfg.synchronous:
            sweeps, code, _bad = runner(
                packed.pos, packed.prev, packed.disp, packed.order,
                packed.nbr_idx, packed.nbr_off,
                cfg.step, cfg.guard, cfg.tol_balance, chunk,
            )
        else:
            sweeps, code, _bad = runner(
                packed.pos, packed.prev, packed.order,
                packed.nbr_idx, packed.nbr_off,
                cfg.step, cfg.guard, cfg.tol_balance, chunk,
            )
        done += int(sweeps)
        if code == 2:
            break
        if cfg.trace_every > 0 and done % cfg.trace_every == 0 and sweeps > 0:
            record(done)
        if code == 0:
            break

    if code == 2:
        try:
            out = net.with_positions(packed.positions_dict(packed.prev))
        except InvariantViolation:
            out = net
        status = STATUS_DEGENERATED
    else:
        out = net.with_positions(packed.positions_dict(packed.pos))
        status = STATUS_CONVERGED if code == 0 else STATUS_MAX_ITERS
    if cfg.trace_every > 0 and (not trace or trace[-1].iteration != done) and code != 2:
        record(done)
    return RelaxOutcome(out, status, done, tuple(trace))


def export_trace_frames(outcome: RelaxOutcome) -> list[EmbeddedNet]:
    """Re-embed each trace snapshot; raises NoTrace when nothing was traced."""
    if not outcome.trace:
        raise NoTrace("relaxation was run without tracing (trace_every=0)")
    topo = outcome.net.topology
    return [EmbeddedNet(topo, tp.positions) for tp in outcome.trace]
