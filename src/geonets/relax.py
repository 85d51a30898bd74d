"""Relaxation toward a balanced (geodesic) net by shortening total edge length.

With the boundary pinned, total edge length E is a convex function of the
interior positions.  Its gradient at an interior vertex v is -s(v), where
s(v) is the sum of unit vectors from v toward its neighbors, and its Hessian
sums one 2x2 block (I - u u^T) / L per edge of length L and direction u.

relax takes damped Newton (Levenberg-Marquardt) steps: it solves
(H + lam I) d = s for the move d of all interior vertices at once.  A step
is accepted when it shortens the net or, once the change in length is below
the float resolution of E, when it lowers the worst imbalance without
lengthening the net; lam then falls, while a rejected step raises it.  Near
the minimum the steps are plain Newton steps and converge quadratically: a
jittered 25-net settles in about a dozen steps.  A topology whose minimum
collapses an edge never balances; there the worst imbalance stops falling
and the run ends as stalled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoTrace
from .geom import EPS_DEG, Point, dist
from .net import COORD_BOUND, EmbeddedNet, PackedNet

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters_reached"
STATUS_DEGENERATED = "degenerated"
STATUS_STALLED = "stalled"

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


@dataclass(frozen=True)
class RelaxConfig:
    """Knobs for relax: the step budget, the balance tolerance, the shortest
    edge a step may leave, and the trace cadence (0 records no trace)."""

    max_iters: int = 1_000_000
    tol_balance: float = 1e-10
    guard: float = 1e-9
    trace_every: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (self.tol_balance > 0.0):
            raise ValueError(f"tol_balance must be positive, got {self.tol_balance}")
        if not (self.guard > 0.0):
            raise ValueError(f"guard must be positive, got {self.guard}")
        if self.trace_every < 0:
            raise ValueError(f"trace_every must be >= 0, got {self.trace_every}")


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


class _Packed(PackedNet):
    """PackedNet plus the index arrays the Newton step assembles its Hessian
    from."""

    def __init__(self, net: EmbeddedNet) -> None:
        super().__init__(net)
        sa, sb = self.sa, self.sb
        # Hessian blocks: +K on (a, a) and (b, b), -K on (a, b) and (b, a).
        both = np.flatnonzero((sa >= 0) & (sb >= 0))
        self.hess_rows = np.concatenate([self.grad_rows, sa[both], sb[both]])
        self.hess_cols = np.concatenate([self.grad_rows, sb[both], sa[both]])
        self.hess_edges = np.concatenate([self.grad_edges, both, both])
        self.hess_sign = np.concatenate([np.ones(len(self.grad_rows)), -np.ones(2 * len(both))])
        # The shortest edge between two pins; it never changes, but the
        # degeneracy threshold of EmbeddedNet grows with the bounding box.
        inner = set(self.interior)
        fixed = [dist(net.positions[a], net.positions[b])
                 for a, b in net.topology.edges if a not in inner and b not in inner]
        self.fixed_min = min(fixed, default=np.inf)

    def hessian(self, u: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Hessian of total length over the interior coordinates (x0, y0, x1, ...)."""
        k = (np.eye(2) - u[:, :, None] * u[:, None, :]) / length[:, None, None]
        n = len(self.interior)
        blocks = np.zeros((n, n, 2, 2), dtype=np.float64)
        np.add.at(blocks, (self.hess_rows, self.hess_cols),
                  self.hess_sign[:, None, None] * k[self.hess_edges])
        return blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def relax(net: EmbeddedNet, config: RelaxConfig | None = None) -> RelaxOutcome:
    """Move the interior until the worst imbalance is at most tol_balance.

    iterations counts accepted Newton steps.  A net that is already
    balanced returns converged with zero iterations, and the boundary never
    moves.  When trace_every is positive, the trace holds the state before
    the first iteration, after every trace_every-th iteration, and after the
    last one when that falls off the cadence.

    A start with an interior edge shorter than guard returns degenerated
    with zero iterations and the input net; a trial step that would shorten
    an edge below guard, to a length EmbeddedNet rejects, or a coordinate
    beyond net.COORD_BOUND, is rejected.  When the damping runs out the run
    ends at its last accepted state, as degenerated if a trial since that
    state was rejected by one of these checks and as stalled otherwise.  It
    also ends as stalled when the worst imbalance has not halved within 100
    accepted steps.
    """
    cfg = config or RelaxConfig()
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
    guard_hit = False  # a trial since the last accepted step was rejected by a check
    mark, mark_done = worst, 0  # the last halving of the worst imbalance
    while done < cfg.max_iters:
        step = np.linalg.solve(hess + lam * eye, s.reshape(-1))
        trial = pos.copy()
        trial[packed.order] += step.reshape(-1, 2)
        # also rejects a non-finite step
        tripped = not (np.abs(trial).max() <= COORD_BOUND)
        if not tripped:
            d_t, length_t = packed.edges(trial)
            extent = np.ptp(trial, axis=0)
            eps = max(EPS_DEG, EPS_DEG * math.hypot(extent[0], extent[1]))
            shortest = length_t.min()
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


def export_trace_frames(outcome: RelaxOutcome) -> list[EmbeddedNet]:
    """Re-embed each trace snapshot; raises NoTrace when nothing was traced."""
    if not outcome.trace:
        raise NoTrace("relaxation was run without tracing (trace_every=0)")
    topo = outcome.net.topology
    return [EmbeddedNet(topo, tp.positions) for tp in outcome.trace]
