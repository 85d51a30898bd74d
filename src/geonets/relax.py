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

from dataclasses import dataclass, field

import numpy as np

from .errors import NoTrace
from .geom import Point
from .net import EmbeddedNet, PackedNet

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
# The shortest edge a step may leave, also where EmbeddedNet's threshold is lower.
GUARD = 1e-9


@dataclass(frozen=True)
class RelaxConfig:
    """Knobs for relax: the step budget, the balance tolerance, and the
    trace cadence (0 records no trace)."""

    max_iters: int = 1_000_000
    tol_balance: float = 1e-10
    trace_every: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (self.tol_balance > 0.0):
            raise ValueError(f"tol_balance must be positive, got {self.tol_balance}")
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


def relax(net: EmbeddedNet, config: RelaxConfig | None = None) -> RelaxOutcome:
    """Move the interior until the worst imbalance is at most tol_balance.

    iterations counts accepted Newton steps.  A net that is already
    balanced returns converged with zero iterations, and the boundary never
    moves.  When trace_every is positive, the trace holds the state before
    the first iteration, after every trace_every-th iteration, and after the
    last one when that falls off the cadence.

    A start with an interior edge shorter than GUARD (1e-9) returns
    degenerated with zero iterations and the input net; a trial step that
    would shorten an edge below GUARD, or whose coordinates EmbeddedNet
    would reject (PackedNet.checked_edges), is rejected.  When the damping
    runs out the run ends at its last accepted state, as degenerated if a
    trial since that state was rejected by one of these checks and as
    stalled otherwise.  It also ends as stalled when the worst imbalance has
    not halved within 100 accepted steps.
    """
    cfg = config or RelaxConfig()
    packed = PackedNet(net)
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
    if length.min(initial=np.inf) < GUARD:
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
        edges_t = packed.checked_edges(trial, GUARD)
        tripped = edges_t is None
        if not tripped:
            d_t, length_t = edges_t
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
