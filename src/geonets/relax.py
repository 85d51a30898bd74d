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
collapses an edge never balances: the run ends as stalled or, as on ring 4,
ring 16 and two interior vertices joined to the same three pins, degenerated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoTrace
from .geom import Point
from .net import EmbeddedNet, _lengths

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
# The most interior vertices relax takes.  Each step solves a dense 2n x 2n
# system: 32 MB at this limit, 3.2 GB at 10,000 interior vertices.
MAX_INTERIOR = 1024
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class RelaxConfig:
    """Knobs for relax: the step budget, the balance tolerance, and the trace
    cadence (0 records no trace).  Both counts are integers of at least 0."""

    max_iters: int = 1_000_000
    tol_balance: float = 1e-10
    trace_every: int = 0

    def __post_init__(self) -> None:
        for name in ("max_iters", "trace_every"):
            value = getattr(self, name)
            try:  # an int, or an integer type such as np.int64; not 1.5, nan or "3"
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not (self.tol_balance > 0.0):
            raise ValueError(f"tol_balance must be positive, got {self.tol_balance}")


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
    """Move the interior until the worst imbalance is at most tol_balance,
    in total_report's norms: a converged net passes verify_geodesic_net there.

    iterations counts accepted Newton steps.  A net that is already
    balanced returns converged with zero iterations, and the boundary never
    moves.  When trace_every is positive, the trace holds the state before
    the first iteration, after every trace_every-th iteration, and after the
    last one when that falls off the cadence.

    A start with an interior edge shorter than GUARD (1e-9) returns
    degenerated with zero iterations and the input net; a trial step that
    would shorten an edge below GUARD, or whose coordinates EmbeddedNet
    would reject (TopologyLayout.checked_edges), is rejected.  When the damping
    runs out the run ends at its last accepted state, as degenerated if a
    trial since that state was rejected by one of these checks and as
    stalled otherwise.  It also ends as stalled when the worst imbalance has
    not halved within 100 accepted steps.

    A net with more than MAX_INTERIOR (1024) interior vertices raises
    DomainError before anything is computed.
    """
    cfg = config or RelaxConfig()
    if len(net.topology.interior_ids) > MAX_INTERIOR:
        raise DomainError(f"relax takes at most {MAX_INTERIOR} interior vertices, "
                          f"got {len(net.topology.interior_ids)}")
    layout = net.topology.layout
    pos = net.xy
    d, length = layout.edges(pos)
    u = d / length[:, None]
    s = layout.imbalance(u)
    norms = _lengths(s)  # the norms of total_report, so its verdict and relax's agree
    worst = norms.max(initial=0.0)

    trace: list[TracePoint] = []

    def record(iteration: int) -> None:
        trace.append(TracePoint(iteration, math.fsum(norms.tolist()), float(worst),
                                layout.positions_dict(pos)))

    if cfg.trace_every > 0:
        record(0)
    if worst <= cfg.tol_balance:
        return RelaxOutcome(net, STATUS_CONVERGED, 0, tuple(trace))
    if length.min(initial=np.inf) < GUARD:
        return RelaxOutcome(net, STATUS_DEGENERATED, 0, tuple(trace))

    fixed_min = layout.fixed_min(pos)  # the boundary does not move
    energy = length.sum()
    hess = layout.hessian(u, length)
    # H + lam I is formed on a view of the diagonal; H has no -0.0 entry, so
    # that equals hess + lam * eye bit for bit.  Below resolution a change in
    # total length is float noise.
    diagonal = hess.reshape(-1)[::len(hess) + 1]
    diag, resolution = diagonal.copy(), len(length) * _EPS * energy
    scale = float(diagonal.sum() / len(diagonal))  # the mean, summed and divided as np.mean does
    lam = _LAM_START * scale
    done = 0
    status = STATUS_MAX_ITERS
    guard_hit = False  # a trial since the last accepted step was rejected by a check
    mark, mark_done = worst, 0  # the last halving of the worst imbalance
    while done < cfg.max_iters:
        np.add(diag, lam, out=diagonal)
        trial = layout.moved(pos, np.linalg.solve(hess, s.reshape(-1)))
        edges_t = layout.checked_edges(trial, GUARD, fixed_min)
        accepted = False
        if edges_t is not None:
            d_t, length_t = edges_t
            energy_t = length_t.sum()
            # within resolution the worst imbalance decides; only there and
            # on a shorter net is it computed
            if energy_t < energy or energy_t - energy <= resolution:
                u_t = d_t / length_t[:, None]
                s_t = layout.imbalance(u_t)
                norms_t = _lengths(s_t)
                accepted = energy_t < energy or norms_t.max() < worst
        if not accepted:
            guard_hit = guard_hit or edges_t is None
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
        hess = layout.hessian(u, length)
        diagonal = hess.reshape(-1)[::len(hess) + 1]
        diag, resolution = diagonal.copy(), len(length) * _EPS * energy

    if cfg.trace_every > 0 and trace[-1].iteration != done:
        record(done)
    out = net.with_positions(layout.positions_dict(pos)) if done else net
    return RelaxOutcome(out, status, done, tuple(trace))


def export_trace_frames(outcome: RelaxOutcome) -> list[EmbeddedNet]:
    """Re-embed each trace snapshot; raises NoTrace when nothing was traced."""
    if not outcome.trace:
        raise NoTrace("relaxation was run without tracing (trace_every=0)")
    topo = outcome.net.topology
    return [EmbeddedNet(topo, tp.positions) for tp in outcome.trace]
