"""Solve the transcendental angle system behind the 25-vertex construction.

The system couples two direction angles alpha and beta through

    1 + cos(beta) + cos(alpha) + cos(13*pi/12) + cos(11*pi/6) = 0
    sin(beta) + sin(alpha) + sin(13*pi/12) + sin(11*pi/6) = 0

with alpha a reflex angle just above pi and beta in (0, pi/2).  Writing
f(alpha) = arccos(...) and g(alpha) = arcsin(...) for the two branches,
the root of h = f - g on [pi, K] pins alpha, and beta = f(alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularDenominator

# the two fixed direction angles of the system, computed from pi at runtime
# so the residual definitions stay exact to machine precision
THETA_3 = 13.0 * math.pi / 12.0
THETA_4 = 11.0 * math.pi / 6.0

_C3, _S3 = math.cos(THETA_3), math.sin(THETA_3)
_C4, _S4 = math.cos(THETA_4), math.sin(THETA_4)

# slack allowed on inverse-trig arguments before raising DomainError
_ARG_SLACK = 1e-12


@dataclass(frozen=True)
class AngleSolution:
    alpha: float
    beta: float
    K: float
    residual_cos: float
    residual_sin: float


@dataclass(frozen=True)
class ConstructionParams:
    alpha: float
    beta: float
    side_short: float
    side_long: float
    boundary_leg: float


def _clip_arg(x: float, what: str) -> float:
    if abs(x) > 1.0 + _ARG_SLACK:
        raise DomainError(f"{what} argument {x!r} outside [-1, 1]")
    return max(-1.0, min(1.0, x))


def _arccos_arg(alpha: float) -> float:
    return -1.0 - math.cos(alpha) - _C3 - _C4


def _arcsin_arg(alpha: float) -> float:
    return -math.sin(alpha) - _S3 - _S4


def f_g_h(alpha: float) -> tuple[float, float, float]:
    """Evaluate the two inverse-trig branches and their difference h.

    Defined on [pi, K]; far enough outside that interval an inverse-trig
    argument leaves [-1, 1] and DomainError is raised.
    """
    f = math.acos(_clip_arg(_arccos_arg(alpha), "arccos"))
    g = math.asin(_clip_arg(_arcsin_arg(alpha), "arcsin"))
    return f, g, f - g


def compute_K() -> float:
    """Upper end of the solve interval: where the arcsin argument reaches 1."""
    return math.pi - math.asin(-1.0 - _S3 - _S4)


def solve_angles(tol_root: float = 1e-14) -> AngleSolution:
    """Find the unique (alpha, beta) solving the system.

    Bisects h over [pi, K] until no float lies between the bracket ends and
    takes the end with the smaller |h|.  tol_root is the widest final
    bracket accepted; the bracket ends one ulp wide, so every admitted
    tol_root is met and gives the same root.
    """
    if not tol_root >= 1e-14:  # also NaN, which no bracket would meet
        raise DomainError("tol_root below 1e-14 is not resolvable in double precision")
    k = compute_K()
    lo, hi = math.pi, k
    h_lo = f_g_h(lo)[2]
    h_hi = f_g_h(hi)[2]
    sign_lo = math.copysign(1.0, h_lo)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        h_mid = f_g_h(mid)[2]
        if math.copysign(1.0, h_mid) == sign_lo:
            lo, h_lo = mid, h_mid
        else:
            hi, h_hi = mid, h_mid
        mid = 0.5 * (lo + hi)
    alpha = lo if abs(h_lo) <= abs(h_hi) else hi

    beta = f_g_h(alpha)[0]
    residual_cos = 1.0 + math.cos(beta) + math.cos(alpha) + _C3 + _C4
    residual_sin = math.sin(beta) + math.sin(alpha) + _S3 + _S4
    return AngleSolution(
        alpha=alpha, beta=beta, K=k, residual_cos=residual_cos, residual_sin=residual_sin
    )


def side_long(alpha: float, beta: float) -> float:
    """Length of the long dodecagon side from the solved pair."""
    den = math.tan(alpha) * math.tan(beta) - 1.0
    if abs(den) < 1e-9:
        raise SingularDenominator(f"tan(alpha)*tan(beta) - 1 = {den:.3e}")
    return math.sqrt(6.0) * (1.0 - math.tan(alpha)) / den


def boundary_leg(side_long_value: float, beta: float) -> float:
    """Leg length of the isosceles boundary triangle over a long side.

    The apex sits where both base angles equal beta, so each leg spans
    (side/2) / cos(beta).
    """
    if not 0.0 < beta < math.pi / 2.0:
        raise DomainError(f"beta {beta!r} outside (0, pi/2)")
    return (side_long_value / 2.0) / math.cos(beta)


def params_from_solution(sol: AngleSolution) -> ConstructionParams:
    long_side = side_long(sol.alpha, sol.beta)
    return ConstructionParams(
        alpha=sol.alpha,
        beta=sol.beta,
        side_short=1.0,
        side_long=long_side,
        boundary_leg=boundary_leg(long_side, sol.beta),
    )
