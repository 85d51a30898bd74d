"""Solve the transcendental angle system behind the 25-vertex construction.

The system couples two direction angles alpha and beta through

    1 + cos(beta) + cos(alpha) + cos(13*pi/12) + cos(11*pi/6) = 0
    sin(beta) + sin(alpha) + sin(13*pi/12) + sin(11*pi/6) = 0

with alpha a reflex angle just above pi and beta in (0, pi/2).  Two unit
vectors sum to a known one, e^(i alpha) + e^(i beta) = w, so
alpha, beta = arg w +- arccos(|w|/2).  Writing f(alpha) = arccos(...) and
g(alpha) = arcsin(...) for the two branches, h = f - g has that alpha as
its one root on [pi, K], and beta = f(alpha).
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
    """Upper end of h's interval [pi, K]: where the arcsin argument reaches 1."""
    return math.pi - math.asin(-1.0 - _S3 - _S4)


def solve_angles() -> AngleSolution:
    """The unique (alpha, beta) solving the system, in closed form.

    alpha = arg w + arccos(|w|/2) (mod 2*pi) with w = -(1 + e^(i THETA_3) +
    e^(i THETA_4)), the apex angle of an isosceles triangle with legs 1 and
    base |w|.  Of that float and its two neighbours, the one with the least
    computed |h| is kept, and beta = f(alpha).
    """
    wx, wy = -1.0 - _C3 - _C4, -_S3 - _S4
    closed = (math.atan2(wy, wx) + math.acos(math.hypot(wx, wy) / 2.0)) % (2.0 * math.pi)
    alpha = min((math.nextafter(closed, 0.0), closed, math.nextafter(closed, math.inf)),
                key=lambda a: abs(f_g_h(a)[2]))
    beta = f_g_h(alpha)[0]
    residual_cos = 1.0 + math.cos(beta) + math.cos(alpha) + _C3 + _C4
    residual_sin = math.sin(beta) + math.sin(alpha) + _S3 + _S4
    return AngleSolution(
        alpha=alpha, beta=beta, K=compute_K(), residual_cos=residual_cos, residual_sin=residual_sin
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
