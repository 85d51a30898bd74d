"""Angle system solve: endpoint values, the root itself, and derived lengths.

The fixed decimals below were computed with a 50-digit arbitrary-precision
solve of the same system and rounded to double precision.
"""

from __future__ import annotations

import math

import pytest

from geonets import (
    AngleSolution,
    DomainError,
    SingularDenominator,
    boundary_leg,
    compute_K,
    f_g_h,
    params_from_solution,
    side_long,
    solve_angles,
)
from geonets.angles import _C3, _C4, _S3, _S4

# high-precision reference values for the solved system
ALPHA_REF = 3.3825752658554677
BETA_REF = 1.4997321692562826
K_REF = 3.385175197888959
SIDE_LONG_REF = 0.7533349857726257
BOUNDARY_LEG_REF = 5.304850271847415
H_AT_PI = 0.6092310126
H_AT_K = -0.0704388197


def test_h_at_interval_ends():
    assert f_g_h(math.pi)[2] == pytest.approx(H_AT_PI, abs=1e-9)
    assert f_g_h(compute_K())[2] == pytest.approx(H_AT_K, abs=1e-9)


def test_h_changes_sign_once():
    k = compute_K()
    grid = [math.pi + t * (k - math.pi) / 64.0 for t in range(65)]
    values = [f_g_h(a)[2] for a in grid]
    flips = sum(
        1 for v0, v1 in zip(values, values[1:]) if math.copysign(1.0, v0) != math.copysign(1.0, v1)
    )
    assert flips == 1


def test_h_strictly_decreasing_on_interval():
    k = compute_K()
    grid = [math.pi + t * (k - math.pi) / 32.0 for t in range(33)]
    values = [f_g_h(a)[2] for a in grid]
    assert all(v0 > v1 for v0, v1 in zip(values, values[1:]))


def test_f_g_h_domain_error_outside_interval():
    with pytest.raises(DomainError):
        f_g_h(1.0)  # far below pi, the arccos argument drops under -1
    with pytest.raises(DomainError):
        f_g_h(compute_K() + 0.01)


def test_solution_matches_reference():
    sol = solve_angles()
    assert sol.alpha == pytest.approx(ALPHA_REF, abs=1e-13)
    assert sol.beta == pytest.approx(BETA_REF, abs=1e-13)
    assert sol.K == pytest.approx(K_REF, abs=1e-15)


def test_solution_residuals_and_ranges():
    sol = solve_angles()
    assert abs(sol.residual_cos) < 1e-12
    assert abs(sol.residual_sin) < 1e-12
    assert math.pi < sol.alpha < 13.0 * math.pi / 12.0
    assert 0.0 < sol.beta < math.pi / 2.0
    assert sol.beta == pytest.approx(f_g_h(sol.alpha)[0], abs=1e-15)


def test_solution_beta_consistent_with_both_branches():
    sol = solve_angles()
    f, g, h = f_g_h(sol.alpha)
    assert abs(h) < 1e-13
    assert g == pytest.approx(sol.beta, abs=1e-12)


@pytest.mark.parametrize("tol", [1e-14, 1e-12, 1e-10, 1e-6, 1e-3])
def test_solve_returns_the_same_root_to_the_bit(tol):
    # the closed form, and the bisection it replaced at every tolerance that
    # bisection once took, land on the same pinned floats
    for sol in (solve_angles(), _reference_solve_angles(tol_root=tol)):
        assert sol.alpha.hex() == "0x1.b0f839ef8dca5p+1"
        assert sol.beta.hex() == "0x1.7fee728bb701cp+0"
        # no neighbouring float has a smaller |h|
        h = abs(f_g_h(sol.alpha)[2])
        assert h < abs(f_g_h(math.nextafter(sol.alpha, 0.0))[2])
        assert h < abs(f_g_h(math.nextafter(sol.alpha, 4.0))[2])


def _reference_solve_angles(tol_root: float = 1e-14) -> AngleSolution:
    """The bisection solve_angles ran before the closed form, kept verbatim."""
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


@pytest.mark.parametrize("tol", [1e-14, 1e-12, 1e-10, 1e-6, 1e-3])
def test_closed_form_equals_the_reference_bisection_field_by_field(tol):
    sol, ref = solve_angles(), _reference_solve_angles(tol_root=tol)
    for name in AngleSolution.__dataclass_fields__:
        assert getattr(sol, name).hex() == getattr(ref, name).hex(), name
    assert math.pi < sol.alpha < sol.K


def test_solve_with_loose_tolerance_still_close():
    sol = solve_angles()
    assert sol.alpha == pytest.approx(ALPHA_REF, abs=1e-9)


def test_side_long_reference_value(sol):
    value = side_long(sol.alpha, sol.beta)
    assert value == pytest.approx(SIDE_LONG_REF, abs=1e-13)
    assert value == pytest.approx(0.7533, abs=5e-4)


def test_side_long_singular_denominator():
    # tan(alpha) * tan(beta) = 1 exactly at alpha = beta = pi/4
    with pytest.raises(SingularDenominator):
        side_long(math.pi / 4.0, math.pi / 4.0)


def test_boundary_leg_reference_value(sol):
    value = boundary_leg(side_long(sol.alpha, sol.beta), sol.beta)
    assert value == pytest.approx(BOUNDARY_LEG_REF, abs=1e-12)


def test_boundary_leg_right_triangle_identity():
    # base angle 60 degrees over a unit side: leg = (1/2) / cos(pi/3) = 1
    assert boundary_leg(1.0, math.pi / 3.0) == pytest.approx(1.0)


def test_boundary_leg_domain():
    with pytest.raises(DomainError):
        boundary_leg(1.0, 0.0)
    with pytest.raises(DomainError):
        boundary_leg(1.0, math.pi / 2.0)


def test_params_from_solution(sol):
    params = params_from_solution(sol)
    assert params.side_short == 1.0
    assert params.side_long == pytest.approx(SIDE_LONG_REF, abs=1e-13)
    assert params.boundary_leg == pytest.approx(BOUNDARY_LEG_REF, abs=1e-12)
    assert params.alpha == sol.alpha
    assert params.beta == sol.beta


def test_solve_is_deterministic():
    a = solve_angles()
    b = solve_angles()
    assert a.alpha == b.alpha
    assert a.beta == b.beta
