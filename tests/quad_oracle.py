"""Test-only numerical oracles: SciPy's adaptive quadrature and root-finding.

The package computes every quantity below in closed form; these routes reach
the same numbers by a different method, so the tests can hold one against
the other. SciPy is a test dependency only.
"""

import math

from scipy import integrate, optimize

from bctsim.analysis import (
    NU_MAX,
    THETA_DENSITY,
    WALKTHROUGH_B1,
    NuCurvePoint,
    _check_nu,
    alice_setting,
    interval_windows,
    p_opposite_equal_closed,
    two_bob_equal_given_theta,
)
from bctsim.geometry import THETA_SPAN
from bctsim.protocol import ACCEPTANCE_COEFF, NO_FLIP, CoinMode, p_equal_given_theta, segment_table
from slot_oracle import theta_breakpoints

#: absolute and relative tolerance of the reference two-Bob quadrature
REFERENCE_TOL = 1e-13


def window_integral(upper: float) -> float:
    """``(5/3pi) * int_0^upper (1 - (3pi/10) sin u) du`` by quadrature."""
    val, _ = integrate.quad(lambda u: 1.0 - (3 * math.pi / 10) * math.sin(u), 0.0, upper, epsabs=1e-13)
    return val / (3 * math.pi / 5)


def p_opposite_equal_quadrature(nu: float, tol: float = 1e-9) -> NuCurvePoint:
    """Window components by adaptive quadrature; the independent route.

    Raises ``RuntimeError`` if the integrator's error estimate exceeds
    ``tol`` (the integrands are smooth, so this should not happen).
    """
    _check_nu(nu)

    def integrand(u: float) -> float:
        return 1.0 - ACCEPTANCE_COEFF * math.sin(u)

    parts = []
    for upper in (NU_MAX - nu, nu):
        val, err = integrate.quad(integrand, 0.0, upper, epsabs=tol / 10.0)
        if err > tol:
            raise RuntimeError(f"quadrature error {err} exceeds tolerance {tol}")
        parts.append(THETA_DENSITY * val)
    p1, p2 = parts
    return NuCurvePoint(nu=nu, p1=p1, p2=p2, p_total=p1 + p2)


def two_bob_equal_reference(
    nu: float,
    strategy=NO_FLIP,
    coin_mode: CoinMode = CoinMode.INDEPENDENT,
    windows_only: bool = False,
) -> float:
    """Mean of :func:`two_bob_equal_given_theta` over the shared angle, by adaptive quadrature.

    The full range is split where a slot test flips (the per-theta value
    jumps there); ``windows_only`` integrates over the two deterministic
    windows of :func:`interval_windows` instead, which gives the window-only
    closed form.
    """
    if windows_only:
        pieces = interval_windows(nu)
    else:
        pts = [0.0, *theta_breakpoints(alice_setting(nu), WALKTHROUGH_B1, WALKTHROUGH_B1 + math.pi), THETA_SPAN]
        pieces = zip(pts[:-1], pts[1:])
    total = 0.0
    for lo, hi in pieces:
        if hi > lo:
            val, _ = integrate.quad(lambda t: two_bob_equal_given_theta(nu, t, strategy, coin_mode), lo, hi,
                                    epsabs=REFERENCE_TOL, epsrel=REFERENCE_TOL, limit=200)
            total += val
    return THETA_DENSITY * total


def pair_equal_reference(a: float, b: float, strategy=NO_FLIP) -> float:
    """Mean of :func:`p_equal_given_theta` over the shared angle, by adaptive quadrature between the table's edges.

    The integrand is smooth between consecutive edges of
    ``segment_table(a, (b,), strategy)``, where no slot test flips.
    """
    pts = [0.0, *segment_table(a, (b,), strategy).edges.tolist(), THETA_SPAN]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(lambda t: p_equal_given_theta(a, b, t, strategy), lo, hi,
                                epsabs=REFERENCE_TOL, epsrel=REFERENCE_TOL, limit=200)
        total += val
    return THETA_DENSITY * total


def visibility_threshold_by_rootfind(nu: float) -> float:
    """Iterative cross-check of :func:`bctsim.analysis.visibility_threshold` via bracketing."""
    point = p_opposite_equal_closed(nu)
    return float(optimize.brentq(lambda v: v * point.p_total - (1.0 - v) / 3.0, 0.0, 1.0, xtol=1e-15))
