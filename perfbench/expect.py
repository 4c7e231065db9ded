"""Exact expectations for every operation the workloads check.

Each Monte Carlo row, scalar round and oracle value is compared with a value
reached by a route other than the one that produced it:

* ``cos^2`` of half the separation for the exact reading (cyclic distance,
  continue), computed here with ``math`` rather than through ``bctsim.qm``;
* for every other reading, the theta-average of ``p_equal_given_theta``,
  integrated here by Gauss-Legendre on the pieces between slot breakpoints
  (the integrand is smooth on each piece, so 24 nodes are exact to rounding);
* ``two_bob_equal_quadrature`` (scipy's adaptive quadrature) for
  unconditioned two-Bob rows, and ``two_bob_equal_given_theta`` for
  conditioned ones;
* the table's own analytic columns for ``audit`` and ``visibility``.

None of this runs inside a timed interval.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from bctsim import analysis, protocol
from bctsim.geometry import BETA_OFFSETS, GAMMA_OFFSETS, THETA_SPAN, TWO_PI

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

#: a Monte Carlo estimate may sit this many standard errors from its expectation
SIGMAS = 6.0
#: slack for the six significant digits the tables are rendered with
RENDER_SLACK = 1e-5
#: scalar and vector routes must agree to rounding
ROUTE_TOL = 1e-12
#: adaptive quadrature against the piecewise Gauss-Legendre route
ORACLE_TOL = 1e-9


def theta_breakpoints(*angles: float) -> list[float]:
    """Shared angles in ``[0, 3*pi/5]`` where a slot test on any of ``angles`` changes.

    A slot boundary sits on ``x`` when ``theta = x - offset`` for one of the
    six beta/gamma offsets; reflected axes ``x + pi`` are covered because the
    gamma offsets are the beta offsets plus ``pi``.
    """
    pts = {0.0, THETA_SPAN}
    for x in angles:
        for offset in BETA_OFFSETS + GAMMA_OFFSETS:
            t = (x - offset) % TWO_PI
            if 0.0 < t < THETA_SPAN:
                pts.add(t)
    return sorted(pts)


def integrate_pieces(f, pts) -> float:
    """Integral of the vectorised ``f`` over ``[pts[0], pts[-1]]``, smooth between points."""
    pts = np.asarray(pts, dtype=float)
    lo, hi = pts[:-1], pts[1:]
    half = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return float(np.dot(weights, f(nodes)))


def theta_average(f, *angles: float) -> float:
    """Mean of ``f(theta)`` over the shared angle's range ``[0, 3*pi/5)``."""
    return integrate_pieces(f, theta_breakpoints(*angles)) / THETA_SPAN


def is_exact_reading(strategy: protocol.Strategy) -> bool:
    return strategy == protocol.CYCLIC_FLIP


def cos2_law(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return math.cos(min(d, TWO_PI - d) / 2.0) ** 2


def pair_equal(a: float, b: float, strategy: protocol.Strategy) -> float:
    """Exact P(outputs equal) for one setting pair, averaged over the shared angle."""
    if is_exact_reading(strategy):
        return cos2_law(a, b)
    return theta_average(lambda t: protocol.p_equal_given_theta(a, b, t, strategy), a, b)


def _accept_gap(nu: float, theta, strategy):
    """q1 - q2: the two Bobs' acceptance probabilities in the walkthrough frame."""
    alpha, beta, gamma = protocol.alice_slot_arrays(analysis.alice_setting(nu), theta)
    b1 = analysis.WALKTHROUGH_B1
    q1 = protocol.evaluate_bob(alpha, beta, gamma, b1, theta, strategy).accept_prob
    q2 = protocol.evaluate_bob(alpha, beta, gamma, b1 + math.pi, theta, strategy).accept_prob
    return q1 - q2


def _gap_roots(nu: float, strategy, pts) -> list[float]:
    """Where ``q1 == q2`` inside a piece: the shared coin's ``|q1 - q2|`` has a kink there."""
    roots = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        x = lo + (hi - lo) * np.linspace(1e-9, 1.0 - 1e-9, 129)
        d = _accept_gap(nu, x, strategy)
        roots.extend(x[d == 0.0])
        for i in np.nonzero(d[:-1] * d[1:] < 0.0)[0]:
            roots.append(optimize.brentq(lambda t: float(_accept_gap(nu, t, strategy)),
                                         x[i], x[i + 1], xtol=1e-15))
    return roots


def two_bob_equal(nu: float, strategy, coin_mode) -> float:
    """Full-range two-Bob equal-output rate by piecewise Gauss-Legendre."""
    pts = theta_breakpoints(analysis.alice_setting(nu), analysis.WALKTHROUGH_B1)
    if coin_mode is protocol.CoinMode.SHARED:
        pts = sorted(pts + _gap_roots(nu, strategy, pts))
    f = lambda t: analysis.two_bob_equal_given_theta(nu, t, strategy, coin_mode)  # noqa: E731
    return integrate_pieces(f, pts) / THETA_SPAN


def two_bob_window_equal(nu: float) -> float:
    """The window-restricted two-Bob rate: what the closed form integrates."""
    a = analysis.alice_setting(nu)
    (w1_lo, w1_hi), (w2_lo, w2_hi) = analysis.interval_windows(nu)
    total = 0.0
    for lo, hi in ((w1_lo, w1_hi), (w2_lo, w2_hi)):
        if hi > lo:
            pts = [lo] + [t for t in theta_breakpoints(a, 0.0) if lo < t < hi] + [hi]
            total += integrate_pieces(lambda t: analysis.two_bob_equal_given_theta(nu, t), pts)
    return total / THETA_SPAN


def within_sampling(estimate: float, p: float, n: int) -> bool:
    """Whether a rendered Monte Carlo estimate is consistent with probability ``p``."""
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return abs(estimate - p) <= SIGMAS * se + RENDER_SLACK


def scalar_p_equal(record: protocol.TrialRecord) -> float:
    """P(Bob's output equals the shared sign) as the scalar round evaluated it."""
    return 1.0 - record.accept_prob if record.negated else record.accept_prob
