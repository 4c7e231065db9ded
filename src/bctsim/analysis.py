"""Closed-form results for the two-Bob experiment, each with an independent check.

The two-Bob experiment fixes the frame ``alpha_0 = b1 = 0``, ``b2 = pi`` and
places Alice's setting at ``a = 2*pi/5 + nu`` with ``nu`` in ``[0, pi/5]``.
Two windows of the shared angle make one of the two Bob evaluations
deterministic while the other rolls the acceptance coin; integrating the
acceptance probability over each window gives the two components

    P1(nu) = (5/(3*pi)) * [pi/5 - nu - (3*pi/10)*(1 - cos(pi/5 - nu))]
    P2(nu) = (5/(3*pi)) * [nu - (3*pi/10)*(1 - cos(nu))]

whose sum collapses to ``-2/3 + (cos(nu) + cos(pi/5 - nu))/2``. The components
are primary here; the compact form is asserted as their sum so a transcription
slip in either is caught.

The module also hosts the per-theta conservation-law audit (the probability of
equal outcomes along ``b`` must match the probability of opposite outcomes
along ``b + pi`` for every shared angle, not just on average) and the
visibility arithmetic for imperfect experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import THETA_SPAN, alpha_slot_of, normalize_angle
from .protocol import (
    ACCEPTANCE_COEFF,
    NO_FLIP,
    CoinMode,
    ProtocolError,
    SegmentTable,
    Strategy,
    _alice_slots,
    _bob_axis,
    _evaluate_axis,
    _record,
    _theta_arg,
    segment_table,
)

__all__ = [
    "NU_MAX",
    "THETA_DENSITY",
    "WALKTHROUGH_B1",
    "AUDIT_TOL",
    "REPORTED_CURVE_MINIMUM",
    "DISCREPANCY_TOL",
    "NuCurvePoint",
    "ExtremaResult",
    "ConsistencyRow",
    "VisibilityReport",
    "MinimumDiscrepancy",
    "alice_setting",
    "interval_windows",
    "p_equal_interval",
    "p_opposite_equal_closed",
    "p_opposite_equal_compact",
    "find_extrema_of_nu_curve",
    "two_bob_equal_given_theta",
    "two_bob_equal_quadrature",
    "per_theta_consistency_audit",
    "visibility_report",
    "visibility_threshold",
    "curve_minimum_discrepancy",
]

#: Alice's setting ranges over one alpha slot above 2*pi/5
NU_MAX = math.pi / 5.0
#: density of the shared angle on [0, 3*pi/5)
THETA_DENSITY = 1.0 / THETA_SPAN
#: frame convention of the two-Bob experiment
WALKTHROUGH_B1 = 0.0
#: the two Bob axes of the frame, b1 and b1 + pi
_FRAME_AXES = (WALKTHROUGH_B1, WALKTHROUGH_B1 + math.pi)
#: tolerance of the per-theta conservation-law check
AUDIT_TOL = 1e-9
#: previously reported curve minimum at the endpoints; the formulas above give
#: ~0.2378 there. Kept as a comparison record, never asserted as truth.
REPORTED_CURVE_MINIMUM = 0.071
#: largest gap at which the formula would agree with the reported minimum
DISCREPANCY_TOL = 1e-3


def _check_nu(nu: float) -> float:
    if not (0.0 <= nu <= NU_MAX):
        raise ValueError(f"nu must lie in [0, pi/5], got {nu!r}")
    return nu


def alice_setting(nu: float) -> float:
    """Alice's angle in the two-Bob frame: ``2*pi/5 + nu``."""
    _check_nu(nu)
    return 2.0 * math.pi / 5.0 + nu


def interval_windows(nu: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two shared-angle windows where exactly one Bob is deterministic.

    Window one is ``[pi/5 + nu, 2*pi/5]`` (the ``b1`` evaluation is certain),
    window two is ``[2*pi/5, 2*pi/5 + nu]`` (the ``b2`` evaluation is).
    """
    _check_nu(nu)
    lo = math.pi / 5.0 + nu
    mid = 2.0 * math.pi / 5.0
    return (lo, mid), (mid, mid + nu)


def _window_integral(upper: float) -> float:
    # closed form of the acceptance integral over one window:
    # int_0^upper (1 - (3*pi/10) sin u) du
    return upper - ACCEPTANCE_COEFF * (1.0 - math.cos(upper))


def p_equal_interval() -> float:
    """Equal-output probability contributed by either deterministic window.

    Both windows give the same value (~0.14219) at the orthogonal setting
    ``nu = pi/10``.
    """
    return THETA_DENSITY * _window_integral(math.pi / 10.0)


@dataclass(frozen=True)
class NuCurvePoint:
    """Equal-output probability at offset ``nu``, split into its two windows."""

    nu: float
    p1: float
    p2: float
    p_total: float


def p_opposite_equal_closed(nu: float) -> NuCurvePoint:
    """Closed-form window components of the equal-output probability."""
    _check_nu(nu)
    p1 = THETA_DENSITY * _window_integral(NU_MAX - nu)
    p2 = THETA_DENSITY * _window_integral(nu)
    return NuCurvePoint(nu=nu, p1=p1, p2=p2, p_total=p1 + p2)


def p_opposite_equal_compact(nu: float) -> float:
    """Algebraically collapsed total, ``-2/3 + (cos(nu) + cos(pi/5 - nu))/2``.

    Equal to ``p_opposite_equal_closed(nu).p_total``; kept separate so the
    identity is a checkable assertion rather than a single code path.
    """
    _check_nu(nu)
    return -2.0 / 3.0 + 0.5 * (math.cos(nu) + math.cos(NU_MAX - nu))


@dataclass(frozen=True)
class ExtremaResult:
    nu_max: float
    p_max: float
    nu_min_candidates: tuple[float, ...]
    p_min: float


def find_extrema_of_nu_curve() -> ExtremaResult:
    """Extrema of the total over ``[0, pi/5]``, from its derivative.

    The derivative of the compact form, ``(sin(pi/5 - nu) - sin(nu))/2``, is
    positive below ``nu = pi/10`` and negative above it: the maximum sits at
    ``pi/10`` and the minima at both endpoints.
    """
    nu_max = NU_MAX / 2.0
    ends = (0.0, NU_MAX)
    return ExtremaResult(
        nu_max=nu_max,
        p_max=p_opposite_equal_closed(nu_max).p_total,
        nu_min_candidates=ends,
        p_min=min(p_opposite_equal_closed(v).p_total for v in ends),
    )


def two_bob_equal_given_theta(
    nu: float,
    theta,
    strategy: Strategy = NO_FLIP,
    coin_mode: CoinMode = CoinMode.INDEPENDENT,
):
    """Analytic P(both Bob outputs equal | theta) in the two-Bob frame.

    With independent coins the two acceptance events are independent; with a
    shared coin they are maximally coupled and the probability reduces to
    ``1 - |q1 - q2|`` (same negation parity) or ``|q1 - q2|`` (opposite).
    ``theta`` must lie in [0, 3*pi/5), else ``ProtocolError``. Each frame
    axis is resolved once, and Alice's slot array is computed only in the
    systems its live axes use; her slot in another system is never read, so
    :func:`~bctsim.protocol._evaluate_axis` takes ``None`` for it.
    """
    theta, vector = _theta_arg(theta)
    a = alice_setting(nu)
    alpha = int(alpha_slot_of(a))
    axes = [_bob_axis(alpha, normalize_angle(b), strategy) for b in _FRAME_AXES]
    slots = _alice_slots(a, theta, {system for _, _, system in axes})
    ev1, ev2 = (_evaluate_axis(axis, *slots, theta) for axis in axes)
    q1, q2 = ev1.accept_prob, ev2.accept_prob
    same_parity = ev1.negate == ev2.negate
    if CoinMode(coin_mode) is CoinMode.INDEPENDENT:
        agree = q1 * q2 + (1.0 - q1) * (1.0 - q2)
        out = agree if same_parity else 1.0 - agree
    else:
        coupled = 1.0 - np.abs(q1 - q2)
        out = coupled if same_parity else 1.0 - coupled
    return out if vector else float(out)


def two_bob_equal_quadrature(
    nu: float,
    strategy: Strategy = NO_FLIP,
    coin_mode: CoinMode = CoinMode.INDEPENDENT,
) -> float:
    """Expected equal-output rate over the full shared-angle range, exactly.

    This is the quantity a Monte Carlo sweep actually estimates; it exceeds
    the window-only closed form whenever both axes roll coins at the same
    theta. It is :meth:`~bctsim.protocol.SegmentTable.expectation` of the
    frame's table, the one the sampler looks trials up in, exact to rounding.
    """
    return _frame_table(nu, strategy).expectation(coin_mode)


def _frame_table(nu: float, strategy: Strategy = NO_FLIP) -> SegmentTable:
    """The segment table of the two-Bob frame at ``nu``: Alice at :func:`alice_setting`, Bob on b1 and b1 + pi."""
    return segment_table(alice_setting(nu), _FRAME_AXES, strategy)


@_record
@dataclass(frozen=True)
class ConsistencyRow:
    """Per-theta audit of the axis-reversal conservation law.

    The law demands ``p_same_forward == p_anti_reversed``. Both conditional
    probabilities are computed from the branch logic, no sampling involved.
    """

    theta: float
    p_same_forward: float  # P(outputs equal | a, b, theta)
    p_same_reversed: float  # P(outputs equal | a, b + pi, theta)
    p_anti_reversed: float  # P(outputs opposite | a, b + pi, theta)
    violation: bool


def per_theta_consistency_audit(
    a: float,
    b: float,
    thetas: Iterable[float],
    strategy: Strategy = NO_FLIP,
) -> list[ConsistencyRow]:
    """Evaluate the conservation law on a grid of shared angles; ``ProtocolError`` outside [0, 3*pi/5).

    An ndarray grid is read as it is, a 0-d one as one theta; any other iterable is listed first; more than one dimension raises.
    Both axes are read through one table, ``segment_table(a, (b, b + pi), strategy)``: each axis's acceptance over
    the grid (:meth:`~bctsim.protocol.SegmentTable.accept`, 1 on a constant axis), negated where its ``negate`` is
    set, is P(output equals c).
    A row thus equals :func:`~bctsim.protocol.p_equal_given_theta` on ``b`` and ``b + pi`` bit for bit.
    """
    grid = np.atleast_1d(np.asarray(thetas if isinstance(thetas, np.ndarray) else list(thetas), dtype=float))
    if grid.ndim > 1:
        raise ProtocolError(f"a theta grid must have at most one dimension, got shape {grid.shape}")
    grid, _ = _theta_arg(grid)
    table = segment_table(a, (b, b + math.pi), strategy)
    fwd, rev = (1.0 - q if negate else q for q, negate in zip(table.accept(grid), table.negate))
    anti = 1.0 - rev
    violation = np.abs(fwd - anti) > AUDIT_TOL
    return list(map(ConsistencyRow, grid.tolist(), fwd.tolist(), rev.tolist(), anti.tolist(), violation.tolist()))


@dataclass(frozen=True)
class VisibilityReport:
    """Detection probabilities under a multiplicative visibility factor."""

    visibility: float
    nu: float
    p_effective: float  # both sides degraded independently: V^2 * total
    p_peff1: float  # window-one overlap after discarding unreliable outputs
    p_peff2: float  # window-two overlap
    p_peff_total: float  # max(0, combined overlap)
    v_threshold: float  # visibility at which the combined overlap vanishes


def visibility_report(visibility: float, nu: float) -> VisibilityReport:
    """Full visibility arithmetic at one ``(V, nu)`` point."""
    if not (0.0 <= visibility <= 1.0):
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    point = p_opposite_equal_closed(nu)
    v = visibility
    p_eff = v * v * point.p_total
    w1 = (NU_MAX - nu) / THETA_SPAN
    w2 = nu / THETA_SPAN
    p_peff1 = v * point.p1 - w1 * (1.0 - v)
    p_peff2 = v * point.p2 - w2 * (1.0 - v)
    combined = v * point.p_total - (1.0 - v) / 3.0  # w1 + w2 == 1/3 for every nu
    return VisibilityReport(
        visibility=v,
        nu=nu,
        p_effective=p_eff,
        p_peff1=p_peff1,
        p_peff2=p_peff2,
        p_peff_total=max(0.0, combined),
        v_threshold=visibility_threshold(nu),
    )


def visibility_threshold(nu: float) -> float:
    """Visibility at which the combined overlap vanishes, in closed form.

    Root of ``V * p_total(nu) - (1 - V)/3`` in ``V``, i.e.
    ``(1/3) / (p_total(nu) + 1/3)``; about 0.5396 at ``nu = pi/10``.
    """
    point = p_opposite_equal_closed(nu)
    return (1.0 / 3.0) / (point.p_total + 1.0 / 3.0)


@dataclass(frozen=True)
class MinimumDiscrepancy:
    """Comparison of the reported endpoint minimum against the formula value."""

    nu: float
    formula_value: float
    reported_value: float
    gap: float
    agrees: bool


def curve_minimum_discrepancy() -> MinimumDiscrepancy:
    """The endpoint-value discrepancy record (formula ~0.2378 vs reported 0.071)."""
    formula = p_opposite_equal_closed(0.0).p_total
    gap = abs(formula - REPORTED_CURVE_MINIMUM)
    return MinimumDiscrepancy(
        nu=0.0,
        formula_value=formula,
        reported_value=REPORTED_CURVE_MINIMUM,
        gap=gap,
        agrees=gap <= DISCREPANCY_TOL,
    )
