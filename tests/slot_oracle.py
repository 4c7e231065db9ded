"""Test-only oracles for slot membership: the rank rule by sorting the boundary floats, slot flips by bisection.

:func:`sorted_decode` keeps Bob's earlier decode, which sorted the sixteen
floats and then ranked the cell's lower edge over freshly built bounds.

:func:`theta_breakpoints` gives the rounded shared angles near which a slot
test flips; the bisection and the quadrature oracle start from them.
"""

import math
from bisect import bisect_right

import numpy as np

from bctsim import geometry as g


def rank_slot(x: float, boundaries) -> int:
    """Slot of ``x``: the one opened by the largest boundary at or below it, wrapping to the largest."""
    x = g.normalize_angle(x)
    order = sorted(range(len(boundaries)), key=lambda j: boundaries[j])
    k = bisect_right([boundaries[j] for j in order], x) - 1
    return order[k]  # k == -1 wraps to the largest boundary's slot


def systems(theta: float) -> tuple[list[float], list[float], list[float]]:
    """The alpha, beta and gamma boundary floats at ``theta``, each in slot order."""
    return ([j * g.ALPHA_WIDTH for j in range(10)],
            [g.normalize_angle(theta + o) for o in g.BETA_OFFSETS],
            [g.normalize_angle(theta + o) for o in g.GAMMA_OFFSETS])


def oracle_triple(x: float, theta: float) -> tuple[int, int, int]:
    return tuple(rank_slot(x, bounds) for bounds in systems(theta))


def boundary_floats(theta: float) -> tuple[float, ...]:
    """The sixteen boundary floats of the combined partition, unsorted, each reduced by ``normalize_angle``."""
    return tuple(j * g.ALPHA_WIDTH for j in range(10)) + tuple(
        g.normalize_angle(theta + o) for o in g.BETA_OFFSETS + g.GAMMA_OFFSETS)


def oracle_cell(x: float, theta: float) -> int:
    """Alice's cell: the number of sorted boundary floats at or below ``x``, less one."""
    return bisect_right(sorted(boundary_floats(theta)), g.normalize_angle(x)) - 1


def cell_bounds(theta: float) -> list[float]:
    """The sixteen boundary floats, ascending; the slot functions' sums, so ``normalize_angle(theta + offset)``."""
    gamma = g._gamma_bounds(theta)
    return sorted(g._ALPHA_BOUNDS + g._beta_bounds(theta) + (gamma[1:] if gamma[3] < g.TWO_PI else gamma[:3]))


def sorted_decode(index: int, theta: float) -> tuple[int, int, int]:
    """Slot triple of cell ``index``: :func:`cell_bounds`, then the cell's lower edge ranked in each system.

    Bob's decode before it sorted and ranked over one set of bound tuples:
    the sixteen floats sorted first, then each system's bounds built again
    and the edge ranked through ``geometry._rank``. The same ``ValueError``
    for an index that is a bool or not an integer, one outside 0..15, a
    theta outside [0, 3*pi/5) or an empty cell.
    """
    g._check_theta(theta)
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise ValueError(f"cell index must be an integer, got {index!r}")
    if not 0 <= index <= 15:
        raise ValueError(f"cell index must lie in 0..15, got {index}")
    lo, hi = (cell_bounds(theta) + [g.TWO_PI])[index:index + 2]
    if not lo < hi:
        raise ValueError(f"cell {index} is empty for theta={theta!r}")
    r_alpha, r_beta, r_gamma = (g._rank(lo, bounds) for bounds in
                                (g._ALPHA_BOUNDS, g._beta_bounds(theta), g._gamma_bounds(theta)))
    return int(r_alpha) - 1, (2 + int(r_beta)) % 3, int(r_gamma) % 3


def theta_breakpoints(*angles: float) -> list[float]:
    """Shared offsets in ``(0, 3*pi/5)`` where a beta/gamma boundary passes one of ``angles``.

    These are the rounded values ``normalize_angle(x - offset)``. A slot test
    of ``x`` flips at the lowest theta whose boundary float reaches ``x``,
    within a few ulps of one of these points, or, for an ``x`` on a boundary
    at theta = 0 (never listed), at the first float above 0. Everything that
    depends on theta only through the slot tests is piecewise constant
    between consecutive flips.
    """
    pts = set()
    for x in angles:
        for offset in g.BETA_OFFSETS + g.GAMMA_OFFSETS:
            t = g.normalize_angle(x - offset)
            if 0.0 < t < g.THETA_SPAN:
                pts.add(t)
    return sorted(pts)


def _wrap_point() -> float:
    """The lowest theta at which ``theta + 8*pi/5`` reaches 2*pi, so that gamma_1 wraps to the bottom."""
    offset = g.GAMMA_OFFSETS[1]
    theta = g.TWO_PI - offset
    while theta + offset >= g.TWO_PI:
        theta = math.nextafter(theta, 0.0)
    while theta + offset < g.TWO_PI:
        theta = math.nextafter(theta, math.inf)
    return theta


WRAP_THETA = _wrap_point()


#: half-width, relative to max(1, |angle|), of the bracket searched around each
#: rounded breakpoint: far above its rounding error, far below the 3*pi/5
#: between two flips of one slot test
_BRACKET = 1e-12


def bisect_flip_points(tests) -> np.ndarray:
    """Shared angles at which the slot of ``x`` in ``system`` changes, for each ``(x, system)``, by bisection.

    Each test is bracketed around both ends of the theta range and around
    its rounded breakpoints. A bracket whose ends disagree holds exactly one
    flip. Bisection over the bit patterns of the (non-negative) floats,
    which order like the floats themselves, narrows all brackets at once to
    adjacent floats; the upper one is the lowest theta of the new slot.
    """
    last = float(np.nextafter(g.THETA_SPAN, 0.0))
    rows = [(x, system == "gamma", t) for x, system in tests
            for t in (0.0, *theta_breakpoints(x), last)]
    x, gamma, t = (np.array(col) for col in zip(*rows))

    def slot_of(theta):
        return np.where(gamma, g.gamma_slot_of(x, theta), g.beta_slot_of(x, theta))

    half = _BRACKET * np.maximum(1.0, np.abs(x))
    lo = np.clip(t - half, 0.0, last)
    hi = np.clip(t + half, 0.0, last)
    s_lo = slot_of(lo)
    moved = s_lo != slot_of(hi)
    x, gamma, s_lo = x[moved], gamma[moved], s_lo[moved]
    lo, hi = lo[moved].view(np.int64), hi[moved].view(np.int64)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        up = slot_of(mid.view(np.float64)) != s_lo
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return hi.view(np.float64)
