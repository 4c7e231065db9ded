"""Test-only oracle for slot membership: the rank rule, by sorting the boundary floats."""

import math
from bisect import bisect_right

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
