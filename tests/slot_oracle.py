"""Test-only oracle for slot membership: the rank rule, by sorting the boundary floats."""

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
