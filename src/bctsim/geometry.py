"""Angular arithmetic on the unit circle and the slot systems that partition it.

All angles are radians normalized to ``[0, 2*pi)``. Three interleaved
partitions of the circle are used throughout the package:

* ten fixed ``alpha`` slots of width ``pi/5``, with boundaries ``j*pi/5``;
* a three-slot ``beta`` system whose boundaries sit at offsets
  ``{0, 3*pi/5, 6*pi/5}`` above a shared angle ``theta`` in ``[0, 3*pi/5)``;
* a three-slot ``gamma`` system, the half-turn image of ``beta``
  (each gamma boundary is the matching beta boundary plus ``pi``).

Slot membership follows one rule, the rank rule, over the boundary floats
``j*pi/5`` and ``normalize_angle(theta + offset)``: an angle lies in the
slot opened by the largest boundary at or below it, and an angle below every
boundary of a system lies in the slot of that system's largest boundary.
Slots are therefore half-open ``[lo, hi)``, every angle lies in exactly one
slot of each system, and a boundary belongs to the slot it opens: the slot
is the angle's rank (:func:`_rank`) among the system's boundaries less one,
cyclically. :func:`alpha_slot_of`, :func:`beta_slot_of` and
:func:`gamma_slot_of` apply the rule to Python floats, which give Python
ints, and to numpy arrays, which broadcast, and :func:`slot_triple` reads
all three at one point. :func:`cell_index` returns the four-bit cell, the
rank of an angle under the same rule over all sixteen floats, less one: the
sum of its ranks in the three systems, which also give the triple.
Coinciding boundaries (``theta`` a multiple of ``pi/5``) leave empty cells,
which no angle lands in.

Only this module knows where the beta and gamma boundaries sit: ``_OFFSETS``
holds each system's offsets, and :func:`_flip_points` finds the shared
angles at which an angle's slot changes, the edges of a segment table.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from itertools import repeat

import numpy as np

__all__ = [
    "TWO_PI",
    "ALPHA_WIDTH",
    "THETA_SPAN",
    "BETA_OFFSETS",
    "GAMMA_OFFSETS",
    "normalize_angle",
    "arc_distance",
    "alpha_slot_of",
    "beta_slot_of",
    "gamma_slot_of",
    "alpha_slot_cyclic_difference",
    "slot_triple",
    "cell_index",
    "cell_to_triple",
]

TWO_PI = 2.0 * math.pi
ALPHA_WIDTH = math.pi / 5.0
#: range of the shared offset angle for the beta/gamma systems
THETA_SPAN = 3.0 * math.pi / 5.0
#: boundary offsets above theta: beta_k = theta + BETA_OFFSETS[k]
BETA_OFFSETS = (0.0, 3.0 * math.pi / 5.0, 6.0 * math.pi / 5.0)
#: gamma_k = theta + GAMMA_OFFSETS[k]; each equals the beta offset plus pi (mod 2*pi)
GAMMA_OFFSETS = (math.pi, 8.0 * math.pi / 5.0, math.pi / 5.0)
#: each system's boundary offsets, by the system's name
_OFFSETS = {"beta": BETA_OFFSETS, "gamma": GAMMA_OFFSETS}
#: the largest shared angle a round can draw
_LAST_THETA = float(np.nextafter(THETA_SPAN, 0.0))


def _normalize(x):
    """Reduce a float or numpy array modulo ``2*pi`` into ``[0, 2*pi)``, with no finiteness check."""
    # % on arrays is np.mod, bit for bit the same as Python's float %; both
    # round a tiny negative x up to exactly 2*pi, which belongs at 0
    y = x % TWO_PI
    return y - TWO_PI * (y >= TWO_PI)


def normalize_angle(x: float) -> float:
    """Reduce ``x`` modulo ``2*pi`` into ``[0, 2*pi)``.

    Raises ``ValueError`` for non-finite input. The result is guaranteed to
    be strictly below ``2*pi`` even when rounding would land on it.
    """
    if not math.isfinite(x):
        raise ValueError(f"angle must be a finite real number, got {x!r}")
    return _normalize(x)


def arc_distance(x: float, y: float) -> float:
    """Shorter angular separation between two directions, in ``[0, pi]``."""
    d = abs(normalize_angle(x) - normalize_angle(y))
    return min(d, TWO_PI - d)


#: the alpha boundaries j*pi/5, the same floats that cut the combined cells
_ALPHA_BOUNDS = tuple(j * ALPHA_WIDTH for j in range(10))


def _rank(x, bounds):
    """How many of ``bounds`` lie at or below ``x`` (arrays broadcast): the rank of the slot rule.

    A Python float ``x`` that is not NaN, against a tuple of Python floats
    whose first is not NaN, is counted by ``bisect_right``: the rule's count
    only if the tuple ascends and holds no NaN, which a scalar caller must
    ensure. Anything else sums ``operator.le`` over the bounds.
    """
    if (type(x) is float and x == x and type(bounds) is tuple
            and type(bounds[0]) is float and bounds[0] == bounds[0]):
        return bisect_right(bounds, x)
    return sum(map(operator.le, bounds, repeat(x)))


def alpha_slot_of(x):
    """Alpha slot index of ``x`` (float or array): its rank among the ``j*pi/5``, less one."""
    return _rank(_normalize(x), _ALPHA_BOUNDS) - 1


def beta_slot_of(x, theta):
    """Beta slot index of ``x`` under offset ``theta`` in ``[0, 3*pi/5)`` (arrays broadcast).

    Its boundaries ``theta + BETA_OFFSETS[k]`` ascend in ``k`` below ``2*pi``: an angle below ``theta`` is in slot 2.
    """
    return (2 + _rank(_normalize(x), _beta_bounds(theta))) % 3


def gamma_slot_of(x, theta):
    """Gamma slot index of ``x`` under offset ``theta`` in ``[0, 3*pi/5)`` (arrays broadcast).

    ``gamma_2 = theta + pi/5`` and ``gamma_0 = theta + pi`` lie below
    ``2*pi``. Until ``s = theta + 8*pi/5`` reaches ``2*pi``, ``gamma_1 = s``
    is the largest boundary and ``x >= s - 2*pi`` always holds; after that,
    ``gamma_1 = s - 2*pi`` (exact by Sterbenz, so equal to
    ``normalize_angle(s)``) is the smallest and ``x >= s`` never holds.
    Either way the rank of ``x`` among the four values, mod 3, is its slot.
    """
    return _rank(_normalize(x), _gamma_bounds(theta)) % 3


def _beta_bounds(theta):
    return theta, theta + BETA_OFFSETS[1], theta + BETA_OFFSETS[2]


def _gamma_bounds(theta):  # the four values of gamma_slot_of; the three in [0, 2*pi) are the boundaries
    s = theta + GAMMA_OFFSETS[1]
    return s - TWO_PI, theta + GAMMA_OFFSETS[2], theta + GAMMA_OFFSETS[0], s


def _separator(theta, offset):
    """``normalize_angle(theta + offset)`` for non-negative floats or arrays whose sum is below ``4*pi``.

    Subtracting ``2*pi`` once at or above it is then exact (Sterbenz) and
    equals ``(theta + offset) % TWO_PI`` bit for bit. It gives every
    boundary (``theta`` in ``[0, 3*pi/5)``) and Bob's reflected axis
    (``theta`` in ``[0, 2*pi)``, offset ``pi``).
    """
    b = theta + offset
    return b - TWO_PI * (b >= TWO_PI)


#: per system, each bound of its slot function as ``(offset, shift)``: the bound
#: ``theta + offset - shift``, where the shift 2*pi makes gamma's wrapped ``s - 2*pi``
_SLOT_BOUNDS = {
    "beta": ((0.0, 0.0), (BETA_OFFSETS[1], 0.0), (BETA_OFFSETS[2], 0.0)),
    "gamma": ((GAMMA_OFFSETS[1], TWO_PI), (GAMMA_OFFSETS[2], 0.0), (GAMMA_OFFSETS[0], 0.0), (GAMMA_OFFSETS[1], 0.0)),
}


def _two_sum(a, b):
    """``(s, e)`` with ``s = fl(a + b)`` and ``s + e == a + b`` exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _flip_points(tests) -> list[float]:
    """Exact shared angles in ``(0, 3*pi/5)`` where the slot of ``x`` in ``system`` changes, per ``(x, system)``.

    The slot is the rank of the normalized ``x`` among the system's bound
    floats, each nondecreasing in theta, so it changes exactly where one
    bound ``fl(theta + o)`` first exceeds ``X``: ``X = x``, or the real
    ``x + 2*pi`` for the wrapped ``s - 2*pi`` (exact by Sterbenz). With ``Y``
    the least double above ``X`` and ``M`` the midpoint below ``Y``, that
    happens at the least double ``t >= M - o``, found by TwoSum on Python
    floats, or at the next float when ``theta + o = M`` rounds to even
    below. The slot rule itself certifies every crossing, in three calls on
    Python floats, below, at and above ``t``: the crossing is the first of
    the floats whose slot differs from the float below it.
    """
    flips = []
    for system, slot_of in (("beta", beta_slot_of), ("gamma", gamma_slot_of)):
        for x in {normalize_angle(float(x)) for x, s in tests if s == system}:
            for o, shift in _SLOT_BOUNDS[system]:
                big, low = _two_sum(x, shift)  # X = big + low
                y = big if low < 0.0 else math.nextafter(big, math.inf)
                h, low = _two_sum(y, -o)
                t, err = _two_sum(h, low - (y - math.nextafter(y, 0.0)) / 2.0)  # M = y - half an ulp
                t = math.nextafter(t, math.inf) if err > 0.0 else t
                # t, the least double >= M - o = (y - o) - g (g half the gap below y), is never 0: if y > o,
                # o is at most the double below y, so y - o >= 2g and t > 0; else o >= y > 0 is an offset of at
                # least pi/5, and M - o is at most minus half the gap below o, a double, so t < 0
                if not 0.0 < t <= _LAST_THETA:  # the flip, t or the float above it, is outside (0, 3*pi/5)
                    continue
                up = math.nextafter(t, math.inf)
                lo, at, hi = (slot_of(x, p) for p in (math.nextafter(t, -math.inf), t, up))
                flip = t if at != lo else up
                if flip <= _LAST_THETA:
                    if at == lo and hi == at:
                        raise RuntimeError(f"slot crossing fails its certificate at theta={flip!r}")
                    flips.append(flip)
    return flips


def alpha_slot_cyclic_difference(j1: int, j2: int) -> int:
    """Cyclic distance between two alpha slot indices, in ``[0, 5]``."""
    if not (0 <= j1 <= 9 and 0 <= j2 <= 9):
        raise ValueError(f"alpha slot indices must lie in 0..9, got ({j1}, {j2})")
    d = abs(j1 - j2)
    return min(d, 10 - d)


def _check_theta(theta: float) -> None:
    if not (0.0 <= theta < THETA_SPAN):
        raise ValueError(f"shared offset theta must lie in [0, 3*pi/5), got {theta!r}")


def _cell_and_triple(x: float, theta: float) -> tuple[int, tuple[int, int, int]]:
    """Cell index and slot triple of ``x``, as Python ints; the gamma rank counts ``s - 2*pi`` while < 0.

    Once ``theta`` has passed ``_check_theta``, the three bound tuples ascend
    and hold no NaN, and ``bisect_right`` counts as :func:`_rank` does.
    """
    _check_theta(theta)
    x = normalize_angle(float(x))
    beta, gamma = _beta_bounds(theta), _gamma_bounds(theta)
    r_alpha, r_beta, r_gamma = bisect_right(_ALPHA_BOUNDS, x), bisect_right(beta, x), bisect_right(gamma, x)
    cell = r_alpha + r_beta + r_gamma - (2 if gamma[3] < TWO_PI else 1)  # 0.0 is a boundary, so >= 0
    return cell, (r_alpha - 1, (2 + r_beta) % 3, r_gamma % 3)


def slot_triple(x: float, theta: float) -> tuple[int, int, int]:
    """Alpha, beta and gamma slot of ``x`` under offset ``theta`` in ``[0, 3*pi/5)``, as Python ints.

    Raises ``ValueError`` for a ``theta`` outside that range, as :func:`cell_index` and :func:`cell_to_triple` do.
    """
    return _cell_and_triple(x, theta)[1]


def cell_index(x: float, theta: float) -> int:
    """Alice's four bits: the rank of the cell holding ``x`` among the sixteen cells, as a Python int.

    Its slot triple is :func:`slot_triple` of ``x``, or :func:`cell_to_triple` of the rank.
    """
    return _cell_and_triple(x, theta)[0]


def cell_to_triple(index: int, theta: float) -> tuple[int, int, int]:
    """Slot triple of the cell with rank ``index``, as Python ints, decoded at its lower edge.

    Every boundary at or below the lower edge is at or below each angle of
    the half-open cell, so the edge, one of the sixteen floats in
    ``[0, 2*pi)``, has the cell's triple: its ranks in the three systems.
    The beta and gamma bound tuples are built once: sorted with the alpha
    bounds they give the edge, and ``bisect_right`` ranks it in each.
    Raises ``ValueError`` for an index that is a bool or not an integer, as
    :meth:`~bctsim.protocol.HiddenState.make` rejects such a sign, for one
    outside 0..15, and for an empty cell: no setting can originate from it.
    """
    _check_theta(theta)
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise ValueError(f"cell index must be an integer, got {index!r}")
    if not 0 <= index <= 15:
        raise ValueError(f"cell index must lie in 0..15, got {index}")
    beta, gamma = _beta_bounds(theta), _gamma_bounds(theta)
    bounds = sorted(_ALPHA_BOUNDS + beta + (gamma[1:] if gamma[3] < TWO_PI else gamma[:3]))
    lo, hi = (bounds + [TWO_PI])[index:index + 2]
    if not lo < hi:
        raise ValueError(f"cell {index} is empty for theta={theta!r}")
    return bisect_right(_ALPHA_BOUNDS, lo) - 1, (2 + bisect_right(beta, lo)) % 3, bisect_right(gamma, lo) % 3
