"""Angular arithmetic on the unit circle and the slot systems that partition it.

All angles are radians normalized to ``[0, 2*pi)``. Three interleaved
partitions of the circle are used throughout the package:

* ten fixed ``alpha`` slots of width ``pi/5``, with boundaries ``j*pi/5``;
* a three-slot ``beta`` system whose boundaries sit at offsets
  ``{0, 3*pi/5, 6*pi/5}`` above a shared angle ``theta``;
* a three-slot ``gamma`` system, the half-turn image of ``beta``
  (each gamma boundary is the matching beta boundary plus ``pi``).

Slot intervals are half-open ``[lo, hi)``: every angle lies in exactly one
slot of each system, including angles that coincide with a boundary.

Two routes to slot membership are provided on purpose: the explicit
:class:`SlotSystem` interval walk (:func:`slot_index`) and closed-form index
arithmetic (:func:`alpha_slot_of`, :func:`beta_slot_of`, :func:`gamma_slot_of`).
They are cross-checked in the test suite; the protocol engine uses the
arithmetic forms, which accept numpy arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TWO_PI",
    "ALPHA_WIDTH",
    "THETA_SPAN",
    "BETA_OFFSETS",
    "GAMMA_OFFSETS",
    "SlotSystem",
    "BoundaryCrossing",
    "Cell",
    "normalize_angle",
    "arc_distance",
    "alpha_system",
    "beta_system",
    "gamma_system",
    "slot_index",
    "alpha_slot_of",
    "beta_slot_of",
    "gamma_slot_of",
    "beta_boundary",
    "gamma_boundary",
    "theta_breakpoints",
    "alpha_slot_cyclic_difference",
    "boundary_between",
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


def normalize_angle(x: float) -> float:
    """Reduce ``x`` modulo ``2*pi`` into ``[0, 2*pi)``.

    Raises ``ValueError`` for non-finite input. The result is guaranteed to
    be strictly below ``2*pi`` even when rounding would land on it.
    """
    if not math.isfinite(x):
        raise ValueError(f"angle must be a finite real number, got {x!r}")
    y = x % TWO_PI
    if y >= TWO_PI:  # x % TWO_PI can round up to TWO_PI for tiny negative x
        y -= TWO_PI
    return y


def arc_distance(x: float, y: float) -> float:
    """Shorter angular separation between two directions, in ``[0, pi]``."""
    d = abs(normalize_angle(x) - normalize_angle(y))
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class SlotSystem:
    """An ordered ring of boundaries; slot ``j`` is ``[boundaries[j], boundaries[j+1 mod n})``."""

    boundaries: tuple[float, ...]
    kind: str  # "alpha" | "beta" | "gamma"

    def __post_init__(self) -> None:
        if self.kind not in ("alpha", "beta", "gamma"):
            raise ValueError(f"unknown slot system kind {self.kind!r}")
        n = len(self.boundaries)
        if (self.kind == "alpha" and n != 10) or (self.kind != "alpha" and n != 3):
            raise ValueError(f"{self.kind} system needs {'10' if self.kind == 'alpha' else '3'} boundaries, got {n}")

    def __len__(self) -> int:
        return len(self.boundaries)


def alpha_system() -> SlotSystem:
    """The ten fixed slots ``[j*pi/5, (j+1)*pi/5)``."""
    return SlotSystem(tuple(j * ALPHA_WIDTH for j in range(10)), "alpha")


def beta_system(theta: float) -> SlotSystem:
    """Beta system for shared offset ``theta``."""
    return SlotSystem(tuple(normalize_angle(theta + o) for o in BETA_OFFSETS), "beta")


def gamma_system(theta: float) -> SlotSystem:
    """Gamma system for shared offset ``theta``; the half-turn image of beta."""
    return SlotSystem(tuple(normalize_angle(theta + o) for o in GAMMA_OFFSETS), "gamma")


def slot_index(x: float, system: SlotSystem) -> int:
    """Index ``j`` of the unique half-open slot ``[b_j, b_{j+1 mod n})`` holding ``x``.

    Membership is decided by rank: the slot is the one whose boundary is the
    largest not exceeding ``x`` (wrapping below the smallest boundary). This
    is total and exclusive by construction, with exact boundary ownership.
    """
    x = normalize_angle(x)
    order = sorted(range(len(system.boundaries)), key=lambda j: system.boundaries[j])
    values = [system.boundaries[j] for j in order]
    k = bisect_right(values, x) - 1
    return order[k]  # k == -1 wraps to the largest boundary's slot


def _mod_tau(values) -> np.ndarray:
    # np.mod can round a tiny negative residue up to exactly 2*pi; fold it to 0
    z = np.mod(np.asarray(values, dtype=float), TWO_PI)
    return np.where(z >= TWO_PI, 0.0, z)


def alpha_slot_of(x):
    """Alpha slot index of ``x`` (scalar or array): ``floor(x / (pi/5)) mod 10``."""
    z = _mod_tau(x)
    return (np.floor(z / ALPHA_WIDTH).astype(np.int64)) % 10


def beta_slot_of(x, theta):
    """Beta slot index of ``x`` under offset ``theta`` (arrays broadcast)."""
    z = _mod_tau(np.asarray(x, dtype=float) - np.asarray(theta, dtype=float))
    return np.where(z < BETA_OFFSETS[1], 0, np.where(z < BETA_OFFSETS[2], 1, 2)).astype(np.int64)


def gamma_slot_of(x, theta):
    """Gamma slot index of ``x`` under offset ``theta`` (arrays broadcast).

    Measured from the slot-2 lower edge at ``theta + pi/5``: slot 2 spans
    ``4*pi/5``, slots 0 and 1 span ``3*pi/5`` each.
    """
    z = _mod_tau(np.asarray(x, dtype=float) - np.asarray(theta, dtype=float) - GAMMA_OFFSETS[2])
    return np.where(z < 4.0 * math.pi / 5.0, 2, np.where(z < 7.0 * math.pi / 5.0, 0, 1)).astype(np.int64)


def beta_boundary(k, theta):
    """Angle of boundary ``beta_k`` for offset ``theta`` (arrays broadcast)."""
    offs = np.asarray(BETA_OFFSETS)[np.asarray(k, dtype=np.int64)]
    return np.mod(np.asarray(theta, dtype=float) + offs, TWO_PI)


def gamma_boundary(k, theta):
    """Angle of boundary ``gamma_k`` for offset ``theta`` (arrays broadcast)."""
    offs = np.asarray(GAMMA_OFFSETS)[np.asarray(k, dtype=np.int64)]
    return np.mod(np.asarray(theta, dtype=float) + offs, TWO_PI)


def theta_breakpoints(*angles: float) -> list[float]:
    """Shared offsets in ``(0, 3*pi/5)`` where a beta/gamma boundary passes one of ``angles``.

    These are the rounded values ``normalize_angle(x - offset)``; the slot
    tests of :func:`beta_slot_of`/:func:`gamma_slot_of` flip within a few
    ulps of ``2*pi`` of them, or just above theta = 0, which is never
    listed. Everything that depends on theta only through the slot tests is
    piecewise constant between consecutive breakpoints.
    """
    pts = set()
    for x in angles:
        for offset in BETA_OFFSETS + GAMMA_OFFSETS:
            t = normalize_angle(x - offset)
            if 0.0 < t < THETA_SPAN:
                pts.add(t)
    return sorted(pts)


def alpha_slot_cyclic_difference(j1: int, j2: int) -> int:
    """Cyclic distance between two alpha slot indices, in ``[0, 5]``."""
    if not (0 <= j1 <= 9 and 0 <= j2 <= 9):
        raise ValueError(f"alpha slot indices must lie in 0..9, got ({j1}, {j2})")
    d = abs(j1 - j2)
    return min(d, 10 - d)


@dataclass(frozen=True)
class BoundaryCrossing:
    """A slot boundary separating two angles.

    ``multiple`` is set when the traversed arc contains more than one
    boundary (possible only for arcs longer than the minimum slot width);
    in that case ``angle`` is the boundary nearest the arc's endpoint.
    """

    angle: float
    index: int
    multiple: bool


def boundary_between(x: float, y: float, system: SlotSystem) -> BoundaryCrossing | None:
    """Boundary of ``system`` separating ``x`` from ``y``, or ``None`` if same slot.

    The traversal follows the shorter arc from ``x`` to ``y``
    (counterclockwise on a tie). The boundary returned is the edge of ``y``'s
    slot on the approach side, which is the boundary nearest ``y`` inside the
    arc; for generic inputs it lies strictly inside, while an endpoint
    sitting exactly on a boundary yields that boundary (zero separation on
    the ``y`` side). ``multiple`` is set when the arc holds more than one
    boundary.
    """
    if system.kind == "alpha":
        raise ValueError("boundary_between is defined for beta/gamma systems")
    x = normalize_angle(x)
    y = normalize_angle(y)
    if slot_index(x, system) == slot_index(y, system):
        return None
    ccw = (y - x) % TWO_PI
    go_ccw = ccw <= math.pi
    span = ccw if go_ccw else TWO_PI - ccw

    # approach side of y's slot: counterclockwise arrival crosses its lower
    # edge last, clockwise arrival its upper edge
    j_y = slot_index(y, system)
    if go_ccw:
        k_best = j_y
    else:
        order = sorted(range(len(system.boundaries)), key=lambda j: system.boundaries[j])
        rank = order.index(j_y)
        k_best = order[(rank + 1) % len(order)]

    inside = 0
    for b in system.boundaries:
        t = (b - x) % TWO_PI if go_ccw else (x - b) % TWO_PI
        if t >= TWO_PI:  # boundary an ulp from x rounds onto the full turn
            t = 0.0
        if t <= span:
            inside += 1
    return BoundaryCrossing(system.boundaries[k_best], k_best, multiple=inside > 1)


@dataclass(frozen=True)
class Cell:
    """One of the sixteen intervals cut by the combined alpha/beta/gamma boundaries."""

    index: int
    alpha_slot: int
    beta_slot: int
    gamma_slot: int

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.alpha_slot, self.beta_slot, self.gamma_slot)


def _cell_bounds(theta: float) -> list[float]:
    bounds = [j * ALPHA_WIDTH for j in range(10)]
    bounds += [normalize_angle(theta + o) for o in BETA_OFFSETS]
    bounds += [normalize_angle(theta + o) for o in GAMMA_OFFSETS]
    bounds.sort()
    return bounds


def _check_theta(theta: float) -> float:
    if not (0.0 <= theta < THETA_SPAN):
        raise ValueError(f"shared offset theta must lie in [0, 3*pi/5), got {theta!r}")
    return theta


def cell_index(x: float, theta: float) -> Cell:
    """Rank of the combined-partition cell holding ``x``, with its slot triple.

    The sixteen boundaries (ten alpha, three beta, three gamma) are sorted
    ascending from 0; the index is the rank of the cell containing ``x``
    under the half-open convention. Coinciding boundaries (``theta`` a
    multiple of ``pi/5``) produce empty cells but never more than sixteen.
    """
    _check_theta(theta)
    x = normalize_angle(x)
    bounds = _cell_bounds(theta)
    idx = bisect_right(bounds, x) - 1  # bounds[0] == 0.0, so idx >= 0
    return Cell(
        index=idx,
        alpha_slot=slot_index(x, alpha_system()),
        beta_slot=slot_index(x, beta_system(theta)),
        gamma_slot=slot_index(x, gamma_system(theta)),
    )


def cell_to_triple(index: int, theta: float) -> tuple[int, int, int]:
    """Slot triple of the cell with rank ``index``, decoded from a point inside it.

    Raises ``ValueError`` for an empty cell (possible at degenerate ``theta``):
    no setting can originate from it.
    """
    _check_theta(theta)
    if not 0 <= index <= 15:
        raise ValueError(f"cell index must lie in 0..15, got {index}")
    bounds = _cell_bounds(theta)
    lo = bounds[index]
    hi = bounds[index + 1] if index < 15 else TWO_PI
    if not lo < hi:
        raise ValueError(f"cell {index} is empty for theta={theta!r}")
    mid = 0.5 * (lo + hi)
    return (
        slot_index(mid, alpha_system()),
        slot_index(mid, beta_system(theta)),
        slot_index(mid, gamma_system(theta)),
    )
