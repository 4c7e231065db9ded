"""Test-only oracles for segment tables: the array build, and the screen's decisions over a whole array.

Before tables were built on Python floats, :func:`bctsim.protocol.segment_table`
read Alice's slots at all segment starts through ``alice_slot_arrays`` and ran
Bob's branch step once per axis over the start array, and
:func:`bctsim.protocol._flip_points` certified every crossing of a system in one
slot-rule call over the stacked probes below, at and above. Both are kept here,
unchanged, so the float build can be pinned to them field by field.
:func:`keeps_c` runs a table's screen and resolve steps over one array, as the
batch kernel runs them chunk by chunk.
"""

import math

import numpy as np

from bctsim import protocol as pr
from bctsim.geometry import BETA_OFFSETS, GAMMA_OFFSETS, alpha_slot_of, beta_slot_of, gamma_slot_of, normalize_angle


def array_flip_points(tests) -> list[float]:
    """The closed-form crossings of each ``(x, system)``, certified by one slot-rule call per system."""
    flips = []
    for system, slot_of in (("beta", beta_slot_of), ("gamma", gamma_slot_of)):
        xs, ts = [], []
        for x in {normalize_angle(x) for x, s in tests if s == system}:
            for o, shift in pr._SLOT_BOUNDS[system]:
                big, low = pr._two_sum(x, shift)
                y = big if low < 0.0 else math.nextafter(big, math.inf)
                h, low = pr._two_sum(y, -o)
                t, err = pr._two_sum(h, low - (y - math.nextafter(y, 0.0)) / 2.0)
                t = math.nextafter(t, math.inf) if err > 0.0 else t
                if 0.0 <= t <= pr._LAST_THETA:
                    xs.append(x)
                    ts.append(t)
        if not ts:
            continue
        above = [math.nextafter(t, math.inf) for t in ts]
        probes = np.array([math.nextafter(t, -math.inf) for t in ts] + ts + above)
        below_slot, t_slot, above_slot = slot_of(np.array(xs * 3), probes).reshape(3, -1).tolist()
        for t, up, lo, at, hi in zip(ts, above, below_slot, t_slot, above_slot):
            flip = t if at != lo else up
            if 0.0 < flip <= pr._LAST_THETA:
                if at == lo and hi == at:
                    raise RuntimeError(f"slot crossing fails its certificate at theta={flip!r}")
                flips.append(flip)
    return flips


def array_segment_table(a: float, axes, strategy: pr.Strategy = pr.NO_FLIP) -> pr.SegmentTable:
    """The table of ``a`` against ``axes``: Alice's slots and each axis's branch step over the start array."""
    alpha = int(alpha_slot_of(a))
    bob_axes = [pr._bob_axis(alpha, b, strategy) for b in axes]
    tests = {(x, system) for b_eff, _, system in bob_axes if system != "none" for x in (a, b_eff)}
    starts = np.array([0.0, *sorted(set(array_flip_points(tests) if tests else ()))])
    _, beta_slots, gamma_slots = pr.alice_slot_arrays(a, starts)
    fields = []
    for axis in bob_axes:
        b_eff, fired, system = axis
        if system == "none":
            same, offset = np.zeros(starts.shape, dtype=bool), np.zeros(starts.shape)
        else:
            _, _, same, k = pr._branch(axis, beta_slots, gamma_slots, starts)
            offset = np.where(same, 0.0, np.asarray(GAMMA_OFFSETS if system == "gamma" else BETA_OFFSETS)[k])
        fields.append((b_eff, same, offset, fired, not fired if system == "none" or same.all() else None))
    return pr.SegmentTable(starts[1:], *map(tuple, zip(*fields)))


def keeps_c(table: pr.SegmentTable, theta: np.ndarray | None, coins) -> list[np.ndarray]:
    """Per axis, whether Bob's output equals ``c`` in each trial, by the screen over the whole array.

    ``coins[j]`` holds axis ``j``'s acceptance draws. A constant axis gets
    its constant, shaped like ``theta``, and reads no coin; with no live
    axis ``theta`` may be None (the decisions are then 0-d).
    """
    shape = np.shape(theta)
    kept = [np.empty(shape, dtype=bool) if k is None else np.full(shape, k) for k in table.constant]
    if None in table.constant:  # some axis is live
        for j, part in enumerate(table._sift(theta, coins, kept, 0)):
            if part is not None:
                table._resolve(j, kept[j], [part])
    return kept
