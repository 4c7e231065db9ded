"""Test-only oracles for segment tables: the array build, and the screen's decisions over a whole array.

Before tables were built on Python floats, :func:`bctsim.protocol.segment_table`
read Alice's slots at all segment starts through ``alice_slot_arrays`` and ran
Bob's branch step once per axis over the start array, and
:func:`bctsim.geometry._flip_points` certified every crossing of a system in one
slot-rule call over the stacked probes below, at and above. Both are kept here,
so the float build can be pinned to them field by field; the crossing search
spells its own table of slot bounds, so a wrong entry in the package's cannot
hide in both.
:func:`keeps_c` runs a table's screen and resolve steps over one array of raw
theta outputs, as the kernel runs them chunk by chunk; :func:`theta_of`
gives those outputs' thetas, and :func:`outputs_near` the outputs whose thetas
lie nearest given values. :func:`array_expectation` is
:meth:`bctsim.protocol.SegmentTable.expectation` as NumPy arrays, its terms
added exactly as fractions. :func:`gauss_legendre_expectation` averages
:func:`bctsim.protocol.evaluate_bob` over theta by quadrature, the route that
method sums in closed form.
"""

import math
from fractions import Fraction

import numpy as np

from bctsim import geometry as geo
from bctsim import protocol as pr
from bctsim.geometry import (BETA_OFFSETS, GAMMA_OFFSETS, THETA_SPAN, TWO_PI, alpha_slot_of, beta_slot_of,
                             gamma_slot_of, normalize_angle)

#: per system, each bound its slot rule ranks an angle among, as ``(offset, shift)``: the bound
#: ``theta + offset - shift``; gamma's ``theta + 8*pi/5 - 2*pi`` is the bound below every angle until it wraps
BOUNDS = {
    "beta": tuple((o, 0.0) for o in BETA_OFFSETS),
    "gamma": ((GAMMA_OFFSETS[1], TWO_PI), *((o, 0.0) for o in GAMMA_OFFSETS)),
}


def array_flip_points(tests) -> list[float]:
    """The closed-form crossings of each ``(x, system)``, certified by one slot-rule call per system."""
    flips = []
    for system, slot_of in (("beta", beta_slot_of), ("gamma", gamma_slot_of)):
        xs, ts = [], []
        for x in {normalize_angle(x) for x, s in tests if s == system}:
            for o, shift in BOUNDS[system]:
                big, low = geo._two_sum(x, shift)
                y = big if low < 0.0 else math.nextafter(big, math.inf)
                h, low = geo._two_sum(y, -o)
                t, err = geo._two_sum(h, low - (y - math.nextafter(y, 0.0)) / 2.0)
                t = math.nextafter(t, math.inf) if err > 0.0 else t
                if 0.0 <= t <= geo._LAST_THETA:
                    xs.append(x)
                    ts.append(t)
        if not ts:
            continue
        above = [math.nextafter(t, math.inf) for t in ts]
        probes = np.array([math.nextafter(t, -math.inf) for t in ts] + ts + above)
        below_slot, t_slot, above_slot = slot_of(np.array(xs * 3), probes).reshape(3, -1).tolist()
        for t, up, lo, at, hi in zip(ts, above, below_slot, t_slot, above_slot):
            flip = t if at != lo else up
            if 0.0 < flip <= geo._LAST_THETA:
                if at == lo and hi == at:
                    raise RuntimeError(f"slot crossing fails its certificate at theta={flip!r}")
                flips.append(flip)
    return flips


def array_segment_table(a: float, axes, strategy: pr.Strategy = pr.NO_FLIP) -> pr.SegmentTable:
    """The table of ``a`` against ``axes``: Alice's slots and each axis's branch step over the start array."""
    alpha = int(alpha_slot_of(a))
    bob_axes = [pr._bob_axis(alpha, normalize_angle(b), strategy) for b in axes]
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


def theta_of(raw) -> np.ndarray:
    """The theta of each raw theta output, as NumPy's ``uniform(0.0, THETA_SPAN)`` computes it from that output."""
    return (np.asarray(raw, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53 * THETA_SPAN


def outputs_near(values, steps: int) -> np.ndarray:
    """Per value, the raw outputs ``m << 11`` of the least reachable theta at or above it and ``steps`` either side.

    ``m`` is an output's top 53 bits; an ``m`` past either end of the
    thetas is clipped to that end, and a theta near two values is listed
    for each.
    """
    least = []
    for v in values:
        m = min(max(math.ceil(v / THETA_SPAN * 2.0**53), 0), 2**53)  # within a few steps of the least
        while m < 2**53 and float(theta_of(m << 11)) < v:
            m += 1
        while m > 0 and float(theta_of((m - 1) << 11)) >= v:
            m -= 1
        least.append(m)
    m = (np.array(least, dtype=np.int64)[:, None] + np.arange(-steps, steps + 1)).ravel()
    return m.clip(0, 2**53 - 1).astype(np.uint64) << np.uint64(11)


def keeps_c(table: pr.SegmentTable, raw: np.ndarray | None, coins) -> list[np.ndarray]:
    """Per axis, whether Bob's output equals ``c`` in each trial, by the screen over the whole array.

    ``raw`` holds the trials' raw theta outputs (:func:`theta_of` gives
    their thetas) and ``coins[j]`` axis ``j``'s acceptance draws. A constant
    axis gets its constant, shaped like ``raw``, and reads no coin; with no
    live axis ``raw`` may be None (the decisions are then 0-d). The screen
    runs under the kernel's ``np.errstate``.
    """
    shape = np.shape(raw)
    kept = [np.empty(shape, dtype=bool) if k is None else np.full(shape, k) for k in table.constant]
    if None in table.constant:  # some axis is live
        with np.errstate(invalid="ignore"):
            for j, part in enumerate(table._sift(raw, coins, kept, 0)):
                if part is not None:
                    table._resolve(j, kept[j], [part])
    return kept


def array_expectation(table: pr.SegmentTable, coin_mode: pr.CoinMode = pr.CoinMode.INDEPENDENT) -> float:
    """:meth:`bctsim.protocol.SegmentTable.expectation` as NumPy arrays over the segments, summed exactly.

    The same closed forms, one ufunc call per term over all segments of a
    two-axis table; their values are added exactly as ``Fraction``s and
    rounded once, so the float route must equal it bit for bit.
    """
    lo = np.concatenate(([0.0], table.edges))
    hi = np.concatenate((table.edges, [THETA_SPAN]))
    length = hi - lo
    mid = (lo + hi) / 2.0
    phi = [b - off for b, off in zip(table.axes, table.offset)]
    coeff = [np.where(same | (constant is not None), 0.0, pr.ACCEPTANCE_COEFF * np.sign(np.sin(f - mid)))
             for f, same, constant in zip(phi, table.same, table.constant)]
    (p1, p2), (c1, c2) = phi, coeff
    if pr.CoinMode(coin_mode) is pr.CoinMode.INDEPENDENT:
        int_s1 = np.cos(p1 - hi) - np.cos(p1 - lo)
        int_s2 = np.cos(p2 - hi) - np.cos(p2 - lo)
        int_s1s2 = 0.5 * length * np.cos(p1 - p2) - 0.25 * (np.sin(p1 + p2 - 2.0 * lo) - np.sin(p1 + p2 - 2.0 * hi))
        equal = length - c1 * int_s1 - c2 * int_s2 + 2.0 * c1 * c2 * int_s1s2
    else:
        p = c2 * np.sin(p2) - c1 * np.sin(p1)
        q = c1 * np.cos(p1) - c2 * np.cos(p2)
        zero = np.arctan2(-p, q)
        cut = np.clip(zero + math.pi * np.ceil((lo - zero) / math.pi), lo, hi)  # segments are < pi long

        def gap(t0, t1):
            return np.abs(p * (np.sin(t1) - np.sin(t0)) - q * (np.cos(t1) - np.cos(t0)))

        equal = length - gap(lo, cut) - gap(cut, hi)
    if table.negate[0] != table.negate[1]:
        equal = length - equal
    return float(sum(map(Fraction, equal.tolist()))) / THETA_SPAN


#: Gauss-Legendre nodes and weights on [-1, 1]; on a piece shorter than 3*pi/5 they integrate
#: a product of two sines of theta to rounding
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def _nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per piece ``[lo, hi)``, its quadrature nodes and weights, one row each."""
    half = (hi - lo)[:, None] / 2.0
    return (lo + hi)[:, None] / 2.0 + half * _NODES, half * _WEIGHTS


def _acceptances(a: float, axes, theta: np.ndarray, strategy: pr.Strategy) -> tuple[list[np.ndarray], bool]:
    """Bob's acceptance per axis at each theta, by ``evaluate_bob``, and whether the two negations differ."""
    alpha, beta_slots, gamma_slots = pr.alice_slot_arrays(a, theta.ravel())
    evs = [pr.evaluate_bob(alpha, beta_slots, gamma_slots, b, theta.ravel(), strategy) for b in axes]
    return [ev.accept_prob.reshape(theta.shape) for ev in evs], evs[0].negate != evs[1].negate


def gauss_legendre_expectation(a: float, axes, strategy: pr.Strategy) -> dict[pr.CoinMode, float]:
    """Per coin mode, P(both Bob outputs equal) averaged over theta, by quadrature over ``evaluate_bob``.

    Each segment of the table is one piece, on which both acceptances are
    smooth: 1, or ``1 - (3*pi/10)*sin`` of Bob's distance to a fixed
    separator. So their gap ``q1 - q2`` is ``A*cos(theta) + B*sin(theta)``;
    fitted at the nodes, it must match there to rounding, and its zeros
    split the piece, since the shared coin's ``1 - |q1 - q2|`` has a kink
    there. A sliver piece, at most 1e-9 wide, is neither fitted nor split:
    it holds less than 1e-9 of the integral. Independent coins agree with
    ``q1*q2 + (1 - q1)*(1 - q2)``; axes with opposite negations turn a value
    ``p`` into ``1 - p``.
    """
    edges = pr.segment_table(a, axes, strategy).edges
    lo, hi = np.concatenate(([0.0], edges)), np.concatenate((edges, [THETA_SPAN]))
    theta, _ = _nodes(lo, hi)
    (q1, q2), _ = _acceptances(a, axes, theta, strategy)
    cuts = []
    for t, gap, start, stop in zip(theta, q1 - q2, lo, hi):
        if stop - start < 1e-9:  # a sliver between coinciding edges, whose nodes may round onto its ends
            continue
        basis = np.stack((np.cos(t), np.sin(t)), axis=1)
        fit = np.linalg.lstsq(basis, gap, rcond=None)[0]
        assert np.max(np.abs(basis @ fit - gap)) < 1e-12, (a, axes, strategy, start)
        if np.any(fit):
            zero = math.atan2(-fit[0], fit[1])
            cuts += [z for z in zero + math.pi * np.arange(-2, 3) if start < z < stop]
    pieces = np.sort(np.concatenate((lo, hi[-1:], cuts)))
    theta, weight = _nodes(pieces[:-1], pieces[1:])
    (q1, q2), opposite = _acceptances(a, axes, theta, strategy)
    equal = {pr.CoinMode.INDEPENDENT: q1 * q2 + (1.0 - q1) * (1.0 - q2), pr.CoinMode.SHARED: 1.0 - np.abs(q1 - q2)}
    return {mode: float(np.sum(weight * (1.0 - p if opposite else p))) / THETA_SPAN for mode, p in equal.items()}
