import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bctsim import geometry as g
from slot_oracle import (WRAP_THETA, bisect_flip_points, cell_bounds, oracle_triple, sorted_decode, systems,
                         theta_breakpoints)

TAU = 2.0 * math.pi

angle_st = st.floats(min_value=0.0, max_value=TAU, exclude_max=True, allow_nan=False)
theta_st = st.floats(min_value=0.0, max_value=g.THETA_SPAN, exclude_max=True, allow_nan=False)


class TestNormalizeAngle:
    def test_full_turn_wraps_to_zero(self):
        assert g.normalize_angle(TAU) == 0.0

    def test_negative_quarter_turn(self):
        assert g.normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-12)

    def test_two_and_a_half_turns(self):
        assert g.normalize_angle(5 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            g.normalize_angle(bad)

    @pytest.mark.parametrize("x", [-5e-324, -1e-300, -1e-17, TAU])
    def test_rounding_onto_a_full_turn_wraps_to_zero(self, x):
        y = g.normalize_angle(x)
        assert y == 0.0 and math.copysign(1.0, y) == 1.0

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_matches_array_reduction_bit_for_bit(self, cast):
        grid = [0.0, -0.0, 5e-324, -5e-324, -1e-300, -1e-17, 1.0, math.pi, float(np.nextafter(TAU, 0.0)),
                TAU, -TAU, float(np.nextafter(-TAU, 0.0)), 3 * TAU + 0.5, -2.0, 1e6, -1e6]
        for x in map(cast, grid):
            y = g.normalize_angle(x)
            assert type(y) is type(x)
            assert float(y).hex() == float(g._normalize(x)).hex()
            assert float(y).hex() == float(g._normalize(np.array([x]))[0]).hex()

    @given(x=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_result_in_range_and_congruent(self, x):
        y = g.normalize_angle(x)
        assert 0.0 <= y < TAU
        assert math.isclose(math.cos(y), math.cos(x), abs_tol=1e-9)
        assert math.isclose(math.sin(y), math.sin(x), abs_tol=1e-9)


class TestArcDistance:
    def test_short_way_around(self):
        assert g.arc_distance(0.0, 3 * math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_identity(self):
        assert g.arc_distance(1.234, 1.234) == 0.0

    def test_near_antipodal_pair(self):
        assert g.arc_distance(math.pi, 19 * math.pi / 20) == pytest.approx(math.pi / 20, abs=1e-12)

    @given(x=angle_st, y=angle_st)
    def test_symmetric_and_bounded(self, x, y):
        d = g.arc_distance(x, y)
        assert d == g.arc_distance(y, x)
        assert 0.0 <= d <= math.pi

    @given(x=angle_st, y=angle_st, z=angle_st)
    def test_triangle_inequality(self, x, y, z):
        assert g.arc_distance(x, z) <= g.arc_distance(x, y) + g.arc_distance(y, z) + 1e-12


class TestSlotSystems:
    def test_alpha_boundaries(self):
        below = [np.nextafter(TAU, 0.0)] + [np.nextafter(j * math.pi / 5, 0.0) for j in range(1, 10)]
        for j in range(10):
            assert int(g.alpha_slot_of(j * math.pi / 5)) == j
            assert int(g.alpha_slot_of(below[j])) == (j - 1) % 10

    def test_gamma_is_half_turn_of_beta(self):
        for theta in np.linspace(0.0, g.THETA_SPAN, 37, endpoint=False):
            for k in range(3):
                b_k, g_k = g._separator(theta, g.BETA_OFFSETS[k]), g._separator(theta, g.GAMMA_OFFSETS[k])
                assert g.arc_distance(float(g_k), float(b_k) + math.pi) < 1e-12

    def test_crossing_search_bounds_are_the_slot_rules_bounds(self):
        """Each ``(offset, shift)`` the crossing search reads gives ``theta + offset - shift``, the slot rule's bound.

        Bit for bit and in order, at seeded thetas, at both ends of the span,
        and at the gamma wrap and the floats on either side of it.
        """
        thetas = np.random.default_rng(35).uniform(0.0, g.THETA_SPAN, 200).tolist()
        thetas += [0.0, g._LAST_THETA, math.nextafter(WRAP_THETA, 0.0), WRAP_THETA,
                   math.nextafter(WRAP_THETA, math.inf)]
        for theta in thetas:
            for system, bounds in (("beta", g._beta_bounds), ("gamma", g._gamma_bounds)):
                got = [theta + offset - shift for offset, shift in g._SLOT_BOUNDS[system]]
                assert [v.hex() for v in got] == [v.hex() for v in bounds(theta)], (system, theta)

    def test_slot_index_quarter_turn_in_alpha(self):
        assert int(g.alpha_slot_of(math.pi / 2)) == 2

    def test_slot_index_walkthrough_beta_gamma(self):
        theta = 0.35 * math.pi
        assert int(g.beta_slot_of(math.pi / 2, theta)) == 0
        assert int(g.gamma_slot_of(math.pi / 2, theta)) == 1

    @given(x=angle_st, th=theta_st)
    def test_partition_totality(self, x, th):
        # every angle gets exactly one valid slot in each system, and every
        # boundary is owned by the slot it opens (half-open convention)
        slot_fns = (g.alpha_slot_of, lambda v: g.beta_slot_of(v, th), lambda v: g.gamma_slot_of(v, th))
        for n, bounds, slot_of in zip((10, 3, 3), systems(th), slot_fns):
            assert 0 <= int(slot_of(x)) < n
            for j, b in enumerate(bounds):
                assert int(slot_of(b)) == j

    def test_partition_totality_random_intervals(self):
        # on generic inputs the rank rule agrees with direct half-open
        # interval membership
        rng = np.random.default_rng(314)
        for _ in range(10_000):
            x = float(rng.uniform(0.0, TAU))
            th = float(rng.uniform(0.0, g.THETA_SPAN))
            for bounds, got in zip(systems(th), g.slot_triple(x, th)):
                n = len(bounds)
                hits = [j for j in range(n) if (x - bounds[j]) % TAU < (bounds[(j + 1) % n] - bounds[j]) % TAU]
                assert hits == [got]

    def test_partition_totality_bulk(self):
        rng = np.random.default_rng(20240)
        xs = rng.uniform(0.0, TAU, 10_000)
        ths = rng.uniform(0.0, g.THETA_SPAN, 10_000)
        for x, th in zip(xs, ths):
            assert 0 <= g.cell_index(float(x), float(th)) <= 15
            assert g.slot_triple(float(x), float(th)) == oracle_triple(float(x), float(th))

    def test_arithmetic_slots_match_interval_walk(self):
        # vector calls against the sorted-boundary oracle
        rng = np.random.default_rng(99)
        xs = rng.uniform(0.0, TAU, 2_000)
        ths = rng.uniform(0.0, g.THETA_SPAN, 2_000)
        alpha, beta, gamma = g.alpha_slot_of(xs), g.beta_slot_of(xs, ths), g.gamma_slot_of(xs, ths)
        for i, (x, th) in enumerate(zip(xs, ths)):
            assert (alpha[i], beta[i], gamma[i]) == oracle_triple(float(x), float(th))

    @given(x=angle_st, th=theta_st)
    def test_gamma_slot_equals_beta_slot_of_antipode(self, x, th):
        # the index permutation between the systems is the identity
        antipode = g.normalize_angle(x + math.pi)
        assert int(g.gamma_slot_of(x, th)) == int(g.beta_slot_of(antipode, th))

    @pytest.mark.parametrize("x", [-1e-300, -5e-324, TAU, 3 * TAU + 0.5, -2.0])
    def test_unnormalized_angles_reduce_first(self, x):
        th = 0.4
        assert g.slot_triple(x, th) == oracle_triple(x, th)


class TestThetaBreakpoints:
    def test_walkthrough_frame_points(self):
        # the six boundary offsets against Alice at 2*pi/5 + nu and Bob at 0 and pi
        nu = math.pi / 10
        offsets = (0.0, 3 * math.pi / 5, 6 * math.pi / 5, math.pi, 8 * math.pi / 5, math.pi / 5)
        want = sorted({t for x in (2 * math.pi / 5 + nu, 0.0, math.pi) for o in offsets
                       if 0.0 < (t := g.normalize_angle(x - o)) < g.THETA_SPAN})
        assert theta_breakpoints(2 * math.pi / 5 + nu, 0.0, math.pi) == want

    @given(x=angle_st)
    def test_each_point_is_a_boundary_crossing(self, x):
        for t in theta_breakpoints(x):
            assert 0.0 < t < g.THETA_SPAN
            crossings = [abs(g.normalize_angle(t + o) - x) for o in g.BETA_OFFSETS + g.GAMMA_OFFSETS]
            assert min(min(c, TAU - c) for c in crossings) < 1e-12

    def test_no_angles_no_points(self):
        assert theta_breakpoints() == []


class TestSeparator:
    """``_separator`` equals ``(theta + offset) % TWO_PI`` bit for bit, on floats and on arrays."""

    @pytest.fixture(scope="class")
    def thetas(self) -> np.ndarray:
        """0, the least subnormal, the last theta, the 100 floats around the one wrap inside the range, 2M seeded."""
        last = math.nextafter(g.THETA_SPAN, 0.0)
        wraps = [np.array(TAU - o).view(np.int64) + np.arange(-50, 50)
                 for o in g.BETA_OFFSETS + g.GAMMA_OFFSETS if 0.0 < TAU - o < g.THETA_SPAN]
        wraps = np.concatenate(wraps).view(np.float64)
        assert len(wraps) == 100 and np.any(wraps + g.GAMMA_OFFSETS[1] >= TAU)
        seeded = np.random.default_rng(2317).random(2_000_000) * g.THETA_SPAN
        return np.concatenate([[0.0, 5e-324, last], wraps, seeded])

    @pytest.mark.parametrize("offset", g.BETA_OFFSETS + g.GAMMA_OFFSETS)
    def test_arrays(self, thetas, offset):
        want = ((thetas + offset) % TAU).tobytes()
        assert g._separator(thetas, offset).tobytes() == want
        assert g._separator(thetas, np.full(thetas.shape, offset)).tobytes() == want

    @pytest.mark.parametrize("offset", g.BETA_OFFSETS + g.GAMMA_OFFSETS)
    def test_floats(self, thetas, offset):
        """The special points, the wrap neighbours and 20,000 of the seeded thetas, one Python float at a time."""
        for t in thetas[:20_103].tolist():
            got = g._separator(t, offset)
            assert type(got) is float and got.hex() == ((t + offset) % TAU).hex()


def reflection_axes() -> list[float]:
    """Bob's axes in [0, 2*pi) at each ``j*pi/5`` and the three floats either side, 0, pi, the last float below 2*pi."""
    axes = {0.0, math.pi, math.nextafter(TAU, 0.0)}
    for j in range(10):
        down = up = j * math.pi / 5
        axes.add(up)
        for _ in range(3):
            down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
            axes |= {down, up}
    return sorted(b for b in axes if 0.0 <= b < TAU)


def test_reflection_adds_pi_and_wraps_once():
    """Bob's reflection ``_separator(b, pi)`` equals ``normalize_angle(b + pi)`` bit for bit on every axis in [0, 2*pi).

    ``b + pi < 3*pi``, so one subtraction of ``2*pi`` is exact. Pinned at the
    special axes and 200,000 seeded ones, one Python float at a time (the
    special axes and 20,000 seeded) and as one array.
    """
    special = reflection_axes()
    assert len(special) == 68 and {j * g.ALPHA_WIDTH for j in range(10)} <= set(special)
    seeded = np.random.default_rng(2818).random(200_000) * TAU
    assert np.all(seeded < TAU)
    for b in special + seeded[:20_000].tolist():
        got = g._separator(b, math.pi)
        assert type(got) is float and got.hex() == g.normalize_angle(b + math.pi).hex(), b
    axes = np.concatenate((special, seeded))
    want = np.array([g.normalize_angle(b + math.pi) for b in axes.tolist()])
    assert g._separator(axes, math.pi).tobytes() == want.tobytes()


class TestAlphaSlotCyclicDifference:
    @pytest.mark.parametrize("j1,j2,want", [(2, 0, 2), (2, 5, 3), (9, 0, 1), (7, 2, 5)])
    def test_values(self, j1, j2, want):
        assert g.alpha_slot_cyclic_difference(j1, j2) == want

    def test_brute_force_both_directions(self):
        for j1 in range(10):
            for j2 in range(10):
                want = min((j1 - j2) % 10, (j2 - j1) % 10)
                assert g.alpha_slot_cyclic_difference(j1, j2) == want

    @pytest.mark.parametrize("j1,j2", [(-1, 0), (0, 10), (11, 3)])
    def test_out_of_range_rejected(self, j1, j2):
        with pytest.raises(ValueError):
            g.alpha_slot_cyclic_difference(j1, j2)


class TestCellIndex:
    def test_walkthrough_triple(self):
        x, th = math.pi / 2, 0.35 * math.pi
        assert g.slot_triple(x, th) == g.cell_to_triple(g.cell_index(x, th), th) == (2, 0, 1)

    def test_last_alpha_slot(self):
        x, th = TAU - 1e-9, 0.123
        assert g.slot_triple(x, th)[0] == g.cell_to_triple(g.cell_index(x, th), th)[0] == 9

    def test_origin_triple_in_walkthrough_frame(self):
        th = 0.35 * math.pi
        assert g.slot_triple(0.0, th) == g.cell_to_triple(g.cell_index(0.0, th), th) == (0, 2, 1)

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_returns_python_ints(self, cast):
        # the JSON round record carries these values as they are
        x, th = cast(math.pi / 2), cast(0.35 * math.pi)
        assert type(g.cell_index(x, th)) is int
        assert all(type(s) is int for s in g.slot_triple(x, th))
        assert all(type(s) is int for s in g.cell_to_triple(g.cell_index(x, th), th))

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError):
            g.cell_index(1.0, g.THETA_SPAN)
        with pytest.raises(ValueError):
            g.cell_index(1.0, -0.1)

    @pytest.mark.parametrize("theta", [2.0, -1.0, math.nan, g.THETA_SPAN])
    def test_slot_triple_rejects_theta_out_of_range(self, theta):
        # cell_index rejects the same thetas; a triple read there would be a plausible wrong answer
        with pytest.raises(ValueError):
            g.slot_triple(1.0, theta)

    def test_degenerate_theta_collapses_cells(self):
        # at theta = 0 all six beta/gamma boundaries coincide with alpha
        # ones, leaving ten nonempty cells; empty cells are allowed
        seen = {g.cell_index(float(x), 0.0) for x in np.linspace(0, TAU, 5000, endpoint=False)}
        assert len(seen) == 10
        assert all(0 <= i <= 15 for i in seen)

    def test_decode_round_trip(self):
        rng = np.random.default_rng(4242)
        for _ in range(10_000):
            x = float(rng.uniform(0.0, TAU))
            th = float(rng.uniform(0.0, g.THETA_SPAN))
            assert g.cell_to_triple(g.cell_index(x, th), th) == g.slot_triple(x, th)

    def test_decode_empty_cell_rejected(self):
        # at theta = 0 the beta boundaries coincide with alpha ones
        bounds = cell_bounds(0.0)
        empty = next(i for i in range(15) if bounds[i] == bounds[i + 1])
        with pytest.raises(ValueError):
            g.cell_to_triple(empty, 0.0)


ALPHA_BOUNDS = [j * g.ALPHA_WIDTH for j in range(10)]
#: the exact shared angles at which a beta or gamma bound reaches an alpha bound
ALPHA_MEETS = bisect_flip_points([(x, system) for x in ALPHA_BOUNDS for system in ("beta", "gamma")]).tolist()


def _decode_thetas() -> list[float]:
    """The shared angles at which Bob's decode is pinned to :func:`sorted_decode`, each with the float either side.

    Seeded draws; theta = 0 and the last float below 3*pi/5; pi/5 and
    2*pi/5 (boundaries coincide); every theta at which a beta or gamma bound
    reaches an alpha bound, both the rounded breakpoint and the exact flip;
    and the gamma_1 wrap, where ``theta + 8*pi/5`` reaches 2*pi.
    """
    rng = np.random.default_rng(1919)
    centres = [0.0, math.nextafter(g.THETA_SPAN, 0.0), math.pi / 5, 2 * math.pi / 5, *theta_breakpoints(*ALPHA_BOUNDS),
               *ALPHA_MEETS, WRAP_THETA, *rng.uniform(0.0, g.THETA_SPAN, 40).tolist()]
    near = {x for t in centres for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))}
    return sorted(t for t in near if 0.0 <= t < g.THETA_SPAN)


DECODE_THETAS = _decode_thetas()


def _decode_or_error(decode, index, theta):
    try:
        return decode(index, theta)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_decode_thetas_hold_every_special_angle():
    """Both ends of the range, the gamma wrap and its neighbours, and every exact alpha meeting.

    Every offset is a multiple of pi/5, so the meetings sit within rounding
    of 0, pi/5 and 2*pi/5: tiny thetas among them, where a bound rounds
    onto an alpha bound.
    """
    assert {0.0, math.nextafter(g.THETA_SPAN, 0.0), math.nextafter(WRAP_THETA, 0.0), WRAP_THETA,
            math.nextafter(WRAP_THETA, math.inf)} <= set(DECODE_THETAS)
    assert set(ALPHA_MEETS) <= set(DECODE_THETAS)
    assert {round(t / g.ALPHA_WIDTH) for t in ALPHA_MEETS} == {0, 1, 2}


@pytest.mark.parametrize("cast", [float, np.float64])
def test_decode_matches_the_sorted_decode_on_every_cell(cast):
    """``cell_to_triple`` sorts and ranks over one set of bound tuples; it equals the earlier decode, errors included.

    All sixteen cells, as ints and as ``np.int64``, at every theta of
    :data:`DECODE_THETAS`: the same triple of Python ints, or the same
    ``ValueError`` on an empty cell.
    """
    empty = 0
    for theta in map(cast, DECODE_THETAS):
        for index in range(16):
            want = _decode_or_error(sorted_decode, index, theta)
            got = _decode_or_error(g.cell_to_triple, index, theta)
            assert got == want == _decode_or_error(g.cell_to_triple, np.int64(index), theta), (index, theta)
            if isinstance(got, str):
                empty += 1
            else:
                assert all(type(s) is int for s in got)
    assert empty  # the multiples of pi/5 empty some cells


@pytest.mark.parametrize("index,theta", [
    (-1, 0.5), (16, 0.5), (np.int64(16), 0.5), (True, 0.5), (False, 0.5), (2.0, 0.5), (np.float64(3.0), 0.5),
    ("3", 0.5), (None, 0.5), (3, g.THETA_SPAN), (3, -5e-324), (3, math.nan), (True, g.THETA_SPAN)])
def test_decode_rejects_what_the_sorted_decode_rejects(index, theta):
    # a bool would otherwise decode as cell 0 or 1, a float fail as a slice index
    with pytest.raises(ValueError) as got:
        g.cell_to_triple(index, theta)
    with pytest.raises(ValueError) as want:
        sorted_decode(index, theta)
    assert str(got.value) == str(want.value)


#: the shared angles at which _rank's float path is checked: both ends of
#: the range, the first float above 0, the alpha bounds inside it, the gamma
#: wrap and the floats either side, the table certificate's probes outside
#: the range (the negative subnormal below 0 and 3*pi/5), and seeded draws
RANK_THETAS = [-5e-324, 0.0, 5e-324, math.pi / 5, 2 * math.pi / 5, math.nextafter(WRAP_THETA, 0.0), WRAP_THETA,
               math.nextafter(WRAP_THETA, math.inf), math.nextafter(3 * math.pi / 5, 0.0), g.THETA_SPAN,
               *np.random.default_rng(2101).uniform(0.0, g.THETA_SPAN, 40).tolist()]


def _scalar_bound_tuples(theta: float) -> list[tuple[float, ...]]:
    """Every bound tuple a scalar caller of ``_rank`` passes at ``theta``."""
    return [g._ALPHA_BOUNDS, g._beta_bounds(theta), g._gamma_bounds(theta)]


def _compare_sum(x, bounds) -> int:
    """The rank rule as written: how many bounds lie at or below ``x``."""
    return sum(1 for bound in bounds if bound <= x)


@pytest.mark.parametrize("theta", RANK_THETAS)
def test_scalar_bound_tuples_ascend(theta):
    for bounds in _scalar_bound_tuples(theta):
        assert all(type(bound) is float for bound in bounds)
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:])), (theta, bounds)


@pytest.mark.parametrize("theta", RANK_THETAS)
def test_rank_float_path_counts_as_the_compare_sum(theta, monkeypatch):
    """At every bound and the floats either side, bisection gives the rule's count; NumPy scalars skip it."""
    bisections = []

    def counted(bounds, x):
        bisections.append(x)
        return bisect.bisect_right(bounds, x)

    monkeypatch.setattr(g, "bisect_right", counted)
    for bounds in _scalar_bound_tuples(theta):
        xs = [y for bound in bounds for y in (math.nextafter(bound, -math.inf), bound,
                                              math.nextafter(bound, math.inf))]
        xs += [0.0, math.nextafter(TAU, 0.0)]
        for x in xs:
            want = _compare_sum(x, bounds)
            before = len(bisections)
            assert g._rank(x, bounds) == want, (theta, bounds, x)
            assert len(bisections) == before + 1  # the float path ran
            wide = tuple(map(np.float64, bounds))
            for args in ((np.float64(x), bounds), (x, wide), (np.float64(x), wide)):
                got = g._rank(*args)
                assert got == want and len(bisections) == before + 1, (theta, args)
        assert np.array_equal(g._rank(np.array(xs), bounds), [_compare_sum(x, bounds) for x in xs])
        # no bound lies at or below NaN, and a NaN bound lies at or below nothing
        assert g._rank(math.nan, bounds) == 0
        assert g._rank(1.0, (math.nan,) * len(bounds)) == 0
