"""The segment-table kernel against per-trial references built on ``evaluate_bob``.

The reference kernels below evaluate Alice's slots and Bob's branch logic on
every trial, with the same draws, each read whole from its own generator
(:func:`draws`); the kernel decides
most trials from its table's acceptance screen and looks only the rest up by
theta segment. Each reference names the cells of the kernel's tally; the
kernel must carry those cells and no other, each integer for integer, with
the sign cells and without them, and the table's decisions must
agree with ``evaluate_bob`` bit for bit next to every edge, at every screen
bin boundary and at both ends of every bin's bracket.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bctsim import cli
from bctsim import geometry as geo
from bctsim import harness as hn
from bctsim import protocol as pr
from bctsim.analysis import WALKTHROUGH_B1, alice_setting, interval_windows, two_bob_equal_quadrature
from slot_oracle import WRAP_THETA, bisect_flip_points
from table_oracle import keeps_c, outputs_near, theta_of

PI = math.pi
LAST_THETA = float(np.nextafter(geo.THETA_SPAN, 0.0))
NUS = (0.0, PI / 20, PI / 10, 0.123, PI / 5)
SETTINGS = tuple(k * PI / 5 for k in range(10))
AXES = (0.0, PI)
STRATEGIES = tuple(s for _, s in hn.CALIBRATION_VARIANTS)
COINS = (pr.CoinMode.INDEPENDENT, pr.CoinMode.SHARED)
SPECIAL_THETAS = (0.0, 5e-324, 1e-17, 4.4e-16, 4.5e-16, LAST_THETA)
TRIALS = 3000
#: the stream key the same-path tests run their kernels on
KEY = (3, 1)
#: each draw's index in its generator's key: theta, c, the coin of each axis (a shared coin is the first), erasures
THETA, SIGN, COIN_1, COIN_2, ERASE_1, ERASE_2 = range(6)


def draws(seed, key=KEY):
    """Per draw index, the generator a kernel run on ``(seed, key)`` reads it from."""
    return lambda d: np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, d)))


# --- per-trial reference kernels -----------------------------------------


def _accept(a, b, theta, strategy):
    alpha, beta_slots, gamma_slots = pr.alice_slot_arrays(a, theta)
    ev = pr.evaluate_bob(alpha, beta_slots, gamma_slots, b, theta, strategy)
    return ev.accept_prob, ev.negate


def _theta(draw, n, theta_fixed):
    return np.full(n, theta_fixed) if theta_fixed is not None else draw(THETA).uniform(0.0, geo.THETA_SPAN, n)


def _sign(draw, n):
    return np.where(draw(SIGN).integers(0, 2, n, dtype=bool), 1, -1)


def _in_win(theta, nu):
    (w1_lo, w1_hi), (w2_lo, w2_hi) = interval_windows(nu)
    return ((theta >= w1_lo) & (theta <= w1_hi)) | ((theta > w2_lo) & (theta <= w2_hi))


def ref_pair(a, b, strategy, theta_fixed, draw, n):
    theta = _theta(draw, n, theta_fixed)
    c = _sign(draw, n)
    coin = draw(COIN_1).random(n)
    q, negate = _accept(a, b, theta, strategy)
    eq = (coin < q) ^ negate
    c_b = np.where(eq, c, -c)
    return dict(N=n, KEPT_1=eq.sum(), C_PLUS=(c > 0).sum(), B_PLUS_1=(c_b > 0).sum())


def _two_bob_cells(nu, theta, c, b1_eq_c, b2_eq_c, survived=None, conditioned=False):
    """The tally cells of a two-axis row given its windows, which count only where theta is drawn.

    Under a visibility, ``EQUAL`` counts equal outputs with neither side erased.
    """
    eq = b1_eq_c == b2_eq_c
    if survived is not None:
        eq &= survived
    cells = dict(N=len(theta), KEPT_1=b1_eq_c.sum(), KEPT_2=b2_eq_c.sum(), EQUAL=eq.sum())
    if not conditioned:
        cells["EQUAL_IN_WINDOWS"] = (eq & _in_win(theta, nu)).sum()
    return cells | dict(C_PLUS=(c > 0).sum(), B_PLUS_1=(np.where(b1_eq_c, c, -c) > 0).sum(),
                        B_PLUS_2=(np.where(b2_eq_c, c, -c) > 0).sum())


def ref_two_bob(nu, strategy, coin_mode, theta_fixed, draw, n, a=None):
    a = alice_setting(nu) if a is None else a
    theta = _theta(draw, n, theta_fixed)
    c = _sign(draw, n)
    coin1 = draw(COIN_1).random(n)
    coin2 = coin1 if coin_mode is pr.CoinMode.SHARED else draw(COIN_2).random(n)
    q1, neg1 = _accept(a, WALKTHROUGH_B1, theta, strategy)
    q2, neg2 = _accept(a, WALKTHROUGH_B1 + PI, theta, strategy)
    return _two_bob_cells(nu, theta, c, (coin1 < q1) ^ neg1, (coin2 < q2) ^ neg2, conditioned=theta_fixed is not None)


def ref_visibility(nu, visibility, strategy, coin_mode, draw, n):
    a = alice_setting(nu)
    theta = _theta(draw, n, None)
    c = _sign(draw, n)
    coin1 = draw(COIN_1).random(n)
    coin2 = coin1 if coin_mode is pr.CoinMode.SHARED else draw(COIN_2).random(n)
    keep1 = draw(ERASE_1).random(n) < visibility
    keep2 = draw(ERASE_2).random(n) < visibility
    q1, neg1 = _accept(a, WALKTHROUGH_B1, theta, strategy)
    q2, neg2 = _accept(a, WALKTHROUGH_B1 + PI, theta, strategy)
    return _two_bob_cells(nu, theta, c, (coin1 < q1) ^ neg1, (coin2 < q2) ^ neg2, keep1 & keep2)


def ref_joint(a, b, strategy, draw, n):
    theta = _theta(draw, n, None)
    c = _sign(draw, n)
    coin = draw(COIN_1).random(n)
    q, negate = _accept(a, b, theta, strategy)
    c_b = np.where((coin < q) ^ negate, c, -c)
    return [n, ((c > 0) & (c_b > 0)).sum(), ((c > 0) & (c_b < 0)).sum(),
            ((c < 0) & (c_b > 0)).sum(), ((c < 0) & (c_b < 0)).sum()]


# --- the one kernel, and its tally against the references' cells ---------------

#: the cells only a kernel built with signs carries
SIGN_CELLS = ("C_PLUS", "B_PLUS_1", "B_PLUS_2")
#: the cell only a two-axis kernel built with windows, and drawing theta, carries
WINDOW_CELLS = ("EQUAL_IN_WINDOWS",)


def pair_kernel(a, b, strategy, theta_fixed=None, signs=True):
    return hn._kernel(pr.segment_table(a, (b,), strategy), theta_fixed=theta_fixed, signs=signs)


def two_bob_kernel(nu, strategy, coin_mode, theta_fixed=None, visibility=None, a=None, signs=True, windows=True):
    table = pr.segment_table(alice_setting(nu) if a is None else a, (WALKTHROUGH_B1, WALKTHROUGH_B1 + PI), strategy)
    return hn._kernel(table, coin_mode, theta_fixed, visibility, interval_windows(nu) if windows else None,
                      signs=signs)


def carried(reference, signs=True, windows=True):
    """``reference`` without the cells a kernel built without signs, or without windows, does not carry."""
    dropped = (() if signs else SIGN_CELLS) + (() if windows else WINDOW_CELLS)
    return lambda draw, n: {cell: v for cell, v in reference(draw, n).items() if cell not in dropped}


def _both(kernel, reference, seed, n=TRIALS):
    """The kernel's tally carries the reference's cells and no other, each at its index, with equal counts."""
    got = kernel(seed, KEY, n)
    want = reference(draws(seed), n)
    assert got.dtype == np.int64
    assert len(got) == len(want)
    assert {cell: int(got[getattr(hn, cell)]) for cell in want} == {cell: int(v) for cell, v in want.items()}


# --- differential tallies ---------------------------------------------------


@pytest.mark.parametrize("nu", NUS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("coin_mode", COINS)
def test_two_bob_kernel_matches_reference(nu, strategy, coin_mode):
    w = interval_windows(nu)
    for theta_fixed in (None, 0.0, 4.4e-16, w[0][0], w[0][1], float(np.nextafter(w[1][1], 9.0)), LAST_THETA):
        if theta_fixed is not None and theta_fixed >= geo.THETA_SPAN:  # past the second window at nu = pi/5
            with pytest.raises(hn.ConfigError, match="conditioned theta"):
                two_bob_kernel(nu, strategy, coin_mode, theta_fixed)
            continue
        for seed in (1, 2):
            _both(two_bob_kernel(nu, strategy, coin_mode, theta_fixed),
                  lambda draw, n: ref_two_bob(nu, strategy, coin_mode, theta_fixed, draw, n), seed)


def test_kernel_rejects_a_conditioned_theta_no_round_draws():
    """A fixed theta outside [0, 3*pi/5) fails when the kernel is built, on one axis and on two.

    ``evaluate_bob`` extrapolates past 3*pi/5 and the table does not, so a
    kernel that accepted such a theta would tally a point no round reaches.
    At nu = pi/5 the second window ends at 3*pi/5, and the float above its
    end is such a point.
    """
    past_window = float(np.nextafter(interval_windows(PI / 5)[1][1], 9.0))
    assert past_window >= geo.THETA_SPAN
    for theta_fixed in (past_window, geo.THETA_SPAN, -5e-324, math.nan):
        with pytest.raises(hn.ConfigError, match="conditioned theta"):
            two_bob_kernel(PI / 5, pr.NO_FLIP, pr.CoinMode.INDEPENDENT, theta_fixed)
        with pytest.raises(hn.ConfigError, match="conditioned theta"):
            pair_kernel(1.0, PI, pr.NO_FLIP, theta_fixed)


@pytest.mark.parametrize("a", SETTINGS + (0.123, 2 * PI / 5 + PI / 10))
@pytest.mark.parametrize("b", AXES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pair_and_joint_kernels_match_reference(a, b, strategy):
    for theta_fixed in (None,) + SPECIAL_THETAS[:4]:
        for seed in (3, 4):
            _both(pair_kernel(a, b, strategy, theta_fixed),
                  lambda draw, n: ref_pair(a, b, strategy, theta_fixed, draw, n), seed)
    # the joint cells are derived from the pair counts, drawn on the empty key
    joint = hn.joint_outcome_table(a, b, TRIALS, 5, strategy)
    want = ref_joint(a, b, strategy, draws(5, ()), TRIALS)
    assert joint.dtype == np.int64
    assert [TRIALS] + joint.ravel().tolist() == [int(v) for v in want]


@pytest.mark.parametrize("nu", NUS)
@pytest.mark.parametrize("coin_mode", COINS)
def test_visibility_kernel_matches_reference(nu, coin_mode):
    for strategy in STRATEGIES:
        for visibility in (0.5, 1.0):
            _both(two_bob_kernel(nu, strategy, coin_mode, visibility=visibility),
                  lambda draw, n: ref_visibility(nu, visibility, strategy, coin_mode, draw, n), 6)


def test_rows_longer_than_a_lookup_chunk():
    nu, strategy, coin = PI / 10, pr.CYCLIC_FLIP, pr.CoinMode.INDEPENDENT
    n = 2 * hn._CHUNK + 1234
    _both(two_bob_kernel(nu, strategy, coin),
          lambda draw, n: ref_two_bob(nu, strategy, coin, None, draw, n), 7, n)
    _both(pair_kernel(1.0, PI, pr.ABS_FLIP),
          lambda draw, n: ref_pair(1.0, PI, pr.ABS_FLIP, None, draw, n), 8, n)


def test_rows_longer_than_a_block_match_the_whole_row_reference():
    """Past a block seam, at the package's own sizes, a row still tallies as its whole-row draws do, c included.

    A block whose size is not a multiple of 32 would start the next block's
    sign draw on a fresh 32-bit half, so the sign cells would differ here.
    """
    n = hn._BLOCK + 37
    _both(pair_kernel(1.0, PI, pr.ABS_FLIP), lambda draw, n: ref_pair(1.0, PI, pr.ABS_FLIP, None, draw, n), 9, n)
    _both(two_bob_kernel(PI / 10, pr.CYCLIC_FLIP, pr.CoinMode.INDEPENDENT, visibility=0.7),
          lambda draw, n: ref_visibility(PI / 10, 0.7, pr.CYCLIC_FLIP, pr.CoinMode.INDEPENDENT, draw, n), 10, n)


SEAM_SIZES = (1, 7, hn._CHUNK - 1, hn._CHUNK, hn._CHUNK + 1, 3 * hn._CHUNK + 5)


#: the cyclic reading that ends the round when the reflection fires
CYCLIC_TERMINATE = pr.Strategy(pr.FlipRule.CYCLIC, pr.FlipSemantics.TERMINATE)
#: at theta = 1.2, Bob's axis sits on the boundary that separates him from Alice at 2.0: acceptance 1, cross slot
SEPARATOR_THETA = 1.2
SEPARATOR_B = SEPARATOR_THETA + geo.BETA_OFFSETS[1]


def _row_shapes():
    """Every row shape the kernel runs, as its id and a builder of (kernel, whole-row reference).

    A builder takes ``signs``: whether the kernel draws c and tallies the
    sign cells; the reference then carries just the cells that kernel
    carries. Each case builds its own shape, so a shape that fails to build
    fails its cases alone. The shapes named ``constant`` or ``terminated``
    have axes whose decision no draw can change: Bob on Alice's setting, a
    fired terminating reflection, a conditioned Bob on the separator. At
    ``nu = pi/10`` the cyclic reading fires on the axis ``b1 + pi`` only.
    The shapes named ``no-windows`` are those of ``remedy`` rows; a
    conditioned shape counts no windows, given them or not
    (:func:`test_windows_change_no_cell_of_a_conditioned_two_axis_kernel`).
    """
    nu, strategy, fixed = PI / 10, pr.CYCLIC_FLIP, 1.2

    def pair(a, b, strategy, theta_fixed=None):
        return lambda signs: (pair_kernel(a, b, strategy, theta_fixed, signs),
                              carried(lambda draw, n: ref_pair(a, b, strategy, theta_fixed, draw, n), signs))

    def two_bob(strategy, coin, theta_fixed=None, visibility=None, a=None, windows=True):
        def reference(draw, n):
            if visibility is None:
                return ref_two_bob(nu, strategy, coin, theta_fixed, draw, n, a=a)
            return ref_visibility(nu, visibility, strategy, coin, draw, n)

        return lambda signs: (two_bob_kernel(nu, strategy, coin, theta_fixed, visibility, a, signs, windows),
                              carried(reference, signs, windows))

    yield "one-axis", pair(1.0, PI, pr.ABS_FLIP)
    yield "one-axis-conditioned", pair(1.0, PI, pr.ABS_FLIP, fixed)
    # the one-axis conditioned shape above is constant at theta = 1.2; this one accepts with 1 - (3pi/10) sin(pi/20)
    yield "one-axis-conditioned-live", pair(PI / 2, PI, pr.NO_FLIP, 0.35 * PI)
    for coin in COINS:
        yield f"two-axis-{coin.value}", two_bob(strategy, coin)
        yield f"two-axis-{coin.value}-conditioned", two_bob(strategy, coin, fixed)
        yield f"visibility-{coin.value}", two_bob(strategy, coin, visibility=0.7)
    yield "one-axis-constant-same-setting", pair(1.0, 1.0, pr.ABS_FLIP)
    yield "one-axis-constant-terminated", pair(1.0, PI, CYCLIC_TERMINATE)
    yield "one-axis-constant-conditioned-on-the-separator", pair(2.0, SEPARATOR_B, pr.NO_FLIP, SEPARATOR_THETA)
    for coin in COINS:
        yield f"two-axis-{coin.value}-one-terminated", two_bob(CYCLIC_TERMINATE, coin)
        yield f"visibility-{coin.value}-one-terminated", two_bob(CYCLIC_TERMINATE, coin, visibility=0.7)
        # Alice on b1 shares its slot, and the reflection ends the round on b1 + pi: no axis is live
        yield f"two-axis-{coin.value}-constant", two_bob(CYCLIC_TERMINATE, coin, a=WALKTHROUGH_B1)
        # as audit's constant-decision streams: conditioned, so nothing at all is drawn without signs
        yield f"two-axis-{coin.value}-constant-conditioned", two_bob(CYCLIC_TERMINATE, coin, fixed, a=WALKTHROUGH_B1)
    for coin in COINS:
        yield f"two-axis-{coin.value}-no-windows", two_bob(strategy, coin, windows=False)


ROW_SHAPES = dict(_row_shapes())


@pytest.mark.parametrize("n", SEAM_SIZES)
@pytest.mark.parametrize("shape", list(ROW_SHAPES))
def test_chunk_seams_match_the_whole_batch_reference(shape, n):
    """Rows ending before, at and after a chunk seam tally as the whole-row draws do, sign cells included.

    The references read each draw's whole array from its own generator; the
    kernel reads it chunk by chunk. Sizes that are not a multiple of 32 leave
    bits of the sign draw's last 32-bit half unused.
    """
    kernel, reference = ROW_SHAPES[shape](signs=True)
    for seed in (21, 22):
        _both(kernel, reference, seed, n)


@pytest.mark.parametrize("n", SEAM_SIZES)
@pytest.mark.parametrize("shape", list(ROW_SHAPES))
def test_default_path_chunk_seams_match_the_whole_batch_reference(shape, n):
    """Without signs, a kernel carries every other cell of its shape and tallies each as the whole-row draws do.

    It draws no c, and every other draw keeps its own generator.
    """
    kernel, reference = ROW_SHAPES[shape](signs=False)
    for seed in (21, 22):
        _both(kernel, reference, seed, n)


@pytest.mark.parametrize("shape", list(ROW_SHAPES))
def test_every_row_shape_runs_one_batch_without_a_warning(shape):
    """A row under warnings as errors: a NumPy that flags comparing a coin with a NaN screen bin fails here.

    The row spans a chunk seam and still tallies as the whole-row reference
    does, with signs and without.
    """
    n = hn._CHUNK + 7
    for signs in (True, False):
        kernel, reference = ROW_SHAPES[shape](signs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel(24, KEY, n)
        _both(lambda seed, key, n: got, reference, 24, n)


@pytest.mark.parametrize("n", SEAM_SIZES)
@pytest.mark.parametrize("coin", COINS, ids=lambda coin: coin.value)
def test_windows_change_no_cell_of_a_conditioned_two_axis_kernel(coin, n):
    """A conditioned two-axis kernel given windows tallies as one given none, cell for cell, signs or not.

    Its rows run under warnings as errors, across the chunk seams.
    """
    for signs in (True, False):
        given, without = (two_bob_kernel(PI / 10, pr.CYCLIC_FLIP, coin, 1.2, signs=signs, windows=windows)
                          for windows in (True, False))
        for seed in (21, 22):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, want = (kernel(seed, KEY, n) for kernel in (given, without))
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()


def test_a_coin_mode_string_samples_and_sums_as_its_member():
    """A two-axis kernel and ``SegmentTable.expectation`` read ``"shared"`` as the shared coin; a bad mode raises."""
    table = pr.segment_table(alice_setting(PI / 10), (WALKTHROUGH_B1, WALKTHROUGH_B1 + PI), pr.CYCLIC_FLIP)
    for coin_mode in COINS:
        assert table.expectation(coin_mode.value) == table.expectation(coin_mode)
        got, want = (hn._kernel(table, mode)(27, KEY, 1000) for mode in (coin_mode.value, coin_mode))
        assert got.tolist() == want.tolist()
    for call in (table.expectation, lambda mode: hn._kernel(table, mode)):
        with pytest.raises(ValueError, match="bogus"):
            call("bogus")


def test_a_two_axis_visibility_row_peaks_under_four_megabytes():
    """A block holds bool arrays of the block and float arrays of one chunk; a float block array is 2 MB.

    The row runs four blocks, a million trials, and peaks as one block does.
    """
    for coin_mode in COINS:
        kernel = two_bob_kernel(PI / 10, pr.CYCLIC_FLIP, coin_mode, visibility=0.7)
        kernel(25, KEY, 1000)  # builds the table's screen
        tracemalloc.start()
        try:
            kernel(26, KEY, 4 * hn._BLOCK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, (coin_mode, peak)


@pytest.mark.parametrize("shape", list(ROW_SHAPES))
def test_chunk_and_block_sizes_change_no_tally(shape, monkeypatch):
    """Under other chunk and block sizes, each a multiple of 32, every row shape tallies as at the package's own."""
    n = 1000
    kernel, _ = ROW_SHAPES[shape](signs=True)
    want = kernel(28, KEY, n).tolist()
    for chunk, block in ((32, 32), (32, 96), (64, 96), (96, 960), (2048, 4096)):
        monkeypatch.setattr(hn, "_CHUNK", chunk)
        monkeypatch.setattr(hn, "_BLOCK", block)
        assert kernel(28, KEY, n).tolist() == want, (chunk, block)


#: per row shape, the draws its kernel reads with signs; without signs it reads the same less c
READS = {
    "one-axis": {THETA, SIGN, COIN_1},
    "one-axis-conditioned": {SIGN},
    "one-axis-conditioned-live": {SIGN, COIN_1},
    "two-axis-independent": {THETA, SIGN, COIN_1, COIN_2},
    "two-axis-independent-conditioned": {SIGN},  # both acceptances are 1 at theta = 1.2
    "visibility-independent": {THETA, SIGN, COIN_1, COIN_2, ERASE_1, ERASE_2},
    "two-axis-shared": {THETA, SIGN, COIN_1},
    "two-axis-shared-conditioned": {SIGN},
    "visibility-shared": {THETA, SIGN, COIN_1, ERASE_1, ERASE_2},
    "one-axis-constant-same-setting": {SIGN},
    "one-axis-constant-terminated": {SIGN},
    "one-axis-constant-conditioned-on-the-separator": {SIGN},
    "two-axis-independent-one-terminated": {THETA, SIGN, COIN_1},
    "visibility-independent-one-terminated": {THETA, SIGN, COIN_1, ERASE_1, ERASE_2},
    "two-axis-independent-constant": {THETA, SIGN},
    "two-axis-independent-constant-conditioned": {SIGN},
    "two-axis-shared-one-terminated": {THETA, SIGN, COIN_1},
    "visibility-shared-one-terminated": {THETA, SIGN, COIN_1, ERASE_1, ERASE_2},
    "two-axis-shared-constant": {THETA, SIGN},
    "two-axis-shared-constant-conditioned": {SIGN},
    "two-axis-independent-no-windows": {THETA, SIGN, COIN_1, COIN_2},
    "two-axis-shared-no-windows": {THETA, SIGN, COIN_1},
}


def _taken(monkeypatch) -> list:
    """The ``(seed, key, draw)`` of each generator the kernels take from now on."""
    taken, draw_rng = [], hn._draw_rng
    monkeypatch.setattr(hn, "_draw_rng", lambda seed, key, d: taken.append((seed, key, d)) or draw_rng(seed, key, d))
    return taken


def test_read_draws_cover_every_row_shape():
    assert set(READS) == set(ROW_SHAPES)


@pytest.mark.parametrize("shape", list(ROW_SHAPES))
def test_each_read_draw_takes_the_generator_of_its_key(shape, monkeypatch):
    """A row takes one generator per draw it reads, on its own key and that draw's index, and none for another draw.

    A constant axis reads no coin, theta is read only when a live axis or
    the window tally reads it, and c only with signs; the shared coin is
    draw 2. The tallies still equal the whole-row reference's, so an unread
    draw moves no other.
    """
    taken = _taken(monkeypatch)
    for signs in (True, False):
        kernel, reference = ROW_SHAPES[shape](signs)
        taken.clear()
        _both(kernel, reference, 23, hn._CHUNK + 7)
        assert sorted(taken) == [(23, KEY, d) for d in sorted(READS[shape] - ({SIGN} if not signs else set()))]


def test_a_draw_generator_is_seeded_by_the_row_key_and_the_draw_index():
    for seed, key in ((11, (0,)), (0, (3, 1)), (2**64 - 1, (7, 0))):
        for d in range(6):
            want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, d)))
            assert hn._draw_rng(seed, key, d).bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("shape", list(ROW_SHAPES))
def test_an_unread_sign_draw_moves_no_other_cell(shape):
    """Without signs a kernel tallies every cell it shares with the kernel built with them, count for count."""
    with_signs, without = (ROW_SHAPES[shape](signs)[0] for signs in (True, False))
    for n in (1, hn._CHUNK + 7):
        got, want = without(30, KEY, n), with_signs(30, KEY, n)
        assert got.tolist() == want[:len(got)].tolist()


#: the row shapes that, without signs, read no draw at all
NO_DRAW_ROWS = [shape for shape, reads in READS.items() if reads == {SIGN}]


@pytest.mark.parametrize("n", SEAM_SIZES)
@pytest.mark.parametrize("shape", NO_DRAW_ROWS)
def test_a_row_that_reads_no_draw_takes_no_generator(shape, n, monkeypatch):
    """Its row tallies from ``n`` alone, as the whole-row reference does; with signs it draws c again."""
    taken = _taken(monkeypatch)
    for signs in (False, True):
        kernel, reference = ROW_SHAPES[shape](signs)
        for seed in (21, 22):
            _both(kernel, reference, seed, n)
        assert [d for _, _, d in taken] == [SIGN] * 2 * signs, (shape, signs)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 7_001, hn._CHUNK + 1, 3 * hn._CHUNK + 5])
def test_sign_draw_read_in_calls_of_multiples_of_32_equals_one_read(n):
    """NumPy's ``integers(0, 2, m, dtype=bool)`` read in calls of a multiple of 32, the last aside, is one read.

    NumPy takes 32 bools off each 32-bit half of an output and keeps an
    unused half for its next call, so the kernel's chunked c is the whole-row
    c because its chunk and block sizes are multiples of 32. A call of 33
    drops the rest of its last half, so the next call starts on a fresh one.
    A NumPy that consumes its draws otherwise fails here.
    """
    for seed in range(20):
        want = np.random.default_rng(seed).integers(0, 2, n, dtype=bool)
        for size in (32, hn._CHUNK):
            rng = np.random.default_rng(seed)
            got = np.concatenate([rng.integers(0, 2, min(size, n - s), dtype=bool) for s in range(0, n, size)])
            assert np.array_equal(got, want)
    rng = np.random.default_rng(0)
    split = np.concatenate([rng.integers(0, 2, 33, dtype=bool), rng.integers(0, 2, 64, dtype=bool)])
    assert not np.array_equal(split, np.random.default_rng(0).integers(0, 2, 97, dtype=bool))


# --- the table next to its edges -------------------------------------------


def _table_cases():
    settings_ = SETTINGS + tuple(alice_setting(nu) for nu in NUS)
    for strategy in STRATEGIES:
        for a in settings_:
            yield a, AXES, strategy


def _near(values, ulps: int = 64) -> np.ndarray:
    bits = np.asarray(values, dtype=float).view(np.int64)
    around = (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel()
    theta = np.unique(around.clip(0, np.array(LAST_THETA).view(np.int64)).view(np.float64))
    return theta


def _assert_table_decides_like_evaluate_bob(table, a, axes, strategy, raw):
    """The table's acceptance threshold and negation equal evaluate_bob's bit for bit.

    Probing the theta of each raw theta output with coin = q and coin =
    nextafter(q, 0) (where valid) separates any two thresholds that differ
    by even one ulp.
    """
    theta = theta_of(raw)
    for j, b in enumerate(axes):
        q, negate = _accept(a, b, theta, strategy)
        for coin in (q, np.nextafter(q, 0.0)):
            valid = coin < 1.0
            want = (coin < q) ^ negate
            got = keeps_c(table, raw, [coin] * len(axes))[j]
            assert np.array_equal(got[valid], want[valid]), (a, b, strategy)


def _spread(m) -> np.ndarray:
    """The raw theta outputs ``m << 11`` of the top 53 bits ``m``, clipped to those of a theta, once each."""
    return np.unique(np.asarray(m, dtype=np.int64).clip(0, 2**53 - 1)).astype(np.uint64) << np.uint64(11)


#: the raw outputs of 2,001 evenly spaced reachable thetas from 0 to the last, ``LAST_THETA``
SWEEP = _spread(np.linspace(0.0, 2**53 - 1, 2001))


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_table_offsets_equal_the_masked_separator(a, axes, strategy):
    """Each segment's offset is that of ``evaluate_bob``'s separator, masked to -1 where Bob needs none, else 0.0."""
    table = pr.segment_table(a, axes, strategy)
    starts = np.concatenate(([0.0], table.edges))
    alpha, beta_slots, gamma_slots = pr.alice_slot_arrays(a, starts)
    for j, b in enumerate(axes):
        ev = pr.evaluate_bob(alpha, beta_slots, gamma_slots, b, starts, strategy)
        index = np.where(ev.same_slot, -1, ev.boundary_index)
        offsets = np.asarray(geo.GAMMA_OFFSETS if ev.system == "gamma" else geo.BETA_OFFSETS)
        want = np.where(index < 0, 0.0, offsets[index])
        assert table.offset[j].tobytes() == want.tobytes()


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_table_matches_evaluate_bob_around_every_edge(a, axes, strategy):
    table = pr.segment_table(a, axes, strategy)
    assert np.all(np.diff(table.edges) > 0)
    assert np.all((table.edges > 0.0) & (table.edges <= LAST_THETA))
    probes = [0.0, LAST_THETA, *table.edges]
    alpha = int(geo.alpha_slot_of(a))
    probes += [WRAP_THETA for b in axes if pr._bob_axis(alpha, geo.normalize_angle(b), strategy)[2] == "gamma"]
    # the first 256 reachable thetas, to 5e-14, hold those nearest SPECIAL_THETAS and any tiny edge
    raw = np.union1d(outputs_near(probes, 64), _spread(np.arange(256)))
    theta = theta_of(raw)
    # the lookup counts the edges at or below theta, as a binary search would
    # (without edges the count is a plain 0, which broadcasts)
    assert np.all(geo._rank(theta, table.edges) == np.searchsorted(table.edges, theta, side="right"))
    _assert_table_decides_like_evaluate_bob(table, a, axes, strategy, raw)
    # and on a uniform sweep of the whole range
    _assert_table_decides_like_evaluate_bob(table, a, axes, strategy, SWEEP)


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_accept_is_evaluate_bobs_acceptance_at_a_float_and_over_an_array(a, axes, strategy):
    """Per axis, ``SegmentTable.accept`` equals ``evaluate_bob``'s acceptance bit for bit, 1 on a constant axis.

    An array theta gives float64 arrays of its shape, a float theta Python floats.
    """
    table = pr.segment_table(a, axes, strategy)
    theta = np.union1d(_near([0.0, LAST_THETA, *table.edges], ulps=2), SPECIAL_THETAS)
    got = table.accept(theta)
    for j, b in enumerate(axes):
        want, _ = _accept(a, b, theta, strategy)
        assert (got[j].dtype, got[j].shape, got[j].tobytes()) == (want.dtype, want.shape, want.tobytes()), (a, b)
        assert table.constant[j] is None or np.all(got[j] == 1.0), (a, b, strategy)
    for i, t in enumerate(theta.tolist()):
        at = table.accept(t)
        assert [type(q) for q in at] == [float] * len(axes) and at == [q[i] for q in got], (a, axes, strategy, t)


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_screen_decides_like_evaluate_bob_at_every_bin_boundary(a, axes, strategy):
    """Each raw bin boundary ``k << 52`` and the outputs up to three ``2**11`` steps either side, the top end too.

    An output's top 12 bits are its bin and its top 53 its theta, so a step
    of ``2**11`` is the next theta. Rounding puts some bin's last theta on
    or past its nominal end, which the screen's bracket must reach.
    """
    table = pr.segment_table(a, axes, strategy)
    raw = _spread((np.arange(pr._BINS + 1, dtype=np.int64) << 41)[:, None] + np.arange(-3, 4))
    assert len(raw) == 7 * (pr._BINS + 1) - 7  # none below the first boundary, and none at or above the top end
    assert np.any(theta_of(raw) >= ((raw >> np.uint64(52)) + 1) * (geo.THETA_SPAN / pr._BINS))
    _assert_table_decides_like_evaluate_bob(table, a, axes, strategy, raw)


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_screen_decides_like_evaluate_bob_at_its_bracket_ends(a, axes, strategy):
    """Uniform thetas, with coins on the exact acceptance, one ulp either side and at each bracket end.

    A coin just below ``lo`` is decided by the screen as kept and a coin at
    ``lo + _WIDTH`` as not kept; a bracket that misses the acceptance by one
    ulp decides one of the two wrongly. A NaN bin's probes are NaN and test
    nothing; the coins on the acceptance test those bins.
    """
    table = pr.segment_table(a, axes, strategy)
    raw = np.random.default_rng(1010).bit_generator.random_raw(20_000)  # about five per bin
    theta, k = theta_of(raw), (raw >> np.uint64(52)).astype(np.intp)
    alice = pr.alice_slot_arrays(a, theta)
    accepts = [(ev.accept_prob, ev.negate) for ev in (pr.evaluate_bob(*alice, b, theta, strategy) for b in axes)]
    probes = [[q, np.nextafter(q, 0.0), np.nextafter(q, 2.0)] for q, _ in accepts]
    for j, lo in enumerate(table._screen):
        if lo is not None:
            probes[j] += [np.nextafter(lo[k], -1.0), lo[k] + pr._WIDTH]
        else:  # a constant axis has no screen; probe it at q again
            probes[j] += probes[j][:2]
    for coins in zip(*probes):
        got = keeps_c(table, raw, list(coins))
        for j, (coin, (q, negate)) in enumerate(zip(coins, accepts)):
            below_one = coin < 1.0  # a terminated axis is decided for coins in [0, 1) only
            want = (coin < q) ^ negate
            assert np.array_equal(got[j][below_one], want[below_one]), (a, axes[j], strategy)


def _two_array_brackets(table, j):
    """Axis ``j``'s brackets ``(lo, hi)`` as the screen held them in two arrays, and the bins near an edge.

    A bin runs from the theta of its least raw output to that of its
    greatest. A bin whose two ends rank into different segments held
    ``[0, 2]``, a same-slot bin ``[1, 1]``, and a cross-slot bin the
    acceptance at the mean of its ends less and plus the slack.
    """
    first = theta_of(np.arange(pr._BINS, dtype=np.uint64) << np.uint64(52))
    last = theta_of((np.arange(1, pr._BINS + 1, dtype=np.uint64) << np.uint64(52)) - np.uint64(1))
    centre = (first + last) / 2.0
    seg = geo._rank(centre, table.edges)
    near = geo._rank(first, table.edges) != geo._rank(last, table.edges)
    q = table._accept(j, centre, seg)
    slack = np.where(table.same[j][seg], 0.0, pr._SLACK)
    return np.where(near, 0.0, q - slack), np.where(near, 2.0, q + slack), near, table.same[j][seg]


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_one_array_screen_keeps_the_two_array_brackets(a, axes, strategy):
    """NaN where the two arrays decided nothing, 1.0 on same-slot bins, and cross bins at least as wide.

    A cross-slot bin keeps the old lower end bit for bit, and its upper end
    ``lo + _WIDTH``, rounded, lies at or above the old ``hi``, which bounds
    the acceptance.
    """
    table = pr.segment_table(a, axes, strategy)
    for j, lo in enumerate(table._screen):
        if lo is None:
            assert table.constant[j] is not None
            continue
        old_lo, old_hi, undecided, same = _two_array_brackets(table, j)
        cross = ~undecided & ~same
        assert lo.shape == (pr._BINS,)
        assert np.array_equal(np.isnan(lo), undecided)
        assert np.all(lo[same & ~undecided] == 1.0)
        assert lo[cross].tobytes() == old_lo[cross].tobytes()
        assert np.all(lo[cross] + pr._WIDTH >= old_hi[cross])


def test_summing_a_table_never_builds_its_screen(monkeypatch):
    """The screen is for sampling; the exact theta averages build tables per call and must not pay for it."""
    def build(table):
        raise AssertionError("screen built")

    monkeypatch.setattr(pr.SegmentTable, "_screen", property(build))
    table = pr.segment_table(alice_setting(PI / 10), (WALKTHROUGH_B1, WALKTHROUGH_B1 + PI), pr.CYCLIC_FLIP)
    for coin_mode in COINS:
        table.expectation(coin_mode)
        for strategy in (pr.NO_FLIP, pr.ABS_FLIP):
            two_bob_equal_quadrature(PI / 10, strategy, coin_mode)
    with pytest.raises(AssertionError, match="screen built"):
        keeps_c(table, np.zeros(1, dtype=np.uint64), [np.zeros(1), np.zeros(1)])


@pytest.mark.parametrize("n", [1, 7, 7_000, 250_000])
def test_kernel_theta_draw_equals_uniform_draw(n):
    """The kernel reads theta off ``random_raw(n)``; NumPy's ``uniform(0, 3*pi/5, n)`` gives the same bits.

    PCG64's ``random()`` is ``(x >> 11) * 2**-53`` of a raw output ``x``,
    and ``uniform`` computes ``low + (high - low) * random()``, where
    ``0.0 + y == y`` for ``y >= 0``. Scaling by ``2**-53`` is exact, so
    ``(x >> 11) * (THETA_SPAN * 2**-53)`` rounds once, as ``uniform`` does.
    The screen's bin ``x >> 52`` is ``floor(random() * 4096)``, and both
    routes consume the same outputs, so the generators end in the same
    state. A NumPy that computes ``random`` or ``uniform`` otherwise fails
    here.
    """
    for seed in range(20):
        uniform, unit, raw_draw = (np.random.default_rng(seed) for _ in range(3))
        raw = raw_draw.bit_generator.random_raw(n)
        want = uniform.uniform(0.0, geo.THETA_SPAN, n)
        got = (raw >> np.uint64(11)) * pr._THETA_STEP
        assert pr._THETA_STEP == geo.THETA_SPAN * 2.0**-53
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(raw >> np.uint64(52), np.floor(unit.random(n) * pr._BINS).astype(np.uint64))
        assert raw_draw.bit_generator.state == uniform.bit_generator.state == unit.bit_generator.state


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_every_edge_is_a_slot_flip(a, axes, strategy):
    """No spurious edges: some axis's branch changes between an edge and the float below it."""
    table = pr.segment_table(a, axes, strategy)
    below = np.nextafter(table.edges, 0.0)
    alpha, beta_lo, gamma_lo = pr.alice_slot_arrays(a, below)
    _, beta_hi, gamma_hi = pr.alice_slot_arrays(a, table.edges)
    changed = np.zeros(len(table.edges), dtype=bool)
    for b in axes:
        lo = pr.evaluate_bob(alpha, beta_lo, gamma_lo, b, below, strategy)
        hi = pr.evaluate_bob(alpha, beta_hi, gamma_hi, b, table.edges, strategy)
        changed |= (lo.alice_slot != hi.alice_slot) | (lo.bob_slot != hi.bob_slot)
    assert changed.all()


def _ulps_around(v: float, ulps: int = 4) -> list[float]:
    out, lo, hi = [v], v, v
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _bound_values(theta: float) -> list[float]:
    """The values of every slot bound at ``theta``, the wrapped ``s - 2*pi`` of gamma included."""
    return [theta + o for o in geo.BETA_OFFSETS + geo.GAMMA_OFFSETS] + [theta + geo.GAMMA_OFFSETS[1] - geo.TWO_PI]


#: every setting within 4 ulps of a slot bound at theta = 0 or at the last theta, as the slot rule normalizes it
BOUND_SETTINGS = sorted({geo.normalize_angle(x) for theta in (0.0, LAST_THETA)
                         for v in _bound_values(theta) for x in _ulps_around(v)})


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_table_edges_equal_the_bisection_oracle(a, axes, strategy, monkeypatch):
    edges = pr.segment_table(a, axes, strategy).edges
    monkeypatch.setattr(geo, "_flip_points", bisect_flip_points)
    assert edges.tobytes() == pr.segment_table(a, axes, strategy).edges.tobytes()


@pytest.mark.parametrize("system", ["beta", "gamma"])
def test_flip_points_equal_the_bisection_oracle(system):
    """Each closed-form crossing is the float bisection finds, next to every bound at both ends and elsewhere."""
    random = np.random.default_rng(13).uniform(0.0, 2 * PI, 300).tolist()
    settings_ = BOUND_SETTINGS + [0.0, math.nextafter(geo.TWO_PI, 0.0)] + random
    for x in settings_:
        got, want = np.unique(geo._flip_points({(x, system)})), np.unique(bisect_flip_points({(x, system)}))
        assert got.tobytes() == want.tobytes(), (x, system, got, want)
    tests = {(x, s) for x in settings_ for s in ("beta", "gamma")}
    assert np.unique(geo._flip_points(tests)).tobytes() == np.unique(bisect_flip_points(tests)).tobytes()


def _double_above(r: Fraction, strict: bool) -> float:
    """The least double above the rational ``r``, or at or above it when not ``strict``."""
    f = float(r)  # the nearest double, so at most one step below
    return math.nextafter(f, math.inf) if Fraction(f) < r or (strict and Fraction(f) == r) else f


def _probed_crossings(xs, system: str) -> int:
    """How many crossings of the normalized settings ``xs`` in ``system`` have a float ``t`` in ``[0, LAST_THETA]``.

    Worked in exact rationals: a bound ``theta + o``, less ``shift`` for
    gamma's wrapped ``s - 2*pi``, first exceeds ``X = x + shift`` near the
    least double ``t`` at or above ``M - o``, where ``Y`` is the least double
    above ``X`` and ``M`` the midpoint between ``Y`` and the double below it.
    """
    offsets = geo.BETA_OFFSETS if system == "beta" else geo.GAMMA_OFFSETS
    bounds = [(o, 0.0) for o in offsets] + ([(geo.GAMMA_OFFSETS[1], geo.TWO_PI)] if system == "gamma" else [])
    count = 0
    for x in xs:
        for o, shift in bounds:
            y = _double_above(Fraction(x) + Fraction(shift), strict=True)
            t = _double_above((Fraction(y) + Fraction(math.nextafter(y, 0.0))) / 2 - Fraction(o), strict=False)
            count += 0.0 <= t <= LAST_THETA
    return count


def test_table_build_calls_the_slot_rule_a_fixed_number_of_times(monkeypatch):
    """The slot rule runs three times per probed crossing (below, at, above) however near a bound the setting sits.

    Axis 0 is tested in gamma and axis pi in beta, so each segment start
    also costs one call of each system for Alice's slots and one in each
    axis's system: no search loop, and no probe beyond the three. Alice's
    slot is read only in a system some live axis uses: in the frame under
    the cyclic reading both axes are 0 in gamma below nu = pi/5 (Bob's pi
    reflects) and pi in beta at it (Bob's 0 reflects), and a table whose
    every axis is terminated reads no slot.
    """
    calls = {}

    def counting(name, slot_of):
        def counted(x, theta):
            calls[name] += 1
            return slot_of(x, theta)
        return counted

    beta, gamma = counting("beta", geo.beta_slot_of), counting("gamma", geo.gamma_slot_of)
    for module in (pr, geo):  # Alice's slots and Bob's branch step, and the crossing search
        monkeypatch.setattr(module, "beta_slot_of", beta)
        monkeypatch.setattr(module, "gamma_slot_of", gamma)
    for a in _bound_values(0.0)[:-1] + [1.0, 0.123, LAST_THETA] + BOUND_SETTINGS:
        calls.update(beta=0, gamma=0)
        starts = len(pr.segment_table(a, AXES, pr.NO_FLIP).edges) + 1
        x = geo.normalize_angle(a)
        want = {system: 3 * _probed_crossings({x, axis}, system) + starts * (1 + 1)
                for system, axis in (("beta", PI), ("gamma", 0.0))}
        assert calls == want, a
    for nu in NUS:
        calls.update(beta=0, gamma=0)
        starts = len(pr.segment_table(alice_setting(nu), AXES, pr.CYCLIC_FLIP).edges) + 1
        system, axis = ("beta", PI) if nu == PI / 5 else ("gamma", 0.0)
        want = dict(beta=0, gamma=0)
        want[system] = 3 * _probed_crossings({geo.normalize_angle(alice_setting(nu)), axis}, system) + starts * (1 + 2)
        assert calls == want, nu
    calls.update(beta=0, gamma=0)
    terminate = pr.Strategy(pr.FlipRule.CYCLIC, pr.FlipSemantics.TERMINATE)
    terminated = pr.segment_table(0.1, (PI + 0.1, 0.7 * PI), terminate)  # Alice in alpha slot 0, Bob in 5 and 3
    assert terminated.constant == (False, False) and calls == dict(beta=0, gamma=0)


def test_table_build_computes_no_acceptance(monkeypatch):
    """A table reads only Bob's branch step: building one never calls ``_acceptance``."""
    calls = []
    monkeypatch.setattr(pr, "_acceptance", lambda *args: calls.append(args))
    for a, axes, strategy in _table_cases():
        pr.segment_table(a, axes, strategy)
    assert calls == []


@pytest.mark.parametrize("b", [0.3, 1.1, 4.5, 5.1, 6.2])
def test_table_matches_evaluate_bob_at_the_gamma_wrap(b):
    """At WRAP_THETA gamma_1 = theta + 8*pi/5 wraps from 2*pi to 0.

    Gamma-system axes whose ``2*pi - b`` rounds give a distance that depends
    on which side of the wrap the boundary is put, so these cases separate
    a wrap at the wrong float. Some setting must put the separator there.
    """
    offset = geo.GAMMA_OFFSETS[1]
    assert WRAP_THETA + offset == geo.TWO_PI > math.nextafter(WRAP_THETA, 0.0) + offset
    separated = 0
    for a in np.linspace(0.0, 2 * PI, 40, endpoint=False):
        table = pr.segment_table(a, (b,), pr.NO_FLIP)
        seg = int(np.searchsorted(table.edges, WRAP_THETA, side="right"))
        separated += not table.same[0][seg] and table.offset[0][seg] == offset
        _assert_table_decides_like_evaluate_bob(table, a, (b,), pr.NO_FLIP, outputs_near([WRAP_THETA], 64))
    assert separated


def test_coinciding_breakpoints_split_one_float_apart():
    # at a = 7*pi/5 Alice's gamma test, Bob's gamma test on axis 0 and his
    # beta test on axis pi all flip next to theta = 2*pi/5, a float apart;
    # each flip is its own edge
    a = 7 * PI / 5
    table = pr.segment_table(a, AXES, pr.NO_FLIP)
    close = table.edges[:-1][np.diff(table.edges.view(np.int64)) == 1]
    assert len(close) >= 1
    assert abs(close[0] - 2 * PI / 5) < 1e-15
    _assert_table_decides_like_evaluate_bob(table, a, AXES, pr.NO_FLIP, outputs_near(close, 8))


def test_tiny_theta_flip_gets_its_own_edge():
    # Alice at 0, tested in beta, owns the boundary theta only at theta = 0:
    # she leaves slot 0 for slot 2 at the first float above it
    table = pr.segment_table(0.0, (PI,), pr.NO_FLIP)
    edge = table.edges[0]
    assert edge == 5e-324
    assert int(geo.beta_slot_of(0.0, 0.0)) == 0
    assert int(geo.beta_slot_of(0.0, edge)) == 2


@pytest.mark.parametrize("a,axes,strategy", list(_table_cases()))
def test_table_constants_equal_a_dense_evaluate_bob_scan(a, axes, strategy):
    """An axis is constant exactly when its acceptance is 1 at and next to every edge and across the range.

    Its constant is then ``not negate``; a live axis has some theta where
    the acceptance is below 1, so some coin changes its decision.
    """
    table = pr.segment_table(a, axes, strategy)
    theta = np.union1d(_near([0.0, LAST_THETA, *table.edges]), np.linspace(0.0, LAST_THETA, 2001))
    for j, b in enumerate(axes):
        q, negate = _accept(a, b, theta, strategy)
        want = (not negate) if np.all(q == 1.0) else None
        assert table.constant[j] == want, (a, b, strategy)


def test_table_cases_hold_every_kind_of_axis():
    """The table cases include live axes and both constants, one of them from a fired terminating reflection."""
    kinds = set()
    for a, axes, strategy in _table_cases():
        table = pr.segment_table(a, axes, strategy)
        kinds.update(zip(table.constant, (strategy.flip_semantics is pr.FlipSemantics.TERMINATE,) * len(axes)))
    assert {None, True} <= {k for k, _ in kinds} and (False, True) in kinds


def test_conditioned_separator_row_accepts_surely_across_slots():
    """The separator shape is cross-slot with acceptance exactly 1, the case a table's ``same`` cannot show."""
    alpha, beta_slots, gamma_slots = pr.alice_slot_arrays(2.0, SEPARATOR_THETA)
    ev = pr.evaluate_bob(alpha, beta_slots, gamma_slots, SEPARATOR_B, SEPARATOR_THETA, pr.NO_FLIP)
    assert not ev.same_slot and float(ev.u) == 0.0 and float(ev.accept_prob) == 1.0


def test_building_a_table_leaves_numpy_ma_unimported():
    """The first table in a process costs no import of ``numpy.ma``, which ``np.unique`` pulls in on NumPy 2."""
    code = ("import sys, numpy\n"
            "print('numpy.ma' in sys.modules)\n"
            "from bctsim import protocol\n"
            "protocol.segment_table(1.0, (0.0, 3.14159), protocol.CYCLIC_FLIP)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(pr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60)
    with_numpy, after_table = out.stdout.split()
    if with_numpy == "True":
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert after_table == "False"


def test_terminated_axis_never_keeps_c():
    strategy = pr.Strategy(pr.FlipRule.ABSOLUTE, pr.FlipSemantics.TERMINATE)
    table = pr.segment_table(2 * PI / 5, (PI,), strategy)  # alpha slots 2 and 5: fires
    assert table.constant == (False,)
    raw = _spread(np.linspace(0.0, 2**53 - 1, 101))
    (kept,) = keeps_c(table, raw, [np.zeros(len(raw))])
    assert not kept.any()


def test_tables_compare_and_hash_by_identity():
    """A table holds NumPy arrays, so it compares and hashes as an object, never field by field."""
    first, second = (pr.segment_table(1.0, AXES, pr.CYCLIC_FLIP) for _ in range(2))
    assert np.array_equal(first.edges, second.edges)
    assert first == first and first != second
    assert hash(first) == hash(first) != hash(second)
    assert len({first, second, first}) == 2


def test_building_a_table_draws_no_random_numbers():
    state = np.random.get_state()[1].copy()
    pr.segment_table(1.0, AXES, pr.CYCLIC_FLIP)
    assert np.array_equal(np.random.get_state()[1], state)


# --- tiny shared angles ------------------------------------------------------


@pytest.mark.parametrize("theta", [5e-324, 1e-17, 2e-16, 4.4e-16])
def test_tiny_theta_slot_flip_is_pinned(theta):
    """Alice at 0 lies below beta_0 = theta for every theta > 0: slot 2.

    Reducing ``0 - theta`` mod 2*pi rounds to 2*pi for tiny theta, so a rule
    that measured ``x - theta`` would fold her back into slot 0; comparing
    ``x`` with the boundary float cannot.
    """
    assert int(geo.beta_slot_of(0.0, theta)) == 2
    assert geo.beta_slot_of(0.0, np.array([0.0, theta, 4.5e-16])).tolist() == [0, 2, 2]


# --- the acceptance rule needs no clipping ------------------------------------


@pytest.mark.parametrize("u", [0.0, float(np.nextafter(0.0, 1.0)), PI / 2, PI, float(np.nextafter(PI, 0.0))])
def test_acceptance_lies_in_unit_interval(u):
    dist, accept = pr._acceptance(0.0, u)
    assert float(dist) == u
    assert 1.0 - pr.ACCEPTANCE_COEFF <= float(accept) <= 1.0


@given(u=st.floats(min_value=0.0, max_value=PI), b=st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True))
@settings(max_examples=300)
def test_acceptance_needs_no_clip(u, b):
    dist, accept = pr._acceptance(0.0, u)
    assert 0.0 <= float(accept) <= 1.0
    # any axis against any boundary in [0, 2*pi): the shorter arc stays in [0, pi]
    boundary = geo.normalize_angle(b + u)
    dist, accept = pr._acceptance(b, boundary)
    assert 0.0 <= float(dist) <= PI
    assert 0.0 <= float(accept) <= 1.0


# --- the ignored --workers token through the command line ----------------------


@pytest.mark.parametrize("argv", [
    ["correlation", "--angle-grid", "0:6.2832:5"],
    ["opposite-axes", "--nu-grid", "0:0.6283:3", "--strategy", "cyclic-flip"],
    ["visibility", "--visibility-grid", "0.5:1:2", "--nu-grid", "0.31416:0.31416:1", "--coin", "shared"],
    ["audit", "--theta-grid", "0.94248:1.5708:3"],
    ["remedy", "--nu-grid", "0.31416:0.31416:1", "--theta-grid", "1.41372:1.41372:1",
     "--flip-semantics", "terminate"],
    ["calibrate", "--angle-grid", "0:6.2832:3"],
])
def test_one_and_two_workers_emit_identical_csv(tmp_path, argv):
    """Every experiment accepts ``--workers`` and ignores it: rows run in turn."""
    blobs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.csv"
        assert cli.main(argv + ["--trials", "30000", "--seed", "3",
                                "--workers", str(workers), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
