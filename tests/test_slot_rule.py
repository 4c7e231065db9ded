"""One slot rule at every boundary: slot functions, wire cell, scalar rounds and kernels agree.

The points sit on each of the sixteen boundaries and one float either side
of it. There the slot functions, the four-bit cell and its decoding, the
sorted-boundary oracle, the scalar round and the analytic per-theta
probability must all agree exactly, and a row replayed round by round
through Alice's message must reproduce every kernel decision. Floats and
one-element arrays take the same path through the slot functions and
``evaluate_bob`` and must give the same values, and a round's JSON record
must keep its bytes.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bctsim import geometry as g
from bctsim import harness as hn
from bctsim import protocol as pr
from bctsim.analysis import WALKTHROUGH_B1, alice_setting, interval_windows
from slot_oracle import WRAP_THETA, boundary_floats, cell_bounds, oracle_cell, oracle_triple
from table_oracle import keeps_c, outputs_near, theta_of

PI = math.pi
LAST_THETA = float(np.nextafter(g.THETA_SPAN, 0.0))
#: degenerate and extreme shared angles, then multiples of pi/5 (boundaries coincide)
GRID_THETAS = (0.0, 5e-324, LAST_THETA, PI / 5, 2 * PI / 5)
STRATEGIES = tuple(s for _, s in hn.CALIBRATION_VARIANTS)
AXES = (0.0, PI)


def _neighbours(theta: float) -> list[float]:
    """Every boundary at ``theta`` and the float either side of it, in [0, 2*pi)."""
    xs = set()
    for b in cell_bounds(theta):
        for x in (b, np.nextafter(b, math.inf), np.nextafter(b, -math.inf)):
            xs.add(g.normalize_angle(float(x)))
    return sorted(xs)


def _grid():
    rng = np.random.default_rng(2718)
    thetas = GRID_THETAS + tuple(float(t) for t in rng.uniform(0.0, g.THETA_SPAN, 6))
    return [(x, theta) for theta in thetas for x in _neighbours(theta)]


GRID = _grid()


def _check_point(x: float, theta: float) -> None:
    cell = g.cell_index(x, theta)
    bounds = cell_bounds(theta)
    hi = bounds[cell + 1] if cell < 15 else g.TWO_PI
    assert bounds[cell] <= x < hi  # never an empty cell
    want = oracle_triple(x, theta)
    assert g.slot_triple(x, theta) == want
    assert g.cell_to_triple(cell, theta) == want
    assert pr.alice_round(x, pr.HiddenState.make(1, theta))[1] == pr.SlotMessage(cell, *want)
    scalar = (g.alpha_slot_of(x), g.beta_slot_of(x, theta), g.gamma_slot_of(x, theta))
    xs, thetas = np.array([x]), np.array([theta])
    vector = (g.alpha_slot_of(xs), g.beta_slot_of(xs, thetas), g.gamma_slot_of(xs, thetas))
    assert all(type(s) is int for s in scalar)
    assert scalar == tuple(int(v[0]) for v in vector) == want


def _round(a: float, b: float, theta: float, strategy) -> pr.TrialRecord:
    hidden = pr.HiddenState.make(1, theta)
    _, msg = pr.alice_round(a, hidden)
    _, rec = pr.bob_round(b, msg, hidden, strategy=strategy, coin=0.5)
    return rec


def _scalar_p_equal(a: float, b: float, theta: float, strategy) -> float:
    rec = _round(a, b, theta, strategy)
    return 1.0 - rec.accept_prob if rec.negated else rec.accept_prob


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _check_evaluation_float_vs_array(a: float, b: float, theta: float, strategy) -> None:
    """``evaluate_bob`` at a float theta equals the call at ``[theta]`` in every field, and so does the record.

    The scalar round's record, built on Python floats, holds the array
    call's values bit for bit, with -1 and nan for the separator wherever
    Bob shares Alice's slot or the round terminated.
    """
    _, msg = pr.alice_round(a, pr.HiddenState.make(1, theta))
    slots = (msg.alpha_slot, msg.beta_slot, msg.gamma_slot)
    at_float = pr.evaluate_bob(*slots, b, theta, strategy)
    at_array = pr.evaluate_bob(*slots, b, np.array([theta]), strategy)
    for field in dataclasses.fields(pr.BobEvaluation):
        got, want = getattr(at_float, field.name), getattr(at_array, field.name)
        assert np.ndim(got) == 0, field.name
        np.testing.assert_array_equal(got, np.ravel(want)[0], err_msg=field.name)
    ev = {field.name: np.ravel(getattr(at_array, field.name))[0] for field in dataclasses.fields(pr.BobEvaluation)}
    rec = _round(a, b, theta, strategy)
    cross = not ev["same_slot"] and ev["system"] != "none"
    assert (rec.system, rec.negated) == (ev["system"], ev["negate"])
    assert (rec.bob_slot, rec.alice_active_slot) == (ev["bob_slot"], ev["alice_slot"])
    assert rec.boundary_index == (ev["boundary_index"] if cross else -1)
    for name, want in (("accept_prob", ev["accept_prob"]), ("u", ev["u"] if cross else math.nan),
                       ("boundary_angle", ev["boundary_angle"] if cross else math.nan)):
        assert _bits(getattr(rec, name)) == _bits(want), (name, a, b, theta, strategy)
    assert all(type(getattr(rec, name)) is float for name in ("accept_prob", "u", "boundary_angle"))
    assert all(type(getattr(rec, name)) is int for name in ("bob_slot", "alice_active_slot", "boundary_index"))


def _asdict_json(rec: pr.TrialRecord) -> str:
    """The record's JSON as built by ``dataclasses.asdict``, message included: the reference for ``to_json``."""
    return json.dumps(dataclasses.asdict(rec), allow_nan=True)


def test_cell_triple_slot_functions_and_oracle_agree_next_to_boundaries():
    for x, theta in GRID:
        _check_point(x, theta)


def test_vector_slot_functions_match_oracle_next_to_boundaries():
    x = np.array([p[0] for p in GRID])
    theta = np.array([p[1] for p in GRID])
    got = np.stack([g.alpha_slot_of(x), g.beta_slot_of(x, theta), g.gamma_slot_of(x, theta)], axis=1)
    assert got.tolist() == [list(oracle_triple(*p)) for p in GRID]


#: degenerate thetas, the largest one, and every float within 64 ulps of the gamma_1 wrap
FUSED_THETAS = (0.0, PI / 5, 2 * PI / 5, LAST_THETA) + tuple(
    float(t) for t in (np.array(WRAP_THETA).view(np.int64) + np.arange(-64, 65)).view(np.float64))


def test_fused_alice_route_matches_the_sort_oracle():
    """``alice_round``'s cell is the rank over the sorted ``normalize_angle`` floats, its triple the oracle's.

    The cell comes from one pass of the three system ranks, corrected by one
    while ``theta + 8*pi/5`` is below 2*pi; at ``WRAP_THETA`` that sum is
    exactly 2*pi, where the correction must not apply.
    """
    assert WRAP_THETA + g.GAMMA_OFFSETS[1] == g.TWO_PI
    rng = np.random.default_rng(31)
    for theta in FUSED_THETAS:
        assert cell_bounds(theta) == sorted(boundary_floats(theta))
        hidden = pr.HiddenState.make(-1, theta)
        xs = {float(x) for b in boundary_floats(theta) for x in (b, np.nextafter(b, 9.0), np.nextafter(b, -9.0))}
        for x in sorted(xs) + rng.uniform(-2 * PI, 4 * PI, 8).tolist():
            c_a, msg = pr.alice_round(x, hidden)
            cell, triple = oracle_cell(x, theta), oracle_triple(x, theta)
            assert (c_a, msg) == (-1, pr.SlotMessage(cell, *triple)), (x, theta)
            assert (g.cell_index(x, theta), g.slot_triple(x, theta)) == (cell, triple)
            assert type(msg.cell) is int and all(type(s) is int for s in msg.triple)


def test_degenerate_theta_never_emits_an_empty_cell():
    for theta in (0.0, PI / 5, 2 * PI / 5):
        bounds = cell_bounds(theta)
        empty = {i for i in range(15) if bounds[i] == bounds[i + 1]}
        assert empty  # boundaries coincide at multiples of pi/5
        seen = {g.cell_index(x, theta) for x in _neighbours(theta)}
        assert not seen & empty
        for i in empty:
            with pytest.raises(ValueError):
                g.cell_to_triple(i, theta)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scalar_round_matches_analytic_probability_next_to_boundaries(strategy):
    """The message path and ``p_equal_given_theta`` agree bit for bit, Alice on or next to a boundary.

    So do the round's record and ``evaluate_bob``; over the five strategies
    these points take all five branches (see the JSON test below).
    """
    for a, theta in GRID:
        for b in AXES:
            assert _scalar_p_equal(a, b, theta, strategy) == float(pr.p_equal_given_theta(a, b, theta, strategy))
            _check_evaluation_float_vs_array(a, b, theta, strategy)


def _acceptance_inputs() -> tuple[np.ndarray, np.ndarray]:
    """Over a million seeded (axis, boundary) pairs, then 0, pi/2, pi and the floats either side as distances."""
    rng = np.random.default_rng(1874)
    n = 1_000_000
    axis, boundary = rng.uniform(0.0, g.TWO_PI, n), rng.uniform(0.0, g.TWO_PI, n)
    special = [x for u in (0.0, PI / 2, PI) for x in (math.nextafter(u, -math.inf), u, math.nextafter(u, math.inf))]
    special = [u for u in special if u >= 0.0]
    # each distance as a boundary against the axis 0, and against the axis 2*pi less one ulp
    top = math.nextafter(g.TWO_PI, 0.0)
    axis = np.concatenate([axis, np.zeros(len(special)), np.full(len(special), top)])
    boundary = np.concatenate([boundary, special, [top - u for u in special]])
    return axis, boundary


def test_acceptance_on_floats_equals_acceptance_on_arrays():
    """``_acceptance`` on Python floats (``min``, ``math.sin``) gives the bits of its array form (``np.sin``)."""
    axis, boundary = _acceptance_inputs()
    assert len(axis) > 1_000_000
    u_arr, q_arr = pr._acceptance(axis, boundary)
    pairs = [pr._acceptance(b, x) for b, x in zip(axis.tolist(), boundary.tolist())]
    assert all(type(u) is float and type(q) is float for u, q in pairs[:100])
    u_float, q_float = (np.array(col) for col in zip(*pairs))
    assert u_float.tobytes() == u_arr.tobytes()
    assert q_float.tobytes() == q_arr.tobytes()


def test_records_mask_the_separator_off_cross_slot_branches():
    """A record holds -1 and nan for the separator exactly when Bob needed none."""
    seen = set()
    for a, theta in GRID:
        for b in AXES + (0.9 * PI,):
            for strategy in STRATEGIES:
                rec = _round(a, b, theta, strategy)
                seen.add(rec.branch)
                if rec.branch.endswith("cross-slot"):
                    assert rec.boundary_index in (0, 1, 2) and 0.0 <= rec.u <= PI
                    assert 0.0 <= rec.boundary_angle < g.TWO_PI
                else:
                    assert rec.boundary_index == -1 and math.isnan(rec.boundary_angle) and math.isnan(rec.u)
                    assert rec.accept_prob == 1.0
    assert {"same-slot", "flipped-then-same-slot", "flipped-terminated"} < seen


def test_record_json_keeps_its_bytes_on_every_branch():
    """``TrialRecord.to_json`` writes what the ``asdict``-built dict did, on all five branches."""
    branches = set()
    for a, theta in GRID:
        for b in AXES:
            for strategy in STRATEGIES:
                rec = dataclasses.replace(_round(a, b, theta, strategy), a=g.normalize_angle(a))
                assert rec.to_json() == _asdict_json(rec)
                branches.add(rec.branch)
    assert branches == {"same-slot", "cross-slot", "flipped-then-same-slot",
                        "flipped-then-cross-slot", "flipped-terminated"}


@given(theta=st.one_of(st.sampled_from(GRID_THETAS),
                       st.floats(min_value=0.0, max_value=g.THETA_SPAN, exclude_max=True)),
       k=st.integers(min_value=0, max_value=15), step=st.sampled_from((-1, 0, 1)),
       strategy=st.sampled_from(STRATEGIES), b=st.sampled_from(AXES + (0.9 * PI, 1.3)))
@settings(max_examples=300, deadline=None)
def test_boundary_neighbours_agree(theta, k, step, strategy, b):
    x = cell_bounds(theta)[k]
    if step:
        x = g.normalize_angle(float(np.nextafter(x, math.copysign(math.inf, step))))
    _check_point(x, theta)
    assert _scalar_p_equal(x, b, theta, strategy) == float(pr.p_equal_given_theta(x, b, theta, strategy))
    _check_evaluation_float_vs_array(x, b, theta, strategy)
    rec = _round(x, b, theta, strategy)
    assert rec.to_json() == _asdict_json(rec)


# --- message path against the kernels' table path ------------------------------


#: the ten (a, b) pairs of acceptance criterion 8, whose chi-square test compares joint tables under CYCLIC_FLIP
CRITERION_8_PAIRS = (
    (0.0, 0.3), (0.2, 1.1), (1.0, 2.4), (0.5, 3.0), (2.0, 5.9),
    (PI / 5, 9 * PI / 10), (0.0, PI / 2), (1.9 * PI, 0.1 * PI),
    (0.7 * PI, 1.6 * PI), (0.3, 4.4),
)


def _replay_cases():
    settings_ = tuple(k * PI / 5 for k in range(10)) + (alice_setting(PI / 10), 0.123)
    for strategy in STRATEGIES:
        for a in settings_:
            for b in AXES:
                yield a, b, strategy
    for a, b in CRITERION_8_PAIRS:
        yield a, b, pr.CYCLIC_FLIP


def _draw(seed: int, d: int) -> np.random.Generator:
    """The generator of draw ``d`` (theta 0, c 1, the coins 2 and 3) of a kernel run on ``(seed, (0,))``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, d)))


@pytest.mark.parametrize("a,b,strategy", list(_replay_cases()))
def test_replayed_rounds_reproduce_every_kernel_bit(a, b, strategy):
    """``alice_round`` then ``bob_round`` with the kernel's ``c``, theta and coin gives its every bit.

    The row is drawn as the kernel draws one axis, theta, c and the coin
    each from its own generator (:func:`_draw`), theta as the raw outputs
    the kernel reads, and the tallies of a kernel built with signs are
    checked against it; the raw outputs of the
    least reachable theta at or above every segment-table edge and of the
    one either side of it are appended, so the wire cell and its decoding
    are compared with the table next to each slot flip.
    """
    n = 120
    raw = _draw(11, 0).bit_generator.random_raw(n)
    c_plus = _draw(11, 1).integers(0, 2, n, dtype=bool)
    coin = _draw(11, 2).random(n)
    table = pr.segment_table(a, (b,), strategy)
    near = outputs_near(table.edges, 1)
    extra = np.random.default_rng(12)
    raw = np.concatenate([raw, near])
    theta = theta_of(raw)
    c_plus = np.concatenate([c_plus, extra.integers(0, 2, len(near)).astype(bool)])
    coin = np.concatenate([coin, extra.random(len(near))])

    (keeps,) = keeps_c(table, raw, [coin])
    tally = hn._kernel(table, signs=True)(11, (0,), n)
    assert len(tally) == 4
    assert [tally[hn.N], tally[hn.C_PLUS], tally[hn.KEPT_1], tally[hn.B_PLUS_1]] == \
        [n, int(c_plus[:n].sum()), int(keeps[:n].sum()), int((keeps[:n] == c_plus[:n]).sum())]
    for t, cp, u, kept in zip(theta, c_plus, coin, keeps):
        hidden = pr.HiddenState.make(1 if cp else -1, float(t))
        c_a, msg = pr.alice_round(a, hidden)
        c_b, rec = pr.bob_round(b, msg, hidden, strategy=strategy, coin=float(u))
        assert (c_b == c_a) == kept, (a, b, strategy, float(t))
        assert pr.replay_bob(rec) == c_b


def _two_axis_cases():
    for coin_mode in (pr.CoinMode.INDEPENDENT, pr.CoinMode.SHARED):
        for strategy in STRATEGIES:
            for nu in (0.0, PI / 10, PI / 5):
                yield nu, strategy, coin_mode


@pytest.mark.parametrize("nu,strategy,coin_mode", list(_two_axis_cases()))
def test_replayed_two_axis_rounds_reproduce_every_kernel_bit(nu, strategy, coin_mode):
    """The two-axis kernel's every decision and its ``EQUAL`` tally, replayed round by round.

    The row is drawn as the two-axis kernel draws it (theta as raw outputs,
    c, then the coin of each axis, one coin under ``CoinMode.SHARED``, each
    from its own generator); the raw outputs of the least reachable theta at or
    above every table edge and of the one either side of it are appended.
    Each trial goes through ``alice_round`` and ``bob_round`` on ``b1`` and
    ``b1 + pi`` with its own coins, and must match ``keeps_c`` trial for
    trial.
    """
    n = 120
    a, axes = alice_setting(nu), (WALKTHROUGH_B1, WALKTHROUGH_B1 + PI)
    raw = _draw(17, 0).bit_generator.random_raw(n)
    coins = [_draw(17, 2).random(n)]
    coins.append(coins[0] if coin_mode is pr.CoinMode.SHARED else _draw(17, 3).random(n))
    table = pr.segment_table(a, axes, strategy)
    near = outputs_near(table.edges, 1)
    extra = np.random.default_rng(18)
    raw = np.concatenate([raw, near])
    theta = theta_of(raw)
    c_plus = np.concatenate([_draw(17, 1).integers(0, 2, n, dtype=bool), extra.integers(0, 2, len(near)).astype(bool)])
    coins = [np.concatenate([u, extra.random(len(near))]) for u in coins]
    if coin_mode is pr.CoinMode.SHARED:
        coins[1] = coins[0]

    keeps = keeps_c(table, raw, coins)
    tally = hn._kernel(table, coin_mode, windows=interval_windows(nu))(17, (0,), n)
    equal = 0
    for i, (t, cp) in enumerate(zip(theta.tolist(), c_plus.tolist())):
        hidden = pr.HiddenState.make(1 if cp else -1, t)
        c_a, msg = pr.alice_round(a, hidden)
        c_b = [pr.bob_round(b, msg, hidden, strategy=strategy, coin=float(u[i]))[0] for b, u in zip(axes, coins)]
        assert [c == c_a for c in c_b] == [bool(k[i]) for k in keeps], (nu, strategy, coin_mode, t)
        equal += i < n and c_b[0] == c_b[1]
    assert tally[hn.EQUAL] == equal
    assert [tally[hn.KEPT_1], tally[hn.KEPT_2]] == [int(k[:n].sum()) for k in keeps]
