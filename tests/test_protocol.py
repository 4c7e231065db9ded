import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bctsim import analysis, geometry
from bctsim import harness as hn
from bctsim import protocol as pr
from bctsim.geometry import BETA_OFFSETS, GAMMA_OFFSETS, THETA_SPAN, arc_distance
from test_geometry import reflection_axes

PI = math.pi
#: acceptance probability of the cross-slot branch at u = pi/20
P_CROSS_SMALL = 1.0 - (3 * PI / 10) * math.sin(PI / 20)

angle_st = st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True, allow_nan=False)
theta_st = st.floats(min_value=0.0, max_value=THETA_SPAN, exclude_max=True, allow_nan=False)
strategy_st = st.builds(
    pr.Strategy,
    flip_rule=st.sampled_from(list(pr.FlipRule)),
    flip_semantics=st.sampled_from(list(pr.FlipSemantics)),
)


#: the cyclic reading that ends the round when the reflection fires
CYCLIC_TERMINATE = pr.Strategy(pr.FlipRule.CYCLIC, pr.FlipSemantics.TERMINATE)
#: (a, b, theta) points; the cyclic reflection fires at the second (same slot) and the last (cross slot)
CONDITIONED_POINTS = (
    (1.4815675858486133, 2.6961587892249548, 0.17393053855703514),
    (5.5157053967157825, 2.036448497919676, 0.009229272929779908),
    (4.182310686370843, 3.3655317612521847, 0.5979594544257567),
    (3.2924036521111955, 3.6965991606173296, 0.4814267516190455),
    (5.534006359206727, 3.6838068085220317, 0.8138423204448779),
)


def _decides_at_the_acceptance(a, b, theta, strategy) -> pr.BobEvaluation:
    """Bob's round keeps c exactly for coins below ``evaluate_bob``'s acceptance q, then applies the negation.

    ``bob_round`` with the coin one ulp below q keeps c, and with the coin
    at q (where q < 1) does not, for either sign. ``p_equal_given_theta`` is
    q, or 1 - q under a negation, bit for bit. Returns the evaluation.
    """
    ev = pr.evaluate_bob(*pr.alice_slot_arrays(a, theta), b, theta, strategy)
    q = float(ev.accept_prob)
    for c in (1, -1):
        hidden = pr.HiddenState.make(c, theta)
        _, msg = pr.alice_round(a, hidden)
        c_b, _ = pr.bob_round(b, msg, hidden, strategy=strategy, coin=math.nextafter(q, 0.0))
        assert c_b == (-c if ev.negate else c), (a, b, theta, strategy)
        if q < 1.0:
            c_b, _ = pr.bob_round(b, msg, hidden, strategy=strategy, coin=q)
            assert c_b == (c if ev.negate else -c), (a, b, theta, strategy)
    assert pr.p_equal_given_theta(a, b, theta, strategy) == (1.0 - q if ev.negate else q)
    return ev


def _record_from_json(text: str) -> pr.TrialRecord:
    d = json.loads(text)
    d["message"] = pr.SlotMessage(**d["message"])
    return pr.TrialRecord(**d)


class TestHiddenState:
    def test_draw_statistics(self):
        rng = np.random.default_rng(1)
        n = 200_000
        thetas = np.empty(n)
        signs = np.empty(n)
        for i in range(n):
            h = pr.draw_hidden(rng)
            thetas[i] = h.theta
            signs[i] = h.c
        assert np.all((thetas >= 0) & (thetas < THETA_SPAN))
        assert thetas.mean() == pytest.approx(3 * PI / 10, abs=0.005)
        assert np.mean(signs == 1) == pytest.approx(0.5, abs=0.005)

    def test_angle_draw_equals_the_uniform_draw(self):
        """``draw_hidden`` scales ``random()``; ``uniform(0, 3*pi/5)`` gives the same bits and the same stream."""
        for seed in range(500):
            drawn, uniform = np.random.default_rng(seed), np.random.default_rng(seed)
            hidden = [pr.draw_hidden(drawn) for _ in range(4)]
            want = []
            for _ in range(4):
                uniform.random()  # the sign
                want.append(uniform.uniform(0.0, THETA_SPAN))
            assert [h.theta.hex() for h in hidden] == [w.hex() for w in want]
            assert drawn.bit_generator.state == uniform.bit_generator.state

    def test_derived_systems_match_theta(self):
        h = pr.HiddenState.make(-1, 1.0)
        beta_0, gamma_0 = (geometry._separator(h.theta, offsets[0]) for offsets in (BETA_OFFSETS, GAMMA_OFFSETS))
        assert beta_0 == pytest.approx(1.0)
        assert arc_distance(gamma_0, beta_0 + PI) < 1e-12

    def test_rejects_bad_sign_and_angle(self):
        with pytest.raises(pr.ProtocolError):
            pr.HiddenState.make(0, 1.0)
        with pytest.raises(pr.ProtocolError):
            pr.HiddenState.make(1, THETA_SPAN)

    @pytest.mark.parametrize("c", [True, False, np.True_, 1.0, -1.0, np.float64(1.0), "1", None])
    def test_rejects_a_sign_that_is_not_an_integer(self, c):
        with pytest.raises(pr.ProtocolError):
            pr.HiddenState.make(c, 1.0)

    @pytest.mark.parametrize("c", [np.int64(1), np.int32(-1), np.int8(1)])
    def test_numpy_integer_sign_is_stored_as_an_int_and_serializes(self, c):
        h = pr.HiddenState.make(c, 0.35 * PI)
        assert type(h.c) is int and h.c == c
        _, msg = pr.alice_round(PI / 2, h)
        c_b, rec = pr.bob_round(0.0, msg, h, coin=0.5)
        assert json.loads(rec.to_json())["c"] == c
        assert pr.replay_bob(_record_from_json(rec.to_json())) == c_b


class TestAliceRound:
    def test_walkthrough_message(self):
        h = pr.HiddenState.make(1, 0.35 * PI)
        c_a, msg = pr.alice_round(PI / 2, h)
        assert c_a == h.c
        assert msg.triple == (2, 0, 1)

    def test_message_stable_across_second_window(self):
        h = pr.HiddenState.make(1, 0.45 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        assert msg.triple == (2, 0, 1)

    def test_output_is_shared_sign(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h = pr.draw_hidden(rng)
            c_a, _ = pr.alice_round(float(rng.uniform(0, 2 * PI)), h)
            assert c_a == h.c

    def test_wire_form_is_four_bits(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h = pr.draw_hidden(rng)
            _, msg = pr.alice_round(float(rng.uniform(0, 2 * PI)), h)
            assert 0 <= msg.cell <= 15


class TestBobRound:
    def test_same_gamma_slot_returns_shared_sign(self):
        h = pr.HiddenState.make(-1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        for coin in (0.0, 0.5, 0.999):
            c_b, rec = pr.bob_round(0.0, msg, h, strategy=pr.NO_FLIP, coin=coin)
            assert c_b == -1
            assert rec.branch == "same-slot"
            assert rec.system == "gamma"
            assert rec.accept_prob == 1.0

    def test_cross_slot_branch_geometry(self):
        h = pr.HiddenState.make(1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        c_b, rec = pr.bob_round(PI, msg, h, strategy=pr.NO_FLIP, coin=0.0)
        assert rec.branch == "cross-slot"
        assert rec.system == "beta"
        assert rec.boundary_index == 1
        assert rec.u == PI / 20  # exact in binary floating point
        assert rec.accept_prob == pytest.approx(P_CROSS_SMALL, abs=1e-15)
        assert c_b == 1  # coin below the acceptance probability keeps c

    def test_axis_on_a_boundary_is_separated_at_zero_distance(self):
        # at theta = 2*pi/5, beta_1 lands exactly on pi: Bob there opens slot 1
        h = pr.HiddenState.make(1, 2 * PI / 5)
        _, msg = pr.alice_round(PI / 2, h)
        _, rec = pr.bob_round(PI, msg, h, strategy=pr.NO_FLIP, coin=0.5)
        assert (rec.branch, rec.alice_active_slot, rec.bob_slot) == ("cross-slot", 0, 1)
        assert (rec.boundary_index, rec.boundary_angle, rec.u) == (1, PI, 0.0)
        assert rec.accept_prob == 1.0

    def test_cross_slot_rejection_flips_sign(self):
        h = pr.HiddenState.make(1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        c_b, _ = pr.bob_round(PI, msg, h, strategy=pr.NO_FLIP, coin=0.999)
        assert c_b == -1

    def test_cyclic_flip_replays_other_axis_and_negates(self):
        h = pr.HiddenState.make(1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        for coin in (0.0, 0.4, 0.99):
            c_b, rec = pr.bob_round(PI, msg, h, strategy=pr.CYCLIC_FLIP, coin=coin)
            assert c_b == -1  # the replayed branch is deterministic here
            assert rec.flip_fired and rec.negated
            assert rec.branch == "flipped-then-same-slot"
            assert rec.system == "gamma"

    def test_terminate_semantics_short_circuits(self):
        h = pr.HiddenState.make(1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        strategy = pr.Strategy(pr.FlipRule.CYCLIC, pr.FlipSemantics.TERMINATE)
        c_b, rec = pr.bob_round(PI, msg, h, strategy=strategy, coin=0.7)
        assert c_b == -1
        assert rec.branch == "flipped-terminated"
        assert rec.system == "none"

    def test_never_reads_alice_angle(self):
        assert "a" not in inspect.signature(pr.bob_round).parameters
        assert "a" not in inspect.signature(pr.evaluate_bob).parameters

    def test_inconsistent_message_rejected(self):
        h1 = pr.HiddenState.make(1, 0.35 * PI)
        h2 = pr.HiddenState.make(1, 0.05 * PI)
        _, msg = pr.alice_round(PI / 2, h1)
        with pytest.raises(pr.ProtocolError):
            pr.bob_round(0.0, msg, h2, strategy=pr.NO_FLIP, coin=0.5)

    @pytest.mark.parametrize("a,cast", [(0.3, bool), (0.65, float), (0.65, np.float64)])
    def test_wire_cell_that_is_not_an_integer_rejected(self, a, cast):
        # True would decode as cell 1, and a float cell fail as a slice index with a bare TypeError
        h = pr.HiddenState.make(1, 0.3)
        _, msg = pr.alice_round(a, h)
        forged = pr.SlotMessage(cast(msg.cell), *msg.triple)
        assert forged.cell == msg.cell
        with pytest.raises(pr.ProtocolError, match="must be an integer"):
            pr.bob_round(0.0, forged, h, coin=0.3)
        _, rec = pr.bob_round(0.0, msg, h, coin=0.3)
        with pytest.raises(pr.ProtocolError, match="must be an integer"):
            pr.replay_bob(dataclasses.replace(rec, message=forged))

    def test_bad_coin_rejected(self):
        h = pr.HiddenState.make(1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        with pytest.raises(pr.ProtocolError):
            pr.bob_round(0.0, msg, h, strategy=pr.NO_FLIP, coin=1.5)

    @pytest.mark.parametrize("coin", [np.float32(0.3), np.float64(0.7), np.float32(0.999), 0.25])
    def test_coin_is_stored_as_a_float_and_serializes(self, coin):
        h = pr.HiddenState.make(1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        c_b, rec = pr.bob_round(0.0, msg, h, coin=coin)
        assert type(rec.coin) is float and rec.coin == float(coin)
        assert json.loads(rec.to_json())["coin"] == float(coin)
        assert pr.replay_bob(_record_from_json(rec.to_json())) == c_b
        assert pr.bob_round(0.0, msg, h, coin=float(coin))[1].to_json() == rec.to_json()

    def test_replay_checks_the_stored_coin(self):
        h = pr.HiddenState.make(1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        _, rec = pr.bob_round(0.0, msg, h, coin=0.5)
        for coin in (None, 1.0, -0.1, math.nan):
            with pytest.raises(pr.ProtocolError):
                pr.replay_bob(dataclasses.replace(rec, coin=coin))

    def test_needs_rng_or_coin(self):
        h = pr.HiddenState.make(1, 0.35 * PI)
        _, msg = pr.alice_round(PI / 2, h)
        with pytest.raises(pr.ProtocolError):
            pr.bob_round(0.0, msg, h)


class TestTrials:
    def test_parallel_settings_always_agree(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            a = float(rng.uniform(0, 2 * PI))
            c_a, c_b, _ = pr.bct_trial(a, a, rng, pr.NO_FLIP)
            assert c_a == c_b
        # and the acceptance probability is one for every shared angle
        grid = np.linspace(0, THETA_SPAN, 1000, endpoint=False)
        assert np.all(pr.p_equal_given_theta(1.0, 1.0, grid, pr.NO_FLIP) == 1.0)

    def test_orthogonal_pair_rate(self):
        rng = np.random.default_rng(11)
        n = 20_000
        eq = 0
        for _ in range(n):
            c_a, c_b, _ = pr.bct_trial(0.0, PI / 2, rng, pr.NO_FLIP)
            eq += c_a == c_b
        assert eq / n == pytest.approx(0.5, abs=0.015)

    def test_small_separation_matches_reference_law(self):
        rng = np.random.default_rng(12)
        n = 20_000
        eq = 0
        for _ in range(n):
            c_a, c_b, _ = pr.bct_trial(0.0, 0.3, rng, pr.NO_FLIP)
            eq += c_a == c_b
        assert eq / n == pytest.approx(math.cos(0.15) ** 2, abs=0.015)

    def test_record_replays_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b = rng.uniform(0, 2 * PI, 2)
            strategy = pr.Strategy(
                [pr.FlipRule.DISABLED, pr.FlipRule.CYCLIC, pr.FlipRule.ABSOLUTE][int(rng.integers(3))],
                [pr.FlipSemantics.CONTINUE, pr.FlipSemantics.TERMINATE][int(rng.integers(2))],
            )
            _, c_b, rec = pr.bct_trial(float(a), float(b), rng, strategy)
            assert pr.replay_bob(rec) == c_b

    def test_record_serializes_to_json(self):
        rng = np.random.default_rng(14)
        _, _, rec = pr.bct_trial(1.0, 2.0, rng, pr.CYCLIC_FLIP)
        blob = json.loads(rec.to_json())
        assert blob["message"]["cell"] == rec.message.cell
        assert blob["c_b"] in (-1, 1)

    @pytest.mark.parametrize("a_type", [float, np.float64])
    @pytest.mark.parametrize("theta_type", [float, np.float64])
    def test_numpy_float_inputs_give_a_replayable_json_record(self, a_type, theta_type):
        # a NumPy scalar setting or shared angle still yields a Python int cell
        hidden = pr.HiddenState.make(-1, theta_type(0.4))
        _, msg = pr.alice_round(a_type(1.0), hidden)
        assert type(msg.cell) is int
        c_b, rec = pr.bob_round(2.0, msg, hidden, coin=0.3)
        assert pr.replay_bob(_record_from_json(rec.to_json())) == c_b
        _, c_b, rec = pr.bct_trial(a_type(1.0), 2.0, np.random.default_rng(14))
        assert type(rec.message.cell) is int
        assert pr.replay_bob(_record_from_json(rec.to_json())) == c_b

    @pytest.mark.parametrize("a,b,theta", [(1.0, 2.0, 0.4), (0.0, PI, 0.0), (6.2, 4.5, 1.8)])
    def test_float32_angles_give_the_float64_record(self, a, b, theta):
        """A float32 angle enters a round as the double it rounds to, so its record serializes and replays."""
        a32, b32, theta32 = np.float32(a), np.float32(b), np.float32(theta)
        hidden = pr.HiddenState.make(1, theta32)
        assert type(hidden.theta) is float
        _, msg = pr.alice_round(a32, hidden)
        assert msg == pr.alice_round(float(a32), hidden)[1]
        c_b, rec = pr.bob_round(b32, msg, hidden, coin=0.3)
        assert (type(rec.theta), type(rec.b)) == (float, float)
        assert rec.to_json() == pr.bob_round(float(b32), msg, hidden, coin=0.3)[1].to_json()
        assert pr.replay_bob(_record_from_json(rec.to_json())) == c_b
        for seed in range(20):
            _, c_b, rec = pr.bct_trial(a32, b32, np.random.default_rng(seed))
            assert (type(rec.a), type(rec.b)) == (float, float)
            assert rec.to_json() == pr.bct_trial(float(a32), float(b32), np.random.default_rng(seed))[2].to_json()
            assert pr.replay_bob(_record_from_json(rec.to_json())) == c_b

    def test_black_box_interface_hides_everything(self):
        rng = np.random.default_rng(15)
        out = pr.nbct_trial(0.0, PI / 2, rng)
        assert isinstance(out, tuple) and len(out) == 2
        assert out[0] in (-1, 1) and out[1] in (-1, 1)

    @pytest.mark.parametrize("strategy", [pr.Strategy(r, s) for r in pr.FlipRule for s in pr.FlipSemantics])
    def test_black_box_plays_the_message_round_on_the_same_draws(self, strategy):
        settings = np.random.default_rng(16).uniform(-2 * PI, 4 * PI, (300, 2))
        rng_box, rng_msg = np.random.default_rng(17), np.random.default_rng(17)
        for a, b in settings:
            assert pr.nbct_trial(float(a), float(b), rng_box, strategy) == pr.bct_trial(
                float(a), float(b), rng_msg, strategy)[:2]
        assert rng_box.bit_generator.state == rng_msg.bit_generator.state

    def test_replay_builds_no_record(self, monkeypatch):
        _, c_b, rec = pr.bct_trial(1.0, 2.0, np.random.default_rng(19), pr.CYCLIC_FLIP)
        built = []
        record = pr.TrialRecord
        monkeypatch.setattr(pr, "TrialRecord", lambda *args, **kwargs: built.append(1) or record(*args, **kwargs))
        assert pr.replay_bob(rec) == c_b
        assert built == []

    @pytest.mark.parametrize("field,value", [("flip_rule", "cyclic"), ("flip_semantics", "negate")])
    def test_replay_rejects_an_unknown_strategy_string(self, field, value):
        _, c_b, rec = pr.bct_trial(1.0, 2.0, np.random.default_rng(20), pr.CYCLIC_FLIP)
        bad = dataclasses.replace(rec, **{field: value})
        for _ in range(2):  # a failed lookup is not remembered
            with pytest.raises(ValueError, match=value):
                pr.replay_bob(bad)
        assert pr.replay_bob(rec) == c_b

    def test_black_box_builds_no_record(self, monkeypatch):
        built = []
        record = pr.TrialRecord
        monkeypatch.setattr(pr, "TrialRecord", lambda *args, **kwargs: built.append(1) or record(*args, **kwargs))
        rng = np.random.default_rng(18)
        for strategy in (pr.NO_FLIP, pr.CYCLIC_FLIP):
            for _ in range(50):
                pr.nbct_trial(*rng.uniform(0, 2 * PI, 2), rng, strategy)
        assert built == []
        pr.bct_trial(1.0, 2.0, rng)
        assert built == [1]


class TestTwoBob:
    def test_conditioned_walkthrough_decisions(self):
        # at theta = 0.35*pi the b1 evaluation is certain, so the equal rate
        # equals the antipodal acceptance probability
        first = _decides_at_the_acceptance(PI / 2, 0.0, 0.35 * PI, pr.NO_FLIP)
        assert float(first.accept_prob) == 1.0 and not first.negate
        second = _decides_at_the_acceptance(PI / 2, PI, 0.35 * PI, pr.NO_FLIP)
        assert float(second.accept_prob) == pytest.approx(P_CROSS_SMALL, abs=1e-15) and not second.negate

    def test_shared_coin_with_cyclic_flip_is_exact_negation(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            a = float(rng.uniform(0, 2 * PI))
            b1 = float(rng.uniform(0, 2 * PI))
            res = pr.two_bob_trial(a, b1, rng, pr.CYCLIC_FLIP, pr.CoinMode.SHARED)
            assert res.c_b2 == -res.c_b1

    def test_records_share_hidden_draw(self):
        rng = np.random.default_rng(22)
        res = pr.two_bob_trial(PI / 2, 0.0, rng, pr.NO_FLIP, pr.CoinMode.INDEPENDENT)
        assert res.record_b1.theta == res.record_b2.theta
        assert res.record_b1.c == res.record_b2.c
        assert res.record_b1.message == res.record_b2.message
        assert arc_distance(res.record_b2.b, res.record_b1.b + PI) < 1e-12

    def test_shared_coin_reuses_the_draw(self):
        rng = np.random.default_rng(23)
        res = pr.two_bob_trial(PI / 2, 0.0, rng, pr.NO_FLIP, pr.CoinMode.SHARED)
        assert res.record_b1.coin == res.record_b2.coin

    @pytest.mark.parametrize("coin_mode", list(pr.CoinMode))
    def test_bob_decodes_the_wire_cell_once_per_round(self, monkeypatch, coin_mode):
        calls = []
        decode = geometry.cell_to_triple
        monkeypatch.setattr(geometry, "cell_to_triple", lambda *args: calls.append(args) or decode(*args))
        rng = np.random.default_rng(24)
        res = pr.two_bob_trial(PI / 2, 0.0, rng, pr.CYCLIC_FLIP, coin_mode)
        assert len(calls) == 1
        assert res.record_b1.message.triple == res.record_b2.message.triple == decode(*calls[0])
        pr.bct_trial(PI / 2, 0.0, rng, pr.CYCLIC_FLIP)
        assert len(calls) == 2


class TestValueStrings:
    """A reflection reading or a coin mode given as its value string acts as its member; an unknown one raises."""

    def test_strategy_fields_become_their_members(self):
        assert pr.Strategy("absolute-difference").flip_fires(0, 9)
        assert not pr.Strategy("disabled").flip_fires(0, 5)
        strategy = pr.Strategy("cyclic-distance", "terminate-with-negated-c")
        assert strategy == CYCLIC_TERMINATE and hash(strategy) == hash(CYCLIC_TERMINATE)
        assert strategy.flip_rule is pr.FlipRule.CYCLIC and strategy.flip_semantics is pr.FlipSemantics.TERMINATE
        for fields in (("cyclic",), ("disabled", "negate")):
            with pytest.raises(ValueError, match=fields[-1]):
                pr.Strategy(*fields)

    def test_bct_trial_plays_a_strategy_of_value_strings(self):
        played = pr.bct_trial(1.0, 2.0, np.random.default_rng(30), pr.Strategy("disabled"))
        assert played == pr.bct_trial(1.0, 2.0, np.random.default_rng(30), pr.NO_FLIP)

    def test_two_bob_trial_shares_the_coin_of_the_shared_string(self):
        res = pr.two_bob_trial(PI / 2, 0.0, np.random.default_rng(31), pr.NO_FLIP, "shared")
        assert res.record_b1.coin == res.record_b2.coin
        assert res == pr.two_bob_trial(PI / 2, 0.0, np.random.default_rng(31), pr.NO_FLIP, pr.CoinMode.SHARED)
        with pytest.raises(ValueError, match="bogus"):
            pr.two_bob_trial(PI / 2, 0.0, np.random.default_rng(31), pr.NO_FLIP, "bogus")


#: every reading of the reflection step: the three rules under both semantics
ALL_STRATEGIES = tuple(pr.Strategy(rule, semantics) for rule in pr.FlipRule for semantics in pr.FlipSemantics)
#: an axis at the centre of each alpha slot
SLOT_CENTRES = tuple(j * PI / 5 + PI / 10 for j in range(10))


def _fires_by_rule(strategy, i, j) -> bool:
    """The reflection rule written out: disabled, absolute difference > 2, or cyclic distance > 2."""
    if strategy.flip_rule is pr.FlipRule.DISABLED:
        return False
    if strategy.flip_rule is pr.FlipRule.ABSOLUTE:
        return abs(i - j) > 2
    return min(abs(i - j), 10 - abs(i - j)) > 2


class TestFireTable:
    """Each strategy tabulates its reflection rule over the 100 alpha slot pairs; ``_bob_axis`` reads the table."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: f"{s.flip_rule.value}/{s.flip_semantics.value}")
    def test_the_table_equals_the_rule_however_the_strategy_is_built(self, strategy):
        assert {s for _, s in hn.CALIBRATION_VARIANTS} < set(ALL_STRATEGIES)
        want = tuple(tuple(_fires_by_rule(strategy, i, j) for j in range(10)) for i in range(10))
        terminate = strategy.flip_semantics is pr.FlipSemantics.TERMINATE
        built = (strategy, pr.Strategy(strategy.flip_rule.value, strategy.flip_semantics.value),
                 dataclasses.replace(strategy), dataclasses.replace(pr.NO_FLIP, flip_rule=strategy.flip_rule,
                                                                    flip_semantics=strategy.flip_semantics.value))
        for s in built:
            assert s == strategy and s._fires == want and s._terminate is terminate
            for i in range(10):
                for j, b in enumerate(SLOT_CENTRES):
                    assert s.flip_fires(i, j) is want[i][j]
                    _, fired, system = pr._bob_axis(i, b, s)
                    assert (fired, system == "none") == (want[i][j], want[i][j] and terminate)
                    # an alpha slot that is not an int takes the rule itself, to the same axis
                    assert pr._bob_axis(np.int64(i), b, s) == pr._bob_axis(i, b, s)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: f"{s.flip_rule.value}/{s.flip_semantics.value}")
    @pytest.mark.parametrize("alice_alpha", (-1, 10, 2.0))
    def test_an_alpha_slot_off_the_table_raises_under_every_rule(self, strategy, alice_alpha):
        """A slot that is not an integer in 0..9 raises under every rule, through ``flip_fires`` and ``evaluate_bob``."""
        for j, b in enumerate(SLOT_CENTRES):
            for call in (lambda: strategy.flip_fires(alice_alpha, j),
                         lambda: pr.evaluate_bob(alice_alpha, 0, 0, b, 0.3, strategy)):
                with pytest.raises(ValueError, match=rf"must lie in 0\.\.9, got \({alice_alpha}, {j}\)"):
                    call()


def test_scalar_round_builds_no_bob_evaluation(monkeypatch):
    """A round's Bob step is the branch step and the acceptance on Python floats, with no ``BobEvaluation``."""
    calls = []
    monkeypatch.setattr(pr, "evaluate_bob", lambda *args: calls.append(args))
    monkeypatch.setattr(pr, "BobEvaluation", lambda *args, **kwargs: calls.append(args))
    rng = np.random.default_rng(25)
    for strategy in (pr.NO_FLIP, pr.CYCLIC_FLIP, pr.ABS_FLIP, CYCLIC_TERMINATE):
        for _ in range(20):
            a, b = rng.uniform(0, 2 * PI, 2)
            _, c_b, rec = pr.bct_trial(a, b, rng, strategy)
            assert pr.replay_bob(rec) == c_b
            pr.nbct_trial(a, b, rng, strategy)
            for coin_mode in pr.CoinMode:
                pr.two_bob_trial(a, b, rng, strategy, coin_mode)
            hidden = pr.HiddenState.make(rec.c, rec.theta)
            _, msg = pr.alice_round(a, hidden)
            pr.bob_round(b, msg, hidden, strategy=strategy, coin=0.5)
    assert calls == []


class TestPerThetaProbability:
    def test_walkthrough_values(self):
        assert pr.p_equal_given_theta(PI / 2, 0.0, 0.35 * PI, pr.NO_FLIP) == 1.0
        assert pr.p_equal_given_theta(PI / 2, PI, 0.35 * PI, pr.NO_FLIP) == pytest.approx(P_CROSS_SMALL, abs=1e-15)
        assert pr.p_equal_given_theta(PI / 2, 0.0, 0.45 * PI, pr.NO_FLIP) == pytest.approx(P_CROSS_SMALL, abs=1e-15)
        assert pr.p_equal_given_theta(PI / 2, PI, 0.45 * PI, pr.NO_FLIP) == 1.0

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(pr.ProtocolError):
            pr.p_equal_given_theta(0.0, 1.0, THETA_SPAN)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_alice_setting(self, a):
        """No per-theta oracle reads a slot off a non-finite setting; each raises ``normalize_angle``'s ValueError."""
        with pytest.raises(ValueError, match="finite"):
            pr.alice_slot_arrays(a, 0.5)
        with pytest.raises(ValueError, match="finite"):
            pr.p_equal_given_theta(a, 0.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            pr.p_equal_given_theta(a, 0.0, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            analysis.per_theta_consistency_audit(a, 0.0, [0.5])

    @given(a=angle_st, b=angle_st, th=theta_st, strategy=strategy_st)
    @settings(max_examples=200)
    def test_matches_conditioned_frequency_shape(self, a, b, th, strategy):
        p = pr.p_equal_given_theta(a, b, th, strategy)
        assert 0.0 <= p <= 1.0

    def test_coins_either_side_of_the_acceptance_decide_exactly(self):
        """Each point under the cyclic reading and its terminating variant: cross slot, negated and terminated."""
        seen = set()
        for strategy in (pr.CYCLIC_FLIP, CYCLIC_TERMINATE):
            for a, b, th in CONDITIONED_POINTS:
                ev = _decides_at_the_acceptance(a, b, th, strategy)
                slot = "same" if ev.same_slot else "cross"
                seen.add("terminated" if ev.system == "none" else ("negated-" if ev.negate else "") + slot)
        assert seen == {"cross", "same", "negated-same", "negated-cross", "terminated"}

    def test_marginal_sign_is_uniform_under_every_strategy(self):
        rng = np.random.default_rng(31)
        grid = np.linspace(0, THETA_SPAN, 5000, endpoint=False)
        for rule in pr.FlipRule:
            for sem in pr.FlipSemantics:
                strategy = pr.Strategy(rule, sem)
                # P(c_b = +1) = E_theta[p]/2 + E_theta[1-p]/2 = 1/2 for any p
                p = pr.p_equal_given_theta(1.1, 2.9, grid, strategy)
                marginal_plus = 0.5 * np.mean(p) + 0.5 * np.mean(1 - p)
                assert marginal_plus == pytest.approx(0.5, abs=1e-12)

    def test_clamp_never_fires(self):
        # 1 - (3*pi/10) sin u stays within [0.057, 1] for u in [0, pi], so
        # the acceptance is a probability without clipping
        rng = np.random.default_rng(32)
        for _ in range(300):
            a, b = rng.uniform(0, 2 * PI, 2)
            _, _, rec = pr.bct_trial(float(a), float(b), rng, pr.NO_FLIP)
            assert 1.0 - pr.ACCEPTANCE_COEFF <= rec.accept_prob <= 1.0


def _unsplit_evaluate_bob(alice_alpha, alice_beta_slot, alice_gamma_slot, b, theta, strategy):
    """Bob's evaluation as one function, branch and acceptance together: the reference for the split."""
    b_eff, fired, system = pr._bob_axis(alice_alpha, geometry.normalize_angle(b), strategy)
    if system == "none":
        shape = np.shape(theta)
        minus = np.full(shape, -1, dtype=np.int64)
        return pr.BobEvaluation(np.ones(shape), True, "none", np.zeros(shape, dtype=bool), minus, minus.copy(),
                                minus.copy(), np.full(shape, math.nan), np.full(shape, math.nan))
    gamma = system == "gamma"
    alice_slot = alice_gamma_slot if gamma else alice_beta_slot
    bob_slot = (geometry.gamma_slot_of if gamma else geometry.beta_slot_of)(b_eff, theta)
    same = alice_slot == bob_slot
    k = (bob_slot + ((alice_slot - bob_slot) % 3 == 1)) % 3
    bnd = geometry._separator(theta, np.asarray(GAMMA_OFFSETS if gamma else BETA_OFFSETS)[k])
    d = np.abs(b_eff - bnd)
    u = np.minimum(d, geometry.TWO_PI - d)
    accept = np.where(same, 1.0, 1.0 - pr.ACCEPTANCE_COEFF * np.sin(u))
    return pr.BobEvaluation(accept, fired, system, same, bob_slot, alice_slot, k, bnd, u)


@pytest.mark.parametrize("strategy", [pr.NO_FLIP, pr.CYCLIC_FLIP, pr.ABS_FLIP, CYCLIC_TERMINATE,
                                      pr.Strategy(pr.FlipRule.ABSOLUTE, pr.FlipSemantics.TERMINATE)])
def test_evaluate_bob_equals_the_unsplit_reference(strategy):
    """Split into its branch step and its acceptance, ``evaluate_bob`` returns every field as before.

    Each field has the reference's type, and its dtype and bytes where it is
    an array, at an array of thetas and at float thetas, where the fields are
    Python ints and bools, NumPy floats or 0-d arrays.
    """
    rng = np.random.default_rng(31)
    thetas = np.concatenate(([0.0, 5e-324, PI / 5, 2 * PI / 5, math.nextafter(THETA_SPAN, 0.0)],
                             rng.uniform(0.0, THETA_SPAN, 60)))
    settings_ = [k * PI / 5 for k in range(10)] + rng.uniform(0.0, 2 * PI, 10).tolist()
    for a, b in zip(settings_, settings_[3:] + settings_[:3]):
        slots = pr.alice_slot_arrays(a, thetas)
        calls = [(slots, thetas)]
        for theta in thetas[::7].tolist():
            _, msg = pr.alice_round(a, pr.HiddenState.make(1, theta))
            calls.append(((msg.alpha_slot, msg.beta_slot, msg.gamma_slot), theta))
        for alice, theta in calls:
            got = pr.evaluate_bob(*alice, b, theta, strategy)
            want = _unsplit_evaluate_bob(*alice, b, theta, strategy)
            for field in dataclasses.fields(pr.BobEvaluation):
                g, w = getattr(got, field.name), getattr(want, field.name)
                assert type(g) is type(w), (field.name, a, b, theta)
                assert np.asarray(g).dtype == np.asarray(w).dtype, field.name
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (field.name, a, b, theta)


@pytest.mark.parametrize("theta", [0.3, np.array([0.0, 0.3, 1.8]), np.full((2, 3), 0.7)],
                         ids=["float", "1-d", "2-d"])
def test_evaluate_bob_on_a_terminated_axis(theta):
    """Every field of a terminated evaluation at theta's shape: a fresh writable array of the stated dtype and value."""
    ev = pr.evaluate_bob(0, 0, 0, PI + 0.1, theta, CYCLIC_TERMINATE)  # alpha slots 0 and 5 fire
    assert ev.negate is True and ev.system == "none"
    want = dict(accept_prob=(np.float64, 1.0), same_slot=(np.bool_, False), bob_slot=(np.int64, -1),
                alice_slot=(np.int64, -1), boundary_index=(np.int64, -1), boundary_angle=(np.float64, math.nan),
                u=(np.float64, math.nan))
    fields = [getattr(ev, name) for name in want]
    for got, (dtype, value) in zip(fields, want.values()):
        assert type(got) is np.ndarray and got.dtype == dtype and got.shape == np.shape(theta)
        assert got.flags.writeable and got.flags.owndata
        assert np.array_equal(got, np.full(np.shape(theta), value, dtype), equal_nan=dtype is np.float64)
    assert len({id(f) for f in fields}) == len(fields)


def test_a_fired_reflection_is_the_normalized_half_turn():
    """A fired reflection gives ``normalize_angle(b + pi)`` bit for bit, on the special axes and seeded ones."""
    seeded = (np.random.default_rng(2819).random(5000) * 2 * PI).tolist()
    for b in reflection_axes() + seeded:
        alice = (int(geometry.alpha_slot_of(b)) + 5) % 10  # cyclic distance 5: both rules fire
        for strategy in (pr.CYCLIC_FLIP, pr.ABS_FLIP):
            b_eff, fired, _ = pr._bob_axis(alice, b, strategy)
            assert fired and type(b_eff) is float and b_eff.hex() == geometry.normalize_angle(b + PI).hex(), b


def test_each_caller_normalizes_bobs_axis_once(monkeypatch):
    """``evaluate_bob``, ``segment_table`` and a Bob step read a raw axis as its normalized one, which a record holds.

    A recorded step, and a replay, call ``normalize_angle`` once.
    """
    rng = np.random.default_rng(2820)
    thetas = rng.uniform(0.0, THETA_SPAN, 7)
    for a, b in rng.uniform(-20.0, 20.0, (40, 2)).tolist():
        b_norm = geometry.normalize_angle(b)
        for strategy in ALL_STRATEGIES:
            slots = pr.alice_slot_arrays(a, thetas)
            got, want = (pr.evaluate_bob(*slots, x, thetas, strategy) for x in (b, b_norm))
            for field in dataclasses.fields(pr.BobEvaluation):
                g, w = getattr(got, field.name), getattr(want, field.name)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (field.name, a, b, strategy)
            got, want = (pr.segment_table(a, (x, x + PI), strategy) for x in (b, b_norm))
            assert [x.hex() for x in got.axes] == [x.hex() for x in want.axes]
            assert got.edges.tobytes() == want.edges.tobytes()
    calls = []
    normalize = pr.normalize_angle
    monkeypatch.setattr(pr, "normalize_angle", lambda x: calls.append(x) or normalize(x))
    hidden = pr.HiddenState.make(1, 0.4)
    _, msg = pr.alice_round(1.0, hidden)
    for b in (-7.5, 0.3, 9.0):
        for strategy in ALL_STRATEGIES:
            del calls[:]
            _, record = pr.bob_round(b, msg, hidden, strategy=strategy, coin=0.5)
            assert calls == [b] and record.b == geometry.normalize_angle(b)
            del calls[:]
            assert pr.replay_bob(record) == record.c_b and calls == [record.b]


@pytest.mark.parametrize("rule", [pr.FlipRule.CYCLIC, pr.FlipRule.ABSOLUTE])
def test_no_terminated_axis_reaches_the_branch_step(monkeypatch, rule):
    """A terminating reflection ends Bob's round before any slot test, so ``_branch`` only sees live axes.

    Every caller is run where the reflection fires: the scalar rounds and
    replay, ``evaluate_bob`` at an array and at a float theta, and
    ``segment_table``. A terminated record holds the Python int -1 for both
    slots and the separator's index.
    """
    strategy = pr.Strategy(rule, pr.FlipSemantics.TERMINATE)
    systems = []
    branch = pr._branch
    monkeypatch.setattr(pr, "_branch", lambda axis, *args: systems.append(axis[2]) or branch(axis, *args))
    rng = np.random.default_rng(26)
    # Alice in alpha slot 0 and Bob in slot 5 (or 3): the reflection fires under both gap rules
    pairs = [(0.1, PI + 0.1), (0.1, 0.7 * PI)] + rng.uniform(0.0, 2 * PI, (20, 2)).tolist()
    terminated = evaluated = tables = 0
    for a, b in pairs:
        _, _, rec = pr.bct_trial(a, b, rng, strategy)
        res = pr.two_bob_trial(a, b, rng, strategy)
        for record in (rec, res.record_b1, res.record_b2):
            assert pr.replay_bob(record) == record.c_b
            if record.branch == "flipped-terminated":
                terminated += 1
                for name in ("bob_slot", "alice_active_slot", "boundary_index"):
                    value = getattr(record, name)
                    assert type(value) is int and value == -1, (name, value)
        thetas = rng.uniform(0.0, THETA_SPAN, 5)
        _, msg = pr.alice_round(a, pr.HiddenState.make(1, float(thetas[0])))
        for alice, theta in ((pr.alice_slot_arrays(a, thetas), thetas), (msg.triple, float(thetas[0]))):
            ev = pr.evaluate_bob(*alice, b, theta, strategy)
            evaluated += ev.system == "none"
        table = pr.segment_table(a, (b, b + PI), strategy)
        tables += False in table.constant
    assert terminated > 0 and evaluated > 0 and tables > 0
    assert "none" not in systems
    assert systems  # the live axes still take the branch step


def test_every_separator_angle_comes_from_one_formula(monkeypatch):
    """Bob's array step, a round's cross-slot Bob step and a table's acceptance each call ``geometry._separator``."""
    calls = []
    separator = geometry._separator
    monkeypatch.setattr(geometry, "_separator", lambda *args: calls.append(args) or separator(*args))
    theta = 0.45 * PI  # Bob at 0 is cross-slot to Alice at pi/2 here
    thetas = np.array([theta])
    for reach in (lambda: pr.evaluate_bob(*pr.alice_slot_arrays(PI / 2, thetas), 0.0, thetas),
                  lambda: pr.bob_round(0.0, pr.alice_round(PI / 2, pr.HiddenState.make(1, theta))[1],
                                       pr.HiddenState.make(1, theta), coin=0.5),
                  lambda: pr.segment_table(PI / 2, (0.0,)).accept(theta)):
        before = len(calls)
        reach()
        assert len(calls) == before + 1
