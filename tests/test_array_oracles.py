"""The per-theta array oracles against the route that reads both of Alice's slot arrays.

``p_equal_given_theta`` and ``two_bob_equal_given_theta`` resolve each Bob
axis once and compute Alice's slot array only in the systems their live axes
use. The reference route below computes both of her slot arrays with
``alice_slot_arrays`` and evaluates each axis with ``evaluate_bob``; the two
routes must give the same values, types, dtypes, shapes and errors. The
counting tests check that the oracles do no more work than that.
"""

import dataclasses
import math

import numpy as np
import pytest

from bctsim import analysis as an
from bctsim import geometry as geo
from bctsim import protocol as pr

PI = math.pi
LAST_THETA = float(np.nextafter(geo.THETA_SPAN, 0.0))
ALL_STRATEGIES = tuple(pr.Strategy(rule, semantics) for rule in pr.FlipRule for semantics in pr.FlipSemantics)
STRATEGY_IDS = [f"{s.flip_rule.value}-{s.flip_semantics.value}" for s in ALL_STRATEGIES]
#: seeded settings in [-7, 7], and every alpha bound with its neighbours
SETTINGS = (np.random.default_rng(3001).uniform(-7.0, 7.0, (40, 2)).tolist()
            + [[k * PI / 5, (k + 3) * PI / 5 + 0.1] for k in range(10)]
            + [[math.nextafter(k * PI / 5, -math.inf), k * PI / 5] for k in range(10)])
NUS = (0.0, PI / 20, PI / 10, 0.123, PI / 5) + tuple(np.random.default_rng(3002).uniform(0.0, PI / 5, 5).tolist())
#: theta in every form the oracles take: a float, an int, a NumPy float, 0-d, list, empty, 1-D, 2-D and float32
THETA_FORMS = {
    "float": 0.7,
    "int": 1,
    "zero": 0,
    "np.float64": np.float64(0.31),
    "0-d": np.array(1.2),
    "list": [0.0, 0.5, 1.7],
    "empty list": [],
    "empty array": np.array([]),
    "1-d": np.linspace(0.0, LAST_THETA, 9),
    "2-d": np.linspace(0.0, 1.8, 12).reshape(3, 4),
    "float32": np.array([0.1, 0.9, 1.8], dtype=np.float32),
}


def reference_p_equal(a, b, theta, strategy=pr.NO_FLIP):
    """``p_equal_given_theta`` by both of Alice's slot arrays (``alice_slot_arrays``), then ``evaluate_bob``."""
    theta, vector = pr._theta_arg(theta)
    alpha, beta_slots, gamma_slots = pr.alice_slot_arrays(a, theta)
    ev = pr.evaluate_bob(alpha, beta_slots, gamma_slots, b, theta, strategy)
    p_equal = 1.0 - ev.accept_prob if ev.negate else ev.accept_prob
    return p_equal if vector else float(p_equal)


def reference_two_bob(nu, theta, strategy=pr.NO_FLIP, coin_mode=pr.CoinMode.INDEPENDENT):
    """``two_bob_equal_given_theta`` by both of Alice's slot arrays, then ``evaluate_bob`` on each frame axis."""
    theta, vector = pr._theta_arg(theta)
    alpha, beta_slots, gamma_slots = pr.alice_slot_arrays(an.alice_setting(nu), theta)
    ev1, ev2 = (pr.evaluate_bob(alpha, beta_slots, gamma_slots, b, theta, strategy) for b in an._FRAME_AXES)
    q1, q2 = ev1.accept_prob, ev2.accept_prob
    same_parity = ev1.negate == ev2.negate
    if pr.CoinMode(coin_mode) is pr.CoinMode.INDEPENDENT:
        agree = q1 * q2 + (1.0 - q1) * (1.0 - q2)
        out = agree if same_parity else 1.0 - agree
    else:
        coupled = 1.0 - np.abs(q1 - q2)
        out = coupled if same_parity else 1.0 - coupled
    return out if vector else float(out)


def _assert_same(got, want, case):
    """Equal type, and for arrays dtype, shape and bytes; floats compared by their bits."""
    assert type(got) is type(want), case
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), case
        assert got.tobytes() == want.tobytes(), case
    else:
        assert got.hex() == want.hex(), case


def _around(edges) -> list[float]:
    """Each edge and the float on either side of it, inside [0, 3*pi/5), with theta = 0 and the last theta."""
    out = {0.0, LAST_THETA}
    for e in edges.tolist():
        out.update(x for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)) if 0.0 <= x <= LAST_THETA)
    return sorted(out)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=STRATEGY_IDS)
def test_p_equal_equals_the_reference_route_at_every_edge(strategy):
    """At every edge of the setting's one-axis table and the floats either side, as one array and as floats."""
    for a, b in SETTINGS:
        thetas = _around(pr.segment_table(a, (b,), strategy).edges)
        grid = np.array(thetas)
        _assert_same(pr.p_equal_given_theta(a, b, grid, strategy), reference_p_equal(a, b, grid, strategy), (a, b))
        for theta in thetas:
            got, want = pr.p_equal_given_theta(a, b, theta, strategy), reference_p_equal(a, b, theta, strategy)
            _assert_same(got, want, (a, b, theta))


@pytest.mark.parametrize("form", THETA_FORMS)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=STRATEGY_IDS)
def test_p_equal_equals_the_reference_route_for_every_theta_form(strategy, form):
    theta = THETA_FORMS[form]
    for a, b in SETTINGS:
        _assert_same(pr.p_equal_given_theta(a, b, theta, strategy), reference_p_equal(a, b, theta, strategy), (a, b))


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=STRATEGY_IDS)
def test_two_bob_equals_the_reference_route(strategy):
    """At every edge of the frame's table and the floats either side, and in every theta form.

    Both coin modes, each given as a member and as a string.
    """
    for nu in NUS:
        thetas = _around(an._frame_table(nu, strategy).edges)
        for coin_mode in (*pr.CoinMode, *(mode.value for mode in pr.CoinMode)):
            for theta in [np.array(thetas), *thetas[::3], *THETA_FORMS.values()]:
                got = an.two_bob_equal_given_theta(nu, theta, strategy, coin_mode)
                _assert_same(got, reference_two_bob(nu, theta, strategy, coin_mode), (nu, coin_mode, theta))


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=STRATEGY_IDS)
def test_evaluate_bob_takes_none_for_a_slot_its_axis_does_not_use(strategy):
    """Every field equals the evaluation given both slots, at an array of thetas and at a float theta."""
    thetas = np.linspace(0.0, LAST_THETA, 11)
    for a, b in SETTINGS:
        for theta in (thetas, 0.9):
            alpha, beta_slots, gamma_slots = pr.alice_slot_arrays(a, theta)
            want = pr.evaluate_bob(alpha, beta_slots, gamma_slots, b, theta, strategy)
            kept = {"beta": (beta_slots, None), "gamma": (None, gamma_slots), "none": (None, None)}[want.system]
            got = pr.evaluate_bob(alpha, *kept, b, theta, strategy)
            for field in dataclasses.fields(pr.BobEvaluation):
                g, w = getattr(got, field.name), getattr(want, field.name)
                assert type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes(), (field.name, a, b)


def _raised(call):
    """The type and text of the exception ``call`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


#: (a, b, theta): a NaN or out-of-range theta comes first, then a non-finite a, then a non-finite b
P_EQUAL_ERRORS = [
    (math.nan, math.inf, math.nan), (math.nan, 0.0, -0.1), (0.0, math.nan, geo.THETA_SPAN),
    (math.inf, -math.inf, np.array([0.1, math.nan])), (math.nan, 0.0, [0.1, 7.0]),
    (math.nan, math.inf, 0.5), (-math.inf, math.nan, np.array([0.5, 1.0])), (math.inf, 0.0, []),
    (0.3, math.nan, 0.5), (0.3, -math.inf, np.array([0.5])),
]


@pytest.mark.parametrize("a, b, theta", P_EQUAL_ERRORS)
def test_p_equal_raises_what_the_reference_route_raises(a, b, theta):
    """The same exception and text: theta's ``ProtocolError``, then a's "finite" ``ValueError``, then b's."""
    got = _raised(lambda: pr.p_equal_given_theta(a, b, theta))
    assert got == _raised(lambda: reference_p_equal(a, b, theta))
    theta_bad = not np.all((np.asarray(theta, dtype=float) >= 0.0) & (np.asarray(theta, dtype=float) < geo.THETA_SPAN))
    if theta_bad:
        assert got[0] is pr.ProtocolError
    else:
        bad = a if not math.isfinite(a) else b
        assert got == (ValueError, f"angle must be a finite real number, got {bad!r}")


@pytest.mark.parametrize("nu, theta, coin_mode", [
    (PI / 10, math.nan, pr.CoinMode.INDEPENDENT), (-1.0, 7.0, "shared"), (math.nan, np.array([0.1, -0.1]), "bogus"),
    (-1.0, 0.5, "shared"), (math.nan, [0.5], "independent"), (PI / 10, 0.5, "bogus"), (PI / 10, [], "bogus"),
])
def test_two_bob_raises_what_the_reference_route_raises(nu, theta, coin_mode):
    """theta's ``ProtocolError`` first, then nu's ``ValueError``, then the coin mode's."""
    got = _raised(lambda: an.two_bob_equal_given_theta(nu, theta, pr.NO_FLIP, coin_mode))
    assert got == _raised(lambda: reference_two_bob(nu, theta, pr.NO_FLIP, coin_mode))


class _Counter:
    """Counts ``_bob_axis`` calls and records each slot-rule call as ``(system, x)``, through monkeypatching."""

    def __init__(self, monkeypatch, axis_owner):
        self.axes, self.slots = [], []
        bob_axis = pr._bob_axis
        monkeypatch.setattr(axis_owner, "_bob_axis", lambda *args: self.axes.append(bob_axis(*args)) or self.axes[-1])
        for system, slot_of in (("beta", geo.beta_slot_of), ("gamma", geo.gamma_slot_of)):
            monkeypatch.setattr(pr, f"{system}_slot_of",
                                lambda x, theta, system=system, slot_of=slot_of:
                                self.slots.append((system, x)) or slot_of(x, theta))

    def reset(self):
        del self.axes[:], self.slots[:]


def test_p_equal_resolves_its_axis_once_and_reads_only_its_system(monkeypatch):
    """One ``_bob_axis`` call; on a live axis one slot-rule call for Alice, then one for Bob, both in its system.

    A terminated axis calls the slot rule not at all. Every system is met,
    at a float theta and at an array.
    """
    count = _Counter(monkeypatch, pr)
    seen = set()
    for strategy in ALL_STRATEGIES:
        for a, b in SETTINGS:
            for theta in (0.4, np.linspace(0.0, 1.8, 5)):
                count.reset()
                pr.p_equal_given_theta(a, b, theta, strategy)
                assert len(count.axes) == 1, (a, b, strategy)
                b_eff, _, system = count.axes[0]
                want = [] if system == "none" else [(system, a), (system, b_eff)]
                assert count.slots == want, (a, b, strategy)
                seen.add(system)
    assert seen == {"beta", "gamma", "none"}


def test_two_bob_resolves_each_axis_once_and_reads_only_the_systems_its_live_axes_use(monkeypatch):
    """Two ``_bob_axis`` calls; Alice's slot once in each system a live axis uses, then Bob's once per live axis.

    The frame meets live axes in different systems and both in one system,
    and a terminated axis beside a live one in either system; its two axes
    are never both terminated.
    """
    count = _Counter(monkeypatch, an)
    seen = set()
    for strategy in ALL_STRATEGIES:
        for nu in NUS:
            a = an.alice_setting(nu)
            count.reset()
            an.two_bob_equal_given_theta(nu, np.linspace(0.0, 1.8, 5), strategy)
            assert len(count.axes) == 2, (nu, strategy)
            live = [(system, b_eff) for b_eff, _, system in count.axes if system != "none"]
            alice = [(system, a) for system in ("beta", "gamma") if system in {s for s, _ in live}]
            assert count.slots == alice + live, (nu, strategy)
            seen.add(tuple(system for _, _, system in count.axes))
    assert seen == {("gamma", "beta"), ("gamma", "gamma"), ("beta", "beta"), ("gamma", "none"), ("none", "beta")}
