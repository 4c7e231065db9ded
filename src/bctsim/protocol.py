"""Round engine for the four-bit slot-message simulation of Bell-pair statistics.

One round works as follows. The parties share a fair sign ``c`` and an angle
``theta`` uniform on ``[0, 3*pi/5)``; ``theta`` positions the beta/gamma slot
systems. Alice outputs ``c`` and sends the cell of her setting under the
combined sixteen-boundary partition (four bits). Bob then

1. optionally reflects his axis by ``pi`` when the alpha-slot gap to Alice's
   setting is large -- the exact reading of this rule is ambiguous in the
   source procedure and is therefore a :class:`Strategy`, never a hard-coded
   choice;
2. switches from the beta to the gamma system when his (possibly reflected)
   axis falls in alpha slots {7, 8, 9, 0, 1};
3. outputs ``c`` outright if his axis shares the active slot with Alice's,
   otherwise accepts ``c`` with probability ``1 - (3*pi/10)*sin(u)`` where
   ``u`` is his distance to the boundary separating the slots, and ``-c``
   otherwise. A reflection armed in step 1 negates the final output.

Bob's evaluation sees only the slot message and the shared state, never
Alice's angle. Everything is replayable: a :class:`TrialRecord` stores the
hidden draw, the coin, and the branch taken.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry
from .geometry import (
    THETA_SPAN,
    TWO_PI,
    alpha_slot_cyclic_difference,
    alpha_slot_of,
    beta_slot_of,
    gamma_slot_of,
    normalize_angle,
)

__all__ = [
    "ACCEPTANCE_COEFF",
    "GAMMA_ALPHA_SLOTS",
    "FlipRule",
    "FlipSemantics",
    "CoinMode",
    "Strategy",
    "NO_FLIP",
    "CYCLIC_FLIP",
    "ABS_FLIP",
    "ProtocolError",
    "HiddenState",
    "SlotMessage",
    "TrialRecord",
    "BobEvaluation",
    "SegmentTable",
    "TwoBobResult",
    "draw_hidden",
    "alice_round",
    "alice_slot_arrays",
    "evaluate_bob",
    "segment_table",
    "bob_round",
    "bct_trial",
    "nbct_trial",
    "two_bob_trial",
    "p_equal_given_theta",
    "replay_bob",
]

#: coefficient of the acceptance rule 1 - (3*pi/10)*sin(u)
ACCEPTANCE_COEFF = 3.0 * math.pi / 10.0
#: alpha slots on which Bob evaluates against the gamma system
GAMMA_ALPHA_SLOTS = frozenset({7, 8, 9, 0, 1})


class FlipRule(str, Enum):
    """How the alpha-slot gap triggering the axis reflection is measured."""

    CYCLIC = "cyclic-distance"
    ABSOLUTE = "absolute-difference"
    DISABLED = "disabled"


class FlipSemantics(str, Enum):
    """What a fired reflection does to the rest of the round.

    CONTINUE runs the remaining steps on the reflected axis and negates the
    final output; TERMINATE ends the round immediately with output ``-c``.
    """

    CONTINUE = "continue-then-negate"
    TERMINATE = "terminate-with-negated-c"


class CoinMode(str, Enum):
    """Whether the two evaluations of a two-Bob round share the acceptance coin."""

    INDEPENDENT = "independent"
    SHARED = "shared"


@dataclass(frozen=True)
class Strategy:
    """Resolution of the reflection rule's ambiguous reading.

    Each strategy carries its rule's fire table ``_fires``, built once per
    rule when the module loads (a strategy is built in microseconds), and
    ``_terminate``, whether a fired reflection ends the round: what
    :func:`_bob_axis` reads. The table is the one route to whether the
    reflection fires. ``_values`` holds the two value strings a
    :class:`TrialRecord` ends with. None is a field, so equality, hashing,
    ``repr`` and ``replace`` read only the rule and its semantics, and
    ``replace`` gives the new strategy its own rule's table.
    """

    flip_rule: FlipRule = FlipRule.DISABLED
    flip_semantics: FlipSemantics = FlipSemantics.CONTINUE

    def __post_init__(self):
        # a field given as its value string becomes its member, so the ``is`` tests below hold; else ValueError
        object.__setattr__(self, "flip_rule", FlipRule(self.flip_rule))
        object.__setattr__(self, "flip_semantics", FlipSemantics(self.flip_semantics))
        object.__setattr__(self, "_fires", _FIRES[self.flip_rule])
        object.__setattr__(self, "_terminate", self.flip_semantics is FlipSemantics.TERMINATE)
        object.__setattr__(self, "_values", (self.flip_rule.value, self.flip_semantics.value))

    def flip_fires(self, alice_alpha: int, bob_alpha: int) -> bool:
        """The fire table's entry at these alpha slots; ``ValueError`` under every rule unless both are ints in 0..9."""
        if not all(isinstance(j, (int, np.integer)) and 0 <= j <= 9 for j in (alice_alpha, bob_alpha)):
            raise ValueError(f"alpha slot indices must lie in 0..9, got ({alice_alpha}, {bob_alpha})")
        return self._fires[alice_alpha][bob_alpha]


#: per rule, its fire table: the rule's own test at Alice's alpha slot ``i`` and Bob's ``j``, both in 0..9
_FIRES = {rule: tuple(tuple(fires(i, j) for j in range(10)) for i in range(10)) for rule, fires in (
    (FlipRule.DISABLED, lambda i, j: False),
    (FlipRule.ABSOLUTE, lambda i, j: abs(i - j) > 2),
    (FlipRule.CYCLIC, lambda i, j: alpha_slot_cyclic_difference(i, j) > 2),
)}
#: no reflection; reproduces the two-Bob walkthrough geometry
NO_FLIP = Strategy(FlipRule.DISABLED, FlipSemantics.CONTINUE)
#: reflection on cyclic slot distance > 2, continuing on the reflected axis
CYCLIC_FLIP = Strategy(FlipRule.CYCLIC, FlipSemantics.CONTINUE)
#: reflection on absolute slot difference > 2, continuing on the reflected axis
ABS_FLIP = Strategy(FlipRule.ABSOLUTE, FlipSemantics.CONTINUE)


class ProtocolError(ValueError):
    """An inconsistent message/hidden-state pair or malformed round input."""


def _record(cls):
    """Class decorator: give frozen dataclass ``cls`` an ``__init__`` that stores its fields straight into ``__dict__``.

    The stock frozen ``__init__`` sets each field with its own
    ``object.__setattr__`` call; this one binds the instance dict once and
    stores each field by subscript, in declaration order, so the dict keeps
    the keys shared across the class (one ``update`` would build each
    instance its own key table, twice the memory). It has the same
    signature, so a missing, unknown or duplicate argument raises the same
    ``TypeError``; assignment and deletion still raise
    ``FrozenInstanceError``, and equality, hashing, ``repr``, ``replace``,
    ``asdict``, pickling and copying read the same fields. Only for a class
    whose fields all come from ``__init__`` without defaults and that has
    no ``__post_init__``.
    """
    fields = dataclasses.fields(cls)
    required = all(f.init and f.default is f.default_factory is dataclasses.MISSING for f in fields)
    if not (cls.__dataclass_params__.frozen and required) or hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} is not a frozen dataclass of required fields only")
    names = [f.name for f in fields]
    # one instance through the stock __init__ grows the key table the class's instance
    # dicts share; Python 3.10 grows it on attribute assignment only, not on a dict store
    cls.__init__(object.__new__(cls), *[None] * len(names))
    namespace = {}
    # the one local is named __dict__, which a field could not be without hiding the instance dict
    source = f"def __init__(self, {', '.join(names)}):\n    __dict__ = self.__dict__\n"
    exec(source + "".join(f"    __dict__[{n!r}] = {n}\n" for n in names), namespace)
    init = namespace["__init__"]
    for name in ("__module__", "__qualname__", "__annotations__"):
        setattr(init, name, getattr(cls.__init__, name))
    cls.__init__ = init
    return cls


@_record
@dataclass(frozen=True)
class HiddenState:
    """Shared randomness of one round: the sign and the angle that positions the beta/gamma slots."""

    c: int
    theta: float

    @classmethod
    def make(cls, c: int, theta: float) -> "HiddenState":
        """Check and build a state; ``c`` is stored as a Python int and ``theta`` as a Python float.

        A bool or a float ``c`` is rejected.
        """
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c not in (-1, 1):
            raise ProtocolError(f"shared sign must be the integer -1 or +1, got {c!r}")
        if not (0.0 <= theta < THETA_SPAN):
            raise ProtocolError(f"shared angle must lie in [0, 3*pi/5), got {theta!r}")
        return cls(int(c), float(theta))


def draw_hidden(rng: np.random.Generator) -> HiddenState:
    """Draw one round's shared randomness: sign first, then angle.

    The angle is bit for bit ``rng.uniform(0.0, THETA_SPAN)``, which
    computes ``0.0 + THETA_SPAN * rng.random()``, without a ``uniform`` call.
    """
    c = 1 if rng.random() < 0.5 else -1
    theta = rng.random() * THETA_SPAN
    return HiddenState.make(c, theta)


@_record
@dataclass(frozen=True)
class SlotMessage:
    """Alice's four transmitted bits: the cell of her setting, plus the decoded slots."""

    cell: int
    alpha_slot: int
    beta_slot: int
    gamma_slot: int

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.alpha_slot, self.beta_slot, self.gamma_slot)


@_record
@dataclass(frozen=True)
class TrialRecord:
    """Everything needed to replay one round deterministically."""

    a: float  # Alice's setting; nan in a bare Bob evaluation
    b: float
    c: int
    theta: float
    message: SlotMessage
    coin: float | None
    c_a: int
    c_b: int
    branch: str  # same-slot | cross-slot | flipped-then-* | flipped-terminated
    flip_fired: bool
    negated: bool
    system: str  # "beta" | "gamma" | "none" (terminated)
    bob_slot: int
    alice_active_slot: int
    boundary_angle: float  # nan when no boundary was involved
    boundary_index: int  # -1 when no boundary was involved
    u: float  # nan when no boundary was involved
    accept_prob: float  # pre-negation probability of keeping c
    flip_rule: str
    flip_semantics: str

    def to_json(self) -> str:
        """The record as JSON: byte for byte ``json.dumps(dataclasses.asdict(self), allow_nan=True)``.

        One fixed template holds the keys in declaration order, the message
        nested, and ``json.dumps``'s separators; each value's JSON text fills
        its place. A float (Python or NumPy) writes its ``float.__repr__``, or
        ``NaN``, ``Infinity`` and ``-Infinity``; the coin's None writes
        ``null``; the two bools ``true`` and ``false``; an int (not a bool)
        its digits; a string its quoted text through ``json``'s own escaper,
        non-ASCII escaped as ``json.dumps`` escapes it. The contract covers
        every record whose fields hold these, their annotated types.
        """
        m, f, s = self.message, _json_float, json.encoder.encode_basestring_ascii
        return _RECORD_JSON % (
            f(self.a), f(self.b), self.c, f(self.theta), m.cell, m.alpha_slot, m.beta_slot, m.gamma_slot,
            "null" if self.coin is None else f(self.coin), self.c_a, self.c_b, s(self.branch),
            ("false", "true")[self.flip_fired], ("false", "true")[self.negated], s(self.system), self.bob_slot,
            self.alice_active_slot, f(self.boundary_angle), self.boundary_index, f(self.u), f(self.accept_prob),
            s(self.flip_rule), s(self.flip_semantics))


#: ``TrialRecord.to_json``'s template: ``%d`` an int's place, ``%s`` the JSON text of any other value
_RECORD_JSON = ('{"a": %s, "b": %s, "c": %d, "theta": %s, "message": {"cell": %d, "alpha_slot": %d, "beta_slot": %d, '
                '"gamma_slot": %d}, "coin": %s, "c_a": %d, "c_b": %d, "branch": %s, "flip_fired": %s, "negated": %s, '
                '"system": %s, "bob_slot": %d, "alice_active_slot": %d, "boundary_angle": %s, "boundary_index": %d, '
                '"u": %s, "accept_prob": %s, "flip_rule": %s, "flip_semantics": %s}')


def _json_float(x: float) -> str:
    """A float's JSON text as ``json.dumps(..., allow_nan=True)`` writes it: its repr if finite (``x - x == 0``)."""
    return float.__repr__(x) if x - x == 0.0 else "NaN" if x != x else "Infinity" if x > 0.0 else "-Infinity"


def alice_round(a: float, hidden: HiddenState) -> tuple[int, SlotMessage]:
    """Alice's output (always the shared sign) and her four-bit slot message."""
    cell, triple = geometry._cell_and_triple(a, hidden.theta)
    return hidden.c, SlotMessage(cell, *triple)


def alice_slot_arrays(a: float, theta) -> tuple[int, np.ndarray, np.ndarray]:
    """Alice's alpha slot and beta/gamma slots at ``theta`` (float or array); ``ValueError`` for a non-finite ``a``."""
    normalize_angle(a)
    return int(alpha_slot_of(a)), beta_slot_of(a, theta), gamma_slot_of(a, theta)


@dataclass
class BobEvaluation:
    """Branch outcome of Bob's procedure, per theta.

    Per-theta fields have the broadcast shape of theta and Alice's slots;
    ``alice_slot`` keeps the shape it was given. ``accept_prob`` is the
    pre-negation probability of keeping ``c``; the final output is negated
    when ``negate`` (a fired reflection). ``boundary_index``,
    ``boundary_angle`` and ``u`` (the separator) mean something only where
    ``same_slot`` is False.
    """

    accept_prob: np.ndarray
    negate: bool
    system: str
    same_slot: np.ndarray
    bob_slot: np.ndarray
    alice_slot: np.ndarray
    boundary_index: np.ndarray
    boundary_angle: np.ndarray
    u: np.ndarray


def _bob_axis(alice_alpha: int, b: float, strategy: Strategy) -> tuple[float, bool, str]:
    """Bob's effective axis, whether the reflection fired, and his slot system, for an axis ``b`` in ``[0, 2*pi)``.

    All three are theta-free. Each caller normalizes ``b`` once, at its
    entry; a reflection adds pi and wraps once (``geometry._separator``).
    Whether it fires, and whether it terminates, come from the strategy's
    fire table, read directly for an int ``alice_alpha`` in 0..9 and else
    through :meth:`Strategy.flip_fires`, which raises ``ValueError``. A
    terminating reflection gives the system ``"none"``: Bob outputs ``-c``
    with no slot test, so neither the branch step (:func:`_branch`) nor the
    acceptance runs. A step then reads the values of :data:`_NO_SEPARATOR`,
    negated, and a table gives the axis no same-slot segment and zero offsets.
    """
    bob_alpha = int(alpha_slot_of(b))
    fired = (strategy._fires[alice_alpha][bob_alpha] if type(alice_alpha) is int and 0 <= alice_alpha <= 9
             else strategy.flip_fires(alice_alpha, bob_alpha))
    if fired and strategy._terminate:
        return b, True, "none"
    if fired:
        b, bob_alpha = geometry._separator(b, math.pi), (bob_alpha + 5) % 10
    return b, fired, "gamma" if bob_alpha in GAMMA_ALPHA_SLOTS else "beta"


#: Bob's step with no separator, ``(alice_slot, bob_slot, same, k, boundary, u, accept)``; a same-slot
#: step reads the last four, a terminated axis, which reads no slot, all seven
_NO_SEPARATOR = (-1, -1, False, -1, math.nan, math.nan, 1.0)


def _acceptance(b_eff: float, boundary):
    """Distance ``u`` from Bob's axis to the separating boundary, and ``1 - (3*pi/10)*sin(u)``.

    ``u`` is the shorter arc, so it lies in ``[0, pi]`` and the acceptance
    in ``[1 - 3*pi/10, 1]``: a probability without clipping. A Python float
    ``boundary`` gives Python floats through ``min`` and ``math.sin``, which
    equal ``np.minimum`` and ``np.sin`` bit for bit; arrays and NumPy
    scalars take those ufuncs.
    """
    d = abs(b_eff - boundary)
    if type(d) is float:
        u = min(d, TWO_PI - d)
        return u, 1.0 - ACCEPTANCE_COEFF * math.sin(u)
    u = np.minimum(d, TWO_PI - d)
    return u, 1.0 - ACCEPTANCE_COEFF * np.sin(u)


def _branch(axis: tuple[float, bool, str], alice_beta_slot, alice_gamma_slot, theta):
    """Bob's branch step on a live ``axis`` already resolved by :func:`_bob_axis`, with no acceptance.

    Returns per theta Alice's active slot, his slot, same-slot and the
    separator's index: Python ints and a bool at a float ``theta`` and
    Alice's slots as ints, else arrays.
    """
    b_eff, _, system = axis
    gamma = system == "gamma"
    alice_slot = alice_gamma_slot if gamma else alice_beta_slot
    bob_slot = (gamma_slot_of if gamma else beta_slot_of)(b_eff, theta)
    # Different slots in a three-slot ring are adjacent; one traversal
    # direction crosses a single boundary, the other two. The separator is
    # the upper edge of Bob's slot when Alice sits one step counterclockwise,
    # else the lower edge.
    one_step_ccw = (alice_slot - bob_slot) % 3 == 1
    return alice_slot, bob_slot, alice_slot == bob_slot, (bob_slot + one_step_ccw) % 3


def evaluate_bob(
    alice_alpha: int,
    alice_beta_slot,
    alice_gamma_slot,
    b: float,
    theta,
    strategy: Strategy = NO_FLIP,
) -> BobEvaluation:
    """Bob's step against a slot message, vectorized over theta: the axis, then :func:`_evaluate_axis`.

    ``alice_beta_slot``/``alice_gamma_slot`` are ints from one message or
    per-theta arrays from :func:`alice_slot_arrays`. ``b`` is normalized and
    resolved (:func:`_bob_axis`) once. Alice's slot in a system the axis does
    not use is never read, so ``None`` may be passed for it.
    """
    return _evaluate_axis(_bob_axis(alice_alpha, normalize_angle(b), strategy), alice_beta_slot, alice_gamma_slot,
                          theta)


def _evaluate_axis(axis: tuple[float, bool, str], alice_beta_slot, alice_gamma_slot, theta) -> BobEvaluation:
    """:func:`evaluate_bob` on an ``axis`` already resolved by :func:`_bob_axis`: the branch step, the acceptance.

    :func:`_branch` and :func:`_acceptance` run on NumPy values. Alice's slot
    is read only in the axis's system, and in none on a terminated axis, so
    ``None`` may be passed for a slot the axis does not use.
    """
    b_eff, fired, system = axis
    if system == "none":  # _NO_SEPARATOR at theta's shape, its ints as int64
        shape = np.shape(theta)
        alice_slot, bob_slot, same, k, bnd, u, accept = (np.full(shape, v, np.int64 if type(v) is int else None)
                                                         for v in _NO_SEPARATOR)
    else:
        alice_slot, bob_slot, same, k = _branch(axis, alice_beta_slot, alice_gamma_slot, theta)
        bnd = geometry._separator(theta, np.array(geometry._OFFSETS[system])[k])
        u, accept = _acceptance(b_eff, bnd)
        accept = np.where(same, 1.0, accept)
    return BobEvaluation(accept, fired, system, same, bob_slot, alice_slot, k, bnd, u)


def _alice_slots(a: float, theta, systems) -> tuple:
    """Alice's beta and gamma slots of ``a`` at ``theta``, each only if its system is in ``systems``, else None."""
    return (beta_slot_of(a, theta) if "beta" in systems else None,
            gamma_slot_of(a, theta) if "gamma" in systems else None)


# the acceptance screen's constants; SegmentTable._screen gives the bound they keep
#: equal theta bins of the screen; a raw theta output ``x`` falls in bin ``x >> 52``
_BINS = 4096
#: a raw theta output ``x``'s theta is ``(x >> 11) * _THETA_STEP``, bit for bit ``THETA_SPAN * random()``
_THETA_STEP = THETA_SPAN * 2.0**-53
#: half-width of a cross-slot bracket: K times half a bin's nominal width, plus rounding
_SLACK = ACCEPTANCE_COEFF * (THETA_SPAN / (2 * _BINS)) + 1e-9
#: width of a cross-slot bracket from its lower end
_WIDTH = 2.0 * _SLACK + 1e-12


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Bob's branch outcome on several axes against one setting, as a lookup over theta.

    For fixed settings and strategy every slot test that decides Bob's
    branch is constant between consecutive ``edges``, the crossings that
    :func:`bctsim.geometry._flip_points` finds: segment ``i`` is
    ``[edges[i-1], edges[i])``, from 0 up to 3*pi/5, so a lookup agrees with
    :func:`evaluate_bob` at every theta. Per axis ``j`` and segment:
    ``same[j]`` (Bob shares Alice's active slot) and ``offset[j]``, the
    separator's offset above theta, one of ``geometry``'s offsets; per
    axis: the effective (possibly reflected) axis, ``negate`` and
    ``constant``, the decision that no theta or coin can change, else None
    (the axis is live). An acceptance of exactly 1 keeps ``c`` for every
    coin in [0, 1), so it decides ``not negate``: on a terminated axis
    (:func:`_bob_axis`), on one where ``same`` holds in every segment, and
    at one theta wherever the acceptance (:meth:`accept`) is 1. An
    acceptance is never 0 (:func:`_acceptance`), so no other decision is
    constant. A lookup over many thetas goes through the screen
    (:attr:`_screen`), built on the first lookup, never by
    :func:`segment_table`, :meth:`expectation` or :meth:`accept`.
    """

    edges: np.ndarray
    axes: tuple[float, ...]
    same: tuple[np.ndarray, ...]
    offset: tuple[np.ndarray, ...]
    negate: tuple[bool, ...]
    constant: tuple[bool | None, ...]

    def _accept(self, j: int, theta: np.ndarray, seg) -> np.ndarray:
        """Bob's acceptance on axis ``j`` at each ``theta`` in segment ``seg``, as :func:`evaluate_bob` gives it."""
        boundary = geometry._separator(theta, self.offset[j][seg])
        return np.where(self.same[j][seg], 1.0, _acceptance(self.axes[j], boundary)[1])

    @functools.cached_property
    def _screen(self) -> tuple[np.ndarray | None, ...]:
        """The screen: per axis, a bracket's lower end ``lo`` over the ``_BINS`` bins; None when constant.

        A live axis has ``lo[k] <= q <= lo[k] + _WIDTH`` for the exact
        acceptance ``q`` at every theta of bin ``k``. Bin ``k = x >> 52`` holds
        the raw theta outputs ``x`` whose top 53 bits ``m = x >> 11`` run from
        ``k << 41`` to ``((k + 1) << 41) - 1``, and theta
        ``fl(m * _THETA_STEP)`` never falls with ``m``, so every theta of the
        bin lies from the theta of the first ``m`` to that of the last. The
        bin is near an edge exactly when those two rank into different
        segments; a near bin holds NaN, which fails both comparisons, and any
        other bin's thetas share one segment. Inside a segment Bob's distance
        ``u`` to the separator is 1-Lipschitz in theta, so ``1 - K*sin(u)`` is
        K-Lipschitz (K = 3*pi/10). The last theta lies ``2**41 - 1`` steps,
        less than the nominal width ``THETA_SPAN / _BINS``, above the first,
        up to their two roundings, and the centre, their rounded mean, adds
        one more, so every theta of the bin lies within half that width plus
        1e-15 of it. A cross-slot bin's ``lo`` is the exact acceptance at its
        centre less ``_SLACK = K*THETA_SPAN/(2*_BINS) + 1e-9``, where 1e-9
        covers K times those roundings and the rounding of both exact
        evaluations. ``_WIDTH`` is twice that slack plus 1e-12, some thousand
        ulps, so ``fl(lo + _WIDTH) >= fl(q + _SLACK)``. A same-slot bin holds
        1.0. A coin below ``lo`` keeps ``c``, one at or above ``lo + _WIDTH``
        does not, and any other is held and decided exactly (:meth:`_sift`,
        :meth:`_resolve`): the brackets are bounds, so every decision is
        ``(coin < accept_prob) ^ negate`` of :func:`evaluate_bob`.
        """
        m = np.arange(_BINS + 1, dtype=np.int64) << 41  # each bin's first top 53 bits, then the end of the last
        first, last = m[:-1] * _THETA_STEP, (m[1:] - 1) * _THETA_STEP
        centre = (first + last) / 2.0
        seg = geometry._rank(centre, self.edges)
        near = geometry._rank(first, self.edges) != geometry._rank(last, self.edges)
        screen = []
        for j, constant in enumerate(self.constant):
            if constant is not None:
                screen.append(None)
                continue
            q = self._accept(j, centre, seg)  # exactly 1.0 on a same-slot bin
            slack = np.where(self.same[j][seg], 0.0, _SLACK)
            screen.append(np.where(near, np.nan, q - slack))
        return tuple(screen)

    def _sift(self, raw: np.ndarray, coins, kept, start: int) -> list[tuple | None]:
        """Per live axis ``j``, the screened decision into ``kept[j]``, and the held trials :meth:`_resolve` reads.

        Those are ``(index + start, raw, coin)`` arrays of raw theta outputs,
        whose top 12 bits are their bins; a constant axis gets None, and its
        coin and ``kept[j]`` are not read. Callers ignore NumPy's invalid flag.
        """
        k = (raw >> 52).view(np.intp)
        held = []
        for j, coin in enumerate(coins):
            if self.constant[j] is not None:
                held.append(None)
                continue
            lo = self._screen[j].take(k)
            np.less(coin, lo, out=kept[j])
            lo += _WIDTH
            decided = coin >= lo
            decided |= kept[j]
            at = np.flatnonzero(~decided)
            held.append((at + start, raw[at], coin[at]))
        return held

    def _resolve(self, j: int, keep: np.ndarray, held) -> np.ndarray:
        """The resolve step of live axis ``j``: decide its held trials exactly, then negate ``keep`` in place.

        ``held`` lists parts as :meth:`_sift` returns them.
        """
        if held:
            at, raw, coin = (np.concatenate(part) for part in zip(*held))
            theta = (raw >> 11) * _THETA_STEP  # the only thetas a sampled block makes
            keep[at] = coin < self._accept(j, theta, geometry._rank(theta, self.edges))
        if self.negate[j]:
            np.logical_not(keep, out=keep)
        return keep

    def accept(self, theta) -> list:
        """Per axis, Bob's acceptance at ``theta``, 1 on a constant axis: floats at a float ``theta``, else arrays."""
        seg = geometry._rank(theta, self.edges)
        accepts = [np.ones(np.shape(theta)) if k is not None else self._accept(j, theta, seg)
                   for j, k in enumerate(self.constant)]
        return accepts if np.ndim(theta) else [float(q) for q in accepts]

    def expectation(self, coin_mode: CoinMode = CoinMode.INDEPENDENT) -> float:
        """Exact P(both outputs equal) of a two-axis table, averaged over theta; ``ProtocolError`` for other tables.

        In a segment, Bob's acceptance on a cross-slot axis ``j`` is
        ``q_j = 1 - (3*pi/10)*s_j*sin(phi_j - theta)`` with
        ``phi_j = axes[j] - offset[j]``. The separator is an edge of Bob's
        slot and slots are at most 4*pi/5 wide, so the sign ``s_j`` of the
        sine changes only at a table edge; it is read at the segment
        midpoint. On a same-slot segment or a constant axis ``q_j = 1``. Each
        segment then integrates in closed form: independent coins agree with
        ``1 - c1*S1 - c2*S2 + 2*c1*c2*S1*S2`` (``c_j = (3*pi/10)*s_j``,
        ``S_j = sin(phi_j - theta)``), by product-to-sum; a shared coin with
        ``1 - |q1 - q2|``, where ``q1 - q2 = P*cos(theta) + Q*sin(theta)``
        keeps its sign between its zeros ``atan2(-P, Q) + k*pi``. Opposite
        negations turn a segment's value into its length less that value.

        Each segment's term, on Python floats, equals the same form over NumPy
        arrays bit for bit (the zeros come from one ``np.arctan2`` call, as
        ``math.atan2`` may differ in the last bit), and ``math.fsum`` adds the
        terms exactly and rounds once.
        """
        if len(self.axes) != 2:
            raise ProtocolError(f"an expectation needs a table of two axes, this one has {len(self.axes)}")
        starts = [0.0, *self.edges.tolist()]
        ends = [*starts[1:], THETA_SPAN]
        phi, coeff = [], []
        for b, same, offset, constant in zip(self.axes, self.same, self.offset, self.constant):
            phi.append([b - off for off in offset.tolist()])
            coeff.append([0.0 if s or constant is not None else ACCEPTANCE_COEFF * _sign(math.sin(f - (lo + hi) / 2.0))
                          for f, s, lo, hi in zip(phi[-1], same.tolist(), starts, ends)])
        segments = list(zip(starts, ends, *phi, *coeff))
        if CoinMode(coin_mode) is CoinMode.INDEPENDENT:
            equal = []
            for lo, hi, p1, p2, c1, c2 in segments:
                length = hi - lo
                int_s1 = math.cos(p1 - hi) - math.cos(p1 - lo)
                int_s2 = math.cos(p2 - hi) - math.cos(p2 - lo)
                int_s1s2 = (0.5 * length * math.cos(p1 - p2)
                            - 0.25 * (math.sin(p1 + p2 - 2.0 * lo) - math.sin(p1 + p2 - 2.0 * hi)))
                equal.append(length - c1 * int_s1 - c2 * int_s2 + 2.0 * c1 * c2 * int_s1s2)
        else:
            pq = [(c2 * math.sin(p2) - c1 * math.sin(p1), c1 * math.cos(p1) - c2 * math.cos(p2))
                  for _, _, p1, p2, c1, c2 in segments]
            zeros = np.arctan2([-p for p, _ in pq], [q for _, q in pq]).tolist()

            def gap(p, q, t0, t1):
                return abs(p * (math.sin(t1) - math.sin(t0)) - q * (math.cos(t1) - math.cos(t0)))

            equal = []
            for lo, hi, (p, q), zero in zip(starts, ends, pq, zeros):
                cut = min(max(zero + math.pi * math.ceil((lo - zero) / math.pi), lo), hi)  # segments are < pi long
                equal.append(hi - lo - gap(p, q, lo, cut) - gap(p, q, cut, hi))
        if self.negate[0] != self.negate[1]:
            equal = [hi - lo - e for lo, hi, e in zip(starts, ends, equal)]
        return math.fsum(equal) / THETA_SPAN


def _sign(x: float) -> int:
    """``np.sign`` of a float that is not NaN, as an int: -1, 0 or 1."""
    return (x > 0.0) - (x < 0.0)


def segment_table(a: float, axes, strategy: Strategy = NO_FLIP) -> SegmentTable:
    """Build the :class:`SegmentTable` of Alice's setting ``a`` against Bob's ``axes``; draws no random numbers.

    The slot tests that matter are Alice's and each live Bob's, in that
    Bob's system; their crossings come from ``geometry._flip_points`` and
    merge as Python floats, and an angle on a boundary at theta = 0 leaves
    that slot at the first float above 0, the first edge. Each axis is
    normalized and resolved (:func:`_bob_axis`) once. The build runs on
    Python floats, ``a`` made one first: at each segment's lowest theta,
    Alice's slot in each system a live axis uses comes from the slot rule,
    and each live axis's entries from one call of Bob's branch step
    (:func:`_branch`), so the branch logic has a single owner; a cross-slot
    entry's offset is read from ``geometry``'s table of its system. No
    acceptance is computed. The entries become arrays at the end.
    """
    a = normalize_angle(float(a))
    alpha = alpha_slot_of(a)
    bob_axes = [_bob_axis(alpha, normalize_angle(b), strategy) for b in axes]
    tests = {(x, system) for b_eff, _, system in bob_axes if system != "none" for x in (a, b_eff)}
    starts = [0.0, *sorted(set(geometry._flip_points(tests) if tests else ()))]
    read = {system for _, system in tests}
    alice = [_alice_slots(a, t, read) for t in starts]
    fields = []  # per axis: its SegmentTable fields after edges, in order
    for axis in bob_axes:
        b_eff, fired, system = axis
        if system == "none":
            same, offset = [False] * len(starts), [0.0] * len(starts)
        else:
            offsets = geometry._OFFSETS[system]
            same, k = zip(*(_branch(axis, beta, gamma, t)[2:] for t, (beta, gamma) in zip(starts, alice)))
            offset = [0.0 if s else offsets[i] for s, i in zip(same, k)]
        constant = not fired if system == "none" or all(same) else None
        fields.append((b_eff, np.array(same), np.array(offset), fired, constant))
    return SegmentTable(np.array(starts[1:]), *map(tuple, zip(*fields)))


def _decode(msg: SlotMessage, hidden: HiddenState) -> tuple[int, int, int]:
    """The slot triple Bob reads off the wire cell, checked against the triple the message carries.

    A cell that is not an integer in 0..15, or is empty at this theta, is a ``ProtocolError``.
    """
    try:
        triple = geometry.cell_to_triple(msg.cell, hidden.theta)
    except ValueError as exc:
        raise ProtocolError(f"message cell {msg.cell!r} is impossible for this round: {exc}") from exc
    if triple != msg.triple:
        raise ProtocolError(
            f"message triple {msg.triple} does not decode from cell {msg.cell} "
            f"at theta={hidden.theta!r} (expected {triple})"
        )
    return triple


def _bob_step(a: float, b: float, msg: SlotMessage, triple: tuple[int, int, int], hidden: HiddenState,
              coin: float, strategy: Strategy, record: bool = True) -> tuple[int, TrialRecord | None]:
    """Bob's output on axis ``b`` against the decoded ``triple``, and the round's record for ``a`` or None.

    :func:`evaluate_bob`'s steps on Python floats and ints, with its values
    at ``[theta]`` bit for bit and no :class:`BobEvaluation` built; the
    record holds ``b`` as it was normalized.
    """
    if coin is None or not 0.0 <= coin < 1.0:
        raise ProtocolError(f"coin must lie in [0, 1), got {coin!r}")
    coin, b = float(coin), normalize_angle(float(b))
    alpha, beta_slot, gamma_slot = triple
    axis = b_eff, fired, system = _bob_axis(alpha, b, strategy)
    if system == "none":
        alice_slot, bob_slot, same, k, boundary, u, accept = _NO_SEPARATOR
    else:
        alice_slot, bob_slot, same, k = _branch(axis, beta_slot, gamma_slot, hidden.theta)
        if same:
            k, boundary, u, accept = _NO_SEPARATOR[3:]
        else:
            boundary = geometry._separator(hidden.theta, geometry._OFFSETS[system][k])
            u, accept = _acceptance(b_eff, boundary)
    inner = hidden.c if coin < accept else -hidden.c
    c_b = -inner if fired else inner
    if not record:
        return c_b, None
    slot = "same-slot" if same else "cross-slot"
    branch = "flipped-terminated" if system == "none" else ("flipped-then-" if fired else "") + slot
    return c_b, TrialRecord(a, b, hidden.c, hidden.theta, msg, coin, hidden.c, c_b, branch, fired,
                            fired, system, bob_slot, alice_slot, boundary, k, u, accept, *strategy._values)


def bob_round(
    b: float,
    msg: SlotMessage,
    hidden: HiddenState,
    rng: np.random.Generator | None = None,
    strategy: Strategy = NO_FLIP,
    coin: float | None = None,
) -> tuple[int, TrialRecord]:
    """Bob's output for one round, with a full replayable record (``a`` is nan: Bob never sees it).

    ``coin`` is the unit-interval draw compared against the acceptance
    probability; it is drawn from ``rng`` when not supplied.
    """
    triple = _decode(msg, hidden)
    if coin is None:
        if rng is None:
            raise ProtocolError("bob_round needs either a random generator or an explicit coin")
        coin = rng.random()
    return _bob_step(math.nan, b, msg, triple, hidden, coin, strategy)


def _round(a: float, axes: tuple[float, ...], rng: np.random.Generator, strategy: Strategy,
           coin_mode: CoinMode = CoinMode.INDEPENDENT, record: bool = True) -> tuple[int, list]:
    """One round for Alice at ``a`` against one or two Bob ``axes``: her output, then Bob's per axis.

    Draws the sign, then the angle, then one coin per axis; the second axis
    reuses the first coin under ``CoinMode.SHARED``. Bob decodes the wire
    cell once for all his axes. Each axis gives ``(c_b, record)``, where
    the record is None without ``record``.
    """
    hidden = draw_hidden(rng)
    c_a, msg = alice_round(a, hidden)
    triple = _decode(msg, hidden)
    coins = [float(rng.random())]
    if len(axes) == 2:
        coins.append(coins[0] if CoinMode(coin_mode) is CoinMode.SHARED else float(rng.random()))
    a = normalize_angle(float(a))
    return c_a, [_bob_step(a, b, msg, triple, hidden, coin, strategy, record) for b, coin in zip(axes, coins)]


def bct_trial(
    a: float,
    b: float,
    rng: np.random.Generator,
    strategy: Strategy = NO_FLIP,
) -> tuple[int, int, TrialRecord]:
    """One full round: draw shared randomness, run Alice, then Bob."""
    c_a, [(c_b, record)] = _round(a, (b,), rng, strategy)
    return c_a, c_b, record


def nbct_trial(
    a: float,
    b: float,
    rng: np.random.Generator,
    strategy: Strategy = NO_FLIP,
) -> tuple[int, int]:
    """Black-box round: same joint distribution, no hidden state exposed.

    The interface carries only the two settings in and the two outcomes out,
    as if the correlation arrived through a shared box rather than a message.
    It plays :func:`bct_trial`'s round on the same draws but builds no record.
    """
    c_a, [(c_b, _)] = _round(a, (b,), rng, strategy, record=False)
    return c_a, c_b


@_record
@dataclass(frozen=True)
class TwoBobResult:
    c_a: int
    c_b1: int
    c_b2: int
    record_b1: TrialRecord
    record_b2: TrialRecord


def two_bob_trial(
    a: float,
    b1: float,
    rng: np.random.Generator,
    strategy: Strategy = NO_FLIP,
    coin_mode: CoinMode = CoinMode.INDEPENDENT,
) -> TwoBobResult:
    """Evaluate Bob's procedure at ``b1`` and ``b1 + pi`` against one message, coins as ``coin_mode`` says.

    Perfect anti-correlation between the two outputs is what an axis
    reversal should guarantee; this trial is the probe for its failure.
    """
    c_a, [(c_b1, rec1), (c_b2, rec2)] = _round(a, (b1, b1 + math.pi), rng, strategy, coin_mode)
    return TwoBobResult(c_a, c_b1, c_b2, rec1, rec2)


def _theta_arg(theta):
    """``theta`` as a float or float array, and whether an array; ``ProtocolError`` if NaN or outside [0, 3*pi/5)."""
    vector = np.ndim(theta) > 0
    theta = np.asarray(theta, dtype=float) if vector else theta
    inside = (theta >= 0.0) & (theta < THETA_SPAN)
    if not (inside.all() if vector else inside):
        raise ProtocolError("theta values must lie in [0, 3*pi/5)")
    return theta, vector


def p_equal_given_theta(a: float, b: float, theta, strategy: Strategy = NO_FLIP):
    """Analytic P(Bob's output equals the shared sign | theta), no sampling.

    ``theta`` may be a scalar or an array. This is the per-round conditional
    the sweep oracles are built on. ``theta`` is checked first
    (``ProtocolError``), then ``a`` and ``b`` are normalized in that order
    (``ValueError`` if not finite). Bob's axis is resolved once, and
    Alice's slot array is computed only in that axis's system, in none on a
    terminated axis; her slot in the other system is never read, so
    :func:`_evaluate_axis` takes ``None`` for it.
    """
    theta, vector = _theta_arg(theta)
    normalize_angle(a)  # only a's finiteness check: the slot rule normalizes a itself
    axis = _bob_axis(int(alpha_slot_of(a)), normalize_angle(b), strategy)
    ev = _evaluate_axis(axis, *_alice_slots(a, theta, {axis[2]}), theta)
    p_equal = 1.0 - ev.accept_prob if ev.negate else ev.accept_prob
    return p_equal if vector else float(p_equal)


@functools.lru_cache(maxsize=None)
def _strategy(flip_rule: str, flip_semantics: str) -> Strategy:
    """The :class:`Strategy` a record's two strings name; ``ValueError`` for an unknown one, which is not cached."""
    return Strategy(flip_rule, flip_semantics)


def replay_bob(record: TrialRecord) -> int:
    """Recompute Bob's output from a stored record, as :func:`bob_round` would; equals ``record.c_b``."""
    hidden = HiddenState.make(record.c, record.theta)
    strategy = _strategy(record.flip_rule, record.flip_semantics)
    triple = _decode(record.message, hidden)
    return _bob_step(record.a, record.b, record.message, triple, hidden, record.coin, strategy, record=False)[0]
