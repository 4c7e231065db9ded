"""Seeded Monte Carlo sweeps with CSV/JSON emission.

Each draw of a row has its own generator: draw ``d`` of the stream with key
``key`` reads ``default_rng(SeedSequence(seed, spawn_key=(*key, d)))``
straight through, ``d`` fixed by the draw's name (:data:`THETA` ...
:data:`ERASE_2`); a public estimator's stream has the empty key. So
estimates depend only on ``(seed, key)``, whether one draw is read never
moves another, and identical configurations produce bit-identical tables and
output files.

Every row samples through one kernel, :func:`_kernel`, which decides
each trial through the row's :class:`~bctsim.protocol.SegmentTable`; its
docstring is the account of the draws, the decisions and the tally. Each
experiment is one :class:`Experiment` of :data:`EXPERIMENTS`, and
:func:`run_experiment` is the one loop that runs them all.

Measured anomalies are data, never errors: runs fail only on bad
configuration or I/O.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import qm
from .analysis import (
    NU_MAX,
    _FRAME_AXES,
    _frame_table,
    alice_setting,
    interval_windows,
    p_opposite_equal_closed,
    per_theta_consistency_audit,
    visibility_report,
)
from .geometry import THETA_SPAN, normalize_angle
from .protocol import (
    NO_FLIP,
    CoinMode,
    FlipRule,
    FlipSemantics,
    SegmentTable,
    Strategy,
    _THETA_STEP,
    segment_table,
)

__all__ = [
    "VERSION",
    "EXPERIMENTS",
    "ConfigError",
    "EmitError",
    "ExperimentConfig",
    "Experiment",
    "SweepTable",
    "run_experiment",
    "conditioned_two_bob_estimate",
    "conditioned_pair_estimate",
    "joint_outcome_table",
    "emit",
    "read_csv_table",
]

VERSION = "0.2.0"

#: the grid fields of a config; each is one ``--*-grid`` command-line flag
GRIDS = ("angle_grid", "nu_grid", "theta_grid", "visibility_grid")
#: the option parts an experiment may not read, each by its flag: is it off the default every experiment accepts?
_OPTIONS = {"strategy": lambda config: config.strategy.flip_rule != FlipRule.DISABLED,
            "flip_semantics": lambda config: config.strategy.flip_semantics != FlipSemantics.CONTINUE,
            "coin": lambda config: config.coin_mode != CoinMode.INDEPENDENT}


class ConfigError(ValueError):
    """A configuration problem detected before any trial runs."""


class EmitError(OSError):
    """An output file could not be written."""


def _check_run(trials: int, seed: int) -> tuple[int, int]:
    """The run's sizes as Python ints, by ``operator.index``; ``ConfigError`` for a bool, a non-integer or bad size."""
    sizes = []
    for name, value in (("trials", trials), ("seed", seed)):
        if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
        if name == "seed" and not 0 <= value < 2**64:
            raise ConfigError(f"seed must be a non-negative 64-bit integer, got {value}")
        if name == "trials" and value < 1:
            raise ConfigError(f"{name} must be positive, got {value}")
        sizes.append(value)
    return tuple(sizes)


@dataclass
class ExperimentConfig:
    experiment: str
    trials: int = 100_000
    seed: int = 0
    strategy: Strategy = NO_FLIP
    coin_mode: CoinMode = CoinMode.INDEPENDENT
    angle_grid: tuple[float, ...] = ()
    nu_grid: tuple[float, ...] = ()
    theta_grid: tuple[float, ...] = ()
    visibility_grid: tuple[float, ...] = ()

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {tuple(EXPERIMENTS)}")
        self.trials, self.seed = _check_run(self.trials, self.seed)
        if not isinstance(self.strategy, Strategy):
            raise ConfigError(f"strategy must be a Strategy, got {self.strategy!r}")
        try:
            self.coin_mode = CoinMode(self.coin_mode)
        except ValueError:
            raise ConfigError(f"unknown coin mode {self.coin_mode!r}") from None
        spec = EXPERIMENTS[self.experiment]
        for name in (*GRIDS, *_OPTIONS):
            flag, given = name.replace("_", "-"), _OPTIONS[name](self) if name in _OPTIONS else getattr(self, name)
            if name in spec.grids and not given:
                raise ConfigError(f"experiment {self.experiment!r} requires a nonempty {flag}")
            if given and name not in spec.grids and name not in spec.optional:
                raise ConfigError(f"experiment {self.experiment!r} does not use {flag}")
        for nu in self.nu_grid:
            if not (0.0 <= nu <= NU_MAX):
                raise ConfigError(f"nu grid value {nu!r} outside [0, pi/5]")
        for t in self.theta_grid:
            if not (0.0 <= t < THETA_SPAN):
                raise ConfigError(f"theta grid value {t!r} outside [0, 3*pi/5)")
        for v in self.visibility_grid:
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"visibility grid value {v!r} outside [0, 1]")
        for ang in self.angle_grid:
            if not math.isfinite(ang):
                raise ConfigError(f"angle grid value {ang!r} is not finite")
        return self

    def manifest(self) -> dict:
        """The run's header: each option part only where the experiment reads it (:attr:`Experiment.optional`)."""
        optional = EXPERIMENTS[self.experiment].optional
        options = {"strategy": ("strategy", self.strategy.flip_rule.value),
                   "flip_semantics": ("flip_semantics", self.strategy.flip_semantics.value),
                   "coin": ("coin_mode", self.coin_mode.value)}
        return {"experiment": self.experiment, "seed": self.seed, "trials": self.trials,
                **dict(cell for part, cell in options.items() if part in optional), "version": VERSION}


@dataclass
class SweepTable:
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)

    def add(self, **values) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row is missing columns {sorted(missing)}")
        self.rows.append({c: values[c] for c in self.columns})


def _stderr(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


#: each draw's index ``d`` in its generator's key, fixed by its name; a shared coin is ``COIN_1``
THETA, SIGN, COIN_1, COIN_2, ERASE_1, ERASE_2 = range(6)


def _draw_rng(seed: int, key: tuple[int, ...], draw: int) -> np.random.Generator:
    """The generator of draw ``draw`` of the row stream with key ``key``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, draw)))


# --- the kernel -------------------------------------------------------------

#: Tally layout: a prefix of these cells. Every row counts trials, then per
#: Bob axis the trials where his output equals c ("kept"). Two-axis rows add
#: both Bobs equal (and, under a visibility, neither side erased); a row that
#: draws theta and is given windows adds that with theta inside them. A
#: kernel built with signs ends with, counted from the end, c = +1 and per
#: axis his output +1.
N, KEPT_1, KEPT_2, EQUAL, EQUAL_IN_WINDOWS = range(5)
C_PLUS, B_PLUS_1, B_PLUS_2 = -1, -2, -3


def _rate(tally: np.ndarray, hits: int) -> tuple[float, float]:
    """The rate of tally cell ``hits`` over the tally's trials, and its binomial standard error."""
    est = float(tally[hits] / tally[N])
    return est, _stderr(est, int(tally[N]))


def _window_outputs(windows) -> tuple[np.uint64, np.uint64]:
    """The least and the greatest raw theta output (:func:`_kernel`) whose theta lies in the two windows.

    Window one is closed and ends where window two, open below, starts, so
    their union is ``[w1_lo, w2_hi]``; as theta ``(x >> 11) * _THETA_STEP``
    never falls with ``x``, bisection finds the least top 53 bits whose
    theta is ``>= w1_lo``, and ``> w2_hi`` (``2**53`` if none is).
    """
    (lo, _), (_, hi) = windows
    first = bisect.bisect_left(range(2**53), True, key=lambda m: lo <= m * _THETA_STEP)
    past = bisect.bisect_left(range(2**53), True, key=lambda m: hi < m * _THETA_STEP)
    return np.uint64(first << 11), np.uint64((past << 11) - 1)


def _in_windows(raw: np.ndarray, outputs) -> np.ndarray:
    """Whether each raw theta output lies from the first of ``outputs`` (:func:`_window_outputs`) to the second."""
    return (raw >= outputs[0]) & (raw <= outputs[1])


# NumPy draws 32 bools off each 32-bit half of an output and keeps an unused half for its next call, so
# the sign draw read in calls of a multiple of 32 trials (the last call aside) equals one read: both
# sizes below must stay multiples of 32, and then no tally depends on them
#: trials per chunk: small enough for a chunk's arrays to stay in cache
_CHUNK = 16384
#: trials per block, whose decisions are resolved and tallied before the next block draws
_BLOCK = 16 * _CHUNK


def _count(mask, n: int) -> int:
    """How many of a block's ``n`` trials ``mask`` holds; a 0-d mask, a decision no draw changes, holds all or none."""
    return int(np.count_nonzero(mask)) if np.ndim(mask) else n * bool(mask)


def _kernel(
    table: SegmentTable,
    coin_mode: CoinMode = CoinMode.INDEPENDENT,
    theta_fixed: float | None = None,
    visibility: float | None = None,
    windows=None,
    *,
    signs: bool = False,
    accepts: list | None = None,
):
    """Kernel for Alice against the one or two Bob axes of ``table``: ``kernel(seed, key, n)``, tallied as above.

    The draws: theta (unless conditioned), c, one coin per axis (one for
    both under ``CoinMode.SHARED``), then, given a ``visibility``, erase1
    and erase2: each side survives with probability ``visibility``. Each
    read draw takes its generator, :func:`_draw_rng` at its index, and reads
    it straight through: theta as raw outputs, kept raw for the screen bin
    and window tally, c as ``integers(0, 2, m, dtype=bool)``, the others as
    ``random(m)``. Nothing else draws, the table included.

    Trials run in blocks of ``_BLOCK``, each drawn in chunks of ``_CHUNK``.
    A conditioned row decides by the acceptances at ``theta_fixed``
    (``accepts``, else :meth:`~bctsim.protocol.SegmentTable.accept`), any
    other by the table's screen (:attr:`~bctsim.protocol.SegmentTable._screen`),
    each live axis resolving its held trials after the block's last chunk.
    Every step is per trial, so neither size changes a tally.

    c is drawn only with ``signs``, which only :func:`joint_outcome_table`
    reads; an axis with a constant decision draws no coin and is tallied
    from ``n``; theta is drawn only when a live axis or the window tally
    reads it. A kernel that reads nothing takes no generator and walks no
    chunk. A ``theta_fixed`` outside [0, 3*pi/5), which no round draws,
    raises ``ConfigError``.
    """
    constant = table.constant
    if theta_fixed is not None:
        if not (0.0 <= theta_fixed < THETA_SPAN):
            raise ConfigError(f"conditioned theta must lie in [0, 3*pi/5), got {theta_fixed!r}")
        accepts = table.accept(theta_fixed) if accepts is None else accepts
        constant = tuple(not negate if q == 1.0 else None for q, negate in zip(accepts, table.negate))

    two = len(table.axes) == 2
    windowed = two and windows is not None and theta_fixed is None
    shared = two and CoinMode(coin_mode) is CoinMode.SHARED
    live = [k is None for k in constant]
    coin_of = [COIN_1 if shared else COIN_1 + j for j in range(len(live))]  # per axis, its coin's draw
    reads = sorted({coin for coin, is_live in zip(coin_of, live) if is_live}
                   | ({THETA} if theta_fixed is None and (windowed or any(live)) else set())
                   | ({SIGN} if signs else set()) | (set() if visibility is None else {ERASE_1, ERASE_2}))
    outputs = _window_outputs(windows) if windowed else None

    def kernel(seed: int, key: tuple[int, ...], n: int) -> np.ndarray:
        rngs = {d: _draw_rng(seed, key, d) for d in reads}
        return sum(block(rngs, min(_BLOCK, n - first)) for first in range(0, n, _BLOCK))

    @np.errstate(invalid="ignore")  # some NumPy builds flag a comparison with a NaN bin of the screen
    def block(rngs: dict, n: int) -> np.ndarray:
        c_plus = np.empty(n, dtype=bool) if signs else None
        # per axis: the decisions of a live axis, or the constant of one that has no coin
        kept = [np.empty(n, dtype=bool) if is_live else k for is_live, k in zip(live, constant)]
        held = [[] for _ in live]  # per axis, each chunk's held trials
        in_win = np.empty(n, dtype=bool) if windowed else None
        survived = None if visibility is None else np.empty(n, dtype=bool)
        for start in range(0, n if rngs else 0, _CHUNK):
            rows = slice(start, min(start + _CHUNK, n))
            m = rows.stop - start
            raw = rngs[THETA].bit_generator.random_raw(m) if THETA in rngs else None
            if signs:
                c_plus[rows] = rngs[SIGN].integers(0, 2, m, dtype=bool)
            u = {d: rng.random(m) for d, rng in rngs.items() if d >= COIN_1}  # the coins and the erasures
            coins = [u.get(coin) for coin in coin_of]
            outs = [k[rows] if is_live else None for k, is_live in zip(kept, live)]
            if theta_fixed is not None:
                for coin, q, out in zip(coins, accepts, outs):
                    if out is not None:
                        np.less(coin, q, out=out)
            elif any(live):
                for j, part in enumerate(table._sift(raw, coins, outs, start)):
                    if part is not None:
                        held[j].append(part)
            if in_win is not None:
                in_win[rows] = _in_windows(raw, outputs)
            if survived is not None:
                survived[rows] = (u[ERASE_1] < visibility) & (u[ERASE_2] < visibility)
        for j, is_live in enumerate(live):
            if is_live:
                table._resolve(j, kept[j], held[j])
        counts = [n] + [_count(k, n) for k in kept]
        if two:
            eq = np.equal(*kept)  # 0-d when neither axis is live
            if survived is not None:
                eq = eq & survived
            counts.append(_count(eq, n))
            if in_win is not None:
                counts.append(_count(eq & in_win, n))
        if signs:  # c_b > 0 exactly when kept == (c > 0), for a constant axis too
            counts += [_count(np.equal(k, c_plus), n) for k in reversed(kept)] + [_count(c_plus, n)]
        return np.array(counts, dtype=np.int64)

    return kernel


# --- public estimators -----------------------------------------------------


def conditioned_two_bob_estimate(
    nu: float,
    theta: float,
    trials: int,
    seed: int,
    strategy: Strategy = NO_FLIP,
    coin_mode: CoinMode = CoinMode.INDEPENDENT,
) -> tuple[float, float]:
    """Monte Carlo P(both Bob outputs equal) with the shared angle held fixed.

    Returns (estimate, standard error). Rejection-free: theta is an input,
    not a sample.
    """
    trials, seed = _check_run(trials, seed)
    kernel = _kernel(_frame_table(nu, strategy), coin_mode, theta_fixed=theta)
    return _rate(kernel(seed, (), trials), EQUAL)


def conditioned_pair_estimate(
    a: float,
    b: float,
    theta: float,
    trials: int,
    seed: int,
    strategy: Strategy = NO_FLIP,
) -> tuple[float, float]:
    """Monte Carlo P(outputs equal) for one pair with the shared angle fixed."""
    trials, seed = _check_run(trials, seed)
    kernel = _kernel(segment_table(a, (b,), strategy), theta_fixed=theta)
    return _rate(kernel(seed, (), trials), KEPT_1)


def joint_outcome_table(
    a: float,
    b: float,
    trials: int,
    seed: int,
    strategy: Strategy = NO_FLIP,
) -> np.ndarray:
    """2x2 joint outcome counts, rows = first party's sign, cols = second's.

    The acceptance suite checks it against a table tallied from seeded
    :func:`~bctsim.protocol.nbct_trial` rounds, which play each round
    through Alice's message and Bob's scalar procedure.
    """
    trials, seed = _check_run(trials, seed)
    kernel = _kernel(segment_table(a, (b,), strategy), signs=True)
    n, kept, b_plus, c_plus = kernel(seed, (), trials)
    # b_plus counts kept & c+ plus ~kept & ~c+, so kept & c+ is (b_plus - n + kept + c_plus) / 2
    pp = (b_plus - n + kept + c_plus) // 2
    mm = kept - pp
    return np.array([[pp, c_plus - pp], [n - c_plus - mm, mm]], dtype=np.int64)


# --- the experiment table ----------------------------------------------------


def _cos2_finish(cells, tallies, est, se) -> dict:
    dev = abs(est - cells["oracle"])
    return dict(deviation=dev, flags=["deviates-from-oracle-4se"] if se > 0 and dev > 4 * se else [])


def _cos2_rows(config, readings):
    """Equal-outcome rate versus the exact cos^2 law, per ``(label, strategy)`` of ``readings`` and angle of the grid.

    The second setting is pinned at 0 (the frame convention); the grid values
    are the first party's angles, so the separation equals the grid value up
    to the shorter-arc fold.
    """
    for i, ((label, strategy), ang) in enumerate(itertools.product(readings, config.angle_grid)):
        a = normalize_angle(ang)
        cells = dict(strategy=label, flip_semantics=strategy.flip_semantics.value, angle=a,
                     oracle=qm.prob_equal(a, 0.0))
        yield cells, {(i,): _kernel(segment_table(a, (0.0,), strategy))}


def _frame_rows(config, visibilities):
    """Equal outputs on the frame's two antipodal axes, per visibility of ``visibilities`` and nu of the grid.

    Each row also counts those with the shared angle inside the two
    deterministic windows. A visibility of None erases nothing; any other
    counts only the trials in which both sides survived erasure.
    """
    for i, (v, nu) in enumerate(itertools.product(visibilities, config.nu_grid)):
        kernel = _kernel(_frame_table(nu, config.strategy), config.coin_mode, visibility=v,
                         windows=interval_windows(nu))
        yield dict(visibility=v, nu=nu), {(i,): kernel}


def _opposite_axes_finish(cells, tallies, est, se) -> dict:
    """The window-only closed form and the deviation from it.

    The raw estimate includes coincidences from shared angles outside the two
    deterministic windows, so it generically exceeds the closed form; the
    flags carry the in-window estimate and the outside-window excess
    whenever the gap is significant.
    """
    tally, nu = tallies[0], cells["nu"]
    closed = p_opposite_equal_closed(nu).p_total
    flags = []
    if se > 0 and est - closed > 4 * se:
        in_win = _rate(tally, EQUAL_IN_WINDOWS)[0]
        outside = (tally[EQUAL] - tally[EQUAL_IN_WINDOWS]) / tally[N]
        flags += ["exceeds-closed-form-4se", f"in-windows-estimate={in_win:.6g}",
                  f"outside-windows-excess={outside:.6g}"]
    if min(abs(nu), abs(nu - NU_MAX)) < 1e-12:
        flags += ["endpoint-minimum-reported=0.071", f"endpoint-formula={closed:.6g}"]
    return dict(closed_form=closed, deviation=abs(est - closed), flags=flags)


def _visibility_finish(cells, tallies, est, se) -> dict:
    """The visibility arithmetic of the row's (V, nu) point, against the surviving equal outputs inside the windows."""
    report = visibility_report(cells["visibility"], cells["nu"])
    return dict(asdict(report), deviation=abs(est - report.p_effective),
                flags=["below-threshold"] if report.visibility < report.v_threshold else [])


def _audit_rows(config):
    """Per-theta conservation-law audit with conditioned Monte Carlo replays.

    Analytic conditionals come from the branch logic; each grid point is also
    replayed ``trials`` times at that fixed theta, in both axis directions,
    each through one table per direction that every grid point reuses.
    """
    i = itertools.count()
    for nu in config.nu_grid or (math.pi / 10.0,):
        a = alice_setting(nu)
        forward, reversed_ = (segment_table(a, (axis,), config.strategy) for axis in _FRAME_AXES)
        for law in per_theta_consistency_audit(a, _FRAME_AXES[0], config.theta_grid, config.strategy):
            k = next(i)
            cells = dict(nu=nu, theta=law.theta, p_same_forward=law.p_same_forward,
                         p_anti_reversed=law.p_anti_reversed, violation="true" if law.violation else "false")
            yield cells, {(k, 0): _kernel(forward, theta_fixed=law.theta),
                          (k, 1): _kernel(reversed_, theta_fixed=law.theta)}


def _audit_finish(cells, tallies, est, se) -> dict:
    forward, reversed_ = tallies
    mc_anti = (reversed_[N] - reversed_[KEPT_1]) / reversed_[N]
    return dict(mc_forward=est, mc_forward_stderr=se, mc_anti_reversed=mc_anti,
                mc_anti_reversed_stderr=_stderr(mc_anti, int(forward[N])),
                flags=["law-violated"] if cells["violation"] == "true" else [])


#: remedy table rows: the no-flip baseline plus every flip rule under both coin modes
REMEDY_COMBOS = (
    (FlipRule.DISABLED, CoinMode.INDEPENDENT),
    (FlipRule.CYCLIC, CoinMode.INDEPENDENT),
    (FlipRule.CYCLIC, CoinMode.SHARED),
    (FlipRule.ABSOLUTE, CoinMode.INDEPENDENT),
    (FlipRule.ABSOLUTE, CoinMode.SHARED),
)


def _remedy_rows(config):
    """Does any reflection reading kill the antipodal anomaly without breaking the correlation?

    For every (flip rule x coin mode) combination and each nu, reports the
    equal-output rate and the induced deviation of the second-axis
    correlation from the cos^2 law, plus a conditioned row (fixed theta) per
    theta grid value. Neither a table nor its acceptances depend on the coin
    mode, so each nu builds one table per flip rule and reads its
    acceptances once per (flip rule, theta) for that pair's kernels; the
    oracle is the second axis's, complemented where that axis negates.
    """
    b2 = _FRAME_AXES[1]
    i = itertools.count()
    strategies = {rule: Strategy(rule, config.strategy.flip_semantics) for rule, _ in REMEDY_COMBOS}
    for nu in config.nu_grid:
        a = alice_setting(nu)
        tables = {rule: _frame_table(nu, s) for rule, s in strategies.items()}
        accepts = {(rule, theta): tables[rule].accept(theta)
                   for rule, theta in itertools.product(strategies, config.theta_grid)}
        for (rule, coin_mode), theta in itertools.product(REMEDY_COMBOS, (None, *config.theta_grid)):
            q = None if theta is None else accepts[rule, theta]
            oracle = qm.prob_equal(a, b2) if q is None else (1.0 - q[1] if tables[rule].negate[1] else q[1])
            cells = dict(nu=nu, theta=theta, flip_rule=rule.value, coin_mode=coin_mode.value, ab2_oracle=oracle)
            yield cells, {(next(i),): _kernel(tables[rule], coin_mode, theta, accepts=q)}


def _remedy_finish(cells, tallies, est, se) -> dict:
    tally = tallies[0]
    ab2 = _rate(tally, KEPT_2)[0]
    return dict(ab2_estimate=ab2, ab2_deviation=abs(ab2 - cells["ab2_oracle"]),
                flags=["no-equal-outputs"] if tally[EQUAL] == 0 else [])


#: calibration candidates: every reading of the ambiguous reflection step
CALIBRATION_VARIANTS = (
    ("paper-iic", Strategy(FlipRule.DISABLED, FlipSemantics.CONTINUE)),
    ("cyclic-flip", Strategy(FlipRule.CYCLIC, FlipSemantics.CONTINUE)),
    ("cyclic-flip-terminate", Strategy(FlipRule.CYCLIC, FlipSemantics.TERMINATE)),
    ("abs-flip", Strategy(FlipRule.ABSOLUTE, FlipSemantics.CONTINUE)),
    ("abs-flip-terminate", Strategy(FlipRule.ABSOLUTE, FlipSemantics.TERMINATE)),
)


def _stamp_max_deviation(rows: list[dict]) -> None:
    """Stamp each row with its variant's maximum deviation, so the reading that best matches cos^2 is read off."""
    worst = {}
    for r in rows:
        worst[r["strategy"]] = max(worst.get(r["strategy"], r["deviation"]), r["deviation"])
    for r in rows:
        r["strategy_max_deviation"] = worst[r["strategy"]]


@dataclass(frozen=True)
class Experiment:
    """One experiment: its subcommand, grids, table columns and rows.

    ``grids`` maps each grid the experiment requires to the command line's
    default for it; ``optional`` names the grids it reads when given, and
    the option parts of ``_OPTIONS`` it reads, each by its flag.
    Validation rejects any other nonempty grid, and any other option part
    off its default. ``rows(config)`` yields, per table row, the cells known
    before sampling and the row's streams as ``{stream key: kernel}``; row
    ``i`` draws on key ``(i,)``, or ``(i, s)`` when it has several streams.
    The row's estimate and its standard error come from tally cell ``hits``
    of its first stream (:func:`_rate`); ``finish(cells, tallies, estimate,
    stderr)`` returns the remaining cells, the experiment's reference
    columns among them, with the flags as a list. Every row gets ``trials``,
    ``estimate`` and ``stderr`` cells, and a table drops every cell it has
    no column for. ``finish_table`` fills cells that depend on the whole
    table.
    """

    name: str
    help: str
    grids: dict[str, str]
    columns: tuple[str, ...]
    hits: int
    rows: Callable
    finish: Callable
    finish_table: Callable[[list[dict]], None] = lambda rows: None
    optional: tuple[str, ...] = ()


_NU_MID = "0.3141592653589793:0.3141592653589793:1"
_ANGLES = "0:6.283185307179586:25"

EXPERIMENTS = {spec.name: spec for spec in (
    Experiment("correlation", "equal-outcome rate vs the cos^2 law over an angle grid",
               dict(angle_grid=_ANGLES),
               ("angle", "trials", "estimate", "stderr", "oracle", "deviation", "flags"),
               KEPT_1, lambda config: _cos2_rows(config, ((None, config.strategy),)), _cos2_finish,
               optional=("strategy", "flip_semantics")),
    Experiment("opposite-axes", "equal outputs on antipodal axes vs the closed form over a nu grid",
               dict(nu_grid="0:0.6283185307179586:11"),
               ("nu", "trials", "estimate", "stderr", "closed_form", "deviation", "flags"),
               EQUAL, lambda config: _frame_rows(config, (None,)), _opposite_axes_finish,
               optional=("strategy", "flip_semantics", "coin")),
    Experiment("visibility", "visibility arithmetic and its erasure simulation over a (V, nu) grid",
               dict(visibility_grid="0.5:1:6", nu_grid=_NU_MID),
               ("visibility", "nu", "trials", "estimate", "stderr", "p_effective", "p_peff1", "p_peff2",
                "p_peff_total", "v_threshold", "deviation", "flags"),
               EQUAL_IN_WINDOWS, lambda config: _frame_rows(config, config.visibility_grid), _visibility_finish,
               optional=("strategy", "flip_semantics", "coin")),
    Experiment("audit", "per-theta conservation-law audit with conditioned replays",
               dict(theta_grid="0.9424777960769379:1.5707963267948966:21"),
               ("nu", "theta", "trials", "p_same_forward", "p_anti_reversed", "mc_forward", "mc_forward_stderr",
                "mc_anti_reversed", "mc_anti_reversed_stderr", "violation", "flags"),
               KEPT_1, _audit_rows, _audit_finish, optional=("nu_grid", "strategy", "flip_semantics")),
    Experiment("remedy", "reflection remedies: anomaly rate and correlation damage per reading",
               dict(nu_grid=_NU_MID),
               ("nu", "theta", "flip_rule", "coin_mode", "trials", "estimate", "stderr",
                "ab2_estimate", "ab2_oracle", "ab2_deviation", "flags"),
               EQUAL, _remedy_rows, _remedy_finish, optional=("theta_grid", "flip_semantics")),
    Experiment("calibrate", "score every reflection reading against the cos^2 law",
               dict(angle_grid=_ANGLES),
               ("strategy", "flip_semantics", "angle", "trials", "estimate", "stderr",
                "oracle", "deviation", "strategy_max_deviation", "flags"),
               KEPT_1, lambda config: _cos2_rows(config, CALIBRATION_VARIANTS), _cos2_finish, _stamp_max_deviation),
)}


def run_experiment(config: ExperimentConfig) -> SweepTable:
    """Validate ``config`` once, then sample and finish every row of its experiment's table."""
    spec = EXPERIMENTS[config.validate().experiment]
    rows = []
    for cells, streams in spec.rows(config):
        tallies = [kernel(config.seed, key, config.trials) for key, kernel in streams.items()]
        est, se = _rate(tallies[0], spec.hits)
        row = dict(cells, trials=int(tallies[0][N]), estimate=est, stderr=se, **spec.finish(cells, tallies, est, se))
        row["flags"] = ";".join(row["flags"])
        rows.append(row)
    spec.finish_table(rows)
    table = SweepTable(columns=list(spec.columns), manifest=config.manifest())
    for row in rows:
        table.add(**row)
    return table


# --- emission ---------------------------------------------------------------


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def _json_value(value):
    if isinstance(value, (float, np.floating)):
        return float(format(float(value), ".6g"))
    if isinstance(value, np.integer):
        return int(value)
    return value


def emit(table: SweepTable, fmt: str, path: str | Path) -> None:
    """Write a table as CSV (manifest as '#' header comments) or JSON.

    Numbers are rendered with six significant digits. The JSON form is an
    object holding the manifest and the array of row objects.
    """
    text = render_text(table, fmt)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise EmitError(f"cannot write table to {path}: {exc}") from exc


def render_text(table: SweepTable, fmt: str) -> str:
    """The exact file content :func:`emit` would write; raises ``ConfigError`` for another format."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if fmt == "json":
        payload = {
            "manifest": table.manifest,
            "rows": [{c: _json_value(r[c]) for c in table.columns} for r in table.rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {k}={v}" for k, v in table.manifest.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_render(row[c]) for c in table.columns))
    return "\n".join(lines) + "\n"


def read_csv_table(path: str | Path) -> tuple[dict, list[str], list[dict]]:
    """Parse a CSV emitted by :func:`emit` back into (manifest, columns, rows).

    Values come back as strings exactly as rendered; round-trip tests compare
    against :func:`render_text` output.
    """
    manifest: dict[str, str] = {}
    columns: list[str] = []
    rows: list[dict] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            manifest[key] = value
        elif not columns:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return manifest, columns, rows
