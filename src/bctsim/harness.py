"""Seeded, worker-count-invariant Monte Carlo sweeps with CSV/JSON emission.

Trials are split into fixed-size batches. Batch ``i`` of the stream with key
``key`` draws from ``default_rng(SeedSequence(seed, spawn_key=(*key, i)))``,
so estimates depend only on ``(seed, key, batch_size)``, never on how many
workers ran the batches. Tallies are integer vectors summed per batch index;
merging is commutative and associative, so identical configurations produce
bit-identical tables and output files.

The kernels evaluate Bob through a :class:`~bctsim.protocol.SegmentTable`
built once per row. For fixed settings and strategy every slot test is
constant between a handful of theta edges; the table holds those edges and,
per segment and Bob axis, whether Bob shares Alice's active slot and the
separating boundary's offset above theta, plus per axis whether the output is
negated or the round terminated. A batch looks its thetas up with one
``searchsorted`` shared by all axes and computes only the distance-dependent
acceptance ``1 - (3*pi/10)*sin(u)``. Each edge is the exact float at which a
slot test flips under the package's one slot rule, found by bisection over
float bit patterns, not a rounded breakpoint; so the lookup decides exactly as
evaluating Bob per trial, or playing the round through Alice's four-bit
message, would at every theta. Building a table draws no random numbers, and
each kernel keeps its documented draw order, so the tables consume the same
streams and emit the same bytes as per-trial evaluation.

Measured anomalies are data, never errors: runs fail only on bad
configuration or I/O.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import qm
from .analysis import (
    NU_MAX,
    WALKTHROUGH_B1,
    alice_setting,
    interval_windows,
    p_equal_given_theta,
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
    Strategy,
    alice_slot_arrays,
    evaluate_bob,
    segment_table,
)

__all__ = [
    "VERSION",
    "EXPERIMENTS",
    "ConfigError",
    "EmitError",
    "ExperimentConfig",
    "SweepTable",
    "run_correlation_sweep",
    "run_opposite_axes_sweep",
    "run_visibility_scan",
    "run_audit",
    "run_remedy_analysis",
    "run_calibration",
    "run_experiment",
    "conditioned_two_bob_estimate",
    "conditioned_pair_estimate",
    "joint_outcome_table",
    "emit",
    "read_csv_table",
]

VERSION = "0.1.0"
EXPERIMENTS = ("correlation", "opposite-axes", "visibility", "audit", "remedy", "calibrate")

#: strategy tokens accepted on the command line
STRATEGY_TOKENS = {
    "paper-iic": FlipRule.DISABLED,
    "cyclic-flip": FlipRule.CYCLIC,
    "abs-flip": FlipRule.ABSOLUTE,
}


class ConfigError(ValueError):
    """A configuration problem detected before any trial runs."""


class EmitError(OSError):
    """An output file could not be written."""


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
    out_format: str = "csv"
    out_path: str | None = None
    workers: int = 1
    batch_size: int = 250_000

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a non-negative 64-bit integer, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be positive, got {self.workers}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.out_format!r}")
        needs = {
            "correlation": ("angle_grid",),
            "calibrate": ("angle_grid",),
            "opposite-axes": ("nu_grid",),
            "remedy": ("nu_grid",),
            "visibility": ("visibility_grid", "nu_grid"),
            "audit": ("theta_grid",),
        }[self.experiment]
        for name in needs:
            if not getattr(self, name):
                raise ConfigError(f"experiment {self.experiment!r} requires a nonempty {name.replace('_', '-')}")
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
        # worker count is excluded: it cannot affect results. batch_size is
        # included because it fixes the substream layout.
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "trials": self.trials,
            "strategy": self.strategy.flip_rule.value,
            "flip_semantics": self.strategy.flip_semantics.value,
            "coin_mode": self.coin_mode.value,
            "batch_size": self.batch_size,
            "version": VERSION,
        }


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


def _batch_rng(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _run_batches(
    kernel: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    seed: int,
    key: tuple[int, ...],
    workers: int,
    batch_size: int,
) -> np.ndarray:
    sizes = [batch_size] * (trials // batch_size)
    if trials % batch_size:
        sizes.append(trials % batch_size)

    def one(item: tuple[int, int]) -> np.ndarray:
        idx, n = item
        return kernel(_batch_rng(seed, key + (idx,)), n)

    if workers <= 1:
        parts = [one(item) for item in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, enumerate(sizes)))
    return np.sum(np.stack(parts), axis=0)


# --- batch kernels ---------------------------------------------------------
# A kernel factory does the theta-free work once per row: the segment table,
# or for a conditioned row (fixed theta) the acceptance at that theta, which
# a batch then only compares with its coins. Draw orders are fixed and
# documented per kernel; table building draws nothing, so a draw order is the
# only thing that fixes the stream, and changing it changes every downstream
# estimate.


def _bob_decider(a: float, axes: tuple[float, ...], strategy: Strategy, theta_fixed: float | None):
    """``decide(theta, coins)``: per axis, whether Bob's output equals ``c`` in each trial.

    ``theta`` is ignored for a conditioned row, whose acceptance is
    computed once here.
    """
    if theta_fixed is None:
        return segment_table(a, axes, strategy).keeps_c
    theta = np.array([theta_fixed])
    alpha, beta_slots, gamma_slots = alice_slot_arrays(a, theta)
    evs = [evaluate_bob(alpha, beta_slots, gamma_slots, b, theta, strategy) for b in axes]
    accepts = [(float(ev.accept_prob[0]), ev.negate) for ev in evs]

    def decide(theta, coins):
        return [(coin < q) ^ negate for coin, (q, negate) in zip(coins, accepts)]

    return decide


def _in_windows(theta, windows) -> np.ndarray:
    """Whether each shared angle lies in one of the two deterministic windows."""
    (w1_lo, w1_hi), (w2_lo, w2_hi) = windows
    return ((theta >= w1_lo) & (theta <= w1_hi)) | ((theta > w2_lo) & (theta <= w2_hi))


def _count(mask) -> int:
    return int(np.count_nonzero(mask))


def _pair_kernel(a: float, b: float, strategy: Strategy, theta_fixed: float | None = None):
    """Tallies [n, equal, c_a_plus, c_b_plus] for one setting pair.

    Draws per batch: theta (unless conditioned), c, coin.
    """
    decide = _bob_decider(a, (b,), strategy, theta_fixed)

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        theta = None if theta_fixed is not None else rng.uniform(0.0, THETA_SPAN, n)
        c_plus = rng.integers(0, 2, n, dtype=np.int64).astype(bool)
        coin = rng.random(n)
        (eq,) = decide(theta, (coin,))  # output == c
        # c_b > 0 exactly when eq == (c > 0)
        return np.array([n, _count(eq), _count(c_plus), _count(eq == c_plus)], dtype=np.int64)

    return kernel


def _two_bob_kernel(
    nu: float,
    strategy: Strategy,
    coin_mode: CoinMode,
    theta_fixed: float | None = None,
):
    """Tallies for the antipodal-pair experiment in the walkthrough frame.

    [n, equal, equal_in_windows, in_windows, equal_outside, ab2_equal,
    c_b1_plus, c_b2_plus]. Draws per batch: theta (unless conditioned), c,
    coin1, coin2 (independent mode only).
    """
    windows = interval_windows(nu)
    decide = _bob_decider(alice_setting(nu), (WALKTHROUGH_B1, WALKTHROUGH_B1 + math.pi), strategy, theta_fixed)
    fixed_in_win = None if theta_fixed is None else bool(_in_windows(theta_fixed, windows))

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        theta = None if theta_fixed is not None else rng.uniform(0.0, THETA_SPAN, n)
        c_plus = rng.integers(0, 2, n, dtype=np.int64).astype(bool)
        coin1 = rng.random(n)
        coin2 = coin1 if coin_mode is CoinMode.SHARED else rng.random(n)
        b1_eq_c, b2_eq_c = decide(theta, (coin1, coin2))
        eq = b1_eq_c == b2_eq_c
        n_eq = _count(eq)
        if theta_fixed is None:
            in_win = _in_windows(theta, windows)
            eq_in, n_in = _count(eq & in_win), _count(in_win)
        else:
            eq_in, n_in = (n_eq, n) if fixed_in_win else (0, 0)
        return np.array(
            [n, n_eq, eq_in, n_in, n_eq - eq_in, _count(b2_eq_c),
             _count(b1_eq_c == c_plus), _count(b2_eq_c == c_plus)],
            dtype=np.int64,
        )

    return kernel


def _visibility_kernel(nu: float, visibility: float, strategy: Strategy, coin_mode: CoinMode):
    """Tallies [n, survived, survived_equal, survived_equal_in_windows].

    Each party's outcome is erased independently with probability 1 - V; a
    trial survives only if neither side was erased. Draws per batch: theta,
    c, coin1, coin2 (independent mode only), erase1, erase2.
    """
    windows = interval_windows(nu)
    decide = _bob_decider(alice_setting(nu), (WALKTHROUGH_B1, WALKTHROUGH_B1 + math.pi), strategy, None)

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        theta = rng.uniform(0.0, THETA_SPAN, n)
        rng.integers(0, 2, n, dtype=np.int64)  # c: drawn to keep the stream, not tallied
        coin1 = rng.random(n)
        coin2 = coin1 if coin_mode is CoinMode.SHARED else rng.random(n)
        keep1 = rng.random(n) < visibility
        keep2 = rng.random(n) < visibility
        b1_eq_c, b2_eq_c = decide(theta, (coin1, coin2))
        survived_eq = (b1_eq_c == b2_eq_c) & keep1 & keep2
        return np.array(
            [n, _count(keep1 & keep2), _count(survived_eq), _count(survived_eq & _in_windows(theta, windows))],
            dtype=np.int64,
        )

    return kernel


def _joint_kernel(a: float, b: float, strategy: Strategy):
    """Tallies [n, pp, pm, mp, mm] over the joint outcome cells."""
    decide = _bob_decider(a, (b,), strategy, None)

    def kernel(rng: np.random.Generator, n: int) -> np.ndarray:
        theta = rng.uniform(0.0, THETA_SPAN, n)
        c_plus = rng.integers(0, 2, n, dtype=np.int64).astype(bool)
        coin = rng.random(n)
        (eq,) = decide(theta, (coin,))
        n_plus, pp = _count(c_plus), _count(c_plus & eq)  # c_b == c exactly when eq
        mm = _count(eq) - pp
        return np.array([n, pp, n_plus - pp, n - n_plus - mm, mm], dtype=np.int64)

    return kernel


# --- public estimators -----------------------------------------------------


def conditioned_two_bob_estimate(
    nu: float,
    theta: float,
    trials: int,
    seed: int,
    strategy: Strategy = NO_FLIP,
    coin_mode: CoinMode = CoinMode.INDEPENDENT,
    workers: int = 1,
    batch_size: int = 250_000,
) -> tuple[float, float]:
    """Monte Carlo P(both Bob outputs equal) with the shared angle held fixed.

    Returns (estimate, standard error). Rejection-free: theta is an input,
    not a sample.
    """
    if not (0.0 <= theta < THETA_SPAN):
        raise ConfigError(f"conditioned theta must lie in [0, 3*pi/5), got {theta!r}")
    tally = _run_batches(_two_bob_kernel(nu, strategy, coin_mode, theta_fixed=theta),
                         trials, seed, (0,), workers, batch_size)
    est = tally[1] / tally[0]
    return float(est), _stderr(float(est), int(tally[0]))


def conditioned_pair_estimate(
    a: float,
    b: float,
    theta: float,
    trials: int,
    seed: int,
    strategy: Strategy = NO_FLIP,
    workers: int = 1,
    batch_size: int = 250_000,
) -> tuple[float, float]:
    """Monte Carlo P(outputs equal) for one pair with the shared angle fixed."""
    if not (0.0 <= theta < THETA_SPAN):
        raise ConfigError(f"conditioned theta must lie in [0, 3*pi/5), got {theta!r}")
    tally = _run_batches(_pair_kernel(a, b, strategy, theta_fixed=theta),
                         trials, seed, (0,), workers, batch_size)
    est = tally[1] / tally[0]
    return float(est), _stderr(float(est), int(tally[0]))


def joint_outcome_table(
    a: float,
    b: float,
    trials: int,
    seed: int,
    strategy: Strategy = NO_FLIP,
    workers: int = 1,
    batch_size: int = 250_000,
) -> np.ndarray:
    """2x2 joint outcome counts, rows = first party's sign, cols = second's.

    The message-passing round and its black-box repackaging share one
    computational path, so either is sampled by this table; distributional
    identity between the two interfaces is checked by comparing tables drawn
    with different seeds.
    """
    tally = _run_batches(_joint_kernel(a, b, strategy), trials, seed, (0,), workers, batch_size)
    return np.array([[tally[1], tally[2]], [tally[3], tally[4]]], dtype=np.int64)


# --- experiment runners ----------------------------------------------------


def run_correlation_sweep(config: ExperimentConfig) -> SweepTable:
    """Equal-outcome rate versus the exact cos^2 law over an angle grid.

    The second setting is pinned at 0 (the frame convention); the grid values
    are the first party's angles, so the separation equals the grid value up
    to the shorter-arc fold.
    """
    config.validate()
    if config.experiment != "correlation":
        raise ConfigError(f"config is for {config.experiment!r}, not correlation")
    table = SweepTable(
        columns=["angle", "trials", "estimate", "stderr", "oracle", "deviation", "flags"],
        manifest=config.manifest(),
    )
    for i, ang in enumerate(config.angle_grid):
        a = normalize_angle(ang)
        tally = _run_batches(_pair_kernel(a, 0.0, config.strategy), config.trials,
                             config.seed, (i,), config.workers, config.batch_size)
        n = int(tally[0])
        est = tally[1] / n
        oracle = qm.prob_equal(a, 0.0)
        se = _stderr(est, n)
        dev = abs(est - oracle)
        flags = []
        if se > 0 and dev > 4 * se:
            flags.append("deviates-from-oracle-4se")
        table.add(angle=a, trials=n, estimate=est, stderr=se, oracle=oracle,
                  deviation=dev, flags=";".join(flags))
    return table


def run_opposite_axes_sweep(config: ExperimentConfig) -> SweepTable:
    """Antipodal-pair equal-output rate versus the window-only closed form.

    The raw estimate includes coincidences from shared angles outside the two
    deterministic windows, so it generically exceeds the closed form; the
    flags column carries the in-window estimate and the outside-window excess
    whenever the gap is significant.
    """
    config.validate()
    if config.experiment != "opposite-axes":
        raise ConfigError(f"config is for {config.experiment!r}, not opposite-axes")
    table = SweepTable(
        columns=["nu", "trials", "estimate", "stderr", "closed_form", "deviation", "flags"],
        manifest=config.manifest(),
    )
    for i, nu in enumerate(config.nu_grid):
        tally = _run_batches(_two_bob_kernel(nu, config.strategy, config.coin_mode),
                             config.trials, config.seed, (i,), config.workers, config.batch_size)
        n = int(tally[0])
        est = tally[1] / n
        in_win = tally[2] / n
        outside = tally[4] / n
        closed = p_opposite_equal_closed(nu).p_total
        se = _stderr(est, n)
        dev = abs(est - closed)
        flags = []
        if se > 0 and est - closed > 4 * se:
            flags.append("exceeds-closed-form-4se")
            flags.append(f"in-windows-estimate={in_win:.6g}")
            flags.append(f"outside-windows-excess={outside:.6g}")
        if min(abs(nu), abs(nu - NU_MAX)) < 1e-12:
            flags.append("endpoint-minimum-reported=0.071")
            flags.append(f"endpoint-formula={closed:.6g}")
        table.add(nu=nu, trials=n, estimate=est, stderr=se, closed_form=closed,
                  deviation=dev, flags=";".join(flags))
    return table


def run_visibility_scan(config: ExperimentConfig) -> SweepTable:
    """Visibility arithmetic and its erasure-model simulation over a (V, nu) grid."""
    config.validate()
    if config.experiment != "visibility":
        raise ConfigError(f"config is for {config.experiment!r}, not visibility")
    table = SweepTable(
        columns=[
            "visibility", "nu", "trials", "estimate", "stderr", "p_effective",
            "p_peff1", "p_peff2", "p_peff_total", "v_threshold", "deviation", "flags",
        ],
        manifest=config.manifest(),
    )
    i = 0
    for v in config.visibility_grid:
        for nu in config.nu_grid:
            report = visibility_report(v, nu)
            tally = _run_batches(_visibility_kernel(nu, v, config.strategy, config.coin_mode),
                                 config.trials, config.seed, (i,), config.workers, config.batch_size)
            n = int(tally[0])
            est = tally[3] / n  # surviving, equal, inside the two windows
            se = _stderr(est, n)
            dev = abs(est - report.p_effective)
            flags = []
            if v < report.v_threshold:
                flags.append("below-threshold")
            table.add(visibility=v, nu=nu, trials=n, estimate=est, stderr=se,
                      p_effective=report.p_effective, p_peff1=report.p_peff1,
                      p_peff2=report.p_peff2, p_peff_total=report.p_peff_total,
                      v_threshold=report.v_threshold, deviation=dev, flags=";".join(flags))
            i += 1
    return table


def run_audit(config: ExperimentConfig) -> SweepTable:
    """Per-theta conservation-law audit with conditioned Monte Carlo replays.

    Analytic conditionals come from the branch logic; each grid point is also
    replayed ``trials`` times at that fixed theta, in both axis directions.
    """
    config.validate()
    if config.experiment != "audit":
        raise ConfigError(f"config is for {config.experiment!r}, not audit")
    nu_values = config.nu_grid or (math.pi / 10.0,)
    table = SweepTable(
        columns=[
            "nu", "theta", "trials", "p_same_forward", "p_anti_reversed",
            "mc_forward", "mc_forward_stderr", "mc_anti_reversed",
            "mc_anti_reversed_stderr", "violation", "flags",
        ],
        manifest=config.manifest(),
    )
    i = 0
    for nu in nu_values:
        a = alice_setting(nu)
        b = WALKTHROUGH_B1
        rows = per_theta_consistency_audit(a, b, config.theta_grid, config.strategy)
        for row in rows:
            fwd_tally = _run_batches(_pair_kernel(a, b, config.strategy, theta_fixed=row.theta),
                                     config.trials, config.seed, (i, 0), config.workers, config.batch_size)
            rev_tally = _run_batches(_pair_kernel(a, b + math.pi, config.strategy, theta_fixed=row.theta),
                                     config.trials, config.seed, (i, 1), config.workers, config.batch_size)
            n = int(fwd_tally[0])
            mc_fwd = fwd_tally[1] / n
            mc_anti = (rev_tally[0] - rev_tally[1]) / rev_tally[0]
            table.add(
                nu=nu, theta=row.theta, trials=n,
                p_same_forward=row.p_same_forward, p_anti_reversed=row.p_anti_reversed,
                mc_forward=mc_fwd, mc_forward_stderr=_stderr(mc_fwd, n),
                mc_anti_reversed=mc_anti, mc_anti_reversed_stderr=_stderr(mc_anti, n),
                violation="true" if row.violation else "false",
                flags="law-violated" if row.violation else "",
            )
            i += 1
    return table


#: remedy table rows: the no-flip baseline plus every flip rule under both coin modes
REMEDY_COMBOS = (
    (FlipRule.DISABLED, CoinMode.INDEPENDENT),
    (FlipRule.CYCLIC, CoinMode.INDEPENDENT),
    (FlipRule.CYCLIC, CoinMode.SHARED),
    (FlipRule.ABSOLUTE, CoinMode.INDEPENDENT),
    (FlipRule.ABSOLUTE, CoinMode.SHARED),
)


def run_remedy_analysis(config: ExperimentConfig) -> SweepTable:
    """Does any reflection reading kill the antipodal anomaly without breaking the correlation?

    For every (flip rule x coin mode) combination and each nu, reports the
    equal-output rate and the induced deviation of the second-axis
    correlation from the cos^2 law. Conditioned rows (fixed theta) are added
    for every value on the theta grid, if one is configured.
    """
    config.validate()
    if config.experiment != "remedy":
        raise ConfigError(f"config is for {config.experiment!r}, not remedy")
    table = SweepTable(
        columns=[
            "nu", "theta", "flip_rule", "coin_mode", "trials", "estimate", "stderr",
            "ab2_estimate", "ab2_oracle", "ab2_deviation", "flags",
        ],
        manifest=config.manifest(),
    )
    i = 0
    for nu in config.nu_grid:
        a = alice_setting(nu)
        b2 = WALKTHROUGH_B1 + math.pi
        for rule, coin_mode in REMEDY_COMBOS:
            strategy = Strategy(rule, config.strategy.flip_semantics)
            conditions: list[float | None] = [None] + list(config.theta_grid)
            for theta in conditions:
                tally = _run_batches(_two_bob_kernel(nu, strategy, coin_mode, theta_fixed=theta),
                                     config.trials, config.seed, (i,), config.workers, config.batch_size)
                n = int(tally[0])
                est = tally[1] / n
                ab2 = tally[5] / n
                if theta is None:
                    ab2_oracle = qm.prob_equal(a, b2)
                else:
                    ab2_oracle = float(p_equal_given_theta(a, b2, theta, strategy))
                flags = []
                if tally[1] == 0:
                    flags.append("no-equal-outputs")
                table.add(
                    nu=nu, theta=theta, flip_rule=rule.value, coin_mode=coin_mode.value,
                    trials=n, estimate=est, stderr=_stderr(est, n),
                    ab2_estimate=ab2, ab2_oracle=ab2_oracle,
                    ab2_deviation=abs(ab2 - ab2_oracle), flags=";".join(flags),
                )
                i += 1
    return table


#: calibration candidates: every reading of the ambiguous reflection step
CALIBRATION_VARIANTS = (
    ("paper-iic", Strategy(FlipRule.DISABLED, FlipSemantics.CONTINUE)),
    ("cyclic-flip", Strategy(FlipRule.CYCLIC, FlipSemantics.CONTINUE)),
    ("cyclic-flip-terminate", Strategy(FlipRule.CYCLIC, FlipSemantics.TERMINATE)),
    ("abs-flip", Strategy(FlipRule.ABSOLUTE, FlipSemantics.CONTINUE)),
    ("abs-flip-terminate", Strategy(FlipRule.ABSOLUTE, FlipSemantics.TERMINATE)),
)


def run_calibration(config: ExperimentConfig) -> SweepTable:
    """Which reading of the reflection step best matches the cos^2 law?

    Sweeps every strategy variant over the angle grid and stamps each row
    with its variant's maximum deviation, so the winner is read off the
    table directly.
    """
    config.validate()
    if config.experiment != "calibrate":
        raise ConfigError(f"config is for {config.experiment!r}, not calibrate")
    table = SweepTable(
        columns=[
            "strategy", "flip_semantics", "angle", "trials", "estimate", "stderr",
            "oracle", "deviation", "strategy_max_deviation", "flags",
        ],
        manifest=config.manifest(),
    )
    i = 0
    for label, strategy in CALIBRATION_VARIANTS:
        rows = []
        for ang in config.angle_grid:
            a = normalize_angle(ang)
            tally = _run_batches(_pair_kernel(a, 0.0, strategy), config.trials,
                                 config.seed, (i,), config.workers, config.batch_size)
            n = int(tally[0])
            est = tally[1] / n
            oracle = qm.prob_equal(a, 0.0)
            rows.append((a, n, est, _stderr(est, n), oracle, abs(est - oracle)))
            i += 1
        max_dev = max(r[5] for r in rows)
        for a, n, est, se, oracle, dev in rows:
            flags = "deviates-from-oracle-4se" if se > 0 and dev > 4 * se else ""
            table.add(strategy=label, flip_semantics=strategy.flip_semantics.value,
                      angle=a, trials=n, estimate=est, stderr=se, oracle=oracle,
                      deviation=dev, strategy_max_deviation=max_dev, flags=flags)
    return table


_RUNNERS = {
    "correlation": run_correlation_sweep,
    "opposite-axes": run_opposite_axes_sweep,
    "visibility": run_visibility_scan,
    "audit": run_audit,
    "remedy": run_remedy_analysis,
    "calibrate": run_calibration,
}


def run_experiment(config: ExperimentConfig) -> SweepTable:
    """Validate and dispatch to the experiment's runner."""
    config.validate()
    return _RUNNERS[config.experiment](config)


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


def emit(table: SweepTable, out_format: str, path: str | Path) -> None:
    """Write a table as CSV (manifest as '#' header comments) or JSON.

    Numbers are rendered with six significant digits. The JSON form is an
    object holding the manifest and the array of row objects.
    """
    if out_format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {out_format!r}")
    text = render_text(table, out_format)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise EmitError(f"cannot write table to {path}: {exc}") from exc


def render_text(table: SweepTable, out_format: str) -> str:
    """The exact file content :func:`emit` would write."""
    if out_format == "json":
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
