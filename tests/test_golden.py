"""Emitted tables and estimator tallies, byte for byte against committed fixtures.

Every experiment runs at its CLI default grids, plus strategy, coin, flip
semantics, nu-grid and JSON variants. The estimators' integer tallies are
compared too. Any change to a draw, a stream key, a tally or the rendering
shows up here as a byte difference.

The migration certificate holds every stream-dependent value of those
fixtures within four binomial standard errors of its exact expectation, so
fixtures regenerated for a new stream are checked against the law, not
against the old stream.

Scalar rounds are pinned the same way: ``rounds.jsonl`` holds, per round,
the outputs, every record's JSON and ``replay_bob``'s result.

Regenerate the fixtures only for a change that is meant to alter the random
stream (and bumps ``VERSION``), and keep the certificate passing::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bctsim import cli
from bctsim import harness as hn
from bctsim import protocol as pr
from bctsim.analysis import WALKTHROUGH_B1, alice_setting, two_bob_equal_given_theta
from bctsim.geometry import normalize_angle
from quad_oracle import pair_equal_reference, two_bob_equal_reference

GOLDEN = Path(__file__).resolve().parent / "golden"
SIZE = ["--trials", "30000", "--seed", "4"]
PI = math.pi
#: the estimators' trials, and the strategies they run under
ESTIMATOR_TRIALS = 30000
STRATEGIES = {
    "no-flip": pr.NO_FLIP,
    "cyclic": pr.CYCLIC_FLIP,
    "abs-terminate": pr.Strategy(pr.FlipRule.ABSOLUTE, pr.FlipSemantics.TERMINATE),
}

CASES = {
    "correlation.csv": ["correlation"],
    "opposite-axes.csv": ["opposite-axes"],
    "visibility.csv": ["visibility"],
    "audit.csv": ["audit"],
    "remedy.csv": ["remedy"],
    "calibrate.csv": ["calibrate"],
    "opposite-axes-cyclic-shared.csv": ["opposite-axes", "--strategy", "cyclic-flip", "--coin", "shared"],
    "remedy-theta-terminate.csv": ["remedy", "--theta-grid", "0.9:1.6:3", "--flip-semantics", "terminate"],
    "visibility-shared.csv": ["visibility", "--coin", "shared"],
    "audit-two-nu.csv": ["audit", "--nu-grid", "0.1:0.5:2"],
    "remedy-theta.json": ["remedy", "--theta-grid", "1.41372:1.41372:1", "--format", "json"],
}


def cli_output(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv + SIZE) == 0
    return out.getvalue().encode("utf-8")


def _count(est: float, n: int) -> int:
    return round(est * n)


def estimator_tallies() -> bytes:
    """The integer tallies behind the three public estimators, with their returned floats."""
    n, strategies = ESTIMATOR_TRIALS, STRATEGIES
    out = {"joint": [], "pair": [], "two_bob": []}
    for i, (a, b) in enumerate([(0.3, 4.4), (0.0, PI / 2), (2 * PI / 5, PI), (1.9 * PI, 0.1 * PI)]):
        for name, strategy in strategies.items():
            table = hn.joint_outcome_table(a, b, n, 100 + i, strategy)
            out["joint"].append([a, b, name, table.ravel().tolist()])
    for i, (a, b, theta) in enumerate([(PI / 2, 0.0, 0.35 * PI), (PI / 2, PI, 0.45 * PI), (0.123, PI, 4.4e-16)]):
        for name, strategy in strategies.items():
            est, se = hn.conditioned_pair_estimate(a, b, theta, n, 200 + i, strategy)
            out["pair"].append([a, b, theta, name, _count(est, n), repr(est), repr(se)])
    for i, (nu, theta) in enumerate([(PI / 10, 0.35 * PI), (PI / 10, 0.45 * PI), (0.0, 1.0), (PI / 5, 0.2)]):
        for name, strategy in strategies.items():
            for coin in (pr.CoinMode.INDEPENDENT, pr.CoinMode.SHARED):
                est, se = hn.conditioned_two_bob_estimate(nu, theta, n, 300 + i, strategy, coin)
                out["two_bob"].append([nu, theta, name, coin.value, _count(est, n), repr(est), repr(se)])
    return (json.dumps(out, indent=1) + "\n").encode("utf-8")


ROUNDS_SEED = 7
ROUND_KINDS = (("bct", None), ("nbct", None),
               ("two-bob", pr.CoinMode.INDEPENDENT), ("two-bob", pr.CoinMode.SHARED))


def _setting(rng: np.random.Generator, i: int) -> float:
    """A setting in [-2*pi, 4*pi); every fourth one sits one ulp off a multiple of pi/5."""
    if i % 4 == 3:
        k = int(rng.integers(-10, 20))
        return float(np.nextafter(k * PI / 5, np.inf if rng.random() < 0.5 else -np.inf))
    return float(rng.uniform(-2 * PI, 4 * PI))


def scalar_rounds() -> bytes:
    """400 seeded scalar rounds over every round kind, coin mode and calibration variant."""
    settings_seq, rounds_seq = np.random.SeedSequence(ROUNDS_SEED).spawn(2)
    settings, rng = np.random.default_rng(settings_seq), np.random.default_rng(rounds_seq)
    lines = []
    for i in range(20):
        for (kind, coin), (label, strategy) in itertools.product(ROUND_KINDS, hn.CALIBRATION_VARIANTS):
            a, b = _setting(settings, i), _setting(settings, i + 1)
            if kind == "bct":
                c_a, c_b, rec = pr.bct_trial(a, b, rng, strategy)
                outputs, records = [c_a, c_b], [rec]
            elif kind == "nbct":
                outputs, records = list(pr.nbct_trial(a, b, rng, strategy)), []
            else:
                r = pr.two_bob_trial(a, b, rng, strategy, coin)
                outputs, records = [r.c_a, r.c_b1, r.c_b2], [r.record_b1, r.record_b2]
            line = {"kind": kind, "coin": coin.value if coin else None, "variant": label, "a": a, "b": b,
                    "outputs": outputs, "records": [rec.to_json() for rec in records],
                    "replay": [pr.replay_bob(rec) for rec in records]}
            lines.append(json.dumps(line) + "\n")
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert cli_output(CASES[name]) == (GOLDEN / name).read_bytes()


def test_estimator_tallies_match_golden():
    assert estimator_tallies() == (GOLDEN / "estimators.json").read_bytes()


def test_scalar_rounds_match_golden():
    assert scalar_rounds() == (GOLDEN / "rounds.jsonl").read_bytes()


# --- the migration certificate ------------------------------------------------------

#: a stream-dependent value lies within this many standard errors of its exact expectation
Z_MAX = 4.0
#: the flags that carry a sampled rate
RATE_FLAGS = ("in-windows-estimate", "outside-windows-excess")


def _z(value: float, p: float, n: int) -> float:
    """``value``'s distance from the exact rate ``p`` in binomial standard errors ``sqrt(p(1-p)/n)`` of ``p``.

    At ``p`` 0 or 1 the error is 0: the value must equal ``p``, else the distance is infinite.
    """
    se = math.sqrt(p * (1.0 - p) / n)
    if se == 0.0:
        return 0.0 if value == p else math.inf
    return (value - p) / se


def _expectations(argv: list[str]) -> list[dict]:
    """Per row of a golden command's table, the exact expectation of each of its stream-dependent cells.

    The settings are the command's grids as the command line parses them
    (:func:`bctsim.cli.parse_grid`, or the experiment's default), in the
    order the experiment's rows run them. One-axis rates are the quadrature
    of :func:`~bctsim.protocol.p_equal_given_theta` between the table's
    edges, two-axis rates that of ``two_bob_equal_given_theta``, a
    conditioned row's rate the per-theta value itself.
    """
    config = cli._config_from_args(cli.build_parser().parse_args(argv + SIZE))
    strategy, coin, frame = config.strategy, config.coin_mode, (WALKTHROUGH_B1, WALKTHROUGH_B1 + PI)
    if config.experiment in ("correlation", "calibrate"):
        readings = [strategy] if config.experiment == "correlation" else [s for _, s in hn.CALIBRATION_VARIANTS]
        return [{"estimate": pair_equal_reference(normalize_angle(x), 0.0, s)}
                for s in readings for x in config.angle_grid]
    if config.experiment == "opposite-axes":
        rows = []
        for nu in config.nu_grid:
            full, inside = (two_bob_equal_reference(nu, strategy, coin, windows_only=w) for w in (False, True))
            rows.append({"estimate": full, "in-windows-estimate": inside, "outside-windows-excess": full - inside})
        return rows
    if config.experiment == "visibility":
        return [{"estimate": v * v * two_bob_equal_reference(nu, strategy, coin, windows_only=True)}
                for v in config.visibility_grid for nu in config.nu_grid]
    if config.experiment == "audit":
        return [{"mc_forward": pr.p_equal_given_theta(alice_setting(nu), frame[0], t, strategy),
                 "mc_anti_reversed": 1.0 - pr.p_equal_given_theta(alice_setting(nu), frame[1], t, strategy)}
                for nu in config.nu_grid or (PI / 10,) for t in config.theta_grid]
    rows = []  # remedy
    for nu in config.nu_grid:
        for (rule, coin), theta in itertools.product(hn.REMEDY_COMBOS, (None, *config.theta_grid)):
            s = pr.Strategy(rule, strategy.flip_semantics)
            if theta is None:
                rows.append({"estimate": two_bob_equal_reference(nu, s, coin),
                             "ab2_estimate": pair_equal_reference(alice_setting(nu), frame[1], s)})
            else:
                rows.append({"estimate": two_bob_equal_given_theta(nu, theta, s, coin),
                             "ab2_estimate": pr.p_equal_given_theta(alice_setting(nu), frame[1], theta, s)})
    return rows


def certificate(golden: Path) -> list[tuple[str, float, float, int, float]]:
    """Every stream-dependent value of the fixtures in ``golden``: ``(where, value, exact rate, trials, z)``.

    Table cells and the rates in their flags, then the estimators' tallies:
    each joint cell against half the pair's exact rate (c is a fair coin
    that nothing else reads), each conditioned count against its per-theta
    rate.
    """
    out = []
    for name, argv in CASES.items():
        path = golden / name
        rows = (json.loads(path.read_text())["rows"] if name.endswith(".json") else hn.read_csv_table(path)[2])
        expected = _expectations(argv)
        assert len(rows) == len(expected), name
        for i, (row, exact) in enumerate(zip(rows, expected)):
            flags = dict(f.partition("=")[::2] for f in row["flags"].split(";") if "=" in f)
            for cell, p in exact.items():
                if cell in RATE_FLAGS and cell not in flags:
                    continue
                value = float(flags[cell] if cell in RATE_FLAGS else row[cell])
                out.append((f"{name}[{i}].{cell}", value, p, int(row["trials"]), _z(value, p, int(row["trials"]))))
    blob, n = json.loads((golden / "estimators.json").read_text()), ESTIMATOR_TRIALS
    for i, (a, b, label, cells) in enumerate(blob["joint"]):
        p = pair_equal_reference(a, b, STRATEGIES[label])
        for cell, count, rate in zip(("++", "+-", "-+", "--"), cells, (p / 2, (1 - p) / 2, (1 - p) / 2, p / 2)):
            out.append((f"joint[{i}].{cell}", count / n, rate, n, _z(count / n, rate, n)))
    for i, (a, b, theta, label, count, *_) in enumerate(blob["pair"]):
        p = pr.p_equal_given_theta(a, b, theta, STRATEGIES[label])
        out.append((f"pair[{i}]", count / n, p, n, _z(count / n, p, n)))
    for i, (nu, theta, label, coin, count, *_) in enumerate(blob["two_bob"]):
        p = two_bob_equal_given_theta(nu, theta, STRATEGIES[label], pr.CoinMode(coin))
        out.append((f"two_bob[{i}]", count / n, p, n, _z(count / n, p, n)))
    return out


def test_every_sampled_golden_value_lies_within_four_standard_errors_of_its_exact_rate():
    values = certificate(GOLDEN)
    assert len(values) > 400
    assert [v for v in values if not abs(v[-1]) <= Z_MAX] == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_bytes(cli_output(argv))
    (GOLDEN / "estimators.json").write_bytes(estimator_tallies())
    (GOLDEN / "rounds.jsonl").write_bytes(scalar_rounds())
