"""Emitted tables and estimator tallies, byte for byte against committed fixtures.

Every experiment runs at its CLI default grids, plus strategy, coin, flip
semantics, nu-grid and JSON variants, with several batches and a short
remainder batch per row. The estimators' integer tallies are compared too.
Any change to a draw order, a stream key, a tally or the rendering shows up
here as a byte difference.

Scalar rounds are pinned the same way: ``rounds.jsonl`` holds, per round,
the outputs, every record's JSON and ``replay_bob``'s result.

Regenerate the fixtures only for a change that is meant to alter the random
stream (and bumps ``VERSION``)::

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

GOLDEN = Path(__file__).resolve().parent / "golden"
SIZE = ["--trials", "30000", "--batch-size", "7000", "--seed", "4"]
PI = math.pi

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
    n, batch = 30000, 7000
    strategies = {
        "no-flip": pr.NO_FLIP,
        "cyclic": pr.CYCLIC_FLIP,
        "abs-terminate": pr.Strategy(pr.FlipRule.ABSOLUTE, pr.FlipSemantics.TERMINATE),
    }
    out = {"joint": [], "pair": [], "two_bob": []}
    for i, (a, b) in enumerate([(0.3, 4.4), (0.0, PI / 2), (2 * PI / 5, PI), (1.9 * PI, 0.1 * PI)]):
        for name, strategy in strategies.items():
            table = hn.joint_outcome_table(a, b, n, 100 + i, strategy, batch_size=batch)
            out["joint"].append([a, b, name, table.ravel().tolist()])
    for i, (a, b, theta) in enumerate([(PI / 2, 0.0, 0.35 * PI), (PI / 2, PI, 0.45 * PI), (0.123, PI, 4.4e-16)]):
        for name, strategy in strategies.items():
            est, se = hn.conditioned_pair_estimate(a, b, theta, n, 200 + i, strategy, batch_size=batch)
            out["pair"].append([a, b, theta, name, _count(est, n), repr(est), repr(se)])
    for i, (nu, theta) in enumerate([(PI / 10, 0.35 * PI), (PI / 10, 0.45 * PI), (0.0, 1.0), (PI / 5, 0.2)]):
        for name, strategy in strategies.items():
            for coin in (pr.CoinMode.INDEPENDENT, pr.CoinMode.SHARED):
                est, se = hn.conditioned_two_bob_estimate(nu, theta, n, 300 + i, strategy, coin, batch_size=batch)
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_bytes(cli_output(argv))
    (GOLDEN / "estimators.json").write_bytes(estimator_tallies())
    (GOLDEN / "rounds.jsonl").write_bytes(scalar_rounds())
