"""The three workloads: their inputs, one timed pass, and the checks on its outputs.

A pass is the workload's whole job list at fixed sizes. Every pass of a run
uses the same inputs, so later passes must reproduce the first pass's
digests exactly; the outputs of the first pass are checked against the exact
expectations in :mod:`expect`.

Calls into ``bctsim`` go through module attributes (``cli.main``,
``protocol.bct_trial``) so that a traced pass sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import expect
from bctsim import analysis, cli, geometry, harness, protocol

PI = math.pi
NU_MID = PI / 10.0
REMEDY_THETA = 0.45 * PI


def _grid(lo: float, hi: float, steps: int) -> str:
    return f"{lo!r}:{hi!r}:{steps}"


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Checks:
    """Operations attempted, the ids of those that failed, and why."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    #: failures of the known defect (scalar vs vector slot rule one ulp from a boundary)
    known: set = field(default_factory=set)
    notes: list = field(default_factory=list)

    def op(self, op_id, ok: bool, why: str = "", known: bool = False) -> None:
        if ok:
            return
        self.failed.add(op_id)
        if known:
            self.known.add(op_id)
        elif len(self.notes) < 20:
            self.notes.append(f"{op_id}: {why}")

    @property
    def correct(self) -> bool:
        return not (self.failed - self.known)


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    trials: int
    digests: dict
    extra: dict = field(default_factory=dict)


# --- sweeps -------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    experiment: str
    argv: tuple[str, ...]

    def command(self, seed: int, workers: int) -> list[str]:
        return [self.experiment, *self.argv, "--seed", str(seed), "--workers", str(workers)]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]

    def grid(self, name: str) -> tuple[float, ...]:
        return cli.parse_grid(self.flag(name))

    @property
    def trials(self) -> int:
        return int(self.flag("--trials"))

    @property
    def streams_per_row(self) -> int:
        return 2 if self.experiment == "audit" else 1  # audit replays both axis directions


SWEEP_ANOMALY = (
    Job("opposite-axes", ("--trials", "1000000", "--nu-grid", _grid(0.0, PI / 5, 3))),
    Job("remedy", ("--trials", "1000000", "--nu-grid", _grid(NU_MID, NU_MID, 1),
                   "--theta-grid", _grid(REMEDY_THETA, REMEDY_THETA, 1))),
    Job("visibility", ("--trials", "500000", "--visibility-grid", "0.5:1:3",
                       "--nu-grid", _grid(NU_MID, NU_MID, 1))),
)

SWEEP_SETTINGS = (
    Job("correlation", ("--trials", "1000000", "--angle-grid", _grid(0.0, 2 * PI, 9))),
    Job("calibrate", ("--trials", "200000", "--angle-grid", _grid(0.0, 2 * PI, 9))),
    Job("audit", ("--trials", "100000", "--theta-grid", _grid(0.3 * PI, 0.5 * PI, 21))),
)


#: reference-kernel samples taken before each CLI job of a sweep pass
METER_SAMPLES_PER_JOB = 5


def parse_table(text: str) -> tuple[list[str], list[dict]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return columns, [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


def _rendered(x) -> str:
    return "" if x is None else format(float(x), ".6g")


class SweepWorkload:
    """CLI experiments invoked in-process through ``bctsim.cli.main``."""

    def __init__(self, name: str, jobs: tuple[Job, ...], workers: int, seed: int) -> None:
        self.name = name
        self.jobs = jobs
        self.workers = workers
        self.seed = seed

    def describe(self) -> dict:
        return {
            "jobs": [" ".join(j.command(self.seed, self.workers)) for j in self.jobs],
            "trials_per_row": {j.experiment: j.trials for j in self.jobs},
        }

    def warm_up(self) -> None:
        job = self.jobs[0]
        argv = list(job.argv)
        argv[argv.index("--trials") + 1] = "2000"
        self._run_cli(Job(job.experiment, tuple(argv)).command(self.seed, self.workers))

    @staticmethod
    def _run_cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is one failed job, reported by the checks
            return -1, repr(exc)
        return rc, out.getvalue()

    def run_pass(self, tracer=None, workers: int | None = None, meter=None) -> PassResult:
        workers = self.workers if workers is None else workers
        texts = {}
        wall = cpu = 0.0
        for job in self.jobs:
            if meter is not None:
                meter.sample(METER_SAMPLES_PER_JOB)
            argv = job.command(self.seed, workers)
            t0, c0 = time.perf_counter(), cpu_seconds()
            if tracer is None:
                texts[job.experiment] = self._run_cli(argv)
            else:
                with tracer.operation(f"perfbench.{job.experiment}"):
                    texts[job.experiment] = self._run_cli(argv)
            wall += time.perf_counter() - t0
            cpu += cpu_seconds() - c0
        trials = 0
        for job in self.jobs:
            rc, text = texts[job.experiment]
            if rc == 0:
                trials += len(parse_table(text)[1]) * job.trials * job.streams_per_row
        digests = {job.experiment: sha256(f"{texts[job.experiment][0]}\n{texts[job.experiment][1]}")
                   for job in self.jobs}
        return PassResult(wall, cpu, trials, digests, {"texts": texts})

    # -- exact expectations, computed outside the timed passes ----------------

    def expectations(self) -> dict:
        return {job.experiment: getattr(self, "_expect_" + job.experiment.replace("-", "_"))(job)
                for job in self.jobs}

    def _expect_opposite_axes(self, job):
        return [(_rendered(nu), analysis.two_bob_equal_quadrature(nu, protocol.NO_FLIP, protocol.CoinMode.INDEPENDENT))
                for nu in job.grid("--nu-grid")]

    def _expect_remedy(self, job):
        rows = []
        for nu in job.grid("--nu-grid"):
            a = analysis.alice_setting(nu)
            b2 = analysis.WALKTHROUGH_B1 + PI
            for rule, coin in harness.REMEDY_COMBOS:
                strategy = protocol.Strategy(rule, protocol.FlipSemantics.CONTINUE)
                for theta in (None, *job.grid("--theta-grid")):
                    if theta is None:
                        est = analysis.two_bob_equal_quadrature(nu, strategy, coin)
                        ab2 = expect.pair_equal(a, b2, strategy)
                    else:
                        est = analysis.two_bob_equal_given_theta(nu, theta, strategy, coin)
                        ab2 = protocol.p_equal_given_theta(a, b2, theta, strategy)
                    rows.append(((_rendered(nu), _rendered(theta), rule.value, coin.value), est, ab2))
        return rows

    def _expect_visibility(self, job):
        return [(_rendered(v), _rendered(nu), v * v * expect.two_bob_window_equal(nu))
                for v in job.grid("--visibility-grid") for nu in job.grid("--nu-grid")]

    def _expect_correlation(self, job):
        return [(_rendered(a), expect.pair_equal(a, 0.0, protocol.NO_FLIP))
                for a in map(geometry.normalize_angle, job.grid("--angle-grid"))]

    def _expect_calibrate(self, job):
        return [((label, _rendered(a)), expect.pair_equal(a, 0.0, strategy))
                for label, strategy in harness.CALIBRATION_VARIANTS
                for a in map(geometry.normalize_angle, job.grid("--angle-grid"))]

    def _expect_audit(self, job):
        return [_rendered(t) for t in job.grid("--theta-grid")]

    # -- checks ----------------------------------------------------------------

    def check(self, first: PassResult, later: list[PassResult], expected: dict) -> Checks:
        checks = Checks()
        for job in self.jobs:
            exp = expected[job.experiment]
            ids = [f"{job.experiment}[{i}]" for i in range(len(exp))]
            checks.attempted += len(ids)
            rc, text = first.extra["texts"][job.experiment]
            if rc != 0:
                for op_id in ids:
                    checks.op(op_id, False, f"cli exit status {rc}")
                continue
            columns, rows = parse_table(text)
            if len(rows) != len(exp):
                for op_id in ids:
                    checks.op(op_id, False, f"{len(rows)} rows, expected {len(exp)}")
                continue
            check_row = getattr(self, "_check_" + job.experiment.replace("-", "_"))
            for op_id, row, e in zip(ids, rows, exp):
                ok, why = check_row(row, e)
                checks.op(op_id, ok, why)
            for p in later:
                if p.digests[job.experiment] != first.digests[job.experiment]:
                    for op_id in ids:
                        checks.op(op_id, False, "a later pass emitted a different table")
        return checks

    @staticmethod
    def _sampled(row, column: str, p: float) -> tuple[bool, str]:
        est, n = float(row[column]), int(row["trials"])
        ok = expect.within_sampling(est, p, n)
        return ok, "" if ok else f"{column}={est} vs exact {p!r} over {n} trials"

    def _check_opposite_axes(self, row, e):
        key, p = e
        if row["nu"] != key:
            return False, f"row nu {row['nu']} is not {key}"
        return self._sampled(row, "estimate", p)

    def _check_remedy(self, row, e):
        key, p_est, p_ab2 = e
        if (row["nu"], row["theta"], row["flip_rule"], row["coin_mode"]) != key:
            return False, f"row key does not match {key}"
        ok, why = self._sampled(row, "estimate", p_est)
        ok2, why2 = self._sampled(row, "ab2_estimate", p_ab2)
        return ok and ok2, why or why2

    def _check_visibility(self, row, e):
        v, nu, p = e
        if (row["visibility"], row["nu"]) != (v, nu):
            return False, f"row key does not match {(v, nu)}"
        analytic = float(row["p_effective"])
        if abs(analytic - p) > expect.RENDER_SLACK:
            return False, f"p_effective={analytic} vs window integral {p!r}"
        return self._sampled(row, "estimate", analytic)

    def _check_correlation(self, row, e):
        key, p = e
        if row["angle"] != key:
            return False, f"row angle {row['angle']} is not {key}"
        return self._sampled(row, "estimate", p)

    def _check_calibrate(self, row, e):
        (label, angle), p = e
        if (row["strategy"], row["angle"]) != (label, angle):
            return False, f"row key does not match {(label, angle)}"
        return self._sampled(row, "estimate", p)

    def _check_audit(self, row, e):
        if row["theta"] != e:
            return False, f"row theta {row['theta']} is not {e}"
        ok, why = self._sampled(row, "mc_forward", float(row["p_same_forward"]))
        ok2, why2 = self._sampled(row, "mc_anti_reversed", float(row["p_anti_reversed"]))
        return ok and ok2, why or why2


# --- scalar rounds and exact oracles -------------------------------------------

ROUNDS = 2400
KINDS = ("bct", "nbct", "two_bob_independent", "two_bob_shared")
#: doubles each kind draws from the round stream: sign, angle, then its coins
DRAWS = {"bct": 3, "nbct": 3, "two_bob_independent": 4, "two_bob_shared": 3}
STRATEGIES = (
    protocol.NO_FLIP,
    protocol.CYCLIC_FLIP,
    protocol.ABS_FLIP,
    protocol.Strategy(protocol.FlipRule.CYCLIC, protocol.FlipSemantics.TERMINATE),
)
CURVE_NU = tuple(float(x) for x in np.linspace(0.0, PI / 5, 5))
CURVE_COINS = (protocol.CoinMode.INDEPENDENT, protocol.CoinMode.SHARED)
CURVE_STRATEGIES = (protocol.NO_FLIP, protocol.CYCLIC_FLIP)
AUDIT_POINTS = 2048


def boundaries(theta: float) -> list[float]:
    """The sixteen cell boundaries at ``theta``, computed as ``geometry`` computes them."""
    out = [j * geometry.ALPHA_WIDTH for j in range(10)]
    out += [geometry.normalize_angle(theta + o) for o in geometry.BETA_OFFSETS]
    out += [geometry.normalize_angle(theta + o) for o in geometry.GAMMA_OFFSETS]
    return out


@dataclass(frozen=True)
class RoundInput:
    kind: str
    strategy: protocol.Strategy
    a: float
    b: float
    theta: float  # the shared angle the round stream will draw
    boundary: float | None  # the boundary ``a`` sits one ulp from, if in the slice


def round_stream(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))


def round_inputs(seed: int, count: int = ROUNDS) -> list[RoundInput]:
    """Settings for ``count`` rounds; every other group of four sits one ulp from a boundary.

    The shared angle of each round is read ahead from a replica of the round
    stream, so the boundary-adjacent settings are adjacent at the angle the
    round will actually draw.
    """
    pick = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    replica = round_stream(seed)
    rounds = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        replica.random()
        theta = float(replica.uniform(0.0, geometry.THETA_SPAN))
        replica.random(DRAWS[kind] - 2)
        strategy = STRATEGIES[int(pick.integers(len(STRATEGIES)))]
        b = float(pick.uniform(0.0, 2 * PI))
        if (i // len(KINDS)) % 2:
            bnd = boundaries(theta)[int(pick.integers(16))]
            a = float(np.nextafter(bnd, math.inf if pick.random() < 0.5 else -math.inf))
            rounds.append(RoundInput(kind, strategy, a, b, theta, bnd))
        else:
            rounds.append(RoundInput(kind, strategy, float(pick.uniform(0.0, 2 * PI)), b, theta, None))
    return rounds


def record_from_json(text: str) -> protocol.TrialRecord:
    d = json.loads(text)
    d["message"] = protocol.SlotMessage(**d["message"])
    return protocol.TrialRecord(**d)


def _round_trip(record: protocol.TrialRecord) -> tuple[str, bool]:
    """Serialize, parse, rebuild and replay one record; whether all of it reproduced."""
    text = record.to_json()
    rebuilt = record_from_json(text)
    return text, rebuilt.to_json() == text and protocol.replay_bob(rebuilt) == record.c_b


class RoundsWorkload:
    """Scalar rounds with replay and JSON round trip, then the exact anomaly curve."""

    name = "rounds-oracles"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds = round_inputs(seed)
        pick = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
        self.audit_nu = float(pick.uniform(0.0, PI / 5))
        self.audit_grid = np.linspace(0.0, geometry.THETA_SPAN, AUDIT_POINTS, endpoint=False)

    def describe(self) -> dict:
        return {
            "rounds": len(self.rounds),
            "boundary_slice": sum(r.boundary is not None for r in self.rounds),
            "curve": {"nu": list(CURVE_NU), "coin_modes": [c.value for c in CURVE_COINS],
                      "strategies": [s.flip_rule.value for s in CURVE_STRATEGIES]},
            "audit": {"nu": self.audit_nu, "thetas": AUDIT_POINTS},
        }

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        protocol.bct_trial(1.0, 2.0, rng)
        analysis.two_bob_equal_quadrature(NU_MID)

    def _one_round(self, r: RoundInput, rng) -> tuple[list[str], object, bool]:
        if r.kind == "nbct":
            c_a, c_b = protocol.nbct_trial(r.a, r.b, rng, r.strategy)
            return [f"{c_a},{c_b}"], (c_a, c_b), True
        if r.kind == "bct":
            c_a, c_b, rec = protocol.bct_trial(r.a, r.b, rng, r.strategy)
            text, ok = _round_trip(rec)
            return [text], rec, ok and c_a == rec.c_a and c_b == rec.c_b
        coin = protocol.CoinMode.SHARED if r.kind == "two_bob_shared" else protocol.CoinMode.INDEPENDENT
        res = protocol.two_bob_trial(r.a, r.b, rng, r.strategy, coin)
        t1, ok1 = _round_trip(res.record_b1)
        t2, ok2 = _round_trip(res.record_b2)
        ok = ok1 and ok2 and res.c_b1 == res.record_b1.c_b and res.c_b2 == res.record_b2.c_b
        return [t1, t2], res, ok

    def run_pass(self, tracer=None, workers=None, meter=None) -> PassResult:
        op = tracer.operation if tracer is not None else (lambda name: contextlib.nullcontext())
        tick = meter.tick if meter is not None else (lambda: None)
        metered_cpu = meter.spent_cpu_s if meter is not None else 0.0
        rng = round_stream(self.seed)
        outputs, oks, latencies = [], [], []
        rounds_hash = hashlib.sha256()
        c0 = cpu_seconds()
        for r in self.rounds:
            s = time.perf_counter_ns()
            with op(f"perfbench.round.{r.kind}"):
                try:
                    texts, out, ok = self._one_round(r, rng)
                except Exception as exc:  # a crash is one failed round, reported by the checks
                    texts, out, ok = [repr(exc)], None, False
            latencies.append(time.perf_counter_ns() - s)
            outputs.append(out)
            oks.append(ok)
            for text in texts:
                rounds_hash.update(text.encode("utf-8"))
                rounds_hash.update(b"\n")
            tick()
        curve, curve_s = [], 0.0
        for coin in CURVE_COINS:
            for strategy in CURVE_STRATEGIES:
                for nu in CURVE_NU:
                    t = time.perf_counter()
                    with op("perfbench.curve"):
                        curve.append(analysis.two_bob_equal_quadrature(nu, strategy, coin))
                    curve_s += time.perf_counter() - t
                    tick()
        t = time.perf_counter()
        with op("perfbench.extrema"):
            extrema = analysis.find_extrema_of_nu_curve()
        with op("perfbench.audit"):
            audit = analysis.per_theta_consistency_audit(
                analysis.alice_setting(self.audit_nu), analysis.WALKTHROUGH_B1, self.audit_grid)
        curve_s += time.perf_counter() - t
        rounds_s = sum(latencies) / 1e9
        cpu = cpu_seconds() - c0 - ((meter.spent_cpu_s if meter is not None else 0.0) - metered_cpu)
        oracle_text = json.dumps({
            "curve": curve,
            "extrema": [extrema.nu_max, extrema.p_max, extrema.p_min, list(extrema.nu_min_candidates)],
            "audit": [[row.theta, row.p_same_forward, row.p_anti_reversed, row.violation] for row in audit],
        })
        return PassResult(
            wall_s=rounds_s + curve_s, cpu_s=cpu, trials=len(self.rounds),
            digests={"rounds": rounds_hash.hexdigest(), "oracles": sha256(oracle_text)},
            extra={"outputs": outputs, "oks": oks, "latencies_ns": latencies, "rounds_s": rounds_s,
                   "curve_s": curve_s, "curve": curve, "extrema": extrema, "audit": audit},
        )

    # -- exact expectations, computed outside the timed passes ----------------

    def expectations(self) -> dict:
        curve = [expect.two_bob_equal(nu, strategy, coin)
                 for coin in CURVE_COINS for strategy in CURVE_STRATEGIES for nu in CURVE_NU]
        a = analysis.alice_setting(self.audit_nu)
        audit = []
        for theta in self.audit_grid:
            hidden = protocol.HiddenState.make(1, float(theta))
            _, msg = protocol.alice_round(a, hidden)
            _, fwd = protocol.bob_round(analysis.WALKTHROUGH_B1, msg, hidden, coin=0.5)
            _, rev = protocol.bob_round(analysis.WALKTHROUGH_B1 + PI, msg, hidden, coin=0.5)
            audit.append((expect.scalar_p_equal(fwd), 1.0 - expect.scalar_p_equal(rev)))
        return {
            "curve": curve,
            "p_max": expect.two_bob_window_equal(NU_MID),
            "p_min": expect.two_bob_window_equal(0.0),
            "audit": audit,
        }

    # -- checks ----------------------------------------------------------------

    def _differential(self, checks: Checks, op_id: str, r: RoundInput, records) -> None:
        """Each record's P(equal) against ``p_equal_given_theta`` at the same (a, b, theta)."""
        for rec in records:
            if rec.theta != r.theta:
                checks.op(op_id, False, f"drew theta {rec.theta!r}, input generation expected {r.theta!r}")
                return
            vec = float(protocol.p_equal_given_theta(r.a, rec.b, rec.theta, r.strategy))
            if abs(expect.scalar_p_equal(rec) - vec) > expect.ROUTE_TOL:
                checks.op(op_id, False, f"scalar P(equal) {expect.scalar_p_equal(rec)!r} vs vector {vec!r}",
                          known=r.boundary is not None)
                return

    def check(self, first: PassResult, later: list[PassResult], expected: dict) -> Checks:
        checks = Checks()
        replica = round_stream(self.seed)
        for i, (r, out, ok) in enumerate(zip(self.rounds, first.extra["outputs"], first.extra["oks"])):
            op_id = f"round[{i}].{r.kind}"
            checks.attempted += 1
            checks.op(op_id, ok, "the round raised, or replay or JSON round trip did not reproduce it")
            if out is None:
                replica.random(DRAWS[r.kind])
                continue
            if r.kind == "nbct":
                c_a, c_b, rec = protocol.bct_trial(r.a, r.b, replica, r.strategy)
                checks.op(op_id, (c_a, c_b) == out, "black-box outputs differ from the message round")
                records = [rec]
            else:
                replica.random(DRAWS[r.kind])
                records = [out] if r.kind == "bct" else [out.record_b1, out.record_b2]
            self._differential(checks, op_id, r, records)

        for i, (got, want) in enumerate(zip(first.extra["curve"], expected["curve"])):
            checks.attempted += 1
            checks.op(f"curve[{i}]", abs(got - want) <= expect.ORACLE_TOL, f"quadrature {got!r} vs {want!r}")
        ext = first.extra["extrema"]
        checks.attempted += 3
        checks.op("extrema.nu_max", abs(ext.nu_max - NU_MID) <= 1e-6, f"nu_max {ext.nu_max!r}")
        checks.op("extrema.p_max", abs(ext.p_max - expected["p_max"]) <= expect.ORACLE_TOL, f"p_max {ext.p_max!r}")
        checks.op("extrema.p_min", abs(ext.p_min - expected["p_min"]) <= expect.ORACLE_TOL, f"p_min {ext.p_min!r}")
        for i, (row, (fwd, anti)) in enumerate(zip(first.extra["audit"], expected["audit"])):
            checks.attempted += 1
            ok = (abs(row.p_same_forward - fwd) <= expect.ROUTE_TOL
                  and abs(row.p_anti_reversed - anti) <= expect.ROUTE_TOL
                  and row.violation == (abs(fwd - anti) > analysis.AUDIT_TOL))
            checks.op(f"audit[{i}]", ok, f"audit row at theta={row.theta!r} disagrees with the scalar route")

        groups = {"rounds": [f"round[{i}].{r.kind}" for i, r in enumerate(self.rounds)],
                  "oracles": [f"curve[{i}]" for i in range(len(expected["curve"]))]
                  + ["extrema.nu_max", "extrema.p_max", "extrema.p_min"]
                  + [f"audit[{i}]" for i in range(len(expected["audit"]))]}
        for p in later:
            for key, ids in groups.items():
                if p.digests[key] != first.digests[key]:
                    for op_id in ids:
                        checks.op(op_id, False, f"a later pass emitted different {key}")
        return checks


def make(name: str, seed: int):
    if name == "sweep-anomaly":
        return SweepWorkload(name, SWEEP_ANOMALY, workers=1, seed=seed)
    if name == "sweep-settings":
        return SweepWorkload(name, SWEEP_SETTINGS, workers=1, seed=seed)
    if name == "rounds-oracles":
        return RoundsWorkload(seed)
    raise KeyError(name)


WORKLOADS = ("sweep-anomaly", "sweep-settings", "rounds-oracles")
