"""Acceptance suite: one test per exit criterion, full desk-scale sample sizes.

Each test prints a single pass line when its criterion holds (visible with
``pytest -s``); a failed assertion is the fail line. Expected values are
frozen from the independent oracles in the analysis tests.
"""

import math

import numpy as np
from scipy import stats

from bctsim import analysis as an
from bctsim import geometry as g
from bctsim import harness as hn
from bctsim import protocol as pr
from bctsim import qm
from quad_oracle import p_opposite_equal_quadrature

PI = math.pi

# frozen oracle values (see tests/test_analysis.py for their derivation)
P_WINDOW = 0.1421949248142434
P_TOTAL_MAX = 0.2843898496284869
P_TOTAL_END = 0.2378418305208070
V_TH_MAX = 0.5396160327593464
P_EFF_99 = 0.2787304916208800
P_CROSS_SMALL = 0.8525639901584084  # 1 - (3*pi/10) sin(pi/20)


def _report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {detail}")


def test_criterion_01_reference_law_exactness():
    grid = np.linspace(0.0, 2 * PI, 100, endpoint=False)
    for a in grid:
        assert abs(qm.prob_equal(float(a), float(a)) - 1.0) <= 1e-12
        assert abs(qm.prob_equal(float(a), float(a) + PI) - 0.0) <= 1e-12
    for b in grid:
        assert abs(qm.prob_equal(0.37, float(b) + PI) - (1.0 - qm.prob_equal(0.37, float(b)))) <= 1e-12
        assert qm.flip_covariance_check(0.37, float(b), tol=1e-12)
    _report(1, "parallel/antipodal/flip-covariance identities hold to 1e-12 on a 100-point grid")


def test_criterion_02_walkthrough_slot_geometry():
    theta = 0.35 * PI
    hidden = pr.HiddenState.make(1, theta)
    _, msg = pr.alice_round(PI / 2, hidden)
    assert msg.triple == (2, 0, 1)
    assert int(g.gamma_slot_of(0.0, theta)) == 1
    # the antipodal axis crosses beta_1 at distance pi/20, bit-exact
    _, rec = pr.bob_round(PI, msg, hidden, strategy=pr.NO_FLIP, coin=0.0)
    assert rec.system == "beta"
    assert rec.boundary_index == 1
    assert abs(rec.boundary_angle - 0.95 * PI) <= 1e-12
    assert rec.u == PI / 20
    _report(2, "message triple (2,0,1); second axis meets beta_1 with u = pi/20 exactly")


def test_criterion_03_window_probability():
    value = an.p_equal_interval()
    assert abs(value - P_WINDOW) <= 1e-6
    assert abs(an.p_opposite_equal_closed(PI / 10).p2 - P_WINDOW) <= 1e-6
    assert round(value, 3) == 0.142
    quad = p_opposite_equal_quadrature(PI / 10)
    assert abs(value - quad.p1) <= 1e-8
    assert abs(2 * value - (quad.p1 + quad.p2)) <= 1e-8
    _report(3, f"window probability {value:.6f} (rounds to 0.142), quadrature agrees to 1e-8")


def test_criterion_04_headline_anomaly():
    cfg = hn.ExperimentConfig(
        experiment="opposite-axes", trials=1_000_000, seed=104,
        strategy=pr.NO_FLIP, coin_mode=pr.CoinMode.INDEPENDENT, nu_grid=(PI / 10,),
    )
    row = hn.run_experiment(cfg).rows[0]
    assert row["estimate"] >= 0.284 - 0.005
    # the raw rate runs well above the window-only value; the flags column
    # must attribute the excess to shared angles outside the two windows
    if row["estimate"] > 0.289:
        assert "exceeds-closed-form-4se" in row["flags"]
        assert "outside-windows-excess=" in row["flags"]
        in_win = float(row["flags"].split("in-windows-estimate=")[1].split(";")[0])
        assert abs(in_win - P_TOTAL_MAX) <= max(4 * row["stderr"], 0.005)
    est, _ = hn.conditioned_two_bob_estimate(PI / 10, 0.35 * PI, 100_000, 1004)
    assert abs(est - P_CROSS_SMALL) <= 0.01
    _report(4, f"equal-output rate {row['estimate']:.4f} >= 0.279, conditioned diagnostic {est:.4f} ~ 0.8526")


def test_criterion_05_nu_curve():
    point = an.p_opposite_equal_closed(PI / 10)
    assert abs(point.p_total - P_TOTAL_MAX) <= 1e-6
    extrema = an.find_extrema_of_nu_curve()
    assert abs(extrema.nu_max - PI / 10) <= 1e-6
    for nu in np.linspace(0.0, an.NU_MAX, 200):
        left = an.p_opposite_equal_closed(float(nu)).p_total
        right = an.p_opposite_equal_closed(float(an.NU_MAX - nu)).p_total
        assert abs(left - right) <= 1e-12
    record = an.curve_minimum_discrepancy()
    assert record.reported_value == 0.071
    assert abs(record.formula_value - P_TOTAL_END) <= 1e-6
    assert not record.agrees
    # Monte Carlo arbitration at the endpoint: the in-window rate lands on
    # the formula value, nowhere near the reported minimum
    cfg = hn.ExperimentConfig(
        experiment="opposite-axes", trials=1_000_000, seed=105, nu_grid=(0.0,),
    )
    row = hn.run_experiment(cfg).rows[0]
    in_win = float(row["flags"].split("in-windows-estimate=")[1].split(";")[0])
    assert abs(in_win - P_TOTAL_END) <= 0.005
    assert abs(in_win - 0.071) > 0.1
    _report(5, f"total {point.p_total:.6f} at the peak, argmax pi/10, endpoint arbitration {in_win:.4f} ~ 0.2378")


def test_criterion_06_visibility():
    rep = an.visibility_report(0.99, PI / 10)
    assert abs(rep.p_effective - P_EFF_99) <= 1e-4
    assert round(rep.p_effective, 3) in (0.277, 0.278, 0.279)
    vth = an.visibility_threshold(PI / 10)
    assert abs(vth - V_TH_MAX) <= 1e-12  # the exact algebraic root
    assert abs(vth - 0.53962) <= 1e-5
    assert abs(vth - 0.5399) <= 0.005
    assert an.visibility_report(vth, PI / 10).p_peff_total == 0.0
    _report(6, f"p_effective(0.99) = {rep.p_effective:.4f}, threshold {vth:.5f}, overlap vanishes exactly at it")


def test_criterion_07_per_theta_audit():
    thetas = np.linspace(0.3 * PI, 0.5 * PI, 21)
    rows = an.per_theta_consistency_audit(PI / 2, 0.0, thetas, pr.NO_FLIP)
    assert all(r.violation for r in rows)
    for i, row in enumerate(rows):
        mc_fwd, se_fwd = hn.conditioned_pair_estimate(PI / 2, 0.0, row.theta, 100_000, 1070 + i)
        mc_rev, se_rev = hn.conditioned_pair_estimate(PI / 2, PI, row.theta, 100_000, 2070 + i)
        mc_anti = 1.0 - mc_rev
        assert abs(mc_fwd - row.p_same_forward) <= 4 * se_fwd + 1e-12
        assert abs(mc_anti - row.p_anti_reversed) <= 4 * se_rev + 1e-12
    _report(7, f"all {len(rows)} grid points flagged; conditioned replays match both conditionals within 4 SE")


#: black-box rounds per pair in criterion 8 (the scalar path runs a few thousand rounds per second)
NBCT_ROUNDS = 2000


def _nbct_table(a: float, b: float, rounds: int, seed: int, strategy) -> np.ndarray:
    """2x2 joint outcome counts of seeded black-box rounds, laid out as ``joint_outcome_table``."""
    rng = np.random.default_rng(seed)
    table = np.zeros((2, 2), dtype=np.int64)
    for _ in range(rounds):
        c_a, c_b = pr.nbct_trial(a, b, rng, strategy)
        table[int(c_a < 0), int(c_b < 0)] += 1
    return table


def test_criterion_08_black_box_equivalence():
    # ten fixed pairs covering small, medium, wraparound and reflected
    # separations; the kernel's segment-table path against black-box
    # rounds played through Alice's message and Bob's scalar procedure.
    # Seeds fixed so the 1%-level test is deterministic. The same pairs are
    # replayed draw for draw, bit for bit, in tests/test_slot_rule.py.
    pairs = [
        (0.0, 0.3), (0.2, 1.1), (1.0, 2.4), (0.5, 3.0), (2.0, 5.9),
        (PI / 5, 9 * PI / 10), (0.0, PI / 2), (1.9 * PI, 0.1 * PI),
        (0.7 * PI, 1.6 * PI), (0.3, 4.4),
    ]
    worst_p = 1.0
    for i, (a, b) in enumerate(pairs):
        kernel = hn.joint_outcome_table(a, b, 1_000_000, 11000 + i, pr.CYCLIC_FLIP)
        nbct = _nbct_table(a, b, NBCT_ROUNDS, 11500 + i, pr.CYCLIC_FLIP)
        contingency = np.vstack([kernel.ravel(), nbct.ravel()])
        contingency = contingency[:, contingency.sum(axis=0) > 0]  # deterministic pairs empty some cells
        _, p_value, _, _ = stats.chi2_contingency(contingency)
        worst_p = min(worst_p, p_value)
        assert p_value >= 0.01
    _report(8, f"kernel joint tables match {NBCT_ROUNDS}-round black-box tables over 10 pairs "
               f"(smallest p-value {worst_p:.3f})")


def test_criterion_09_remedy_analysis():
    # a shared coin under the cyclic reflection negates exactly: no equal
    # outputs in a million rounds
    est_shared, _ = hn.conditioned_two_bob_estimate(
        PI / 10, 0.45 * PI, 1_000_000, 109, pr.CYCLIC_FLIP, pr.CoinMode.SHARED,
    )
    assert est_shared == 0.0
    cfg = hn.ExperimentConfig(
        experiment="remedy", trials=1_000_000, seed=209, nu_grid=(PI / 10,),
    )
    shared_row = next(
        r for r in hn.run_experiment(cfg).rows
        if r["flip_rule"] == "cyclic-distance" and r["coin_mode"] == "shared"
    )
    assert shared_row["estimate"] == 0.0

    # independent coins re-roll the replayed branch: 2p(1-p) where the branch
    # probability is 0.8526, which happens at theta = 0.45*pi (at 0.35*pi the
    # branch is deterministic, forcing exactly zero)
    est_ind, _ = hn.conditioned_two_bob_estimate(
        PI / 10, 0.45 * PI, 1_000_000, 309, pr.CYCLIC_FLIP, pr.CoinMode.INDEPENDENT,
    )
    expected = 2 * P_CROSS_SMALL * (1 - P_CROSS_SMALL)
    assert abs(est_ind - expected) <= 0.01
    assert abs(est_ind - 0.2513) <= 0.01
    est_det, _ = hn.conditioned_two_bob_estimate(
        PI / 10, 0.35 * PI, 200_000, 409, pr.CYCLIC_FLIP, pr.CoinMode.INDEPENDENT,
    )
    assert est_det == 0.0

    # the no-reflection baseline reproduces the headline anomaly
    base_cfg = hn.ExperimentConfig(
        experiment="opposite-axes", trials=1_000_000, seed=509, nu_grid=(PI / 10,),
    )
    base = hn.run_experiment(base_cfg).rows[0]
    assert base["estimate"] >= 0.284 - 0.005
    _report(9, f"shared coin kills the anomaly (0 events), independent coins give {est_ind:.4f} ~ 0.2514")


def test_criterion_10_reproducibility(tmp_path):
    for fmt in ("csv", "json"):
        outputs = []
        for run in (1, 2):
            cfg = hn.ExperimentConfig(
                experiment="opposite-axes", trials=300_000, seed=110, nu_grid=(0.0, PI / 20, PI / 10),
            )
            table = hn.run_experiment(cfg)
            path = tmp_path / f"{fmt}-{run}.{fmt}"
            hn.emit(table, fmt, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
    _report(10, "two runs of one config emit byte-identical csv and json for the same seed")
