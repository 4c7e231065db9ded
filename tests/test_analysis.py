import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bctsim import analysis as an
from bctsim import harness as hn
from bctsim import protocol as pr
from bctsim.geometry import THETA_SPAN
from quad_oracle import (
    p_opposite_equal_quadrature,
    two_bob_equal_reference,
    visibility_threshold_by_rootfind,
    window_integral,
)

PI = math.pi

# Frozen expected values, computed once with the independent quadrature
# oracles of tests/quad_oracle.py (and 30-digit arithmetic as a tie-breaker);
# the closed forms must land on them.
P_WINDOW = 0.1421949248142434  # (5/3pi) * int_0^{pi/10} (1 - (3pi/10) sin u) du
P_TOTAL_MAX = 0.2843898496284869  # total at nu = pi/10
P_TOTAL_END = 0.2378418305208070  # total at nu in {0, pi/5}
V_TH_MAX = 0.5396160327593464  # threshold at nu = pi/10
V_TH_END = 0.5835921350012618  # threshold at nu = 0
P_EFF_99 = 0.2787304916208800  # 0.99^2 * total at nu = pi/10
P_CROSS_SMALL = 0.8525639901584084  # 1 - (3pi/10) sin(pi/20)
# full-range equal rate at nu = pi/10, in closed form:
# 3*pi^2*(sqrt5 - 1)/200 + (3*pi/80)*((1 + sqrt5)*sin(2*pi/5) + (sqrt5 - 1)*sin(pi/5)) = 0.631167353972896592...
TWO_BOB_TOTAL_MAX = (3 * PI**2 * (math.sqrt(5) - 1) / 200
                     + (3 * PI / 80) * ((1 + math.sqrt(5)) * math.sin(2 * PI / 5)
                                        + (math.sqrt(5) - 1) * math.sin(PI / 5)))


class TestWindowProbability:
    def test_both_windows_give_frozen_value(self):
        assert an.p_equal_interval() == pytest.approx(P_WINDOW, abs=1e-12)
        assert an.p_opposite_equal_closed(PI / 10).p2 == pytest.approx(P_WINDOW, abs=1e-12)

    def test_against_independent_quadrature(self):
        assert abs(an.p_equal_interval() - window_integral(PI / 10)) < 1e-10

    def test_rounds_to_published_three_decimals(self):
        assert round(an.p_equal_interval(), 3) == 0.142
        assert round(2 * an.p_equal_interval(), 3) == 0.284

    def test_identity_with_curve_component(self):
        # the same integral appears as the first window component at nu = pi/10
        assert an.p_equal_interval() == an.p_opposite_equal_closed(PI / 10).p1


class TestNuCurve:
    def test_components_at_maximum(self):
        point = an.p_opposite_equal_closed(PI / 10)
        assert point.p1 == pytest.approx(P_WINDOW, abs=1e-12)
        assert point.p2 == pytest.approx(P_WINDOW, abs=1e-12)
        assert point.p_total == pytest.approx(P_TOTAL_MAX, abs=1e-12)

    def test_total_is_sum_of_components(self):
        for nu in np.linspace(0, an.NU_MAX, 50):
            point = an.p_opposite_equal_closed(float(nu))
            assert point.p_total == point.p1 + point.p2
            assert 0.0 <= point.p1 <= 1.0
            assert 0.0 <= point.p2 <= 1.0
            assert 0.0 <= point.p_total <= 1.0

    def test_compact_form_matches_component_sum(self):
        for nu in np.linspace(0, an.NU_MAX, 200):
            point = an.p_opposite_equal_closed(float(nu))
            assert abs(point.p_total - an.p_opposite_equal_compact(float(nu))) < 1e-12

    def test_second_window_vanishes_at_zero(self):
        assert an.p_opposite_equal_closed(0.0).p2 == 0.0
        assert an.p_opposite_equal_closed(0.0).p_total == pytest.approx(P_TOTAL_END, abs=1e-12)

    def test_first_window_vanishes_at_endpoint(self):
        assert p_opposite_equal_quadrature(an.NU_MAX).p1 == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        for bad in (-0.01, an.NU_MAX + 0.01):
            with pytest.raises(ValueError):
                an.p_opposite_equal_closed(bad)
            with pytest.raises(ValueError):
                p_opposite_equal_quadrature(bad)

    def test_quadrature_agrees_with_closed_form(self):
        for nu in np.linspace(0, an.NU_MAX, 200):
            closed = an.p_opposite_equal_closed(float(nu))
            quad = p_opposite_equal_quadrature(float(nu))
            assert abs(closed.p1 - quad.p1) < 1e-8
            assert abs(closed.p2 - quad.p2) < 1e-8
            assert abs(closed.p_total - quad.p_total) < 1e-8

    def test_symmetric_about_midpoint(self):
        for nu in np.linspace(0, an.NU_MAX, 200):
            left = an.p_opposite_equal_closed(float(nu)).p_total
            right = an.p_opposite_equal_closed(float(an.NU_MAX - nu)).p_total
            assert abs(left - right) < 1e-12

    def test_extrema(self):
        res = an.find_extrema_of_nu_curve()
        assert res.nu_max == an.NU_MAX / 2
        assert res.nu_max == pytest.approx(PI / 10, abs=1e-6)
        assert res.p_max == pytest.approx(P_TOTAL_MAX, abs=1e-12)
        assert res.p_min == pytest.approx(P_TOTAL_END, abs=1e-12)
        assert {round(v, 9) for v in res.nu_min_candidates} == {0.0, round(an.NU_MAX, 9)}

    def test_reported_minimum_disagrees_with_formula(self):
        rec = an.curve_minimum_discrepancy()
        assert rec.reported_value == 0.071
        assert rec.formula_value == pytest.approx(P_TOTAL_END, abs=1e-12)
        assert not rec.agrees
        assert rec.gap == pytest.approx(P_TOTAL_END - 0.071, abs=1e-12)


class TestTwoBobTotals:
    def test_window_restricted_quadrature_reproduces_closed_form(self):
        for nu in (0.0, PI / 20, PI / 10, an.NU_MAX):
            closed = an.p_opposite_equal_closed(nu).p_total
            restricted = two_bob_equal_reference(nu, windows_only=True)
            assert abs(closed - restricted) < 1e-9

    @pytest.mark.parametrize("coin_mode", list(pr.CoinMode))
    @pytest.mark.parametrize("label, strategy", hn.CALIBRATION_VARIANTS)
    def test_exact_sum_matches_adaptive_quadrature(self, label, strategy, coin_mode):
        for nu in np.linspace(0.0, an.NU_MAX, 21):
            exact = an.two_bob_equal_quadrature(float(nu), strategy, coin_mode)
            reference = two_bob_equal_reference(float(nu), strategy, coin_mode)
            assert abs(exact - reference) < 1e-12, (label, coin_mode, float(nu))

    def test_a_coin_mode_string_gives_its_members_values(self):
        """``"independent"`` is read as ``CoinMode.INDEPENDENT``, not taken for the shared coin; a bad one raises."""
        theta = np.linspace(0.0, 1.8, 7)
        for coin_mode in pr.CoinMode:
            exact = an.two_bob_equal_quadrature(PI / 10, pr.NO_FLIP, coin_mode)
            assert an.two_bob_equal_quadrature(PI / 10, pr.NO_FLIP, coin_mode.value) == exact
            member, string = (an.two_bob_equal_given_theta(PI / 10, theta, pr.CYCLIC_FLIP, mode)
                              for mode in (coin_mode, coin_mode.value))
            assert string.tolist() == member.tolist()
        assert an.two_bob_equal_quadrature(PI / 10, pr.NO_FLIP, "independent") == pytest.approx(0.63117, abs=1e-5)
        assert an.two_bob_equal_quadrature(PI / 10, pr.NO_FLIP, "shared") == pytest.approx(0.72654, abs=1e-5)
        with pytest.raises(ValueError, match="bogus"):
            an.two_bob_equal_quadrature(PI / 10, pr.NO_FLIP, "bogus")
        with pytest.raises(ValueError, match="bogus"):
            an.two_bob_equal_given_theta(PI / 10, theta, pr.NO_FLIP, "bogus")

    def test_full_range_exceeds_window_value(self):
        total = an.two_bob_equal_quadrature(PI / 10)
        assert abs(total - TWO_BOB_TOTAL_MAX) <= math.ulp(TWO_BOB_TOTAL_MAX)
        assert total > an.p_opposite_equal_closed(PI / 10).p_total + 0.3

    def test_shared_coin_with_cyclic_flip_gives_zero_everywhere(self):
        grid = np.linspace(0, an.NU_MAX, 5)
        for nu in grid:
            per_theta = an.two_bob_equal_given_theta(
                float(nu),
                np.linspace(0, 3 * PI / 5, 500, endpoint=False),
                pr.CYCLIC_FLIP,
                pr.CoinMode.SHARED,
            )
            assert np.max(np.abs(per_theta)) < 1e-15

    def test_conditioned_value_at_first_window(self):
        got = an.two_bob_equal_given_theta(PI / 10, 0.35 * PI)
        assert got == pytest.approx(P_CROSS_SMALL, abs=1e-15)

    def test_conditioned_remedy_value_at_second_window(self):
        # with the flip active both axes roll the same branch's coin, so the
        # equal rate is 2p(1-p) with p the branch acceptance probability
        p = P_CROSS_SMALL
        got = an.two_bob_equal_given_theta(PI / 10, 0.45 * PI, pr.CYCLIC_FLIP, pr.CoinMode.INDEPENDENT)
        assert got == pytest.approx(2 * p * (1 - p), abs=1e-12)

    def test_conditioned_remedy_value_at_first_window_is_zero(self):
        # the shared branch is deterministic at this angle, so independent
        # coins cannot produce equal outputs either
        got = an.two_bob_equal_given_theta(PI / 10, 0.35 * PI, pr.CYCLIC_FLIP, pr.CoinMode.INDEPENDENT)
        assert got == 0.0

    @pytest.mark.parametrize("theta", [math.nan, -0.1, THETA_SPAN, np.array([0.1, 7.0, 0.2])])
    def test_conditioned_value_rejects_theta_outside_the_range(self, theta):
        """Like ``p_equal_given_theta``, a NaN or out-of-range theta raises, alone or inside an array."""
        with pytest.raises(pr.ProtocolError):
            an.two_bob_equal_given_theta(PI / 10, theta)
        with pytest.raises(pr.ProtocolError):
            pr.p_equal_given_theta(an.alice_setting(PI / 10), PI, theta)


class TestConsistencyAudit:
    def test_first_window_row(self):
        rows = an.per_theta_consistency_audit(PI / 2, 0.0, [0.35 * PI], pr.NO_FLIP)
        (row,) = rows
        assert row.p_same_forward == 1.0
        assert row.p_same_reversed == pytest.approx(P_CROSS_SMALL, abs=1e-15)
        assert row.p_anti_reversed == pytest.approx(1 - P_CROSS_SMALL, abs=1e-15)
        assert row.violation

    def test_second_window_row(self):
        rows = an.per_theta_consistency_audit(PI / 2, 0.0, [0.45 * PI], pr.NO_FLIP)
        (row,) = rows
        assert row.p_same_forward == pytest.approx(P_CROSS_SMALL, abs=1e-15)
        assert row.p_same_reversed == 1.0
        assert row.p_anti_reversed == 0.0
        assert row.violation

    def test_parallel_settings_with_flip_satisfy_law(self):
        rows = an.per_theta_consistency_audit(0.0, 0.0, [0.1 * PI], pr.CYCLIC_FLIP)
        (row,) = rows
        assert row.p_same_forward == 1.0
        assert row.p_anti_reversed == 1.0
        assert not row.violation

    def test_whole_window_span_is_flagged_without_flip(self):
        grid = np.linspace(0.3 * PI, 0.5 * PI, 41)
        rows = an.per_theta_consistency_audit(PI / 2, 0.0, grid, pr.NO_FLIP)
        assert all(r.violation for r in rows)

    def test_cyclic_flip_restores_law_on_the_same_span(self):
        grid = np.linspace(0.3 * PI, 0.5 * PI, 41)
        rows = an.per_theta_consistency_audit(PI / 2, 0.0, grid, pr.CYCLIC_FLIP)
        assert not any(r.violation for r in rows)

    def test_grid_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            an.per_theta_consistency_audit(0.0, 0.0, [3 * PI / 5], pr.NO_FLIP)

    def test_an_array_a_list_a_tuple_and_a_generator_give_equal_rows_and_the_same_error(self):
        grid = np.random.default_rng(2293).uniform(0.0, THETA_SPAN, 64)

        def forms(g):
            return [g, g.tolist(), tuple(g.tolist()), (t for t in g.tolist())]

        rows = [an.per_theta_consistency_audit(PI / 2, 0.0, g, pr.NO_FLIP) for g in forms(grid)]
        assert len(rows[0]) == len(grid) and all(r == rows[0] for r in rows)
        assert [[type(v) for v in vars(row).values()] for r in rows for row in r] == \
            [[float, float, float, float, bool]] * (4 * len(grid))
        errors = set()
        for g in forms(np.append(grid, THETA_SPAN)):
            with pytest.raises(pr.ProtocolError) as info:
                an.per_theta_consistency_audit(PI / 2, 0.0, g, pr.NO_FLIP)
            errors.add(str(info.value))
        assert len(errors) == 1

    def test_a_0d_grid_is_one_theta(self):
        """A 0-d array grid gives the one row that a one-element list gives."""
        rows = an.per_theta_consistency_audit(PI / 2, 0.0, np.array(0.5), pr.NO_FLIP)
        assert rows == an.per_theta_consistency_audit(PI / 2, 0.0, [0.5], pr.NO_FLIP)
        assert len(rows) == 1 and type(rows[0].theta) is float

    @pytest.mark.parametrize("grid", [np.full((2, 2), 0.5), [[0.5, 0.5], [0.5, 0.5]], np.full((1, 1, 3), 0.5)])
    def test_a_grid_of_two_or_more_dimensions_raises_with_its_shape(self, grid):
        """One row per theta has no reading for a grid of grids, so it raises and names the shape."""
        shape = np.shape(grid)
        with pytest.raises(pr.ProtocolError, match=re.escape(str(shape))):
            an.per_theta_consistency_audit(PI / 2, 0.0, grid, pr.NO_FLIP)

    @pytest.mark.parametrize("label, strategy", hn.CALIBRATION_VARIANTS)
    def test_rows_equal_a_loop_reference_field_for_field_and_type_for_type(self, label, strategy):
        """Rows read through the frame's table equal rows built from ``p_equal_given_theta`` one theta at a time.

        The grid holds 2,048 even points, every edge of the table and the floats on either side of each edge.
        """
        even = np.linspace(0.0, THETA_SPAN, 2048, endpoint=False)
        for nu in (0.0, 0.0571, PI / 10, PI / 5):
            a = an.alice_setting(nu)
            edges = pr.segment_table(a, (an.WALKTHROUGH_B1, an.WALKTHROUGH_B1 + PI), strategy).edges.tolist()
            near = [t for e in edges for t in (math.nextafter(e, 0.0), e, math.nextafter(e, THETA_SPAN))]
            grid = np.concatenate((even, near))
            fwd = pr.p_equal_given_theta(a, an.WALKTHROUGH_B1, grid, strategy)
            rev = pr.p_equal_given_theta(a, an.WALKTHROUGH_B1 + PI, grid, strategy)
            want = [an.ConsistencyRow(float(t), float(f), float(r), float(1.0 - r),
                                      bool(abs(f - (1.0 - r)) > an.AUDIT_TOL)) for t, f, r in zip(grid, fwd, rev)]
            rows = an.per_theta_consistency_audit(a, an.WALKTHROUGH_B1, grid, strategy)
            assert rows == want, (label, nu)
            for row, ref in zip(rows, want):
                assert [type(v) for v in vars(row).values()] == [type(v) for v in vars(ref).values()]
            assert {type(v) for row in rows for v in vars(row).values()} == {float, bool}

    @pytest.mark.parametrize("grid", [[math.nan], np.array([0.5, math.nan]), (t for t in (math.nan, 0.5))])
    def test_a_nan_in_the_grid_raises(self, grid):
        with pytest.raises(pr.ProtocolError, match="theta"):
            an.per_theta_consistency_audit(PI / 2, 0.0, grid, pr.NO_FLIP)

    @pytest.mark.parametrize("grid", [[], (), np.array([]), iter(())])
    @pytest.mark.parametrize("label, strategy", hn.CALIBRATION_VARIANTS)
    def test_an_empty_grid_gives_no_rows(self, grid, label, strategy):
        assert an.per_theta_consistency_audit(PI / 2, 0.0, grid, strategy) == []


class TestVisibility:
    def test_report_near_unit_visibility(self):
        rep = an.visibility_report(0.99, PI / 10)
        assert rep.p_effective == pytest.approx(P_EFF_99, abs=1e-12)

    def test_unit_visibility_reduces_to_ideal(self):
        rep = an.visibility_report(1.0, PI / 10)
        assert rep.p_effective == pytest.approx(P_TOTAL_MAX, abs=1e-12)
        assert rep.p_peff_total == pytest.approx(P_TOTAL_MAX, abs=1e-12)

    def test_half_visibility_clamps_to_zero(self):
        rep = an.visibility_report(0.5, PI / 10)
        assert rep.p_peff_total == 0.0
        assert rep.p_peff1 < 0 or rep.p_peff2 < 0 or rep.p_peff1 + rep.p_peff2 < 0

    def test_component_sum_matches_clamp_argument(self):
        for v in (0.6, 0.8, 0.95):
            rep = an.visibility_report(v, PI / 12)
            assert rep.p_peff1 + rep.p_peff2 == pytest.approx(
                v * an.p_opposite_equal_closed(PI / 12).p_total - (1 - v) / 3, abs=1e-12
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            an.visibility_report(1.5, PI / 10)
        with pytest.raises(ValueError):
            an.visibility_report(0.5, -0.1)

    def test_threshold_frozen_values(self):
        assert an.visibility_threshold(PI / 10) == pytest.approx(V_TH_MAX, abs=1e-12)
        assert an.visibility_threshold(0.0) == pytest.approx(V_TH_END, abs=1e-12)

    def test_threshold_matches_rootfind(self):
        for nu in np.linspace(0, an.NU_MAX, 25):
            assert abs(an.visibility_threshold(float(nu)) - visibility_threshold_by_rootfind(float(nu))) < 1e-12

    def test_threshold_zeroes_the_overlap_exactly(self):
        rep = an.visibility_report(an.visibility_threshold(PI / 10), PI / 10)
        assert rep.p_peff_total == 0.0

    def test_threshold_decreases_with_total(self):
        nus = np.linspace(0, PI / 10, 50)  # total increases toward the midpoint
        totals = [an.p_opposite_equal_closed(float(v)).p_total for v in nus]
        thresholds = [an.visibility_threshold(float(v)) for v in nus]
        assert all(t2 > t1 for t1, t2 in zip(totals, totals[1:]))
        assert all(v2 < v1 for v1, v2 in zip(thresholds, thresholds[1:]))


NO_SCIPY_RUN = """
import math, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import bctsim
import bctsim.cli
from bctsim import analysis
assert bctsim.cli.main(["opposite-axes", "--trials", "2000"]) == 0
analysis.two_bob_equal_quadrature(math.pi / 10)
analysis.find_extrema_of_nu_curve()
"""


def test_package_runs_without_scipy():
    # SciPy is a test dependency only: nothing in the package may import it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
