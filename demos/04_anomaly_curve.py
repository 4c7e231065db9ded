"""How the anomaly depends on where Alice points.

Alice's setting ranges over one alpha slot, parametrized by the offset nu in
[0, pi/5] above the slot's lower edge. The window-restricted equal-output
probability is symmetric about nu = pi/10, peaks there at ~0.284, and drops
to ~0.238 at the endpoints. A previously reported endpoint value of 0.071
disagrees with the formula; the discrepancy record keeps both numbers and a
conditioned Monte Carlo arbitrates in favor of the formula.
"""

import math

import numpy as np

from bctsim import analysis as an
from bctsim import harness as hn

PI = math.pi

print("nu/pi     p1        p2        total     compact")
for nu in np.linspace(0.0, an.NU_MAX, 9):
    closed = an.p_opposite_equal_closed(float(nu))
    compact = an.p_opposite_equal_compact(float(nu))
    print(f"{nu/PI:5.3f}   {closed.p1:.6f}  {closed.p2:.6f}  {closed.p_total:.6f}  {compact:.6f}")

extrema = an.find_extrema_of_nu_curve()
print(f"\nmaximum {extrema.p_max:.5f} at nu = {extrema.nu_max/PI:.6f}*pi (exactly 1/10)")
print(f"minimum {extrema.p_min:.5f} at the endpoints {[round(v/PI, 3) for v in extrema.nu_min_candidates]} (in units of pi)")

record = an.curve_minimum_discrepancy()
print(f"\nendpoint discrepancy record: formula {record.formula_value:.5f} vs reported {record.reported_value}")
print(f"gap {record.gap:.5f}; agreement: {record.agrees}")

cfg = hn.ExperimentConfig(experiment="opposite-axes", trials=500_000, seed=44, nu_grid=(0.0,))
row = hn.run_experiment(cfg).rows[0]
in_win = float(row["flags"].split("in-windows-estimate=")[1].split(";")[0])
print(f"Monte Carlo arbitration at nu = 0: in-window rate {in_win:.4f} (formula wins)")
