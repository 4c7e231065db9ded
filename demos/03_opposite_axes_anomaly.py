"""The headline defect: equal outputs on two opposite axes.

Reversing a measurement axis must flip the outcome, so evaluating Bob's
procedure at b and at b + pi against the same message should always give
opposite signs. It does not. Conditioning the shared angle to the two
windows where one evaluation is deterministic, the equal-output probability
integrates to ~0.142 per window, ~0.284 combined. Sampling the shared angle
freely adds coincidences from outside the windows (both axes rolling coins),
pushing the raw rate to ~0.63; the sweep's flags column splits the two
contributions.
"""

import math

from bctsim import analysis as an
from bctsim import harness as hn
from bctsim import protocol as pr

PI = math.pi
NU = PI / 10  # Alice orthogonal to the axis pair

point = an.p_opposite_equal_closed(NU)
print(f"window components at nu = pi/10: p1 = {point.p1:.5f}, p2 = {point.p2:.5f}")
print(f"combined window value          : {point.p_total:.5f}   (~0.284)")
print(f"full-range expectation         : {an.two_bob_equal_quadrature(NU):.5f}   (independent coins)")

print("\nconditioned diagnostics:")
for theta, label in ((0.35 * PI, "window one"), (0.45 * PI, "window two")):
    p = an.two_bob_equal_given_theta(NU, theta)
    est, se = hn.conditioned_two_bob_estimate(NU, theta, 200_000, seed=1)
    print(f"  theta = {theta/PI:.2f}*pi ({label}): analytic {p:.4f}, sampled {est:.4f} +/- {se:.4f}")

print("\nMonte Carlo sweep row at one million trials:")
cfg = hn.ExperimentConfig(experiment="opposite-axes", trials=1_000_000, seed=33, nu_grid=(NU,))
row = hn.run_experiment(cfg).rows[0]
print(f"  estimate {row['estimate']:.4f} vs closed form {row['closed_form']:.4f}")
print(f"  flags: {row['flags']}")

print("\nthe black-box repackaging shows the same statistics (no message, no shared state exposed):")
import numpy as np

rng = np.random.default_rng(5)
eq = sum(c1 == c2 for c1, c2 in (pr.nbct_trial(an.alice_setting(NU), 0.0, rng) for _ in range(20_000)))
print(f"  equal-output rate with one axis: {eq / 20_000:.3f} (matches the message protocol)")
