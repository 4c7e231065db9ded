"""Is the defect skin-deep? The per-round audit and the candidate fixes.

Averaged over the shared angle, the protocol reproduces the cos^2 law on
both an axis and its reverse. The conservation law is stronger: for every
individual shared angle, the probability of equal outputs along b must equal
the probability of opposite outputs along b + pi. The audit evaluates both
conditionals from the branch logic and flags every angle where they differ.

The obvious fix is to force the reversed axis to output the opposite sign,
which is what the reflection step does when it fires. The remedy table
measures each reading: with a shared coin the reflection negates exactly
(anomaly gone, correlation intact); with independent coins the replayed
branch re-rolls, and equal outputs reappear at rate 2p(1-p).
"""

import math

import numpy as np

from bctsim import analysis as an
from bctsim import harness as hn
from bctsim import protocol as pr

PI = math.pi

print("per-angle audit without the reflection (walkthrough frame, a = pi/2, b = 0):")
print("theta/pi   P(equal | b)   P(opposite | b+pi)   law holds?")
for row in an.per_theta_consistency_audit(PI / 2, 0.0, np.linspace(0.3 * PI, 0.5 * PI, 5), pr.NO_FLIP):
    print(
        f"{row.theta/PI:7.3f}   {row.p_same_forward:12.6f}   {row.p_anti_reversed:18.6f}"
        f"   {'yes' if not row.violation else 'VIOLATED'}"
    )

print("\nsame grid with the cyclic reflection active:")
rows = an.per_theta_consistency_audit(PI / 2, 0.0, np.linspace(0.3 * PI, 0.5 * PI, 5), pr.CYCLIC_FLIP)
print("violations:", sum(r.violation for r in rows), "of", len(rows))

print("\nremedy table at nu = pi/10 (200k trials per row):")
cfg = hn.ExperimentConfig(
    experiment="remedy", trials=200_000, seed=66, nu_grid=(PI / 10,), theta_grid=(0.45 * PI,),
)
table = hn.run_experiment(cfg)
print(f"{'flip rule':20s} {'coins':12s} {'theta':8s} {'P(equal)':>9s} {'corr. damage':>13s}")
for row in table.rows:
    theta = "sampled" if row["theta"] is None else f"{row['theta']/PI:.2f}*pi"
    print(
        f"{row['flip_rule']:20s} {row['coin_mode']:12s} {theta:8s}"
        f" {row['estimate']:9.4f} {row['ab2_deviation']:13.4f}"
    )
print("\nreading the table: only a shared-coin reflection removes equal outputs entirely,")
print("and it does so without damaging the second-axis correlation.")
