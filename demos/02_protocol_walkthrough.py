"""One round of the slot-message protocol, fully opened up.

The frame is the standard two-Bob geometry: Alice at pi/2, Bob's axis at 0,
its reverse at pi, and the shared angle conditioned to 0.35*pi. At that
angle Alice's setting sits in alpha slot 2, beta slot 0, gamma slot 1, so
her four-bit message names that cell. Bob's axis (alpha slot 0) evaluates
against the gamma system and finds itself in Alice's gamma slot: his output
is the shared sign with certainty. The reversed axis (alpha slot 5)
evaluates against beta, lands one slot away from Alice, and must roll the
acceptance coin against 1 - (3*pi/10) sin(pi/20) ~ 0.8526.
"""

import math

import numpy as np

from bctsim import protocol as pr

PI = math.pi
theta = 0.35 * PI

hidden = pr.HiddenState.make(+1, theta)
c_a, msg = pr.alice_round(PI / 2, hidden)
print(f"shared sign c = {hidden.c:+d}, shared angle theta = 0.35*pi")
print(f"Alice output {c_a:+d}; message cell {msg.cell} decoding to slots {msg.triple}")

print("\nBob at 0 (gamma system, same slot as Alice):")
c_b1, rec1 = pr.bob_round(0.0, msg, hidden, strategy=pr.NO_FLIP, coin=0.42)
print(f"  branch {rec1.branch!r}, acceptance probability {rec1.accept_prob}, output {c_b1:+d}")

print("\nBob at pi (beta system, cross-slot branch):")
c_b2, rec2 = pr.bob_round(PI, msg, hidden, strategy=pr.NO_FLIP, coin=0.42)
print(f"  branch {rec2.branch!r}, boundary index {rec2.boundary_index} at {rec2.boundary_angle:.6f}")
print(f"  u = {rec2.u:.6f} (= pi/20), acceptance probability {rec2.accept_prob:.6f}, output {c_b2:+d}")

print("\nWith the cyclic reflection enabled, the reversed axis replays Bob's branch and negates:")
c_b2f, rec2f = pr.bob_round(PI, msg, hidden, strategy=pr.CYCLIC_FLIP, coin=0.42)
print(f"  branch {rec2f.branch!r}, output {c_b2f:+d} (always the opposite of the axis-0 output here)")

print("\nEvery round replays bit-for-bit from its record:")
rng = np.random.default_rng(7)
c_a, c_b, record = pr.bct_trial(1.2, 4.0, rng, pr.CYCLIC_FLIP)
print(f"  sampled round: outputs ({c_a:+d}, {c_b:+d}); replay gives {pr.replay_bob(record):+d}")
print(f"  record as JSON: {record.to_json()[:96]}...")
