"""Simulation laboratory for the slot-message model of Bell-pair correlations.

The package splits into five layers:

* :mod:`bctsim.geometry` -- circle arithmetic and the alpha/beta/gamma slot
  partitions;
* :mod:`bctsim.qm` -- the exact cos^2 predictions every simulation is judged
  against;
* :mod:`bctsim.protocol` -- the round engine: shared randomness, Alice's
  four-bit message, Bob's branch procedure with selectable readings of its
  ambiguous reflection step, the black-box repackaging, and the two-Bob probe
  that evaluates antipodal axes against one message;
* :mod:`bctsim.analysis` -- closed forms for the equal-output anomaly and
  its exact full-range rate, the per-theta conservation-law audit, and the
  visibility arithmetic;
* :mod:`bctsim.harness` -- seeded Monte Carlo sweeps with CSV/JSON
  emission, driven programmatically or through the ``bctsim`` command line
  (:mod:`bctsim.cli`).
"""

from .analysis import (
    ConsistencyRow,
    ExtremaResult,
    MinimumDiscrepancy,
    NuCurvePoint,
    VisibilityReport,
    alice_setting,
    curve_minimum_discrepancy,
    find_extrema_of_nu_curve,
    interval_windows,
    p_equal_interval,
    p_opposite_equal_closed,
    p_opposite_equal_compact,
    per_theta_consistency_audit,
    two_bob_equal_given_theta,
    two_bob_equal_quadrature,
    visibility_report,
    visibility_threshold,
)
from .geometry import (
    ALPHA_WIDTH,
    THETA_SPAN,
    alpha_slot_cyclic_difference,
    arc_distance,
    cell_index,
    normalize_angle,
)
from .harness import (
    VERSION,
    ConfigError,
    EmitError,
    ExperimentConfig,
    SweepTable,
    conditioned_pair_estimate,
    conditioned_two_bob_estimate,
    emit,
    joint_outcome_table,
    read_csv_table,
    run_experiment,
)
from .protocol import (
    ABS_FLIP,
    CYCLIC_FLIP,
    NO_FLIP,
    CoinMode,
    FlipRule,
    FlipSemantics,
    HiddenState,
    ProtocolError,
    SlotMessage,
    Strategy,
    TrialRecord,
    TwoBobResult,
    alice_round,
    bct_trial,
    bob_round,
    draw_hidden,
    nbct_trial,
    p_equal_given_theta,
    replay_bob,
    two_bob_trial,
)
from .qm import flip_covariance_check, prob_equal, sample

__version__ = VERSION
