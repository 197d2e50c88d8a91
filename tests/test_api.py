"""The public API: the names ``coarraylab`` exports, pinned, so that any
name added to or removed from it shows in a diff of this file."""

from __future__ import annotations

import coarraylab

PUBLIC_NAMES = [
    "AulasParams",
    "CoarrayReport",
    "CouplingModel",
    "DesignError",
    "EstimationResult",
    "ExtendedCovariance",
    "LagPlan",
    "LemmaReport",
    "MonteCarloResult",
    "MusicConfig",
    "Scenario",
    "SensorArray",
    "VirtualObservation",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "check_lemma4",
    "check_weights",
    "coarray_report",
    "contiguous_stats",
    "coupling_leakage",
    "coupling_matrix",
    "design",
    "design_aulas",
    "design_cotsaulas",
    "design_nested",
    "design_saulas",
    "design_tsaulas",
    "design_ula",
    "difference_set",
    "estimate_doas",
    "extended_covariance",
    "from_positions",
    "holes",
    "inbuilt_shared_locations",
    "lag_plan",
    "monte_carlo",
    "music_spectrum",
    "pick_peaks",
    "rmse",
    "run_all",
    "shift_study",
    "signal_subspace",
    "simulate_snapshots",
    "spatial_efficiency",
    "steering_matrix",
    "sum_difference_coarray",
    "sum_set",
    "virtual_observation",
    "weight_table",
]


def test_the_public_names_are_pinned_and_resolve():
    assert sorted(coarraylab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(coarraylab, name), name
