"""coarraylab: sparse-array design and sum-difference co-array DOA toolkit.

Covers geometry generation for the augmented-ULA family, exact co-array
analytics (uDOFs, holes, weights, spatial efficiency), banded mutual-coupling
leakage, snapshot simulation for strictly non-circular sources, co-array
MUSIC with spatial smoothing, and brute-force verification of the closed-form
claims.
"""

from .coarray import (
    CoarrayReport,
    coarray_report,
    contiguous_stats,
    difference_set,
    holes,
    spatial_efficiency,
    sum_difference_coarray,
    sum_set,
    weight_table,
)
from .coupling import (
    CouplingModel,
    coupling_leakage,
    coupling_matrix,
)
from .estimation import (
    EstimationResult,
    MonteCarloResult,
    MusicConfig,
    estimate_doas,
    monte_carlo,
    music_spectrum,
    pick_peaks,
    rmse,
    signal_subspace,
)
from .geometry import (
    AulasParams,
    DesignError,
    SensorArray,
    design,
    design_aulas,
    design_cotsaulas,
    design_nested,
    design_saulas,
    design_tsaulas,
    design_ula,
    from_positions,
    inbuilt_shared_locations,
)
from .signal import (
    ExtendedCovariance,
    LagPlan,
    Scenario,
    VirtualObservation,
    extended_covariance,
    lag_plan,
    simulate_snapshots,
    steering_matrix,
    virtual_observation,
)
from .verify import (
    LemmaReport,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_weights,
    run_all,
    shift_study,
)

__version__ = "0.1.0"

__all__ = [
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
