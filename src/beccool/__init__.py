"""Deterministic closed-loop simulator and analysis library for multimode
feedback cooling of the collective modes of a trapped Bose-Einstein
condensate: plant dynamics, shadowgraph imaging, the real-time estimation
pipeline, derivative control, and phonon-occupancy accounting."""

from .analysis import (
    FitResult,
    a_ho,
    ballistic_ensemble,
    bias_correct,
    ensemble_stats,
    fit_shadowgraph,
    measurement_bias,
    phonon_occupancy,
    sigma_from_bias,
    tof_variance,
)
from .constants import HBAR, RB87_MASS
from .controller import (
    CalibrationError,
    ControllerConfig,
    DerivativeController,
    calibrate_gains,
    loop_gain,
    nominal_gain_matrix,
)
from .estimator import (
    EstimatorConfig,
    InSituEstimator,
    LowPass,
    MeasurementVector,
    RegionMask,
    density_estimate,
    extract_moments,
    nonlinear_filter,
)
from .harness import (
    ExperimentConfig,
    LoopConfig,
    NoiseConfig,
    RunRecord,
    Scenario,
    config_hash,
    load_config,
    measure_pipeline_noise,
    monte_carlo,
    run_experiment,
    save_config,
    summarize_run,
)
from .optics import (
    FrameRenderer,
    GridSpec,
    ImageGrid,
    OpticsParams,
    PhaseParams,
    add_shot_noise,
    fresnel_image,
    linearized_image,
    make_reference,
    read_ascii_grid,
    tf_phase,
    write_ascii_grid,
    write_pgm16,
)
from .plant import (
    DelayLine,
    PlantState,
    TrapConfig,
    dipole_kick,
    equilibrium_state,
    mode_energies,
    nominal_transfer_matrix,
    perturb_transfer_matrix,
    quadrupole_drive,
    step,
)

__version__ = "0.1.0"
