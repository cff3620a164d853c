"""Joint extrinsic/intrinsic calibration of magnetometers against a
LiDAR-referenced Gaussian-process magnetic field map, plus the synthetic
world and evaluation harness used to verify it."""

from .extrinsic import (
    CalibrationConfig,
    CalibrationError,
    CalibrationInput,
    CalibrationResult,
    NonConvergenceError,
    calibrate,
    classify_success,
    gauss_newton_step,
    jacobian,
    residual,
)
from .geometry import (
    Dataset,
    Fingerprint,
    FrameError,
    Pose,
    rotate_field,
)
from .intrinsic import (
    AffineDistortion,
    RegressionError,
    RegressionProblem,
    SolverDiagnostics,
    compensate,
    compensate_many,
    select_lambda,
    solve_ols,
    solve_rrtls,
    solve_tls,
    solve_wrrtls,
    weights_from_variance,
)
from .magmap import (
    BilinearMap,
    FieldQuery,
    GpHyperparams,
    MagMap,
    MapError,
    OutOfMapError,
    build_map,
)
from .metrics import (
    MetricsReport,
    metric_bias,
    metric_distortion,
    metric_reading_error,
    metric_translation,
    score_result,
    sensor_frame_prediction,
)
from .simulator import (
    Box,
    Dipole,
    PathSpec,
    SensorRig,
    WorldConfig,
    field_at,
    field_at_many,
    generate_path,
    random_distortion,
    sample_dataset,
    survey_dataset,
    survey_positions,
)
from .sweeps import (
    SweepSpec,
    default_path_specs,
    run_ablation,
    run_success_sweep,
    run_table1_sweep,
    run_two_map_workflow,
)

__version__ = "0.1.0"
