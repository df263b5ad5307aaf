"""Indoor positioning toolkit: simulation, closed-form solvers, and learned regressors."""

from .environment import (
    Anchor,
    Environment,
    Point2D,
    STANDARD_ROOMS,
    jittered_grid,
    load_environment,
    make_environment,
    standard_environment,
    true_aoa,
    true_distance,
)
from .channel import (
    ArraySpec,
    NlosModel,
    PathLossParams,
    SnapshotMatrix,
    expected_rssi,
    simulate_rssi,
    simulate_snapshots,
    steering_matrix,
)
from .plfit import FitResult, fit_path_loss
from .trilat import DistanceVector, PositionEstimate, rssi_to_distance, trilaterate
from .aoa import correlation_matrix, eigendecompose, estimate_aoa, music_spectrum, spatial_spectrum
from .hybrid import hybrid_position
from .neural import (
    CnnModel,
    MlpModel,
    RbfModel,
    TrainResult,
    fit_rbf_output,
    gradient_check,
    make_cnn,
    make_mlp,
    train,
)
from .pipeline import (
    AoaSim,
    Dataset,
    ExperimentConfig,
    NormStats,
    OutlierPolicy,
    evaluate_mae,
    generate_dataset,
    improvement_percent,
    load_config,
    run_experiment,
    split,
)

__version__ = "0.1.0"
