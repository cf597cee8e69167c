"""Joint pose/contact/force trajectory estimation for planar pushing.

Factor-graph MAP smoothing over object pose, end-effector pose, contact
point, and applied force, with a quasi-static limit-surface pushing
simulator as ground-truth generator and physics oracle.
"""

from .geometry import PlanarPose, Plane3, Pose3, Shape2D
from .factors import NoiseModel
from .pushsim import GroundTruthTrajectory, PushParams, limit_surface_constants, simulate_push
from .dataio import (
    MeasuredTrajectory,
    Metrics,
    NoiseSpec,
    TrajectoryArrays,
    apply_occlusion,
    compute_metrics,
    from_ground_truth,
    inject_noise,
    load_trajectory,
    save_trajectory,
)
from .graphcore import (
    FactorGraph,
    FixedLagSmoother,
    GaussNewtonOptions,
    GraphConfig,
    GraphModel,
    SolveReport,
    build_graph,
    gauss_newton,
    marginal_covariances,
    solve_batch,
    solve_incremental,
    values_to_arrays,
)

__all__ = [
    "PlanarPose", "Plane3", "Pose3", "Shape2D",
    "NoiseModel",
    "GroundTruthTrajectory", "PushParams", "limit_surface_constants", "simulate_push",
    "MeasuredTrajectory", "Metrics", "NoiseSpec", "TrajectoryArrays",
    "apply_occlusion", "compute_metrics", "from_ground_truth", "inject_noise",
    "load_trajectory", "save_trajectory",
    "FactorGraph", "FixedLagSmoother", "GaussNewtonOptions", "GraphConfig",
    "GraphModel", "SolveReport", "build_graph", "gauss_newton",
    "marginal_covariances", "solve_batch", "solve_incremental", "values_to_arrays",
]

__version__ = "0.1.0"
