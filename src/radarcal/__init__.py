"""Extrinsic calibration of a 2D radar pair from per-scan ego-velocities.

Two radars rigidly mounted on one platform each measure only ranges,
azimuths and Doppler range rates of static surroundings.  This package
estimates each radar's instantaneous ego-velocity, pairs the two streams in
time, and solves for the mounting yaw between the radars together with the
direction of the baseline connecting them; the baseline length is
unobservable from velocities alone and can be restored afterwards from any
external angular-rate source.

Typical flow::

    from radarcal import (
        RansacConfig, load_scans, estimate_stream, synchronize, filter_pairs,
        solve_lm,
    )

    streams = load_scans("scans.txt")
    est_a = estimate_stream(streams["a"], RansacConfig())
    est_b = estimate_stream(streams["b"], RansacConfig())
    pairs = filter_pairs(synchronize(est_a, est_b))
    report = solve_lm(pairs)
    print(report.extrinsics)
"""

from .calib_solver import (
    CalibrationReport,
    ExcitationVerdict,
    Extrinsics,
    MeasurementPairs,
    SolverOptions,
    assess_excitation,
    fused_ego_velocities,
    init_motion_states,
    init_rotation,
    init_translation_axis,
    solve_lm,
    velocity_error_metric,
)
from .ego_velocity import (
    EgoVelocityEstimate,
    RadarScan,
    RansacConfig,
    build_lsq,
    ransac_ego_velocity,
    solve_ego_velocity,
)
from .errors import (
    CalibrationError,
    DegenerateGeometryError,
    EmptyInputError,
    InsufficientDataError,
    InsufficientExcitationError,
    InvalidArgumentError,
    InvalidWeightError,
    NoConsensusError,
    ParseError,
    UnidentifiableError,
)
from .identifiability import (
    ExcitationReport,
    ExcitationThresholds,
    excitation_report,
    observability_det,
)
from .pipeline_io import (
    PipelineConfig,
    estimate_stream,
    filter_pairs,
    load_config,
    load_pairs,
    load_scans,
    load_truth,
    read_report,
    save_config,
    save_pairs,
    save_scans,
    save_truth,
    synchronize,
    write_report,
)
from .scale_recovery import (
    AngularRateSeries,
    ScaleResult,
    recover_scale,
    smooth_angular_rate_from_poses,
)
from .simulator import (
    GroundTruth,
    NoiseSpec,
    SimulatedScans,
    TrajectoryProfile,
    generate_trajectory,
    sample_landmarks,
    simulate_pairs,
    simulate_scans,
)

__version__ = "0.1.0"

__all__ = [
    "AngularRateSeries",
    "CalibrationError",
    "CalibrationReport",
    "DegenerateGeometryError",
    "EgoVelocityEstimate",
    "EmptyInputError",
    "ExcitationReport",
    "ExcitationThresholds",
    "ExcitationVerdict",
    "Extrinsics",
    "GroundTruth",
    "InsufficientDataError",
    "InsufficientExcitationError",
    "InvalidArgumentError",
    "InvalidWeightError",
    "MeasurementPairs",
    "NoConsensusError",
    "NoiseSpec",
    "ParseError",
    "PipelineConfig",
    "RadarScan",
    "RansacConfig",
    "ScaleResult",
    "SimulatedScans",
    "SolverOptions",
    "TrajectoryProfile",
    "UnidentifiableError",
    "assess_excitation",
    "build_lsq",
    "estimate_stream",
    "excitation_report",
    "filter_pairs",
    "fused_ego_velocities",
    "generate_trajectory",
    "init_motion_states",
    "init_rotation",
    "init_translation_axis",
    "load_config",
    "load_pairs",
    "load_scans",
    "load_truth",
    "observability_det",
    "ransac_ego_velocity",
    "read_report",
    "recover_scale",
    "sample_landmarks",
    "save_config",
    "save_pairs",
    "save_scans",
    "save_truth",
    "simulate_pairs",
    "simulate_scans",
    "smooth_angular_rate_from_poses",
    "solve_ego_velocity",
    "solve_lm",
    "synchronize",
    "velocity_error_metric",
    "write_report",
]
