"""Excitation verdict: can this motion constrain the extrinsics at all?

The extrinsics are locally observable at a timestep only when the scalar

    det(O) = alpha_gamma * (h_a x t_axis)

is nonzero: the angular acceleration ``alpha_gamma`` (rate of change of the
unscaled turn rate) times the planar cross product of the ego-velocity with
the translation axis.  It vanishes for three motion defects: no angular
acceleration, no ego-velocity, or motion along the axis itself.  This module
classifies every timestep of a dataset against that determinant, raises
coarse flags naming the defect, and gives the one verdict by which
calibration refuses clearly hopeless data instead of returning an arbitrary
answer (:func:`assess_excitation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calib_solver import (
    Extrinsics, MeasurementPairs, SolverOptions, _motion_from_data, _weights, init_rotation,
    init_translation_axis,
)
from .errors import (
    InsufficientDataError, InsufficientExcitationError, InvalidArgumentError, UnidentifiableError,
)
from .geometry import circular_median, median, wrap_axis

FLAG_ZERO_ALPHA = "zero_alpha"
FLAG_ZERO_VELOCITY = "zero_velocity"
FLAG_AXIS_ALIGNED = "axis_aligned_motion"

# The flags' fixed numerics.  ``SPEED_FLOOR`` (m/s) marks a dead velocity or
# turn-rate signal; ``ALPHA_REL_TOL`` and ``ALPHA_ABS_FLOOR`` a vanishing
# angular acceleration; ``ALIGN_TOL`` (sine of the angle) motion along the
# axis.  A flag is raised when at least ``FLAG_FRACTION`` of the timesteps
# show the defect.  ``axis_aligned_motion`` is also raised when the motion
# direction never varies (spread at or below ``ALIGN_TOL``), since motion
# confined to a single line cannot be told apart from the axis.
SPEED_FLOOR = 0.05
ALIGN_TOL = 0.05
ALPHA_REL_TOL = 1e-3
ALPHA_ABS_FLOOR = 1e-9
FLAG_FRACTION = 0.9

# Shortest and longest pair time steps (s).  The finite-difference angular
# acceleration divides by products of two adjacent steps, which underflow to
# zero below about 1e-154 s and overflow above about 9e153 s.
MIN_TIME_STEP = 1e-150
MAX_TIME_STEP = 1e150


@dataclass
class ExcitationThresholds:
    """The degeneracy threshold, relative to the data.

    A timestep is degenerate when ``|det(O)|`` falls at or below
    ``det_rel_tol * median(speed) * max(median(|alpha|), ALPHA_ABS_FLOOR)``;
    the floor keeps the comparison meaningful when the angular acceleration
    is pure roundoff.
    """

    det_rel_tol: float = 1e-3

    def __post_init__(self):
        if not self.det_rel_tol >= 0.0:  # NaN fails too
            raise InvalidArgumentError("det_rel_tol must be >= 0")


@dataclass
class ExcitationReport:
    """Aggregate excitation diagnostics for a dataset."""

    fraction_degenerate: float
    min_abs_det: float
    mean_abs_det: float
    det_threshold: float
    n_samples: int
    flags: list[str] = field(default_factory=list)


def observability_det(h_a, alpha_gamma, theta_t: float):
    """Observability determinant at one timestep or at each of M.

    ``alpha_gamma * (h_a_x * sin(theta_t) - h_a_y * cos(theta_t))``: the
    angular acceleration times the component of the ego-velocity
    perpendicular to the translation axis (positive when the axis is
    counterclockwise of the velocity).  ``h_a`` is one velocity (2,) or a
    stack (M, 2), with ``alpha_gamma`` a scalar or (M,); a float comes back
    when the result is a single value.
    """
    h = np.asarray(h_a, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != 2 or not np.all(np.isfinite(h)):
        raise InvalidArgumentError("h_a must hold finite 2-vectors")
    det = alpha_gamma * (h[..., 0] * math.sin(theta_t) - h[..., 1] * math.cos(theta_t))
    return det if np.ndim(det) else float(det)


def excitation_report(
    pairs: MeasurementPairs,
    extrinsics_guess: Extrinsics,
    thresholds: ExcitationThresholds | None = None,
) -> ExcitationReport:
    """Classify every timestep of a dataset and aggregate the verdicts.

    Motion states come from the closed-form per-timestep fit at the guessed
    extrinsics, with the solver's weights (covariances floored by ``COV_FLOOR``);
    the angular acceleration is their central finite difference (one-sided
    at the ends).  Needs at least three pairs, with strictly increasing
    timestamps whose steps lie within ``[MIN_TIME_STEP, MAX_TIME_STEP]``.
    """
    return _excitation_report(pairs, _weights(pairs), extrinsics_guess, thresholds)[0]


def _check_time_steps(t: np.ndarray) -> None:
    """Refuse pair timestamps that do not increase, or a step outside
    ``[MIN_TIME_STEP, MAX_TIME_STEP]``, naming its timestamps."""
    dt = np.diff(t)
    k = int(np.argmin(dt))
    if dt[k] <= 0:
        raise InvalidArgumentError("pair timestamps must be strictly increasing")
    if dt[k] >= MIN_TIME_STEP:
        k = int(np.argmax(dt))
        if dt[k] <= MAX_TIME_STEP:
            return
    raise InvalidArgumentError(
        f"pair time step from t={float(t[k])!r} to t={float(t[k + 1])!r} lies outside "
        f"[{MIN_TIME_STEP:g}, {MAX_TIME_STEP:g}] s: the angular acceleration's finite "
        f"difference would underflow or overflow"
    )


def _excitation_report(pairs: MeasurementPairs, wt, extrinsics_guess: Extrinsics, thresholds):
    """:func:`excitation_report` with the solver's weights ``wt``, plus the
    motion fit ``(v, w)`` at the guess, from which the solver starts its descent."""
    thr = thresholds or ExcitationThresholds()
    M = len(pairs)
    if M < 3:
        raise InsufficientDataError(f"excitation analysis needs >= 3 pairs, got {M}")
    _check_time_steps(pairs.timestamps)

    theta_t = extrinsics_guess.theta_t
    v, w = _motion_from_data(pairs, wt, theta_t, extrinsics_guess.theta_ba)
    alpha = np.gradient(w, pairs.timestamps)

    ha = pairs.h_a
    speeds = np.hypot(ha[:, 0], ha[:, 1])
    cross = observability_det(ha, 1.0, theta_t)  # the velocity's component across the axis
    abs_dets = np.abs(observability_det(ha, alpha, theta_t))

    # Floor the alpha scale: on rotation-free data the finite differences
    # are pure roundoff, and a threshold built from them would classify
    # noise against noise instead of flagging everything.
    alpha_scale = max(median(np.abs(alpha)), ALPHA_ABS_FLOOR)
    det_threshold = thr.det_rel_tol * median(speeds) * alpha_scale
    degenerate = abs_dets <= det_threshold
    fraction = float(np.mean(degenerate))

    flags = []
    alpha_floor = max(ALPHA_ABS_FLOOR, ALPHA_REL_TOL * float(np.max(np.abs(alpha))))
    if np.mean(np.abs(alpha) <= alpha_floor) >= FLAG_FRACTION:
        flags.append(FLAG_ZERO_ALPHA)
    # Either signal being dead kills the axis: a stationary platform, or a
    # platform that never turns (the lever arm stays invisible).
    dead = (speeds <= SPEED_FLOOR) | (np.abs(w) <= SPEED_FLOOR)
    if np.mean(dead) >= FLAG_FRACTION:
        flags.append(FLAG_ZERO_VELOCITY)
    moving = speeds > SPEED_FLOOR
    aligned = moving & (np.abs(cross) <= ALIGN_TOL * speeds)
    aligned_flag = np.count_nonzero(moving) < 2 or np.mean(aligned) >= FLAG_FRACTION
    if not aligned_flag:
        folded = wrap_axis(np.arctan2(ha[moving, 1], ha[moving, 0]))
        dev = np.abs(folded - circular_median(folded, math.pi))
        aligned_flag = median(np.minimum(dev, math.pi - dev)) <= ALIGN_TOL
    if aligned_flag:
        flags.append(FLAG_AXIS_ALIGNED)

    return ExcitationReport(
        fraction_degenerate=fraction,
        min_abs_det=float(np.min(abs_dets)),
        mean_abs_det=float(np.mean(abs_dets)),
        det_threshold=float(det_threshold),
        n_samples=M,
        flags=flags,
    ), (v, w)


@dataclass
class ExcitationVerdict:
    """Closed-form extrinsics guess and the excitation verdict judged there."""

    guess: Extrinsics
    report: ExcitationReport | None   # None below the 3 pairs the check needs
    reasons: list[str]                # why calibration is refused; empty if it is not

    def raise_if_refused(self) -> None:
        """Raise the error by which calibration refuses these data, if any."""
        if not self.reasons:
            return
        message = "; ".join(self.reasons)
        if self.report is None:
            raise InsufficientDataError(message)
        raise UnidentifiableError(
            f"motion does not excite the extrinsics ({message})", report=self.report
        )


def assess_excitation(
    pairs: MeasurementPairs, options: SolverOptions | None = None
) -> ExcitationVerdict:
    """Closed-form extrinsics guess, and the verdict by which calibration refuses.

    Data are refused when the axis init finds no rotational signal (the guess
    then falls back to the dominant motion axis), or when the excitation
    report at the guess raises a flag or finds more than
    ``max_degenerate_fraction`` of the timesteps degenerate.
    """
    return _assess_excitation(pairs, _weights(pairs), options or SolverOptions())[0]


def _assess_excitation(pairs: MeasurementPairs, wt, opts: SolverOptions):
    """:func:`assess_excitation` with the solver's weights ``wt``, plus the
    motion fit at the guess (``None`` below 3 pairs), from which LM starts."""
    theta_ba = init_rotation(pairs, k=opts.init_k, min_speed=opts.min_speed)
    reasons = []
    try:
        theta_t = init_translation_axis(pairs, theta_ba, min_lever=opts.min_lever)
    except InsufficientExcitationError:
        # No rotational signal: every axis fits equally badly, so fall back to
        # the worst case, the dominant motion direction.
        theta_t = circular_median(wrap_axis(np.arctan2(pairs.h_a[:, 1], pairs.h_a[:, 0])), math.pi)
        reasons.append("no rotational signal")
    guess = Extrinsics(theta_t=theta_t, theta_ba=theta_ba)
    if len(pairs) < 3:
        reasons = [f"excitation check needs at least 3 pairs, got {len(pairs)}"]
        return ExcitationVerdict(guess=guess, report=None, reasons=reasons), None

    report, motion = _excitation_report(pairs, wt, guess, opts.excitation_thresholds)
    if report.fraction_degenerate > opts.max_degenerate_fraction:
        reasons.append(
            f"degenerate fraction {report.fraction_degenerate:.3f} "
            f"above {opts.max_degenerate_fraction:g}"
        )
    if report.flags:
        reasons.append("flags: " + ", ".join(report.flags))
    return ExcitationVerdict(guess=guess, report=report, reasons=reasons), motion
