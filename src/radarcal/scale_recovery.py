"""Recover the metric baseline length from an external turn-rate reference.

Velocity-only calibration pins down the translation *axis* but not its
length: the solver's per-timestep ``omega_gamma`` equals the physical rate
times ``|t|``.  Any independent angular-rate source (gyro, wheel odometry,
pose headings) therefore fixes the scale:

    |t| = median over j of |omega_gamma^j| / |omega_ref(t_j)|

restricted to samples where the reference rate is large enough to divide by.
The sign of ``t`` along its axis stays unknowable from this data, which is
why every result carries ``sign_ambiguous=True``.

Pose headings are turned into a rate reference with a fixed-interval
smoother (forward Kalman filter plus backward pass) over a constant angular
acceleration model, which differentiates noisy headings without the noise
blow-up of direct finite differences.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientExcitationError, InvalidArgumentError, ParseError

DEFAULT_MIN_RATE = 0.1   # rad/s, reference rates below this are unreliable divisors
DEFAULT_HEADING_SIGMA = 0.01  # rad, heading noise assumed by the pose smoother
DEFAULT_JERK_PSD = 0.5        # rad^2/s^5, angular jerk density of the pose smoother
MIN_SAMPLES = 10
_GAIN_BLOCK = 4096  # smoother steps whose RTS gains are formed in one stacked call


@dataclass
class AngularRateSeries:
    """Reference angular rates on their own clock."""

    timestamps: np.ndarray  # (N,) strictly increasing
    omega: np.ndarray       # (N,) rad/s

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        if self.timestamps.shape != self.omega.shape or self.timestamps.ndim != 1:
            raise InvalidArgumentError("timestamps and omega must be 1-d and equal length")
        if self.timestamps.size >= 2 and np.any(np.diff(self.timestamps) <= 0):
            raise InvalidArgumentError("reference timestamps must be strictly increasing")


@dataclass
class ScaleResult:
    """Recovered metric scale; the translation sign stays ambiguous."""

    gamma: float                  # ratio of unscaled to reference rates
    translation_magnitude: float  # meters, numerically equal to gamma
    n_samples: int
    sign_ambiguous: bool = True


def smooth_angular_rate_from_poses(
    timestamps: np.ndarray,
    headings: np.ndarray,
    heading_sigma: float = DEFAULT_HEADING_SIGMA,
    jerk_psd: float = DEFAULT_JERK_PSD,
) -> AngularRateSeries:
    """Angular rate series from noisy heading samples.

    Headings are unwrapped, then smoothed with a Kalman filter and a
    Rauch-Tung-Striebel backward pass over the state (heading, rate,
    acceleration) of a constant angular acceleration model driven by white
    jerk of power spectral density ``jerk_psd``; the returned series is the
    smoothed rate component at the input timestamps.

    The filter runs one sample at a time, but builds the transition and
    noise matrices once per distinct time step (a fixed-rate track has only
    a handful) and forms the backward gains in stacked blocks of steps.
    Every matrix product keeps the shape and operand layout of the plain
    per-sample recursion, so the output is bit-identical to it.
    """
    t = np.asarray(timestamps, dtype=float)
    z = np.asarray(headings, dtype=float)
    if t.shape != z.shape or t.ndim != 1 or t.size < 3:
        raise InvalidArgumentError("need >= 3 heading samples with matching timestamps")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(z))):
        raise InvalidArgumentError("heading timestamps and headings must be finite")
    if np.any(np.diff(t) <= 0):
        raise InvalidArgumentError("heading timestamps must be strictly increasing")
    # Written as ``not (...)`` so that NaN fails.  The filter divides by the
    # heading variance, so its square must neither underflow nor overflow.
    if not (heading_sigma > 0 and 0 < heading_sigma * heading_sigma < math.inf):
        raise InvalidArgumentError(
            f"heading_sigma must be positive with a positive, finite square, got {heading_sigma!r}"
        )
    if not (0 < jerk_psd < math.inf):
        raise InvalidArgumentError(f"jerk_psd must be positive and finite, got {jerk_psd!r}")
    r = heading_sigma ** 2
    z = np.unwrap(z)
    n = t.size
    hrow = np.array([1.0, 0.0, 0.0])
    eye = np.eye(3)

    # Scalar powers per step: numpy's array power rounds differently.
    steps, step_of = np.unique(np.diff(t), return_inverse=True)
    FQ = [
        (
            np.array([[1.0, dt, 0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]]),
            jerk_psd * np.array(
                [
                    [dt ** 5 / 20.0, dt ** 4 / 8.0, dt ** 3 / 6.0],
                    [dt ** 4 / 8.0, dt ** 3 / 3.0, dt ** 2 / 2.0],
                    [dt ** 3 / 6.0, dt ** 2 / 2.0, dt],
                ]
            ),
        )
        for dt in steps
    ]

    x = np.array([z[0], (z[1] - z[0]) / (t[1] - t[0]), 0.0])
    P = np.diag([r, 1.0, 1.0])

    xs_pred = np.zeros((n, 3))
    xs_filt = np.zeros((n, 3))
    # Step i runs from sample i to i + 1.  gains[i] holds the filtered
    # covariance at sample i until its block of steps is filtered; then the
    # block's RTS gains P_filt F^T inv(P_pred) overwrite it in one stacked
    # call, which makes the same per-matrix BLAS and LAPACK calls as the
    # 3x3 products.  P_pred holds one block's predicted covariances.
    gains = np.empty((n - 1, 3, 3))
    P_pred = np.empty((min(n - 1, _GAIN_BLOCK), 3, 3))
    F_stack = np.stack([F for F, _ in FQ])

    for i in range(n):
        if i == 0:
            xp, Pp = x, P
        else:
            F, Q = FQ[step_of[i - 1]]
            xp = F @ x
            Pp = F @ P @ F.T + Q
            gains[i - 1] = P
            P_pred[(i - 1) % _GAIN_BLOCK] = Pp
            if i % _GAIN_BLOCK == 0 or i == n - 1:
                lo = (i - 1) // _GAIN_BLOCK * _GAIN_BLOCK
                F_T = F_stack[step_of[lo:i]].transpose(0, 2, 1)
                gains[lo:i] = gains[lo:i] @ F_T @ np.linalg.inv(P_pred[: i - lo])
        innov = z[i] - hrow @ xp
        s = float(hrow @ Pp @ hrow) + r
        k = (Pp @ hrow) / s
        x = xp + k * innov
        P = (eye - k[:, None] * hrow) @ Pp
        xs_pred[i], xs_filt[i] = xp, x

    xs = xs_filt.copy()
    for i in range(n - 2, -1, -1):
        xs[i] = xs_filt[i] + gains[i] @ (xs[i + 1] - xs_pred[i + 1])

    return AngularRateSeries(timestamps=t.copy(), omega=xs[:, 1])


def recover_scale(
    report,
    reference: AngularRateSeries,
    min_rate: float = DEFAULT_MIN_RATE,
    min_samples: int = MIN_SAMPLES,
) -> ScaleResult:
    """Metric baseline length from a calibration report and a rate reference.

    The reference is linearly interpolated onto the calibration timestamps;
    samples where it falls below ``min_rate`` (or lies outside the reference
    time span) are dropped.  Needs at least ``min_samples`` survivors.
    """
    if not min_rate > 0:
        raise InvalidArgumentError(f"min_rate must be positive, got {min_rate}")
    if reference.timestamps.size < 2:
        raise InsufficientExcitationError("reference series too short to interpolate")
    ts = np.asarray(report.timestamps, dtype=float)
    wg = np.asarray(report.omega_gamma, dtype=float)
    inside = (ts >= reference.timestamps[0]) & (ts <= reference.timestamps[-1])
    ref = np.interp(ts[inside], reference.timestamps, reference.omega)
    wg = wg[inside]
    keep = np.abs(ref) >= min_rate
    if int(keep.sum()) < min_samples:
        raise InsufficientExcitationError(
            f"only {int(keep.sum())} reference samples at or above {min_rate} rad/s, "
            f"need {min_samples}"
        )
    ratios = np.abs(wg[keep]) / np.abs(ref[keep])
    scale = float(np.median(ratios))
    return ScaleResult(
        gamma=scale,
        translation_magnitude=scale,
        n_samples=int(keep.sum()),
        sign_ambiguous=True,
    )


def _load_two_column_csv(path, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Strict two-float-column CSV; one optional non-numeric header row."""
    col0 = []
    col1 = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 columns in {what} file, got {len(row)}", lineno)
            try:
                a, b = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ParseError(f"non-numeric values {row!r} in {what} file", lineno)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ParseError(f"non-finite values in {what} file", lineno)
            col0.append(a)
            col1.append(b)
    if not col0:
        raise ParseError(f"{what} file contains no data rows")
    return np.array(col0), np.array(col1)


def load_angular_rate_csv(path) -> AngularRateSeries:
    """Read a ``timestamp,omega`` CSV into a reference series."""
    t, w = _load_two_column_csv(path, "angular rate")
    return AngularRateSeries(timestamps=t, omega=w)


def load_heading_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``timestamp,heading`` CSV; returns the raw arrays."""
    return _load_two_column_csv(path, "heading")
