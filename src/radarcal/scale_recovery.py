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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientExcitationError, InvalidArgumentError, ParseError, open_text, utf8_text,
)
from .geometry import median

DEFAULT_MIN_RATE = 0.1   # rad/s, reference rates below this are unreliable divisors
DEFAULT_HEADING_SIGMA = 0.01  # rad, heading noise assumed by the pose smoother
DEFAULT_JERK_PSD = 0.5        # rad^2/s^5, angular jerk density of the pose smoother
MIN_SAMPLES = 10


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

    The covariances and both gains depend on the time steps alone, never on
    the headings.  A step whose length recurs is keyed by that length and
    the exact bytes of the covariance it starts from, and a key seen before
    reuses the predicted covariance and the gains computed for it.  On a
    fixed-rate track the covariance settles into a few exact arrays: 264 of
    the 749 steps of a 15 s 50 Hz simulator track reuse a key, 28,588 of the
    29,999 of a 600 s one, and nearly none on a jittered clock.  Memory is
    linear in the samples: a table row per step, one key per keyed miss.

    The rates are bit-identical to the plain per-sample recursion written
    with ``@``: the same BLAS calls on the same operands and the same
    elementwise operations, each written in place into a preallocated row.
    A product with the measurement row h = e0 is read as the entry it
    selects (``P.item(0)``, ``P[:, 0]``, ``x.item(0)``): its other terms are
    exact zeros, which leave any finite entry but -0.0 unchanged.  No
    predicted covariance (a sum with Q >= +0.0) holds -0.0, and a heading of
    -0.0 survives ``np.unwrap`` at sample 0 alone, where it can move only the
    sign of a zero heading estimate, which no rate reads.

    A step so long that a predicted covariance overflows (with the default
    ``jerk_psd``, a step above about 1e61 s, whose fifth power overflows)
    raises :class:`InvalidArgumentError` naming the step.
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
    e0 = np.array([1.0, 0.0, 0.0])  # the measurement row h
    ikh = np.eye(3)  # I - k h^T: only column 0, e0 - k, depends on the gain k

    # Transition and noise matrices, one per distinct step (scalar powers:
    # numpy's array power rounds differently).  A covariance that overflows
    # is refused after the covariance pass, which computes without warnings.
    steps, step_of = np.unique(np.diff(t), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        d2, d3, d4, d5 = np.fromiter(
            (d ** e for d in steps for e in (2, 3, 4, 5)), float, 4 * steps.size
        ).reshape(-1, 4).T
        F = np.zeros((steps.size, 3, 3))
        F[:, 0, 0] = F[:, 1, 1] = F[:, 2, 2] = 1.0
        F[:, 0, 1] = F[:, 1, 2] = steps
        F[:, 0, 2] = 0.5 * steps * steps
        Q = jerk_psd * np.stack(
            [d5 / 20.0, d4 / 8.0, d3 / 6.0, d4 / 8.0, d3 / 3.0, d2 / 2.0, d3 / 6.0, d2 / 2.0, steps],
            axis=-1,
        ).reshape(-1, 3, 3)

        # Covariance pass.  Sample 0 is updated from the prior itself.  Step
        # i runs from sample i to i + 1 and takes transition trans[i]: the
        # Kalman gain, P_filt F^T and the predicted covariance.  A keyed step
        # that hits reuses a transition and the covariance it ended in.  A
        # trailing array argument of ``dot`` or of a ufunc is its ``out``.
        P0 = np.diag([r, 1.0, 1.0])
        k0 = P0[:, 0] / (P0.item(0) + r)
        np.subtract(e0, k0, ikh[:, 0])
        P = ikh.dot(P0)
        caches = [{} if c > 1 else None for c in np.bincount(step_of).tolist()]
        step_list = step_of.tolist()
        ks = np.empty((n - 1, 3))
        PFt = np.empty((n - 1, 3, 3))
        gains = np.empty((n - 1, 3, 3))  # predicted covariances, then RTS gains
        P_next = np.empty((n - 1, 3, 3))  # filtered covariance a cached transition ends in
        trans = []
        m = 0
        for j in step_list:
            cache = caches[j]
            if cache is not None:
                key = P.tobytes()
                tr = cache.get(key)
                if tr is not None:
                    trans.append(tr)
                    P = P_next[tr]
                    continue
            Fj, Pp, k = F[j], gains[m], ks[m]
            Fj.dot(P).dot(Fj.T, Pp)
            Pp += Q[j]
            np.divide(Pp[:, 0], Pp.item(0) + r, k)
            P.dot(Fj.T, PFt[m])
            np.subtract(e0, k, ikh[:, 0])
            P = ikh.dot(Pp)
            if cache is not None:
                cache[key] = m
                P_next[m] = P
            trans.append(m)
            m += 1
    del caches, P_next  # before the gains' temporary

    def refuse(tr: int, what: str):
        # Transitions are numbered in time order: the first refused is the first step's.
        d = steps[step_list[trans.index(tr)]]
        raise InvalidArgumentError(
            f"heading time step of {float(d)!r} s is too long: the smoother's "
            f"predicted covariance {what} (jerk_psd={float(jerk_psd)!r})"
        )

    finite = np.isfinite(gains[:m]).all(axis=(1, 2))
    if not finite.all():
        refuse(int(finite.argmin()), "overflows")

    # RTS gains P_filt F^T inv(P_pred) of the distinct transitions: one stacked
    # call with the 3x3 products' BLAS and LAPACK calls.  They overwrite the
    # predicted covariances, so the stack of inverses is the only temporary.
    try:
        inverses = np.linalg.inv(gains[:m])
    except np.linalg.LinAlgError:
        refuse(next(i for i in range(m) if _is_singular(gains[i])), "is singular")
    np.matmul(PFt[:m], inverses, out=gains[:m])
    del PFt, inverses

    # State passes: the filter, then the backward pass, which overwrites each
    # filtered state with the smoothed one.  Rows go through ``out``, and a
    # memoryview yields each heading as a float, so no list or array is kept.
    xs_pred = np.empty((n - 1, 3))  # row i: the prediction of sample i + 1
    xs_filt = np.empty((n, 3))
    xp = np.array([z[0], (z[1] - z[0]) / (t[1] - t[0]), 0.0])
    x = np.add(xp, k0 * (z.item(0) - xp.item(0)), xs_filt[0])
    add, multiply, subtract = np.add, np.multiply, np.subtract  # looked up once, not per sample
    rows = zip(memoryview(z)[1:], map(F.__getitem__, step_list), map(ks.__getitem__, trans))
    for (zi, Fj, k), xp, x_row in zip(rows, xs_pred, xs_filt[1:]):
        Fj.dot(x, xp)
        multiply(k, zi - xp.item(0), x_row)
        x = add(xp, x_row, x_row)
    diff, correction = np.empty(3), np.empty(3)
    for xf, xp, G in zip(xs_filt[-2::-1], xs_pred[::-1], map(gains.__getitem__, reversed(trans))):
        subtract(x, xp, diff)
        G.dot(diff, correction)
        x = add(xf, correction, xf)
    omega = xs_filt[:, 1].copy()

    return AngularRateSeries(timestamps=t.copy(), omega=omega)


def _is_singular(a: np.ndarray) -> bool:
    try:
        np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return True
    return False


def recover_scale(
    report,
    reference: AngularRateSeries,
    min_rate: float = DEFAULT_MIN_RATE,
) -> ScaleResult:
    """Metric baseline length from a calibration report and a rate reference.

    The reference is linearly interpolated onto the calibration timestamps;
    samples where it falls below ``min_rate`` (or lies outside the reference
    time span) are dropped.  Needs at least ``MIN_SAMPLES`` survivors.  A rate
    ratio or a median of them that overflows (a huge ``omega_gamma``) raises
    InvalidArgumentError.
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
    if int(keep.sum()) < MIN_SAMPLES:
        raise InsufficientExcitationError(
            f"only {int(keep.sum())} reference samples at or above {min_rate} rad/s, "
            f"need {MIN_SAMPLES}"
        )
    with np.errstate(over="ignore"):  # a ratio or their median that overflows is refused below
        ratios = np.abs(wg[keep]) / np.abs(ref[keep])
        scale = median(ratios)
    bad = ~np.isfinite(ratios)
    if bad.any():
        t = float(ts[inside][keep][bad][0])
        raise InvalidArgumentError(
            f"rate ratio at t={t!r} overflows: the report's omega_gamma is too large "
            f"for the reference rate"
        )
    if not math.isfinite(scale):
        raise InvalidArgumentError(
            "median rate ratio overflows: the report's omega_gamma values are too large "
            "for the reference rate"
        )
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
    with open_text(path, newline="") as fh:
        lines = map(utf8_text, fh, itertools.count(1))
        for lineno, row in enumerate(csv.reader(lines), start=1):
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
