"""Joint extrinsic calibration of two radars from paired ego-velocities.

Measurement model for a rigid pair of planar radars (a is the reference):

    h_a = v_a + n_a
    h_b = rot2(theta_ba) @ (omega ^ t + v_a) + n_b

where ``v_a`` is radar a's velocity in its own frame, ``omega`` the rig's
angular rate, ``t`` the position of radar b in a's frame, and ``^`` the
planar cross product (:func:`radarcal.geometry.wedge`).  Velocity data alone
cannot separate ``omega`` from ``|t|``: scaling one and shrinking the other
leaves the model unchanged.  The solver therefore estimates the translation
*axis* ``t = (cos theta_t, sin theta_t)``, ``theta_t in [0, pi)``, together
with the products ``omega_gamma^j = omega^j * |t|`` per timestep.

The estimated state is ``[v_a^1, omega_gamma^1, ..., v_a^M, omega_gamma^M,
theta_t, theta_ba]`` (dimension 3M + 2), fit to the 4M stacked residuals by
Levenberg-Marquardt with analytic Jacobians.  The per-timestep blocks are
eliminated with a Schur complement, so each iteration costs O(M).
:func:`solve_lm` first applies the excitation verdict of
:mod:`radarcal.identifiability`, which refuses data that cannot constrain
the extrinsics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    InsufficientDataError,
    InsufficientExcitationError,
    InvalidArgumentError,
    InvalidWeightError,
)
from .geometry import (
    angle_between,
    axis_unit,
    circular_median,
    lever_unit,
    quantile,
    rot2,
    wrap_axis,
    wrap_to_pi,
)

if TYPE_CHECKING:
    import scipy.sparse

    from .identifiability import ExcitationReport, ExcitationThresholds

# Additive diagonal floor applied to measurement covariances before they are
# inverted into weights; keeps noise-free (zero covariance) data usable.
COV_FLOOR = 1e-6

# Largest ratio of a floored covariance's eigenvalues.  _inv_psd_2x2 divides
# by a*c - b*b, whose rounding error grows with that ratio: near 1/eps the
# weights, and the LM's normal matrices built from them, lose their digits.
MAX_COV_CONDITION = 1e12

# Largest velocity component (m/s) the solver computes with, far above any
# vehicle's.  Its largest product is the excitation check's summed |det(O)|:
# a speed times a rate over a step of at least identifiability.MIN_TIME_STEP
# (1e-150 s), over at most simulator.MAX_SAMPLES (1e6) pairs, about
# 1e50**2 / 1e-150 * 1e6 = 1e256.  A whitened residual is at most
# 1/sqrt(COV_FLOOR) = 1e3 times a speed.
MAX_SPEED = 1e50

# Elements (rotations x axes x pairs) of each of the profile sweep's two largest
# buffers, 64 KB; a rotation whose row alone is larger gets a block of its own.
PROFILE_BLOCK = 8192

# Levenberg-Marquardt schedule (Marquardt, SIAM J. Appl. Math. 1963): the
# damping starts at LM_LAMBDA0, grows by LM_LAMBDA_UP after a rejected step
# and shrinks by LM_LAMBDA_DOWN after an accepted one; a step still rejected
# above LM_LAMBDA_MAX ends the descent.  Convergence is declared when the
# gradient infinity norm drops below GRADIENT_TOL, or an accepted step
# reduces the cost by less than RELATIVE_COST_TOL of its value, or moves no
# parameter by more than STEP_TOL.
LM_LAMBDA0 = 1e-3
LM_LAMBDA_UP = 10.0
LM_LAMBDA_DOWN = 10.0
LM_LAMBDA_MAX = 1e12
GRADIENT_TOL = 1e-8
RELATIVE_COST_TOL = 1e-12
STEP_TOL = 1e-14

DEFAULT_MIN_SPEED = 0.05   # m/s, speeds below this carry no usable direction
DEFAULT_MIN_LEVER = 0.05   # m/s, lever-arm velocities below this are noise


@dataclass(eq=False)
class MeasurementPairs:
    """M synchronized ego-velocity pairs of both radars, stacked.

    Shapes and finiteness are checked once, here, and every stage after
    takes the arrays as they are.  ``len()`` counts the pairs; indexing by a
    slice, a boolean mask or an index array selects pairs.
    """

    timestamps: np.ndarray   # (M,) s
    h_a: np.ndarray          # (M, 2) m/s in radar a's frame
    h_b: np.ndarray          # (M, 2) m/s in radar b's frame
    cov_a: np.ndarray        # (M, 2, 2)
    cov_b: np.ndarray        # (M, 2, 2)

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.ascontiguousarray(getattr(self, f.name), dtype=float))
        m = self.timestamps.shape
        shapes = (self.h_a.shape, self.h_b.shape, self.cov_a.shape, self.cov_b.shape)
        if len(m) != 1 or shapes != (m + (2,), m + (2,), m + (2, 2), m + (2, 2)):
            raise InvalidArgumentError("measurement pairs have wrong shapes")
        if not all(np.all(np.isfinite(x)) for x in (self.h_a, self.h_b, self.timestamps)):
            raise InvalidArgumentError("measurement pairs contain non-finite values")
        for what, cov in (("radar a", self.cov_a), ("radar b", self.cov_b)):
            if not np.all(np.isfinite(cov)):
                raise InvalidArgumentError(f"{what} covariance contains non-finite values")

    def __len__(self) -> int:
        return self.timestamps.size

    def __getitem__(self, index) -> MeasurementPairs:
        return MeasurementPairs(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass
class Extrinsics:
    """Relative pose parameters recoverable from velocity data."""

    theta_t: float           # translation axis angle in [0, pi)
    theta_ba: float          # frame rotation a -> b, in (-pi, pi]


@dataclass
class CalibState:
    """Full optimizer state: stacked motion states plus extrinsics."""

    v_a: np.ndarray          # (M, 2)
    omega_gamma: np.ndarray  # (M,)
    extrinsics: Extrinsics


@dataclass
class SolverOptions:
    """Tuning knobs for :func:`solve_lm`; defaults suit radar-rate data."""

    max_iterations: int = 100
    init_k: int | None = None
    min_speed: float = DEFAULT_MIN_SPEED
    min_lever: float = DEFAULT_MIN_LEVER
    enforce_excitation: bool = True
    max_degenerate_fraction: float = 0.5
    restart_cost_ratio: float = 10.0
    grid_init_max_pairs: int = 60
    excitation_thresholds: ExcitationThresholds | None = None

    def __post_init__(self):
        if self.max_iterations < 0:
            raise InvalidArgumentError("max_iterations must be >= 0")
        # Written as ``not (...)`` so that NaN fails every check.
        for name in ("min_speed", "min_lever"):
            if not getattr(self, name) >= 0.0:
                raise InvalidArgumentError(f"{name} must be >= 0")
        if not 0.0 <= self.max_degenerate_fraction <= 1.0:
            raise InvalidArgumentError("max_degenerate_fraction must be in [0, 1]")
        if not self.grid_init_max_pairs >= 0:
            raise InvalidArgumentError("grid_init_max_pairs must be >= 0")
        if not self.restart_cost_ratio > 0.0:
            raise InvalidArgumentError("restart_cost_ratio must be > 0 (inf turns the restart off)")


@dataclass
class CalibrationReport:
    """Everything a calibration run produces, in reportable form."""

    extrinsics: Extrinsics
    extrinsic_covariance: np.ndarray       # (2, 2) marginal over (theta_t, theta_ba)
    final_cost: float
    iterations: int
    converged: bool
    termination: str                       # which stopping criterion fired
    excitation: ExcitationReport | None
    v_a: np.ndarray                        # (M, 2) fused velocities of radar a
    omega_gamma: np.ndarray                # (M,) fused unscaled turn rates
    timestamps: np.ndarray                 # (M,)
    mean_velocity_error: float
    velocity_error_table: dict


@dataclass
class _Weights:
    """The solver's weights for a set of pairs."""

    Pa: np.ndarray    # (M, 2, 2) inverse floored covariances
    Pb: np.ndarray    # (M, 2, 2)
    Wa: np.ndarray    # (M, 2, 2) whiteners, W^T W = P
    Wb: np.ndarray    # (M, 2, 2)


def _inv_psd_2x2(covs: np.ndarray, what: str, timestamps: np.ndarray) -> np.ndarray:
    """Invert a stack of 2x2 covariances floored by ``COV_FLOOR``, validating
    positivity; one whose determinant or inverse is not finite, or whose
    eigenvalues differ by more than ``MAX_COV_CONDITION``, is refused, naming
    the timestamp of its pair."""
    s = covs + COV_FLOOR * np.eye(2)
    a = s[:, 0, 0]
    b = s[:, 0, 1]
    c = s[:, 1, 1]
    out = np.empty_like(s)
    with np.errstate(all="ignore"):  # what overflows is refused below
        det = a * c - b * b
        asym = np.abs(s[:, 0, 1] - s[:, 1, 0])
        out[:, 0, 0] = c / det
        out[:, 1, 1] = a / det
        out[:, 0, 1] = -b / det
        out[:, 1, 0] = -b / det
        # (a + c)^2 / det is the eigenvalue ratio plus 2 plus its inverse.
        ill = (a + c) * (a + c) > MAX_COV_CONDITION * det
    if np.any(a <= 0) or np.any(det <= 0) or np.any(asym > 1e-9 * (1 + np.abs(b))):
        raise InvalidWeightError(f"{what} covariance is not symmetric positive definite")
    bad = ~(np.isfinite(det) & np.isfinite(out).all(axis=(1, 2)))
    if np.any(bad):
        t = float(timestamps[np.argmax(bad)])
        raise InvalidWeightError(f"{what} covariance of the pair at t={t!r} is too large to invert")
    if np.any(ill):
        t = float(timestamps[np.argmax(ill)])
        raise InvalidWeightError(
            f"{what} covariance of the pair at t={t!r} is too ill-conditioned to invert: "
            f"its eigenvalues differ by a factor above {MAX_COV_CONDITION:g}"
        )
    return out


def _whiteners(P: np.ndarray) -> np.ndarray:
    """Upper-triangular W with W^T W = P for a stack of SPD 2x2 matrices."""
    l11 = np.sqrt(P[:, 0, 0])
    l21 = P[:, 0, 1] / l11
    l22 = np.sqrt(P[:, 1, 1] - l21 * l21)
    W = np.zeros_like(P)
    W[:, 0, 0] = l11
    W[:, 0, 1] = l21
    W[:, 1, 1] = l22
    return W


def _weights(pairs: MeasurementPairs) -> _Weights:
    """The one conversion of the pairs' covariances into weights; a velocity
    component beyond ``MAX_SPEED`` is refused, naming its pair."""
    if not len(pairs):
        raise InsufficientDataError("no measurement pairs supplied")
    for what, h in (("radar a", pairs.h_a), ("radar b", pairs.h_b)):
        if h.max() > MAX_SPEED or h.min() < -MAX_SPEED:  # no array is made unless refused
            t = float(pairs.timestamps[np.argmax(np.abs(h).max(axis=1) > MAX_SPEED)])
            raise InvalidArgumentError(
                f"{what} velocity of the pair at t={t!r} exceeds {MAX_SPEED:g} m/s: "
                f"too large to calibrate with"
            )
    Pa = _inv_psd_2x2(pairs.cov_a, "radar a", pairs.timestamps)
    Pb = _inv_psd_2x2(pairs.cov_b, "radar b", pairs.timestamps)
    return _Weights(Pa=Pa, Pb=Pb, Wa=_whiteners(Pa), Wb=_whiteners(Pb))


# ---------------------------------------------------------------------------
# Initialization


def init_rotation(
    pairs: MeasurementPairs,
    k: int | None = None,
    min_speed: float = DEFAULT_MIN_SPEED,
) -> float:
    """Initial frame rotation from the most speed-consistent pairs.

    The lever-arm term is small whenever both radars report nearly the same
    speed, so for the ``k`` pairs with the closest speed agreement the angle
    between ``h_a`` and ``h_b`` approximates ``theta_ba`` directly.  The
    circular median of those angles is robust to the odd corrupted pair.
    ``k`` defaults to ``min(50, usable // 4)``, at least 1.
    """
    ha, hb = pairs.h_a, pairs.h_b
    sa = np.hypot(ha[:, 0], ha[:, 1])
    sb = np.hypot(hb[:, 0], hb[:, 1])
    usable = np.flatnonzero((sa >= min_speed) & (sb >= min_speed))
    if usable.size == 0:
        raise InsufficientDataError(
            f"no pairs with both speeds >= {min_speed} m/s; cannot initialize rotation"
        )
    if k is None:
        k = min(50, max(1, usable.size // 4))
    k = max(1, min(int(k), usable.size))
    order = usable[np.argsort(np.abs(sa[usable] - sb[usable]), kind="stable")[:k]]
    angles = np.array([angle_between(ha[i], hb[i]) for i in order])
    return wrap_to_pi(circular_median(angles, math.tau))


def init_translation_axis(
    pairs: MeasurementPairs,
    theta_ba: float,
    min_lever: float = DEFAULT_MIN_LEVER,
) -> float:
    """Initial translation axis angle given the frame rotation.

    With the rotation removed, ``b_j = rot2(theta_ba)^T h_b - h_a`` is the
    lever-arm velocity ``omega_gamma^j * wedge(1) @ t_axis`` plus noise.
    Rotating each usable ``b_j`` back by 90 degrees gives a vector along the
    axis; its angle modulo pi estimates ``theta_t``.  Samples with
    ``|b_j| < min_lever`` carry no direction information and are skipped.
    """
    b = pairs.h_b @ rot2(theta_ba) - pairs.h_a  # rows b_j = R^T h_b - h_a
    norms = np.hypot(b[:, 0], b[:, 1])
    usable = norms >= min_lever
    if not np.any(usable):
        raise InsufficientExcitationError(
            f"no pair shows a lever-arm velocity above {min_lever} m/s; "
            "the data contain no rotational excitation"
        )
    bu = b[usable]
    # b points along wedge(1) @ axis; undo the quarter turn and fold to [0, pi).
    raw = np.arctan2(-bu[:, 0], bu[:, 1])
    return circular_median(wrap_axis(raw), math.pi)


def _motion_from_data(pairs: MeasurementPairs, wt: _Weights, theta_t: float, theta_ba: float):
    """Closed-form weighted fit of (v_a, omega_gamma) per timestep.

    With extrinsics fixed, each timestep decouples into an independent 3x3
    weighted linear problem.  Returns ``(v, w)`` arrays of shapes (M, 2) and
    (M,).  The floored weights keep the normal matrices positive definite
    for any data, so no timestep is skipped.
    """
    R = rot2(theta_ba)
    u = lever_unit(theta_t)
    # Q = R^T Pb R, the b-weights pulled back into radar a's frame.
    Q = np.einsum("ji,mjk,kl->mil", R, wt.Pb, R)
    Qu = Q @ u                                    # (M, 2)
    rhs_v = np.einsum("mij,mj->mi", wt.Pa, pairs.h_a) + np.einsum(
        "ji,mjk,mk->mi", R, wt.Pb, pairs.h_b
    )
    rhs_w = np.einsum("i,ji,mjk,mk->m", u, R, wt.Pb, pairs.h_b)
    N = np.empty((len(pairs), 3, 3))
    N[:, :2, :2] = wt.Pa + Q
    N[:, :2, 2] = Qu
    N[:, 2, :2] = Qu
    N[:, 2, 2] = np.einsum("i,mij,j->m", u, Q, u)
    rhs = np.concatenate([rhs_v, rhs_w[:, None]], axis=1)
    z = np.linalg.solve(N, rhs[:, :, None])[:, :, 0]
    return z[:, :2], z[:, 2]


def init_motion_states(pairs: MeasurementPairs, extrinsics: Extrinsics) -> CalibState:
    """The motion states that best explain the pairs at fixed extrinsics."""
    v, w = _motion_from_data(pairs, _weights(pairs), extrinsics.theta_t, extrinsics.theta_ba)
    return CalibState(v_a=v, omega_gamma=w, extrinsics=extrinsics)


# ---------------------------------------------------------------------------
# Residuals and Jacobian


def _residual_matrix(
    pairs: MeasurementPairs, wt: _Weights, v: np.ndarray, w: np.ndarray, theta_t: float,
    theta_ba: float,
) -> np.ndarray:
    """Whitened residuals, shape (M, 4): rows [r_a (2), r_b (2)]."""
    R = rot2(theta_ba)
    u = lever_unit(theta_t)
    ea = pairs.h_a - v
    eb = pairs.h_b - (v + w[:, None] * u) @ R.T
    out = np.empty((len(pairs), 4))
    out[:, 0:2] = np.einsum("mij,mj->mi", wt.Wa, ea)
    out[:, 2:4] = np.einsum("mij,mj->mi", wt.Wb, eb)
    return out


def _jacobian_blocks(wt: _Weights, v: np.ndarray, w: np.ndarray, theta_t: float, theta_ba: float):
    """Whitened Jacobian blocks.

    Returns ``(A, B)`` with ``A`` of shape (M, 4, 3): derivatives of each
    timestep's residuals w.r.t. its own ``(v_a, omega_gamma)``, and ``B`` of
    shape (M, 4, 2): derivatives w.r.t. ``(theta_t, theta_ba)``.
    """
    R = rot2(theta_ba)
    u = lever_unit(theta_t)
    axis = axis_unit(theta_t)
    WbR = wt.Wb @ R
    M = w.shape[0]
    A = np.zeros((M, 4, 3))
    A[:, 0:2, 0:2] = -wt.Wa
    A[:, 2:4, 0:2] = -WbR
    A[:, 2:4, 2] = -(WbR @ u)
    B = np.zeros((M, 4, 2))
    # d r_b / d theta_t: the lever direction turns with the axis.
    B[:, 2:4, 0] = (WbR @ axis) * w[:, None]
    # d r_b / d theta_ba: dR/dtheta = R @ wedge(1).
    Rw = R @ np.array([[0.0, -1.0], [1.0, 0.0]])
    B[:, 2:4, 1] = -np.einsum("mij,mj->mi", wt.Wb @ Rw, v + w[:, None] * u)
    return A, B


def residuals(state: CalibState, pairs: MeasurementPairs) -> np.ndarray:
    """Whitened residual vector of length 4M.

    Layout: timestep-major, ``[r_a^1 (2), r_b^1 (2), r_a^2 (2), ...]``.  Its
    squared norm is the weighted cost being minimized.
    """
    wt = _weights(pairs)
    v = np.asarray(state.v_a, dtype=float)
    w = np.asarray(state.omega_gamma, dtype=float)
    M = len(pairs)
    if v.shape != (M, 2) or w.shape != (M,):
        raise InvalidArgumentError(
            f"state holds {v.shape[0] if v.ndim == 2 else 'bad'} motion states for {M} pairs"
        )
    return _residual_matrix(
        pairs, wt, v, w, state.extrinsics.theta_t, state.extrinsics.theta_ba
    ).ravel()


def jacobian(state: CalibState, pairs: MeasurementPairs) -> scipy.sparse.csr_matrix:
    """Sparse Jacobian of :func:`residuals`, shape (4M, 3M + 2).

    Column order matches the state layout ``[v^1_x, v^1_y, omega_gamma^1,
    ..., theta_t, theta_ba]``.  Rows of timestep j have support only on that
    timestep's three motion columns and the two shared extrinsic columns.
    No command calls this, so ``scipy.sparse`` is imported here, on the
    first call, and not when the package loads.
    """
    import scipy.sparse

    v = np.asarray(state.v_a, dtype=float)
    w = np.asarray(state.omega_gamma, dtype=float)
    A, B = _jacobian_blocks(
        _weights(pairs), v, w, state.extrinsics.theta_t, state.extrinsics.theta_ba
    )
    M = len(pairs)
    rows_m = (4 * np.arange(M)[:, None, None] + np.arange(4)[None, :, None])
    cols_m = (3 * np.arange(M)[:, None, None] + np.arange(3)[None, None, :])
    rows_m = np.broadcast_to(rows_m, A.shape).ravel()
    cols_m = np.broadcast_to(cols_m, A.shape).ravel()
    rows_e = (4 * np.arange(M)[:, None, None] + np.arange(4)[None, :, None])
    cols_e = (3 * M + np.arange(2))[None, None, :]
    rows_e = np.broadcast_to(rows_e, B.shape).ravel()
    cols_e = np.broadcast_to(cols_e, B.shape).ravel()
    mat = scipy.sparse.coo_matrix(
        (
            np.concatenate([A.ravel(), B.ravel()]),
            (np.concatenate([rows_m, rows_e]), np.concatenate([cols_m, cols_e])),
        ),
        shape=(4 * M, 3 * M + 2),
    )
    return mat.tocsr()


def unconstrained_cost(
    pairs: MeasurementPairs,
    v: np.ndarray,
    omega: np.ndarray,
    t_vec: np.ndarray,
    theta_ba: float,
) -> float:
    """Weighted cost in the raw ``(omega, t)`` parametrization, ``|t|`` free.

    Useful for checking model properties; the optimizer itself works in the
    scale-free parametrization.  Rescaling ``omega -> g * omega`` together
    with ``t -> t / g`` leaves this value unchanged.
    """
    wt = _weights(pairs)
    v = np.asarray(v, dtype=float)
    omega = np.asarray(omega, dtype=float)
    t_vec = np.asarray(t_vec, dtype=float)
    R = rot2(theta_ba)
    lever = np.array([-t_vec[1], t_vec[0]])
    ea = pairs.h_a - v
    eb = pairs.h_b - (v + omega[:, None] * lever) @ R.T
    ca = np.einsum("mi,mij,mj->", ea, wt.Pa, ea)
    cb = np.einsum("mi,mij,mj->", eb, wt.Pb, eb)
    return float(ca + cb)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt with Schur elimination of the motion states


def _hessian_blocks(A, B):
    """Gauss-Newton blocks ``(Hmm, Hme, Hee)`` of the Jacobian blocks."""
    return (
        np.einsum("mri,mrj->mij", A, A),
        np.einsum("mri,mrj->mij", A, B),
        np.einsum("mri,mrj->ij", B, B),
    )


def _schur_complement(Hmm, Hme, Hee):
    """inv(Hmm) per motion block, and the extrinsic block left after
    eliminating the motion states, ``Hee - sum Hme^T inv(Hmm) Hme``."""
    Cinv = np.linalg.inv(Hmm)
    return Cinv, Hee - np.einsum("mia,mij,mjb->ab", Hme, Cinv, Hme)


def _schur_step(Hmm, Hme, Hee, gm, ge, lam):
    """Solve the damped normal equations, eliminating motion blocks."""
    dm_diag = np.einsum("mii->mi", Hmm).copy()
    dm_diag[dm_diag <= 0] = 1.0
    Hmm_d = lam * dm_diag[:, :, None] * np.eye(3)
    np.add(Hmm, Hmm_d, out=Hmm_d)  # in the damping's temporary: one (M, 3, 3) array fewer
    de_diag = np.diag(Hee).copy()
    de_diag = np.where(de_diag > 0, de_diag, 1.0)
    Hee_d = Hee + lam * np.diag(de_diag)
    Cinv, S = _schur_complement(Hmm_d, Hme, Hee_d)
    rhs = ge - np.einsum("mia,mij,mj->a", Hme, Cinv, gm)
    de = -np.linalg.solve(S, rhs)
    dm = -np.einsum("mij,mj->mi", Cinv, gm + Hme @ de)
    return dm, de


def _marginal_extrinsic_covariance(Hmm, Hme, Hee):
    """Covariance of (theta_t, theta_ba) after marginalizing motion states."""
    _, S = _schur_complement(Hmm, Hme, Hee)
    try:
        return np.linalg.inv(S)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(S)


def _canonical_gauge(theta_t: float, theta_ba: float, w: np.ndarray):
    """Fold the axis into [0, pi); an odd fold flips the lever direction,
    so the unscaled rates change sign to keep the model value fixed."""
    tt = wrap_axis(theta_t)
    if round((theta_t - tt) / math.pi) % 2 != 0:
        w = -w
    return tt, wrap_to_pi(theta_ba), w


def velocity_error_metric(pairs: MeasurementPairs, extrinsics: Extrinsics) -> float:
    """Mean magnitude of the radar-b residual with per-pair best-fit rates.

    Takes ``h_a`` as radar a's velocity, solves the single scalar rate that
    best maps it onto ``h_b`` through the given extrinsics, and averages the
    remaining magnitude.  A consistency measure comparable across datasets
    without ground truth.
    """
    R = rot2(extrinsics.theta_ba)
    u = lever_unit(extrinsics.theta_t)
    d = pairs.h_b @ R - pairs.h_a    # rows R^T h_b - h_a
    wstar = d @ u                    # unit lever direction: projection is optimal
    eb = pairs.h_b - (pairs.h_a + wstar[:, None] * u) @ R.T
    return float(np.mean(np.hypot(eb[:, 0], eb[:, 1])))


@np.errstate(over="ignore", invalid="ignore")  # an error that overflows is refused below
def fused_ego_velocities(
    report: CalibrationReport,
    pairs: MeasurementPairs,
    ground_truth=None,
) -> dict:
    """Raw and fused ego-velocity error magnitudes for both radars.

    With ``ground_truth`` (a :class:`radarcal.simulator.GroundTruth` whose
    timestamps include the pairs'), each radar is compared against the true
    motion.  Without it, each radar is compared against the reconstruction
    through the calibrated model from the *other* radar's raw measurement,
    which is the best available reference on real data.

    Returns ``{"radar_a": {"raw": (M,), "fused": (M,)}, "radar_b": ...}``.
    Raises InvalidArgumentError when velocities too large to compare make
    an error overflow.
    """
    ext = report.extrinsics
    R = rot2(ext.theta_ba)
    u = lever_unit(ext.theta_t)
    v, w = report.v_a, report.omega_gamma
    if v.shape[0] != len(pairs) or not np.array_equal(report.timestamps, pairs.timestamps):
        raise InvalidArgumentError("report and pairs disagree on the timesteps")
    fused_b = (v + w[:, None] * u) @ R.T

    if ground_truth is not None:
        # Pairs may be a filtered subset of the truth grid (scans with too
        # few detections dropped, slow pairs removed), so match row by row
        # instead of demanding identical arrays.
        tts = np.asarray(ground_truth.timestamps, dtype=float)
        ts = pairs.timestamps
        idx = np.searchsorted(tts, ts)
        idx = np.clip(idx, 0, len(tts) - 1)
        left = np.clip(idx - 1, 0, len(tts) - 1)
        idx = np.where(np.abs(tts[left] - ts) < np.abs(tts[idx] - ts), left, idx)
        if not np.allclose(tts[idx], ts, rtol=0.0, atol=1e-9):
            raise InvalidArgumentError("ground truth timestamps do not match the pairs")
        ref_a = ground_truth.v_a[idx]
        ref_b = ground_truth.model_h_b()[idx]
    else:
        ref_a = pairs.h_b @ R - w[:, None] * u
        ref_b = (pairs.h_a + w[:, None] * u) @ R.T

    def mag(x):
        return np.hypot(x[:, 0], x[:, 1])

    errors = {
        "radar_a": {"raw": mag(pairs.h_a - ref_a), "fused": mag(v - ref_a)},
        "radar_b": {"raw": mag(pairs.h_b - ref_b), "fused": mag(fused_b - ref_b)},
    }
    reference = "reconstructed" if ground_truth is None else "ground-truth"
    for radar, both in errors.items():
        for kind, series in both.items():
            bad = ~np.isfinite(series)
            if bad.any():
                raise InvalidArgumentError(
                    f"{radar} {kind} velocity error against the {reference} velocity at "
                    f"t={float(pairs.timestamps[bad][0])!r} overflows: the velocities are too large"
                )
    return errors


@dataclass
class _LmRun:
    """Outcome of one damped Gauss-Newton descent from a given start."""

    v: np.ndarray
    w: np.ndarray
    theta_t: float
    theta_ba: float
    cost: float
    iterations: int
    converged: bool
    termination: str


def _run_lm(
    pairs: MeasurementPairs, wt: _Weights, theta_t0: float, theta_ba0: float,
    opts: SolverOptions, motion=None,
) -> _LmRun:
    """Descend from the given angles; ``motion`` is the fit ``(v, w)`` of
    :func:`_motion_from_data` at them, when the caller already has it."""
    v, w = motion if motion is not None else _motion_from_data(pairs, wt, theta_t0, theta_ba0)
    tht = float(theta_t0)
    thb = float(theta_ba0)

    r4 = _residual_matrix(pairs, wt, v, w, tht, thb)
    cost = float(np.sum(r4 * r4))
    lam = LM_LAMBDA0
    converged = False
    termination = "max_iterations"
    iterations = 0

    for _ in range(opts.max_iterations):
        iterations += 1
        A, B = _jacobian_blocks(wt, v, w, tht, thb)
        Hmm, Hme, Hee = _hessian_blocks(A, B)
        gm = np.einsum("mri,mr->mi", A, r4)
        ge = np.einsum("mri,mr->i", B, r4)
        del A, B  # the step loop reads only the normal-equation blocks
        ginf = max(float(np.max(np.abs(gm))), float(np.max(np.abs(ge))))
        if ginf < GRADIENT_TOL:
            converged = True
            termination = "gradient"
            break

        accepted = False
        while lam <= LM_LAMBDA_MAX:
            try:
                dm, de = _schur_step(Hmm, Hme, Hee, gm, ge, lam)
            except np.linalg.LinAlgError:
                lam *= LM_LAMBDA_UP
                continue
            v_new = v + dm[:, :2]
            w_new = w + dm[:, 2]
            tht_new = tht + float(de[0])
            thb_new = thb + float(de[1])
            r4_new = _residual_matrix(pairs, wt, v_new, w_new, tht_new, thb_new)
            cost_new = float(np.sum(r4_new * r4_new))
            if cost_new < cost:
                step_inf = max(float(np.max(np.abs(dm))), float(np.max(np.abs(de))))
                rel_dec = (cost - cost_new) / max(cost, np.finfo(float).tiny)
                v, w, tht, thb, r4, cost = v_new, w_new, tht_new, thb_new, r4_new, cost_new
                lam = max(lam / LM_LAMBDA_DOWN, 1e-15)
                accepted = True
                if rel_dec < RELATIVE_COST_TOL:
                    converged = True
                    termination = "cost_decrease"
                elif step_inf < STEP_TOL:
                    converged = True
                    termination = "step"
                break
            lam *= LM_LAMBDA_UP
        if not accepted:
            termination = "lambda_overflow"
            break
        if converged:
            break
        del Hmm, Hme, Hee, gm, ge, dm  # not held while the next iteration builds its own

    return _LmRun(
        v=v, w=w, theta_t=tht, theta_ba=thb, cost=cost,
        iterations=iterations, converged=converged, termination=termination,
    )


def _profile_costs(
    pairs: MeasurementPairs, wt: _Weights, t_grid: np.ndarray, ba_grid: np.ndarray
) -> np.ndarray:
    """Profile cost at every (theta_t, theta_ba) cell, shape (len(t_grid), len(ba_grid)).

    The value is the cost left after :func:`_motion_from_data`'s fit, with
    the motion states eliminated in closed form instead of solved for
    (variable projection).  Eliminating ``v_a`` leaves the mismatch
    ``d = h_a - R^T h_b`` with covariance ``C = C_a + R^T C_b R``;
    eliminating ``omega_gamma`` along ``u = lever_unit(theta_t)`` then
    leaves ``d^T H d - (u^T H d)^2 / (u^T H u) = (n^T d)^2 / (n^T C n)``,
    ``H = C^-1``, ``n = axis_unit(theta_t)``: only the mismatch along the axis
    stays unexplained.  In 2-D, ``P = H - H u u^T H / (u^T H u)`` is symmetric
    with ``P u = 0``, so ``P = a n n^T``; ``P C n = n`` as ``u^T n = 0``, so
    ``a = 1 / (n^T C n)``: no cost is negative.  ``d`` and ``C`` (stored as
    C00, 2 C01, C11) depend on ``theta_ba`` alone and are built per block.
    """
    Ca, Cb = np.linalg.inv(wt.Pa), np.linalg.inv(wt.Pb)
    ca3 = np.stack([Ca[:, 0, 0], 2.0 * Ca[:, 0, 1], Ca[:, 1, 1]])
    cb3 = np.stack([Cb[:, 0, 0], Cb[:, 0, 1], Cb[:, 1, 1]])
    N = np.stack([np.cos(t_grid), np.sin(t_grid)], axis=1)       # n per axis cell
    N2 = N[:, [0, 0, 1]] * N[:, [0, 1, 1]]                       # (c^2, c s, s^2)
    c, s = np.cos(ba_grid), np.sin(ba_grid)
    Rt = np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)       # R^T per rotation
    cc, ss, cs2 = c * c, s * s, 2.0 * c * s      # K: C_b's (C00, C01, C11) -> R^T C_b R's C
    K = np.stack([cc, cs2, ss, -cs2, 2.0 * (cc - ss), cs2, ss, -cs2, cc], axis=1).reshape(-1, 3, 3)
    M, T, B = len(pairs), t_grid.size, ba_grid.size
    rows = min(B, max(1, PROFILE_BLOCK // (T * M)))
    D, Q, num, den = (np.empty((rows, k, M)) for k in (2, 3, T, T))
    costs = np.empty((T, B))
    for j in range(0, B, rows):
        d, q, e, f = (x[:B - j] for x in (D, Q, num, den))
        np.subtract(pairs.h_a.T, np.matmul(Rt[j:j + rows], pairs.h_b.T, out=d), out=d)
        np.add(np.matmul(K[j:j + rows], cb3, out=q), ca3, out=q)
        np.square(np.matmul(N, d, out=e), out=e)
        np.divide(e, np.matmul(N2, q, out=f), out=e)
        costs[:, j:j + rows] = e.sum(axis=2).T
    return costs


def _coarse_grid_init(
    pairs: MeasurementPairs, wt: _Weights, step_deg: float
) -> tuple[float, float]:
    """Best (theta_t, theta_ba) cell of a coarse profile-cost sweep.

    Slower than the closed-form guesses but insensitive to baseline length
    and dataset size, so it serves as the fallback start."""
    t_grid = np.arange(0.0, math.pi, math.radians(step_deg))
    ba_grid = np.arange(-math.pi, math.pi, math.radians(step_deg))
    costs = _profile_costs(pairs, wt, t_grid, ba_grid)
    i, j = np.unravel_index(np.argmin(costs), costs.shape)
    return float(t_grid[i]), float(ba_grid[j])


def solve_lm(pairs: MeasurementPairs, options: SolverOptions | None = None) -> CalibrationReport:
    """Calibrate the radar pair from synchronized ego-velocity pairs.

    Initializes the rotation, axis and motion states in closed form, then
    refines everything jointly with damped Gauss-Newton.  When excitation
    enforcement is on (default), datasets whose motion cannot constrain the
    extrinsics raise :class:`UnidentifiableError` instead of returning a
    spurious answer; the diagnostic report rides along on the exception.
    """
    opts = options or SolverOptions()
    wt = _weights(pairs)
    M = len(pairs)
    if M < 2:
        raise InsufficientDataError(f"need at least 2 pairs, got {M}")

    from .identifiability import _assess_excitation  # deferred: identifiability imports this module
    verdict, motion = _assess_excitation(pairs, wt, opts)
    if opts.enforce_excitation:
        verdict.raise_if_refused()

    run = _run_lm(pairs, wt, verdict.guess.theta_t, verdict.guess.theta_ba, opts, motion)

    # The closed-form guesses can start the descent in the wrong basin: the
    # rotation guess assumes the lever barely perturbs the speeds (false for
    # long baselines), and on very short datasets it rests on a handful of
    # pairs.  A coarse sweep of the two extrinsic angles with closed-form
    # motion fits is insensitive to both, so rerun from its best cell and
    # keep the better result.  Short datasets always get the sweep (2 ms for
    # its 10,368 cells at M = 50, one core); long ones only when the first
    # run's cost is far above the residual count implied by the covariances.
    dof = max(4 * M - (3 * M + 2), 1)
    if M <= opts.grid_init_max_pairs:
        step_deg = 2.5
    elif run.cost / dof > opts.restart_cost_ratio:
        step_deg = 10.0
    else:
        step_deg = None
    if step_deg is not None:
        retry = _run_lm(pairs, wt, *_coarse_grid_init(pairs, wt, step_deg), opts)
        if retry.cost < run.cost:
            run = retry

    v, w = run.v, run.w
    iterations, converged, termination = run.iterations, run.converged, run.termination
    tht, thb, w = _canonical_gauge(run.theta_t, run.theta_ba, w)
    ext = Extrinsics(theta_t=tht, theta_ba=thb)
    r4 = _residual_matrix(pairs, wt, v, w, tht, thb)
    cost = float(np.sum(r4 * r4))
    A, B = _jacobian_blocks(wt, v, w, tht, thb)
    Hmm, Hme, Hee = _hessian_blocks(A, B)
    del A, B  # not held while the Schur complement is inverted
    cov = _marginal_extrinsic_covariance(Hmm, Hme, Hee)

    report = CalibrationReport(
        extrinsics=ext,
        extrinsic_covariance=cov,
        final_cost=cost,
        iterations=iterations,
        converged=converged,
        termination=termination,
        excitation=verdict.report,
        v_a=v,
        omega_gamma=w,
        timestamps=pairs.timestamps.copy(),
        mean_velocity_error=velocity_error_metric(pairs, ext),
        velocity_error_table={},
    )
    errors = fused_ego_velocities(report, pairs)
    qs = (0.25, 0.5, 0.75, 0.9)
    report.velocity_error_table = {
        radar: {
            kind: {f"q{int(100 * q)}": quantile(series, q) for q in qs}
            for kind, series in both.items()
        }
        for radar, both in errors.items()
    }
    return report
