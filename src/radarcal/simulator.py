"""Synthetic rig trajectories, velocity pairs and detection-level scans.

The default profile drives the rig through smooth periodic velocity and
turn-rate variations so that every quantity the calibration needs (angular
acceleration, velocity direction changes) stays excited, with speeds inside
a realistic 0.3 to 2 m/s band.  Degenerate profiles (constant turn rate,
straight line) exist on purpose: they exercise the refusal paths.

Pair-level simulation corrupts the exact model velocities with isotropic
Gaussian noise of standard deviation ``sigma_r`` per axis and stamps each
measurement with the matching covariance.  Scan-level simulation places
static landmarks around the driven path and synthesizes per-landmark range,
azimuth and range rate for each radar, optionally replacing a fraction of
range rates with gross outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .calib_solver import Extrinsics, MeasurementPairs
from .ego_velocity import RadarScan
from .errors import InvalidArgumentError
from .geometry import rot2, wrap_axis, wrap_to_pi

KINDS = ("periodic_default", "constant_omega", "straight_line")
# Most samples one trajectory may hold.  An hour at 50 Hz is 180,000; far
# past the limit, sampling runs for minutes or fails to allocate.
MAX_SAMPLES = 10**6

DEFAULT_THETA_BA = -1.58
DEFAULT_TRANSLATION = (1.2, 1.6)  # 2 m baseline at a 53 degree axis angle
DEFAULT_LANDMARKS = 40

# The periodic_default motion: body velocity and turn rate vary with period
# PERIOD (s) around the offsets by the amplitudes below (m/s, rad/s).
PERIOD = 15.0
VX_OFFSET, VX_AMP = 1.0, 0.5
VY_OFFSET, VY_AMP = 0.0, 0.4
OMEGA_AMP, OMEGA_PHASE = 0.6, 0.4

# Each radar sees landmarks within FOV_HALF of its +y boresight and at least
# MIN_RANGE (m) away; landmarks lie LANDMARK_R_MIN to LANDMARK_R_MAX (m) from
# their anchor on the path.
FOV_HALF = math.pi / 3
MIN_RANGE = 0.5
LANDMARK_R_MIN, LANDMARK_R_MAX = 3.0, 25.0


@dataclass
class TrajectoryProfile:
    """Parametric rig motion, sampled at ``rate`` Hz for ``duration`` s.

    ``periodic_default`` follows the module's ``PERIOD``, offset and
    amplitude constants; ``constant_omega`` and ``straight_line`` move at
    constant body velocity ``(speed, 0)`` with turn rate ``omega`` and zero
    respectively.  Every float field must be finite, ``duration`` and
    ``rate`` positive, and ``duration * rate`` at most ``MAX_SAMPLES``.
    """

    kind: str = "periodic_default"
    duration: float = 15.0
    rate: float = 10.0
    speed: float = 1.0
    omega: float = 0.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown trajectory kind {self.kind!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidArgumentError(f"trajectory {f.name} must be finite, got {value!r}")
        if not (self.duration > 0 and self.rate > 0):
            raise InvalidArgumentError(
                f"duration and rate must be positive, got {self.duration!r} and {self.rate!r}"
            )
        if self.duration * self.rate > MAX_SAMPLES:
            raise InvalidArgumentError(
                f"duration {self.duration!r} s at rate {self.rate!r} Hz exceeds "
                f"the limit of {MAX_SAMPLES} samples"
            )


@dataclass
class NoiseSpec:
    """Corruption levels for simulated measurements."""

    sigma_r: float = 0.1                 # m/s per axis on pair velocities
    detection_sigma: float = 0.01        # m/s on per-detection range rates
    outlier_fraction: float = 0.0        # fraction of detections made gross outliers

    def __post_init__(self):
        for name in ("sigma_r", "detection_sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails too
                raise InvalidArgumentError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise InvalidArgumentError("outlier_fraction must be in [0, 1)")


@dataclass
class GroundTruth:
    """Exact rig motion and geometry backing a simulated dataset."""

    timestamps: np.ndarray    # (M,)
    v_a: np.ndarray           # (M, 2) radar a velocity in its own frame
    omega: np.ndarray         # (M,) rig angular rate, rad/s
    alpha: np.ndarray         # (M,) analytic d omega / dt
    theta_ba: float
    translation: np.ndarray   # (2,) radar b position in a's frame, meters

    @property
    def extrinsics(self) -> Extrinsics:
        """Identifiable extrinsics: axis folded to [0, pi)."""
        raw = math.atan2(self.translation[1], self.translation[0])
        return Extrinsics(theta_t=wrap_axis(raw), theta_ba=wrap_to_pi(self.theta_ba))

    @property
    def gauge_sign(self) -> float:
        """Sign relating folded-axis turn rates to the physical ones."""
        raw = math.atan2(self.translation[1], self.translation[0])
        return 1.0 if 0.0 <= raw < math.pi else -1.0

    @property
    def omega_gamma(self) -> np.ndarray:
        """Unscaled turn rates in the folded-axis convention."""
        return self.gauge_sign * self.omega * float(np.linalg.norm(self.translation))

    def model_h_b(self) -> np.ndarray:
        """Noise-free radar b ego-velocities implied by the motion."""
        R = rot2(self.theta_ba)
        lever = np.stack(
            [-self.omega * self.translation[1], self.omega * self.translation[0]], axis=1
        )
        return (self.v_a + lever) @ R.T

    def world_poses(self):
        """Integrated world positions and headings of both radars.

        Headings by trapezoidal integration of the turn rate, positions by
        trapezoidal integration of the world-frame velocity.  Returns
        ``(p_a, psi_a, p_b, psi_b)``.
        """
        t = self.timestamps
        psi_a = np.concatenate(
            [[0.0], np.cumsum(0.5 * (self.omega[1:] + self.omega[:-1]) * np.diff(t))]
        )
        c, s = np.cos(psi_a), np.sin(psi_a)
        vw = np.stack(
            [c * self.v_a[:, 0] - s * self.v_a[:, 1], s * self.v_a[:, 0] + c * self.v_a[:, 1]],
            axis=1,
        )
        p_a = np.zeros_like(vw)
        p_a[1:] = np.cumsum(0.5 * (vw[1:] + vw[:-1]) * np.diff(t)[:, None], axis=0)
        offs = np.stack(
            [
                c * self.translation[0] - s * self.translation[1],
                s * self.translation[0] + c * self.translation[1],
            ],
            axis=1,
        )
        return p_a, psi_a, p_a + offs, psi_a - self.theta_ba


@dataclass
class SimulatedScans:
    """Detection-level output: scan streams plus per-detection outlier labels."""

    scans: dict[str, list[RadarScan]]
    outlier_masks: dict[str, list[np.ndarray]]


def generate_trajectory(
    profile: TrajectoryProfile,
    theta_ba: float = DEFAULT_THETA_BA,
    translation=DEFAULT_TRANSLATION,
) -> GroundTruth:
    """Sample a motion profile into a ground-truth record."""
    theta_ba = float(theta_ba)
    if not math.isfinite(theta_ba):
        raise InvalidArgumentError(f"theta_ba must be finite, got {theta_ba!r}")
    translation = np.asarray(translation, dtype=float)
    if translation.shape != (2,) or not np.all(np.isfinite(translation)):
        raise InvalidArgumentError("translation must be a finite 2-vector")
    if np.hypot(translation[0], translation[1]) == 0.0:
        raise InvalidArgumentError("translation must be nonzero")

    n = int(round(profile.duration * profile.rate))
    t = np.arange(n) / profile.rate

    if profile.kind == "periodic_default":
        base = 2.0 * math.pi / PERIOD
        vx = VX_OFFSET + VX_AMP * np.sin(base * t)
        vy = VY_OFFSET + VY_AMP * np.cos(2.0 * base * t)
        omega = OMEGA_AMP * np.sin(base * t + OMEGA_PHASE)
        alpha = OMEGA_AMP * base * np.cos(base * t + OMEGA_PHASE)
    elif profile.kind == "constant_omega":
        vx = np.full(n, profile.speed)
        vy = np.zeros(n)
        omega = np.full(n, profile.omega)
        alpha = np.zeros(n)
    else:  # straight_line
        vx = np.full(n, profile.speed)
        vy = np.zeros(n)
        omega = np.zeros(n)
        alpha = np.zeros(n)

    return GroundTruth(
        timestamps=t,
        v_a=np.stack([vx, vy], axis=1),
        omega=omega,
        alpha=alpha,
        theta_ba=theta_ba,
        translation=translation,
    )


def simulate_pairs(truth: GroundTruth, noise: NoiseSpec, rng_seed=0) -> MeasurementPairs:
    """Velocity-level measurement pairs: exact model values plus noise.

    Both radars get independent isotropic Gaussian noise of ``sigma_r`` per
    axis, and every measurement carries the matching ``sigma_r^2 * I``
    covariance (exactly what a downstream consumer should believe).
    """
    rng = np.random.default_rng(rng_seed)
    m = len(truth.timestamps)
    ha = truth.v_a + noise.sigma_r * rng.standard_normal((m, 2))
    hb = truth.model_h_b() + noise.sigma_r * rng.standard_normal((m, 2))
    cov = np.tile(noise.sigma_r ** 2 * np.eye(2), (m, 1, 1))
    return MeasurementPairs(
        timestamps=truth.timestamps.copy(), h_a=ha, h_b=hb, cov_a=cov, cov_b=cov.copy()
    )


def sample_landmarks(truth: GroundTruth, n: int = DEFAULT_LANDMARKS, rng_seed=0) -> np.ndarray:
    """Static landmarks scattered in annuli around random points of the path."""
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1 landmarks, got n={n}")
    rng = np.random.default_rng(rng_seed)
    p_a, _, _, _ = truth.world_poses()
    anchors = p_a[rng.integers(0, p_a.shape[0], size=n)]
    radii = np.sqrt(rng.uniform(LANDMARK_R_MIN ** 2, LANDMARK_R_MAX ** 2, size=n))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return anchors + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def simulate_scans(
    truth: GroundTruth,
    landmarks: np.ndarray,
    noise: NoiseSpec,
    rng_seed=0,
) -> SimulatedScans:
    """Detection-level scans for both radars against a static landmark field.

    Each radar sees landmarks within ``FOV_HALF`` of its +y boresight and
    beyond ``MIN_RANGE``.  Range rates are the exact line-of-sight
    projection of the radar's ego-velocity plus ``detection_sigma`` noise;
    an ``outlier_fraction`` of detections additionally get a 1 to 3 m/s
    range-rate corruption, recorded in the returned masks.
    """
    landmarks = np.asarray(landmarks, dtype=float)
    if landmarks.ndim != 2 or landmarks.shape[1] != 2:
        raise InvalidArgumentError("landmarks must have shape (L, 2)")
    seq = np.random.SeedSequence(rng_seed) if not isinstance(rng_seed, np.random.SeedSequence) else rng_seed
    rngs = {rid: np.random.default_rng(s) for rid, s in zip(("a", "b"), seq.spawn(2))}

    p_a, psi_a, p_b, psi_b = truth.world_poses()
    h = {"a": truth.v_a, "b": truth.model_h_b()}
    pos = {"a": p_a, "b": p_b}
    psi = {"a": psi_a, "b": psi_b}

    scans = {"a": [], "b": []}
    masks = {"a": [], "b": []}
    for rid in ("a", "b"):
        rng = rngs[rid]
        for j, ts in enumerate(truth.timestamps):
            rel = landmarks - pos[rid][j]
            ranges = np.hypot(rel[:, 0], rel[:, 1])
            c, s = math.cos(psi[rid][j]), math.sin(psi[rid][j])
            los_x = c * rel[:, 0] + s * rel[:, 1]
            los_y = -s * rel[:, 0] + c * rel[:, 1]
            az = np.arctan2(los_x, los_y)
            vis = (np.abs(az) <= FOV_HALF) & (ranges >= MIN_RANGE)
            idx = np.flatnonzero(vis)
            rr = -(los_x[idx] * h[rid][j, 0] + los_y[idx] * h[rid][j, 1]) / ranges[idx]
            rr = rr + noise.detection_sigma * rng.standard_normal(idx.size)
            out_mask = rng.random(idx.size) < noise.outlier_fraction
            if np.any(out_mask):
                bump = rng.uniform(1.0, 3.0, size=int(out_mask.sum()))
                sign = rng.choice([-1.0, 1.0], size=int(out_mask.sum()))
                rr[out_mask] += bump * sign
            dets = np.column_stack([ranges[idx], az[idx], rr])
            scans[rid].append(RadarScan(timestamp=float(ts), radar_id=rid, detections=dets))
            masks[rid].append(out_mask)
    return SimulatedScans(scans=scans, outlier_masks=masks)
