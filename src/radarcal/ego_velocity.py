"""Per-scan radar ego-velocity estimation from Doppler range rates.

A static target observed at azimuth ``theta`` by a radar moving with
velocity ``v`` (sensor frame) produces the range rate

    rdot = -[sin(theta), cos(theta)] . v

Azimuth is measured from the sensor's +y boresight toward +x, so the unit
line-of-sight vector is ``(sin(theta), cos(theta))``.  Stacking one row per
detection gives a linear system ``A v = y`` with ``y_i = -rdot_i``, solved
by least squares.  RANSAC on top of the linear fit rejects detections that
are moving targets or clutter.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateGeometryError,
    EmptyInputError,
    InsufficientDataError,
    InvalidArgumentError,
    NoConsensusError,
)

# Azimuth geometry with less spread than this is rejected as one-directional.
CONDITION_CAP = 1e8

# Minimum detections for a solution with a covariance (2 dof + 1).
MIN_DETECTIONS = 3

RANSAC_MIN_SAMPLE = 2


@dataclass(frozen=True)
class Detection:
    """One radar return: range (m), azimuth (rad), range rate (m/s)."""

    range_m: float
    azimuth_rad: float
    range_rate_mps: float

    def __post_init__(self):
        if not (
            math.isfinite(self.range_m)
            and math.isfinite(self.azimuth_rad)
            and math.isfinite(self.range_rate_mps)
        ):
            raise InvalidArgumentError(f"detection fields must be finite: {self!r}")
        if self.range_m <= 0.0:
            raise InvalidArgumentError(f"detection range must be positive: {self.range_m}")


@dataclass
class RadarScan:
    """All detections of one radar at one timestamp."""

    timestamp: float
    radar_id: str
    detections: list[Detection] = field(default_factory=list)

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise InvalidArgumentError("scan timestamp must be finite")
        if not self.radar_id or any(ch.isspace() for ch in self.radar_id):
            raise InvalidArgumentError(f"radar_id must be non-empty without whitespace: {self.radar_id!r}")


@dataclass
class LsqSystem:
    """Stacked linear system ``A v = y`` for one scan."""

    A: np.ndarray  # (N, 2) rows [sin(az), cos(az)]
    y: np.ndarray  # (N,)   negated range rates


@dataclass
class EgoVelocityEstimate:
    """Ego-velocity of one radar at one timestamp, with uncertainty.

    ``inlier_mask`` is populated by the RANSAC path (aligned with the scan's
    detection order) and is None for direct least-squares solutions.
    """

    velocity: np.ndarray      # (2,) m/s, sensor frame
    covariance: np.ndarray    # (2, 2)
    n_inliers: int
    n_total: int
    timestamp: float
    inlier_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.n_inliers < 0 or self.n_inliers > self.n_total:
            raise InvalidArgumentError(
                f"inlier count {self.n_inliers} out of range for total {self.n_total}"
            )


@dataclass
class RansacConfig:
    """Knobs for the robust ego-velocity fit.

    ``residual_threshold`` is in m/s of range rate.  A scan is accepted only
    when the consensus set covers at least ``inlier_fraction_threshold`` of
    its detections.  Each scan draws its samples from a generator seeded by
    ``rng_seed`` mixed with the scan timestamp, so results are reproducible
    per scan regardless of processing order.
    """

    residual_threshold: float = 0.025
    inlier_fraction_threshold: float = 0.40
    max_iterations: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if not self.residual_threshold > 0.0:
            raise InvalidArgumentError("residual_threshold must be positive")
        if not 0.0 < self.inlier_fraction_threshold <= 1.0:
            raise InvalidArgumentError("inlier_fraction_threshold must be in (0, 1]")
        if self.max_iterations < 1:
            raise InvalidArgumentError("max_iterations must be >= 1")


def build_lsq(scan: RadarScan) -> LsqSystem:
    """Assemble the range-rate system for one scan.

    Raises EmptyInputError when the scan holds no detections.
    """
    if not scan.detections:
        raise EmptyInputError(f"scan at t={scan.timestamp} has no detections")
    az = np.array([d.azimuth_rad for d in scan.detections])
    rr = np.array([d.range_rate_mps for d in scan.detections])
    A = np.column_stack([np.sin(az), np.cos(az)])
    return LsqSystem(A=A, y=-rr)


def solve_ego_velocity(system: LsqSystem, timestamp: float = 0.0) -> EgoVelocityEstimate:
    """Least-squares velocity and covariance for a stacked system.

    The covariance is the residual variance estimate scaled by the inverse
    normal matrix, ``(eps.eps / (N - 2)) * inv(A^T A)``; for that to exist
    the system needs at least three rows.
    """
    A = np.asarray(system.A, dtype=float)
    y = np.asarray(system.y, dtype=float)
    if A.ndim != 2 or A.shape[1] != 2 or y.shape != (A.shape[0],):
        raise InvalidArgumentError(f"bad system shapes {A.shape}, {y.shape}")
    n = A.shape[0]
    if n < MIN_DETECTIONS:
        raise InsufficientDataError(f"need >= {MIN_DETECTIONS} detections, got {n}")
    ata = A.T @ A
    cond = np.linalg.cond(ata)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise DegenerateGeometryError(
            f"azimuth geometry is one-directional (cond(A^T A) = {cond:.3g})"
        )
    aty = A.T @ y
    v = np.linalg.solve(ata, aty)
    eps = y - A @ v
    sigma2 = float(eps @ eps) / (n - 2)
    cov = sigma2 * np.linalg.inv(ata)
    return EgoVelocityEstimate(
        velocity=v,
        covariance=cov,
        n_inliers=n,
        n_total=n,
        timestamp=timestamp,
    )


def _scan_seed(rng_seed: int, timestamp: float) -> np.random.SeedSequence:
    """Deterministic per-scan seed: base seed mixed with the timestamp bits."""
    bits = struct.unpack("<Q", struct.pack("<d", float(timestamp)))[0]
    return np.random.SeedSequence(entropy=(int(rng_seed) & 0xFFFFFFFFFFFFFFFF, bits))


def _choice_pairs(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``k`` two-point samples of ``range(n)`` as a (2, k) array, one
    ``rng.choice(n, 2, replace=False)`` per column: the reference draw."""
    return np.array(
        [rng.choice(n, size=RANSAC_MIN_SAMPLE, replace=False) for _ in range(k)]
    ).T


def _decode_choice_pairs(u: np.ndarray, n: int) -> np.ndarray | None:
    """The (2, k) samples ``_choice_pairs`` draws from the same stream, decoded
    from the generator's raw 32-bit output ``u`` (three values per sample).

    numpy's ``Generator.choice(n, 2, replace=False)`` runs Floyd's algorithm
    and then shuffles the two indices: three draws, each bounded by Lemire's
    method, ``(u * bound) >> 32``, with bounds ``n - 1``, ``n`` and 2.  Floyd
    takes ``n - 1`` when its second draw repeats the first, and the shuffle
    swaps the pair when its draw is 0.  Returns None when a draw lands in
    Lemire's rejection zone (low 32 bits of ``u * bound`` below
    ``(2**32 - bound) % bound``, odds about n / 2**32): numpy would draw again
    there, and ``u`` no longer lines up with its samples.
    """
    bounds = (n - 1, n, 2)
    m = u.reshape(-1, 3) * np.array(bounds, dtype=np.uint64)
    if np.any((m & 0xFFFFFFFF) < np.array([(2**32 - b) % b for b in bounds], dtype=np.uint64)):
        return None
    first, second, shuffle = (m >> 32).astype(np.intp).T
    second = np.where(second == first, n - 1, second)
    swap = shuffle == 0
    return np.stack([np.where(swap, second, first), np.where(swap, first, second)])


def _hypothesis_pairs(seed: np.random.SeedSequence, n: int, k: int) -> np.ndarray:
    """``_choice_pairs`` on a generator seeded by ``seed``, from one raw draw.

    On a Lemire rejection the generator is made afresh and the reference
    draw runs, so the samples never depend on which path produced them.
    """
    u = np.random.default_rng(seed).integers(0, 2**32, size=3 * k, dtype=np.uint32)
    pairs = _decode_choice_pairs(u, n)
    if pairs is None:
        pairs = _choice_pairs(np.random.default_rng(seed), n, k)
    return pairs


def ransac_ego_velocity(scan: RadarScan, config: RansacConfig) -> EgoVelocityEstimate:
    """Robust ego-velocity for one scan.

    ``max_iterations`` two-point hypotheses are drawn in one generator call
    and decoded into exactly the samples that as many
    ``Generator.choice(n, 2, replace=False)`` calls would give.  The decoding
    relies on numpy's Floyd and Lemire internals, which
    ``tests/test_ego_velocity.py`` pins against ``rng.choice``; on a Lemire
    rejection the scan falls back on the ``rng.choice`` calls themselves.
    The hypotheses are scored all at once: most inliers wins, ties go to the
    strictly lower inlier residual RMS, then to the earliest draw.  The
    winner is refit by least squares over its whole consensus set.  Raises
    NoConsensusError when the best consensus set is below the configured
    fraction (or too small to refit).
    """
    n = len(scan.detections)
    if n < MIN_DETECTIONS:
        raise InsufficientDataError(
            f"scan at t={scan.timestamp} has {n} detections, need >= {MIN_DETECTIONS}"
        )
    system = build_lsq(scan)
    A, y = system.A, system.y

    i, j = _hypothesis_pairs(_scan_seed(config.rng_seed, scan.timestamp), n, config.max_iterations)
    det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
    ok = np.abs(det) >= 1e-12  # a parallel line-of-sight pair constrains only one axis
    i, j, det = i[ok], j[ok], det[ok]
    V = np.stack(
        [(A[j, 1] * y[i] - A[i, 1] * y[j]) / det, (A[i, 0] * y[j] - A[j, 0] * y[i]) / det],
        axis=1,
    )
    # Batched matrix-vector products round each row as ``A @ v`` does; ``V @ A.T`` would not.
    resid = np.abs(y - (A @ V[:, :, None])[..., 0])
    masks = resid <= config.residual_threshold
    counts = masks.sum(axis=1)
    rms = np.sqrt(np.where(masks, resid**2, 0.0).sum(axis=1) / np.maximum(counts, 1))
    # Most inliers, then strictly lower RMS, then the earliest draw (the sort is stable).
    order = np.lexsort((rms, -counts))
    best_count = int(counts[order[0]]) if order.size else 0

    if best_count < max(MIN_DETECTIONS, math.ceil(config.inlier_fraction_threshold * n)):
        raise NoConsensusError(
            f"scan at t={scan.timestamp}: best consensus {best_count}/{n} "
            f"below threshold {config.inlier_fraction_threshold:.2f}"
        )
    best_mask = masks[order[0]].copy()  # not a view that keeps all K masks alive

    refit = solve_ego_velocity(
        LsqSystem(A=A[best_mask], y=y[best_mask]), timestamp=scan.timestamp
    )
    refit.n_total = n
    refit.n_inliers = best_count
    refit.inlier_mask = best_mask
    return refit
