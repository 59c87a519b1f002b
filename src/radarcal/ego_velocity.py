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
    CalibrationError,
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
class RadarScan:
    """All detections of one radar at one timestamp.

    ``detections`` is a read-only (n, 3) float array, checked once, one row
    per return: range (m), azimuth (rad) and range rate (m/s).
    """

    timestamp: float
    radar_id: str
    detections: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise InvalidArgumentError("scan timestamp must be finite")
        if not self.radar_id or any(ch.isspace() for ch in self.radar_id):
            raise InvalidArgumentError(f"radar_id must be non-empty without whitespace: {self.radar_id!r}")
        d = np.array(self.detections, dtype=float)
        d.flags.writeable = False
        object.__setattr__(self, "detections", d)
        if d.ndim != 2 or d.shape[1] != 3:
            raise InvalidArgumentError(f"detections must have shape (n, 3), got {d.shape}")
        if not np.isfinite(d).all():
            bad = d[~np.isfinite(d).all(axis=1)][0].tolist()
            raise InvalidArgumentError(f"detection fields must be finite: {bad}")
        low = d[:, 0] <= 0.0
        if low.any():
            raise InvalidArgumentError(f"detection range must be positive: {float(d[low, 0][0])}")


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


def _stack_systems(scans: list[RadarScan]) -> tuple[np.ndarray, np.ndarray]:
    """A (S, n, 2) and y (S, n) of scans that each hold ``n`` detections."""
    D = np.stack([s.detections for s in scans])
    # Contiguous, since a strided input may take another sin/cos ufunc loop.
    az = np.ascontiguousarray(D[..., 1])
    return np.stack([np.sin(az), np.cos(az)], axis=-1), -D[..., 2]


def build_lsq(scan: RadarScan) -> tuple[np.ndarray, np.ndarray]:
    """The range-rate system ``A v = y`` of one scan: A (n, 2) with rows
    ``[sin(az), cos(az)]`` and y (n,) the negated range rates.

    Raises EmptyInputError when the scan holds no detections.
    """
    if not len(scan.detections):
        raise EmptyInputError(f"scan at t={scan.timestamp} has no detections")
    A, y = _stack_systems([scan])
    return A[0], y[0]


def _refit(A: np.ndarray, y: np.ndarray):
    """Least-squares fits of the stacked systems ``A (S, c, 2) v = y (S, c)``.

    Returns ``cond(A^T A)`` (S,), velocities (S, 2) and covariances
    (S, 2, 2); a system whose cond is not finite or exceeds
    ``CONDITION_CAP`` gets NaN velocity and covariance.  Huge range rates
    may overflow a fit to inf or NaN without a warning; :func:`_refit_errors`
    refuses both.  Each system goes through the calls a single one would: a
    syrk for ``A^T A``, an SVD for its cond, gesv for the solve and the
    inverse, and a dot for ``eps.eps``, all on matrices of the single
    system's shape and layout, so every item is bit for bit the fit of that
    system alone.
    """
    ata = A.swapaxes(1, 2) @ A
    cond = np.linalg.cond(ata)
    ok = cond <= CONDITION_CAP  # False for NaN too
    v = np.full((len(A), 2), np.nan)
    cov = np.full((len(A), 2, 2), np.nan)
    A, y, ata = A[ok], y[ok], ata[ok]
    with np.errstate(over="ignore", invalid="ignore"):
        v_ok = np.linalg.solve(ata, A.swapaxes(1, 2) @ y[..., None])[..., 0]
        eps = y - (A @ v_ok[..., None])[..., 0]
        sigma2 = (eps[:, None] @ eps[..., None])[:, 0, 0] / (A.shape[1] - 2)
        v[ok] = v_ok
        cov[ok] = sigma2[:, None, None] * np.linalg.inv(ata)
    return cond, v, cov


def _refit_errors(cond, v, cov) -> list[DegenerateGeometryError | None]:
    """Why each of a stack of refits cannot be used, or None where it can."""
    finite = np.isfinite(v).all(axis=1) & np.isfinite(cov).all(axis=(1, 2))
    errors = []
    for c, ok in zip(cond.tolist(), finite.tolist()):
        if not c <= CONDITION_CAP:
            error = DegenerateGeometryError(
                f"azimuth geometry is one-directional (cond(A^T A) = {c:.3g})"
            )
        elif not ok:
            error = DegenerateGeometryError(
                "least-squares refit overflows: its velocity or covariance is not finite"
            )
        else:
            error = None
        errors.append(error)
    return errors


def solve_ego_velocity(A, y, timestamp: float = 0.0) -> EgoVelocityEstimate:
    """Least-squares velocity and covariance of the system ``A v = y``.

    The covariance is the residual variance estimate scaled by the inverse
    normal matrix, ``(eps.eps / (N - 2)) * inv(A^T A)``; for that to exist
    the system needs at least three rows.  This is the one-system case of
    the stacked refit RANSAC runs on its winners.  Raises
    DegenerateGeometryError when ``A^T A`` is ill-conditioned or the fit
    is not finite.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or A.shape[1] != 2 or y.shape != (A.shape[0],):
        raise InvalidArgumentError(f"bad system shapes {A.shape}, {y.shape}")
    n = A.shape[0]
    if n < MIN_DETECTIONS:
        raise InsufficientDataError(f"need >= {MIN_DETECTIONS} detections, got {n}")
    cond, v, cov = _refit(A[None], y[None])
    (error,) = _refit_errors(cond, v, cov)
    if error is not None:
        raise error
    return EgoVelocityEstimate(
        velocity=v[0],
        covariance=cov[0],
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


def _decode_choice_pairs(u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2, ..., k) samples ``_choice_pairs`` draws from the same streams,
    decoded from the generators' raw 32-bit output ``u`` (..., 3k): three
    values per sample, one stream per row; and a bool array (...) marking the
    rows that were rejected.

    numpy's ``Generator.choice(n, 2, replace=False)`` runs Floyd's algorithm
    and then shuffles the two indices: three draws, each bounded by Lemire's
    method, ``(u * bound) >> 32``, with bounds ``n - 1``, ``n`` and 2.  Floyd
    takes ``n - 1`` when its second draw repeats the first, and the shuffle
    swaps the pair when its draw is 0.  A row is rejected when any of its
    draws lands in Lemire's rejection zone (low 32 bits of ``u * bound`` below
    ``(2**32 - bound) % bound``, odds about n / 2**32): numpy would draw again
    there, and the row's ``u`` no longer lines up with its samples.
    """
    bounds = (n - 1, n, 2)
    m = u.reshape(*u.shape[:-1], -1, 3) * np.array(bounds, dtype=np.uint64)
    low = np.array([(2**32 - b) % b for b in bounds], dtype=np.uint64)
    rejected = np.any((m & 0xFFFFFFFF) < low, axis=(-2, -1))
    first, second, shuffle = np.moveaxis(m >> 32, -1, 0).astype(np.intp)
    second = np.where(second == first, n - 1, second)
    swap = shuffle == 0
    return np.stack([np.where(swap, second, first), np.where(swap, first, second)]), rejected


# Scans of one detection count scored in one array pass.  A block's transient
# arrays hold _SCAN_BLOCK times one scan's (K, n) residuals, however long the
# stream.  Larger blocks ran no faster on simulated 150-scan streams (10-30
# scans per detection count) and raised peak memory.
_SCAN_BLOCK = 8


def _score_block(scans: list[RadarScan], n: int, config: RansacConfig):
    """Score the hypotheses of scans that each hold ``n >= MIN_DETECTIONS``
    detections.  Returns A (S, n, 2), y (S, n), and each scan's winning
    inlier count (S,) and inlier mask (S, n)."""
    k = config.max_iterations
    A, y = _stack_systems(scans)
    seeds = [_scan_seed(config.rng_seed, s.timestamp) for s in scans]
    u = np.stack([
        np.random.default_rng(seed).integers(0, 2**32, size=3 * k, dtype=np.uint32)
        for seed in seeds
    ])
    pairs, rejected = _decode_choice_pairs(u, n)
    for r in np.flatnonzero(rejected).tolist():  # a fresh generator, on the reference draw
        pairs[:, r] = _choice_pairs(np.random.default_rng(seeds[r]), n, k)
    i, j = pairs  # (S, K) each
    rows = np.arange(len(scans))[:, None]
    Ai, Aj, yi, yj = A[rows, i], A[rows, j], y[rows, i], y[rows, j]
    det = Ai[..., 0] * Aj[..., 1] - Ai[..., 1] * Aj[..., 0]
    ok = np.abs(det) >= 1e-12  # a parallel line-of-sight pair constrains only one axis
    det = np.where(ok, det, 1.0)
    # Huge range rates may overflow a hypothesis to inf or NaN; it then has no inliers.
    with np.errstate(over="ignore", invalid="ignore"):
        V = np.stack(
            [(Aj[..., 1] * yi - Ai[..., 1] * yj) / det, (Ai[..., 0] * yj - Aj[..., 0] * yi) / det],
            axis=-1,
        )
        # Each (n, 2) @ (2,) product is the gemv a single scan's ``A @ v`` makes;
        # ``V @ A.T`` would round differently.
        resid = np.abs(y[:, None] - (A[:, None] @ V[..., None])[..., 0])
    masks = resid <= config.residual_threshold
    counts = np.where(ok, masks.sum(axis=-1), 0)  # a parallel pair never wins
    # Square after masking: only an outlier's residual can overflow when squared.
    rms = np.sqrt((np.where(masks, resid, 0.0) ** 2).sum(axis=-1) / np.maximum(counts, 1))
    # Most inliers, then strictly lower RMS, then the earliest draw (the sort is stable).
    best = np.lexsort((rms, -counts), axis=-1)[:, 0]
    return A, y, counts[rows[:, 0], best], masks[rows[:, 0], best]


def ransac_scans(
    scans: list[RadarScan], config: RansacConfig
) -> list[EgoVelocityEstimate | CalibrationError]:
    """Robust ego-velocity for each scan: an estimate, or the error that
    :func:`ransac_ego_velocity` would raise for it, in the scans' order.

    Scans are grouped by detection count ``n`` and each group is scored in
    blocks of ``_SCAN_BLOCK`` scans, one array pass per block; the winners
    of the whole stream are then refit in stacks of equal inlier count.
    Grouping by ``n`` is what keeps every scan's result bit for bit that of
    the scan alone: every matrix product and LAPACK call then runs on
    matrices of the one-scan shape and layout (an ``(n, 2) @ (2,)`` gemv per
    hypothesis, per-row sums along a contiguous last axis, and a syrk, SVD
    and gesv per refit of ``c`` inliers), and each scan keeps its own
    generator and its own stable lexsort rule.
    """
    out: list = [None] * len(scans)
    groups: dict[int, list[int]] = {}
    for s, scan in enumerate(scans):
        n = len(scan.detections)
        if n < MIN_DETECTIONS:
            out[s] = InsufficientDataError(
                f"scan at t={scan.timestamp} has {n} detections, need >= {MIN_DETECTIONS}"
            )
        else:
            groups.setdefault(n, []).append(s)

    winners: dict[int, list] = {}  # inlier count c -> [(scan indices, A, y, masks)]
    for n, members in groups.items():
        need = max(MIN_DETECTIONS, math.ceil(config.inlier_fraction_threshold * n))
        for lo in range(0, len(members), _SCAN_BLOCK):
            block = np.array(members[lo : lo + _SCAN_BLOCK])
            A, y, counts, masks = _score_block([scans[s] for s in block], n, config)
            short = counts < need
            for s, c in zip(block[short].tolist(), counts[short].tolist()):
                out[s] = NoConsensusError(
                    f"scan at t={scans[s].timestamp}: best consensus {c}/{n} "
                    f"below threshold {config.inlier_fraction_threshold:.2f}"
                )
            for c in sorted(set(counts[~short].tolist())):
                sel = counts == c
                m = masks[sel]
                winners.setdefault(c, []).append(
                    (block[sel], A[sel][m].reshape(-1, c, 2), y[sel][m].reshape(-1, c), list(m))
                )

    for c, parts in winners.items():
        index, A, y, masks = zip(*parts)
        cond, v, cov = _refit(np.concatenate(A), np.concatenate(y))
        masks = [mask for part in masks for mask in part]
        errors = _refit_errors(cond, v, cov)
        for r, s in enumerate(np.concatenate(index).tolist()):
            if errors[r] is not None:
                out[s] = errors[r]
                continue
            out[s] = EgoVelocityEstimate(
                velocity=v[r],
                covariance=cov[r],
                n_inliers=c,
                n_total=masks[r].size,
                timestamp=scans[s].timestamp,
                inlier_mask=masks[r],
            )
    return out


def ransac_ego_velocity(scan: RadarScan, config: RansacConfig) -> EgoVelocityEstimate:
    """Robust ego-velocity for one scan: :func:`ransac_scans` on that scan alone.

    ``max_iterations`` two-point hypotheses are drawn in one generator call
    and decoded into exactly the samples that as many
    ``Generator.choice(n, 2, replace=False)`` calls would give.  The decoding
    relies on numpy's Floyd and Lemire internals, which
    ``tests/test_ego_velocity.py`` pins against ``rng.choice``; on a Lemire
    rejection the scan falls back on the ``rng.choice`` calls themselves.
    The hypotheses are scored all at once: most inliers wins, ties go to the
    strictly lower inlier residual RMS, then to the earliest draw.  The
    winner is refit by least squares over its whole consensus set.  Raises
    InsufficientDataError below ``MIN_DETECTIONS`` detections,
    NoConsensusError when the best consensus set is below the configured
    fraction (or too small to refit), and DegenerateGeometryError when the
    consensus set's azimuths span too little or its refit is not finite.  A
    stream scored by :func:`ransac_scans` gives each scan this result bit
    for bit, since its scans are batched only with scans of the same
    detection count.
    """
    (result,) = ransac_scans([scan], config)
    if isinstance(result, CalibrationError):
        raise result
    return result
