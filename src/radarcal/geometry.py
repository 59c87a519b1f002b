"""Planar rotation and angle helpers shared by every other module.

Conventions, used consistently across the package:

* Vectors are numpy arrays of shape ``(2,)``; matrices are ``(2, 2)`` and act
  on column vectors, ``w = M @ v``.
* ``rot2(theta)`` is the counterclockwise rotation ``[[c, -s], [s, c]]``.
  When ``theta`` is the orientation of frame b expressed in frame a,
  ``rot2(theta)`` maps b-frame coordinates into a-frame coordinates.
* ``wedge(r)`` is the planar analogue of the cross-product matrix:
  ``wedge(r) @ v`` rotates ``v`` by +90 degrees and scales it by ``r``.
* Translation axes are direction-only quantities; an axis angle and its
  antipode describe the same line, so axis angles live in ``[0, pi)``.
  Relative orientations live in ``(-pi, pi]``.

Angles are plain floats in radians.  No function here wraps its input; the
optimizer works on unconstrained angles and wrapping is applied only when
results are reported.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

Angle = float
Vec2 = np.ndarray
Mat2 = np.ndarray

_MEDIAN_BLOCK_CELLS = 1 << 16  # pairwise distances circular_median holds at once


def rot2(theta: Angle) -> Mat2:
    """Counterclockwise rotation matrix for the angle ``theta``."""
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"rotation angle must be finite, got {theta!r}")
    c = math.cos(theta)
    s = math.sin(theta)
    return np.array([[c, -s], [s, c]])


def wedge(r: float) -> Mat2:
    """Matrix form of the planar cross product: ``[[0, -r], [r, 0]]``."""
    if not math.isfinite(r):
        raise InvalidArgumentError(f"wedge argument must be finite, got {r!r}")
    return np.array([[0.0, -r], [r, 0.0]])


def wrap_axis(theta: Angle | np.ndarray) -> Angle | np.ndarray:
    """Map axis angles to the canonical representative in ``[0, pi)``.

    Axis angles are modulo pi because a direction and its antipode span the
    same line.  Idempotent: values already in range are returned unchanged.
    Takes a float (and returns a float) or an array (and returns an array).
    """
    x = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError(f"axis angle must be finite, got {theta!r}")
    # ``+ 0.0`` makes a floor of -0.0 count as +0.0, as an integer floor
    # would, so that -0.0 maps to -0.0.
    out = x - (np.floor(x / math.pi) + 0.0) * math.pi
    # Rounding of theta / pi can leave out a hair outside [0, pi); so does a
    # tiny negative theta, whose quotient underflows to -0.0.
    out = np.where(out >= math.pi, out - math.pi, out)
    out = np.where(out < 0.0, 0.0, out)
    return float(out) if out.ndim == 0 else out


def wrap_to_pi(theta: Angle) -> Angle:
    """Map an angle to ``(-pi, pi]``."""
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"angle must be finite, got {theta!r}")
    out = math.remainder(theta, math.tau)
    if out <= -math.pi:
        out += math.tau
    return out


def axis_unit(theta_t: Angle) -> Vec2:
    """Unit vector along the translation axis at angle ``theta_t``."""
    return np.array([math.cos(theta_t), math.sin(theta_t)])


def lever_unit(theta_t: Angle) -> Vec2:
    """Unit vector of the lever-arm velocity direction, ``wedge(1) @ axis``.

    A unit angular rate about the origin moves a point on the axis along
    this direction.
    """
    return np.array([-math.sin(theta_t), math.cos(theta_t)])


def angle_between(a: Vec2, b: Vec2) -> Angle:
    """Signed angle that rotates ``a`` onto ``b``, in ``(-pi, pi]``.

    Scale invariant; both inputs must be nonzero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidArgumentError("angle_between requires finite vectors")
    na = math.hypot(a[0], a[1])
    nb = math.hypot(b[0], b[1])
    if na == 0.0 or nb == 0.0:
        raise InvalidArgumentError("angle_between requires nonzero vectors")
    cross = a[0] * b[1] - a[1] * b[0]
    dot = a[0] * b[0] + a[1] * b[1]
    out = math.atan2(cross / (na * nb), dot / (na * nb))
    if out <= -math.pi:
        out += math.tau
    return out


def median(x: np.ndarray) -> float:
    """``np.median(x)`` of a non-empty 1-d float array, bit for bit.

    ``np.median`` reads ``np.ma`` to check for NaN, which imports
    ``numpy.ma`` (about 14 ms and 1.25 MB) on a process's first call.  This
    takes numpy's own steps with core functions only: partition at the
    middle and last indices, the mean of the middle one or two values, and
    the last value instead when it is NaN (NaN sorts last).
    """
    a = np.asarray(x, dtype=float)
    h = a.size // 2
    if a.size % 2 == 0:
        part = np.partition(a, [h - 1, h, -1])
        middle = part[h - 1:h + 1]
    else:
        part = np.partition(a, [h, -1])
        middle = part[h:h + 1]
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(middle))


def quantile(x: np.ndarray, q: float) -> float:
    """``np.quantile(x, q)`` (method ``"linear"``) of a non-empty 1-d float
    array and ``0 <= q <= 1``, bit for bit, without importing ``numpy.ma``
    (see :func:`median`).

    numpy's steps: the virtual index ``(n - 1) * q``, its floor and the next
    index (both the last index when it reaches the end), and its ``_lerp``,
    which interpolates from the upper value when the weight is 0.5 or more.
    """
    a = np.asarray(x, dtype=float)
    n = a.size
    virtual = (n - 1) * q
    lo = hi = -1
    if virtual < n - 1:
        lo = math.floor(virtual)
        hi = lo + 1
    part = np.partition(a, sorted({0, -1, lo, hi}))
    if np.isnan(part[-1]):
        return float(part[-1])
    below, above = float(part[lo]), float(part[hi])
    gamma = virtual - lo
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


def circular_median(angles: np.ndarray, modulus: float = math.tau) -> Angle:
    """Median of angles under a circular metric with the given modulus.

    Returns the sample value minimizing the summed absolute circular
    deviation to all other samples; ties break toward the smaller canonical
    value.  Robust against wraparound, unlike a plain median.

    Every distinct value is scored in O(M log M) from sorted prefix sums.
    Those scores round differently from the pairwise sums, so the values
    whose fast score lies within a rounding bound of the minimum are scored
    again with the pairwise sum over all samples (blocks of rows of at most
    ``_MEDIAN_BLOCK_CELLS`` distances), and the exact minimum among them
    wins.  Memory is O(M); time is O(M log M) unless nearly every value
    ties (evenly spaced angles), where it falls back to O(M^2).
    """
    arr = np.asarray(angles, dtype=float)
    if arr.size == 0:
        raise InvalidArgumentError("circular_median of an empty set")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("circular_median requires finite angles")
    canon = np.mod(arr, modulus)
    m = canon.size
    values, counts = np.unique(canon, return_counts=True)
    # n_below[j] samples, summing to s_below[j], lie below values[j].
    n_below = np.concatenate([[0], np.cumsum(counts)])
    s_below = np.concatenate([[0.0], np.cumsum(values * counts)])
    # Samples below index ``lo`` lie more than half a turn below a value,
    # samples from ``hi`` on more than half a turn above it; those come
    # the short way round, across the seam.
    lo = np.searchsorted(values, values - 0.5 * modulus, side="left")
    hi = np.searchsorted(values, values + 0.5 * modulus, side="right")
    near_below = values * (n_below[:-1] - n_below[lo]) - (s_below[:-1] - s_below[lo])
    near_above = (s_below[hi] - s_below[1:]) - values * (n_below[hi] - n_below[1:])
    far_below = (modulus - values) * n_below[lo] + s_below[lo]
    far_above = (modulus + values) * (m - n_below[hi]) - (s_below[-1] - s_below[hi])
    fast = near_below + near_above + far_below + far_above
    # A fast score is off the true sum by at most about 7*m*eps*sum(c) +
    # 10*eps*m*L (the prefix sums), a pairwise sum by about
    # (log2(m) + 20)*eps*m*L; the bound covers twice both for any m >= 2,
    # so the exact minimizer and all its ties are among the candidates.
    bound = 16.0 * m * np.finfo(float).eps * (m * modulus + s_below[-1])
    candidates = values[fast <= fast.min() + bound]
    score = np.empty_like(candidates)
    rows = max(1, _MEDIAN_BLOCK_CELLS // m)
    for i in range(0, candidates.size, rows):
        d = np.abs(candidates[i:i + rows, None] - canon)
        score[i:i + rows] = np.minimum(d, modulus - d, out=d).sum(axis=1)
    return float(candidates[np.argmin(score)])
