import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from radarcal.errors import InvalidArgumentError
from radarcal.geometry import (
    angle_between,
    axis_unit,
    circular_median,
    lever_unit,
    median,
    quantile,
    rot2,
    wedge,
    wrap_axis,
    wrap_to_pi,
)

finite_angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_rot2_basics():
    np.testing.assert_allclose(rot2(0.0), np.eye(2), atol=1e-15)
    # quarter turn sends +x to +y
    np.testing.assert_allclose(rot2(math.pi / 2) @ [1.0, 0.0], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rot2(math.pi / 2), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


@given(finite_angles, finite_angles)
def test_rot2_composes(a, b):
    np.testing.assert_allclose(rot2(a) @ rot2(b), rot2(a + b), atol=1e-12)


@given(finite_angles)
def test_rot2_orthonormal(theta):
    R = rot2(theta)
    np.testing.assert_allclose(R.T @ R, np.eye(2), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_wedge_values():
    np.testing.assert_allclose(wedge(2.0) @ [3.0, 4.0], [-8.0, 6.0])
    np.testing.assert_allclose(wedge(1.0), [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(wedge(-0.5) @ [1.0, 0.0], [0.0, -0.5])


@given(finite_angles, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_wedge_is_ninety_degree_rotation(theta, r):
    v = axis_unit(theta)
    np.testing.assert_allclose(wedge(r) @ v, r * (rot2(math.pi / 2) @ v), atol=1e-12)


def test_wrap_axis_examples():
    assert wrap_axis(7 * math.pi / 3) == pytest.approx(math.pi / 3, abs=1e-12)
    assert wrap_axis(-math.pi / 4) == pytest.approx(3 * math.pi / 4, abs=1e-12)
    assert wrap_axis(math.pi) == 0.0
    assert wrap_axis(0.0) == 0.0


@given(finite_angles)
def test_wrap_axis_range_and_idempotence(theta):
    w = wrap_axis(theta)
    assert 0.0 <= w < math.pi
    assert wrap_axis(w) == w
    # same line: difference from the input is a multiple of pi
    k = (theta - w) / math.pi
    assert k == pytest.approx(round(k), abs=1e-9)


def test_wrap_axis_tiny_negative_maps_to_zero():
    # theta / pi underflows to -0.0, so the fold by floor() moves nothing
    for theta in (-5e-324, -math.ulp(0.0)):
        assert wrap_axis(theta) == 0.0
        assert math.copysign(1.0, wrap_axis(theta)) == 1.0


def scalar_wrap_axis(theta):
    """The per-float fold that the array ``wrap_axis`` must reproduce bit for bit."""
    k = math.floor(theta / math.pi)
    out = theta - k * math.pi
    if out >= math.pi:
        out -= math.pi
    if out < 0.0:
        out = 0.0
    return out


def test_wrap_axis_folds_arrays_as_it_folds_floats():
    specials = [
        0.0, -0.0, -1e-300, -5e-17, -5e-324, 5e-324, math.pi, -math.pi,
        math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0), -math.nextafter(math.pi, 0.0),
        1e300, -1e300, 1.7e308, -1.7e308, 1e16, 2.0**53,
    ] + [k * math.pi for k in range(-40, 41)]
    rng = np.random.default_rng(0)
    values = np.concatenate([specials, rng.uniform(-50, 50, 2000), rng.normal(0, 1e6, 500)])
    expected = np.array([scalar_wrap_axis(float(v)) for v in values])
    folded = wrap_axis(values)
    # array_equal calls -0.0 and +0.0 equal, so the sign is compared as well.
    np.testing.assert_array_equal(folded, expected)
    np.testing.assert_array_equal(np.signbit(folded), np.signbit(expected))
    for v, e in zip(values, expected):
        w = wrap_axis(float(v))
        assert type(w) is float
        assert w == e and math.copysign(1.0, w) == math.copysign(1.0, e)
    assert math.copysign(1.0, wrap_axis(-0.0)) == -1.0
    assert wrap_axis(np.empty(0)).shape == (0,)
    with pytest.raises(InvalidArgumentError):
        wrap_axis(np.array([0.1, math.nan]))


@given(finite_angles)
def test_wrap_to_pi_range(theta):
    w = wrap_to_pi(theta)
    assert -math.pi < w <= math.pi
    assert math.remainder(theta - w, math.tau) == pytest.approx(0.0, abs=1e-9)


def test_wrap_to_pi_boundary():
    assert wrap_to_pi(math.pi) == math.pi
    assert wrap_to_pi(-math.pi) == math.pi
    assert wrap_to_pi(3 * math.pi) == pytest.approx(math.pi)


def test_axis_and_lever_are_perpendicular():
    for theta in (0.0, 0.3, 1.2, 2.9):
        assert axis_unit(theta) @ lever_unit(theta) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(lever_unit(theta), wedge(1.0) @ axis_unit(theta), atol=1e-15)


def test_angle_between_examples():
    assert angle_between([1, 0], [0, 1]) == pytest.approx(math.pi / 2)
    assert angle_between([0, 1], [1, 0]) == pytest.approx(-math.pi / 2)
    assert angle_between([1, 0], [-1, 0]) == pytest.approx(math.pi)
    assert angle_between([2, 0], [5, 0]) == 0.0


@given(finite_angles, finite_angles, st.floats(min_value=0.1, max_value=10))
def test_angle_between_rotation_recovery(base, delta, scale):
    a = axis_unit(base)
    b = scale * (rot2(delta) @ a)
    got = angle_between(a, b)
    assert wrap_to_pi(got - delta) == pytest.approx(0.0, abs=1e-9)


def test_angle_between_rejects_zero():
    with pytest.raises(InvalidArgumentError):
        angle_between([0.0, 0.0], [1.0, 0.0])


def test_circular_median_plain_case():
    assert circular_median(np.array([0.1, 0.2, 0.3])) == pytest.approx(0.2)


def test_circular_median_wraparound():
    # samples straddling the 0/2pi seam; a plain median would land near pi
    angles = np.array([0.05, 6.25, 0.1, 6.2, 0.0])
    med = circular_median(angles)
    dist = min(med, math.tau - med)
    assert dist < 0.2


def test_circular_median_mod_pi():
    angles = np.array([0.05, math.pi - 0.05, 0.1, math.pi - 0.1, 0.0])
    med = circular_median(angles, modulus=math.pi)
    dist = min(med, math.pi - med)
    assert dist < 0.2


def test_circular_median_empty():
    with pytest.raises(InvalidArgumentError):
        circular_median(np.array([]))


@given(
    st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=30)
)
def test_circular_median_minimizes_summed_deviation(angles):
    arr = np.array(angles)
    med = circular_median(arr)

    def devsum(center):
        d = np.abs(np.mod(arr, math.tau) - center)
        return np.minimum(d, math.tau - d).sum()

    best_sample = min(devsum(a % math.tau) for a in angles)
    assert devsum(med) <= best_sample + 1e-9
    # the median is one of the samples (canonicalized)
    dists = np.abs(np.mod(arr, math.tau) - med)
    assert np.minimum(dists, math.tau - dists).min() < 1e-9


def pairwise_median(arr, modulus):
    """Reference: the full M x M deviation matrix, summed along its rows."""
    canon = np.mod(arr, modulus)
    diffs = np.abs(canon[:, None] - canon[None, :])
    score = np.minimum(diffs, modulus - diffs).sum(axis=1)
    return float(np.min(canon[score == score.min()]))


@pytest.mark.parametrize("modulus", [math.pi, math.tau])
def test_circular_median_matches_pairwise_matrix(modulus):
    rng = np.random.default_rng(1)
    for m in (1, 2, 3, 4, 10, 101, 500, 1999, 2000):
        for decimals in (None, 1):
            arr = rng.uniform(-10.0, 10.0, m)
            if decimals is not None:
                arr = np.round(arr, decimals)   # many exact ties
            assert circular_median(arr, modulus) == pairwise_median(arr, modulus)


@pytest.mark.parametrize("modulus", [math.pi, math.tau])
def test_circular_median_matches_pairwise_matrix_on_ties_and_seams(modulus):
    rng = np.random.default_rng(2)
    cases = []
    for m in (2, 7, 64, 501, 1500):
        # Evenly spaced angles score alike up to rounding, so every sample
        # is a candidate that the exact sums must decide between.
        cases.append(np.arange(m) * (modulus / m) + rng.uniform(-1.0, 1.0))
        cases.append(np.repeat(rng.uniform(-10.0, 10.0, 3), m))           # duplicates only
        cases.append(rng.choice(rng.uniform(-10.0, 10.0, 5), m))          # a few repeated values
        cases.append(rng.vonmises(rng.uniform(-3.0, 3.0), 4.0, m) * modulus / math.tau)
    for m in (2, 9, 300):
        # Within ulps of 0 and of the modulus: np.mod maps some to the
        # modulus itself, the same point as 0 on the circle.
        tiny = np.nextafter(0.0, 1.0) * rng.integers(-3, 4, m)
        ulps = np.spacing(modulus) * rng.integers(-3, 4, m)
        cases += [tiny, modulus + ulps, np.concatenate([tiny, modulus + ulps, -ulps])]
    for arr in cases:
        assert circular_median(arr, modulus) == pairwise_median(arr, modulus)


def test_circular_median_memory_is_linear():
    import tracemalloc

    angles = np.random.default_rng(0).uniform(-10.0, 10.0, 4000)
    tracemalloc.start()
    try:
        circular_median(angles, math.pi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # An M x M float matrix would be 128 MB here; the arrays are 32 kB each.
    assert peak < 2 * 2**20


def test_non_finite_rejected():
    for fn in (wrap_axis, wrap_to_pi, rot2, wedge):
        with pytest.raises(InvalidArgumentError):
            fn(math.nan)
    with pytest.raises(InvalidArgumentError):
        circular_median(np.array([0.1, math.inf]))


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


QUANTILES = (0.25, 0.5, 0.75, 0.9)


def _assert_order_statistics_match_numpy(x):
    before = x.copy()
    # numpy's lerp subtracts infinities, and the mean of two middle values
    # near the largest float overflows in numpy's median as in ours.
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(median(x)) == _bits(np.median(x))
        for q in QUANTILES:
            assert _bits(quantile(x, q)) == _bits(np.quantile(x, q)), q
    assert np.array_equal(x.view(np.uint64), before.view(np.uint64))  # input untouched


@pytest.mark.parametrize("values", [
    [2.5],
    [-0.0],
    [3.0, -1.0, 2.0],
    [4.0, 1.0, 3.0, 2.0],
    [1.0, 1.0, 2.0, 1.0, 1.0],
    [5.0, 5.0, 5.0, 5.0],
    [0.0, -0.0],
    [-0.0, -0.0, -0.0],
    [-0.0, 0.0, -0.0, 0.0],
    [-math.inf, 1.0, math.inf],
    [math.inf, 2.0],
    [-math.inf, -math.inf, 0.0, 1.0],
    [math.inf, math.inf, math.inf],
    [1e308, 1.7e308, -1e308, 5e-324],
    [math.nan],
    [1.0, math.nan, 2.0],
    [math.nan, 0.0, -math.nan, 3.0],
])
def test_median_and_quantile_match_numpy_bit_for_bit(values):
    _assert_order_statistics_match_numpy(np.array(values))


@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
@example([8.988465674311579e307, 8.98846567431158e307])
def test_median_and_quantile_match_numpy_on_any_floats(values):
    _assert_order_statistics_match_numpy(np.array(values, dtype=float))
