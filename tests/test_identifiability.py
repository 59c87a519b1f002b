import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from radarcal.identifiability import (
    FLAG_AXIS_ALIGNED,
    FLAG_ZERO_ALPHA,
    FLAG_ZERO_VELOCITY,
    ExcitationThresholds,
    _excitation_report,
    excitation_report,
    observability_det,
)
from radarcal.calib_solver import _weights
from radarcal.errors import InsufficientDataError, InvalidArgumentError
from radarcal.simulator import NoiseSpec, TrajectoryProfile, generate_trajectory, simulate_pairs

angles = st.floats(min_value=-math.pi, max_value=math.pi)
finite = st.floats(min_value=-100.0, max_value=100.0)


def profile_pairs(kind, duration=15.0, sigma=0.0, seed=0):
    truth = generate_trajectory(TrajectoryProfile(kind=kind, duration=duration))
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=sigma), rng_seed=seed)
    return truth, pairs


# ---------------------------------------------------------------------------
# the determinant itself


def test_det_forward_motion_axis_ahead():
    # axis straight along +x, velocity along +y, alpha = 2: the velocity is
    # fully perpendicular to the axis, so |det| is 2.
    val = observability_det(h_a=[0.0, 1.0], alpha_gamma=2.0, theta_t=0.0)
    assert abs(val) == pytest.approx(2.0, abs=1e-15)
    assert val == pytest.approx(-2.0, abs=1e-15)  # axis is clockwise of +y


def test_det_vanishes_without_angular_acceleration():
    assert observability_det(h_a=[1.3, -0.4], alpha_gamma=0.0, theta_t=0.9) == 0.0


def test_det_vanishes_for_axis_aligned_velocity():
    theta = 0.7
    h = 2.5 * np.array([math.cos(theta), math.sin(theta)])
    assert abs(observability_det(h_a=h, alpha_gamma=1.5, theta_t=theta)) < 1e-14


@given(alpha=finite, scale=st.floats(min_value=-10, max_value=10), theta=angles)
def test_det_is_linear_in_alpha(alpha, scale, theta):
    h = [0.3, -1.1]
    base = observability_det(h, alpha, theta)
    scaled = observability_det(h, scale * alpha, theta)
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-9)


@given(
    hx=finite,
    hy=finite,
    scale=st.floats(min_value=-10, max_value=10),
    theta=angles,
)
def test_det_is_linear_in_velocity(hx, hy, scale, theta):
    base = observability_det([hx, hy], 1.7, theta)
    scaled = observability_det([scale * hx, scale * hy], 1.7, theta)
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-6)


@given(hx=finite, hy=finite, c=finite, theta=angles)
def test_det_ignores_velocity_along_the_axis(hx, hy, c, theta):
    axis = np.array([math.cos(theta), math.sin(theta)])
    base = observability_det([hx, hy], 1.0, theta)
    shifted = observability_det(np.array([hx, hy]) + c * axis, 1.0, theta)
    assert shifted == pytest.approx(base, abs=1e-9 * (1.0 + abs(c)), rel=1e-9)


def test_det_validates_velocity():
    with pytest.raises(InvalidArgumentError):
        observability_det([math.nan, 0.0], 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        observability_det(np.zeros(3), 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        observability_det(np.zeros((4, 2, 2)), 1.0, 0.0)


def test_det_on_stacked_velocities_matches_single_calls():
    rng = np.random.default_rng(8)
    h = rng.uniform(-2.0, 2.0, size=(20, 2))
    alpha = rng.uniform(-1.0, 1.0, size=20)
    dets = observability_det(h, alpha, 0.6)
    assert dets.shape == (20,)
    assert list(dets) == [observability_det(h[j], alpha[j], 0.6) for j in range(20)]
    assert isinstance(observability_det(h[0], 0.5, 0.6), float)


def test_report_determinants_come_from_observability_det():
    truth, pairs = profile_pairs("periodic_default", sigma=0.05, seed=2)
    report, (_, w) = _excitation_report(pairs, _weights(pairs), truth.extrinsics, None)
    alpha = np.gradient(w, pairs.timestamps)
    abs_dets = np.abs(observability_det(pairs.h_a, alpha, truth.extrinsics.theta_t))
    assert report.min_abs_det == float(np.min(abs_dets))
    assert report.mean_abs_det == float(np.mean(abs_dets))


# ---------------------------------------------------------------------------
# dataset-level classification


def test_constant_turn_rate_is_fully_degenerate():
    truth, pairs = profile_pairs("constant_omega")
    report = excitation_report(pairs, truth.extrinsics)
    assert report.fraction_degenerate == 1.0
    assert FLAG_ZERO_ALPHA in report.flags
    assert report.n_samples == len(pairs)


def test_straight_line_raises_every_flag():
    truth, pairs = profile_pairs("straight_line")
    report = excitation_report(pairs, truth.extrinsics)
    assert report.fraction_degenerate == 1.0
    assert set(report.flags) == {FLAG_ZERO_ALPHA, FLAG_ZERO_VELOCITY, FLAG_AXIS_ALIGNED}


def test_periodic_motion_is_well_excited():
    truth, pairs = profile_pairs("periodic_default")
    report = excitation_report(pairs, truth.extrinsics)
    assert report.fraction_degenerate < 0.1
    assert report.flags == []


def test_noisy_straight_line_still_flagged():
    # noise hides the exact determinant zeros but the motion geometry is
    # still a single line, which the direction-spread clause catches.
    truth, pairs = profile_pairs("straight_line", sigma=0.05, seed=3)
    report = excitation_report(pairs, truth.extrinsics)
    assert FLAG_AXIS_ALIGNED in report.flags


def test_report_aggregates_are_coherent():
    truth, pairs = profile_pairs("periodic_default")
    report = excitation_report(pairs, truth.extrinsics)
    assert 0.0 <= report.fraction_degenerate <= 1.0
    assert 0.0 <= report.min_abs_det <= report.mean_abs_det
    assert report.det_threshold > 0.0


def test_thresholds_are_adjustable():
    truth, pairs = profile_pairs("periodic_default")
    strict = ExcitationThresholds(det_rel_tol=1e6)
    report = excitation_report(pairs, truth.extrinsics, strict)
    assert report.fraction_degenerate == 1.0


def test_report_needs_three_increasing_timestamps():
    truth, pairs = profile_pairs("periodic_default")
    with pytest.raises(InsufficientDataError):
        excitation_report(pairs[:2], truth.extrinsics)
    stuck = pairs[[0, 1, 1]]
    with pytest.raises(InvalidArgumentError):
        excitation_report(stuck, truth.extrinsics)
