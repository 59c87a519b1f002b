import math

import numpy as np
import pytest

from radarcal import simulator
from radarcal.errors import InvalidArgumentError
from radarcal.geometry import rot2
from radarcal.simulator import (
    MAX_SAMPLES,
    NoiseSpec,
    TrajectoryProfile,
    generate_trajectory,
    sample_landmarks,
    simulate_pairs,
    simulate_scans,
)


# ---------------------------------------------------------------------------
# trajectory generation


def test_straight_line_profile_has_no_rotation():
    truth = generate_trajectory(TrajectoryProfile(kind="straight_line", duration=10.0, speed=1.4))
    assert truth.timestamps.shape == (100,)
    np.testing.assert_array_equal(truth.omega, 0.0)
    np.testing.assert_array_equal(truth.alpha, 0.0)
    np.testing.assert_array_equal(truth.v_a[:, 0], 1.4)
    np.testing.assert_array_equal(truth.v_a[:, 1], 0.0)


def test_constant_omega_profile_constants():
    truth = generate_trajectory(
        TrajectoryProfile(kind="constant_omega", duration=5.0, speed=0.7, omega=0.5)
    )
    np.testing.assert_array_equal(truth.omega, 0.5)
    np.testing.assert_array_equal(truth.alpha, 0.0)
    np.testing.assert_array_equal(truth.v_a[:, 0], 0.7)


def test_periodic_profile_stays_in_speed_band():
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=60.0))
    speeds = np.hypot(truth.v_a[:, 0], truth.v_a[:, 1])
    assert speeds.min() > 0.05
    assert speeds.max() <= simulator.VX_OFFSET + simulator.VX_AMP + simulator.VY_AMP + 1e-9
    assert np.max(np.abs(truth.omega)) <= simulator.OMEGA_AMP + 1e-12


def test_periodic_alpha_matches_numeric_derivative():
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=30.0, rate=100.0))
    num = np.gradient(truth.omega, truth.timestamps)
    np.testing.assert_allclose(truth.alpha[2:-2], num[2:-2], atol=5e-4)


def test_profile_refuses_more_samples_than_the_limit():
    # Built, not sampled: none of these starts a simulation.
    assert TrajectoryProfile(duration=3600.0, rate=50.0)  # an hour at 50 Hz
    assert TrajectoryProfile(duration=MAX_SAMPLES / 10, rate=10.0)
    for duration, rate in ((2.0, 1e7), (2.0, 1e300), (1e300, 1e300), (MAX_SAMPLES + 1.0, 1.0)):
        with pytest.raises(InvalidArgumentError, match="samples"):
            TrajectoryProfile(duration=duration, rate=rate)


def test_generate_trajectory_validation():
    with pytest.raises(InvalidArgumentError):
        generate_trajectory(TrajectoryProfile(kind="warp_drive"))
    with pytest.raises(InvalidArgumentError):
        generate_trajectory(TrajectoryProfile(duration=-1.0))
    # The profile refuses a bad value when it is built, before any sampling.
    for field, value in (("duration", math.nan), ("rate", math.inf), ("rate", math.nan),
                         ("rate", 0.0), ("speed", math.nan), ("omega", -math.inf)):
        with pytest.raises(InvalidArgumentError, match=field):
            TrajectoryProfile(**{field: value})
    with pytest.raises(InvalidArgumentError, match="theta_ba"):
        generate_trajectory(TrajectoryProfile(), theta_ba=math.nan)
    with pytest.raises(InvalidArgumentError):
        generate_trajectory(TrajectoryProfile(), translation=(0.0, 0.0))
    with pytest.raises(InvalidArgumentError):
        generate_trajectory(TrajectoryProfile(), translation=(math.inf, 1.0))


# ---------------------------------------------------------------------------
# gauge bookkeeping on the truth record


def test_extrinsics_fold_and_gauge_sign():
    up = generate_trajectory(TrajectoryProfile(), translation=(1.2, 1.6))
    down = generate_trajectory(TrajectoryProfile(), translation=(-1.2, -1.6))
    assert up.gauge_sign == 1.0
    assert down.gauge_sign == -1.0
    # both fold onto the same axis angle in [0, pi)
    assert up.extrinsics.theta_t == pytest.approx(down.extrinsics.theta_t, abs=1e-12)
    assert 0.0 <= up.extrinsics.theta_t < math.pi
    np.testing.assert_allclose(down.omega_gamma, -up.omega_gamma, atol=1e-12)
    np.testing.assert_allclose(np.abs(up.omega_gamma), 2.0 * np.abs(up.omega), atol=1e-12)


def test_model_h_b_matches_rigid_body_transfer():
    truth = generate_trajectory(TrajectoryProfile(duration=5.0))
    hb = truth.model_h_b()
    R = rot2(truth.theta_ba)
    for j in (0, 17, 49):
        lever = truth.omega[j] * np.array([-truth.translation[1], truth.translation[0]])
        np.testing.assert_allclose(hb[j], R @ (truth.v_a[j] + lever), atol=1e-12)


def test_world_poses_are_consistent():
    truth = generate_trajectory(TrajectoryProfile(duration=20.0, rate=50.0))
    p_a, psi_a, p_b, psi_b = truth.world_poses()
    np.testing.assert_allclose(psi_b, psi_a - truth.theta_ba, atol=1e-12)
    # radar b rides at the rotated offset
    for j in (0, 100, 999):
        c, s = math.cos(psi_a[j]), math.sin(psi_a[j])
        off = np.array(
            [
                c * truth.translation[0] - s * truth.translation[1],
                s * truth.translation[0] + c * truth.translation[1],
            ]
        )
        np.testing.assert_allclose(p_b[j], p_a[j] + off, atol=1e-12)
    # positions integrate the velocity: check against a fine finite difference
    vel = np.gradient(p_a, truth.timestamps, axis=0)
    vw = np.stack(
        [
            np.cos(psi_a) * truth.v_a[:, 0] - np.sin(psi_a) * truth.v_a[:, 1],
            np.sin(psi_a) * truth.v_a[:, 0] + np.cos(psi_a) * truth.v_a[:, 1],
        ],
        axis=1,
    )
    assert np.max(np.abs(vel[2:-2] - vw[2:-2])) < 5e-3


# ---------------------------------------------------------------------------
# velocity-level pairs


def test_simulate_pairs_noise_free_is_exact():
    truth = generate_trajectory(TrajectoryProfile(duration=5.0))
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.0))
    np.testing.assert_array_equal(pairs.h_a, truth.v_a)
    np.testing.assert_array_equal(pairs.h_b, truth.model_h_b())
    np.testing.assert_array_equal(pairs.timestamps, truth.timestamps)
    np.testing.assert_array_equal(pairs.cov_a, np.zeros((len(pairs), 2, 2)))


def test_simulate_pairs_noise_is_calibrated():
    # whitened residuals at the truth should be chi-square with 4M dof
    truth = generate_trajectory(TrajectoryProfile(duration=120.0))
    sigma = 0.1
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=sigma), rng_seed=5)
    chi2 = np.sum((pairs.h_a - truth.v_a) ** 2) / sigma ** 2
    chi2 += np.sum((pairs.h_b - truth.model_h_b()) ** 2) / sigma ** 2
    dof = 4 * len(pairs)
    assert abs(chi2 / dof - 1.0) < 0.1
    for cov in (pairs.cov_a, pairs.cov_b):
        np.testing.assert_array_equal(cov, np.broadcast_to(sigma ** 2 * np.eye(2), cov.shape))


def test_simulate_pairs_deterministic_per_seed():
    truth = generate_trajectory(TrajectoryProfile(duration=2.0))
    a = simulate_pairs(truth, NoiseSpec(sigma_r=0.2), rng_seed=9)
    b = simulate_pairs(truth, NoiseSpec(sigma_r=0.2), rng_seed=9)
    c = simulate_pairs(truth, NoiseSpec(sigma_r=0.2), rng_seed=10)
    assert np.array_equal(a.h_b, b.h_b)
    assert not np.array_equal(a.h_b, c.h_b)


def test_noise_spec_validation():
    with pytest.raises(InvalidArgumentError):
        NoiseSpec(sigma_r=-0.1)
    for field, value in (("sigma_r", math.nan), ("sigma_r", math.inf),
                         ("detection_sigma", math.nan), ("detection_sigma", math.inf)):
        with pytest.raises(InvalidArgumentError, match=field):
            NoiseSpec(**{field: value})
    with pytest.raises(InvalidArgumentError):
        NoiseSpec(outlier_fraction=1.0)


# ---------------------------------------------------------------------------
# detection-level scans


def test_simulate_scans_noise_free_rates_are_exact():
    truth = generate_trajectory(TrajectoryProfile(duration=3.0))
    landmarks = sample_landmarks(truth, n=60, rng_seed=1)
    sim = simulate_scans(truth, landmarks, NoiseSpec(sigma_r=0.0, detection_sigma=0.0))
    p_a, psi_a, _, _ = truth.world_poses()
    checked = 0
    for j, scan in enumerate(sim.scans["a"]):
        assert scan.radar_id == "a"
        assert scan.timestamp == truth.timestamps[j]
        for rng_m, az, rr in scan.detections.tolist():
            # invert the detection back to a world landmark and verify the
            # range rate is the line-of-sight velocity projection
            los = np.array([math.sin(az), math.cos(az)])
            expected = -(los @ truth.v_a[j])
            assert rr == pytest.approx(expected, abs=1e-9)
            assert abs(az) <= math.pi / 3 + 1e-12
            assert rng_m >= 0.5
            checked += 1
    assert checked > 100


def test_simulate_scans_outliers_are_recorded():
    truth = generate_trajectory(TrajectoryProfile(duration=4.0))
    landmarks = sample_landmarks(truth, n=50, rng_seed=2)
    noise = NoiseSpec(sigma_r=0.0, detection_sigma=0.01, outlier_fraction=0.3)
    sim = simulate_scans(truth, landmarks, noise, rng_seed=7)
    total = sum(m.size for m in sim.outlier_masks["a"])
    flagged = sum(int(m.sum()) for m in sim.outlier_masks["a"])
    assert 0.2 < flagged / total < 0.4
    # flagged detections really are gross outliers, clean ones are not
    for j, (scan, mask) in enumerate(zip(sim.scans["a"], sim.outlier_masks["a"])):
        for (_, az, rr), bad in zip(scan.detections.tolist(), mask):
            los = np.array([math.sin(az), math.cos(az)])
            err = abs(rr + los @ truth.v_a[j])
            if bad:
                assert err > 0.9
            else:
                assert err < 0.1


def test_simulate_scans_deterministic_and_seed_sensitive():
    truth = generate_trajectory(TrajectoryProfile(duration=2.0))
    landmarks = sample_landmarks(truth, n=30, rng_seed=3)
    noise = NoiseSpec(detection_sigma=0.02)
    s1 = simulate_scans(truth, landmarks, noise, rng_seed=4)
    s2 = simulate_scans(truth, landmarks, noise, rng_seed=4)
    s3 = simulate_scans(truth, landmarks, noise, rng_seed=5)
    r1 = s1.scans["b"][0].detections[:, 2].tolist()
    r2 = s2.scans["b"][0].detections[:, 2].tolist()
    r3 = s3.scans["b"][0].detections[:, 2].tolist()
    assert r1 == r2
    assert r1 != r3


def test_sample_landmarks_respects_annulus():
    truth = generate_trajectory(TrajectoryProfile(duration=10.0))
    pts = sample_landmarks(truth, n=200, rng_seed=0)
    assert pts.shape == (200, 2)
    p_a, _, _, _ = truth.world_poses()
    d = np.min(
        np.hypot(pts[:, None, 0] - p_a[None, :, 0], pts[:, None, 1] - p_a[None, :, 1]), axis=1
    )
    assert np.all(d <= simulator.LANDMARK_R_MAX + 1e-9)
    with pytest.raises(InvalidArgumentError):
        sample_landmarks(truth, n=0)


def test_simulate_scans_validates_landmarks():
    truth = generate_trajectory(TrajectoryProfile(duration=1.0))
    with pytest.raises(InvalidArgumentError):
        simulate_scans(truth, np.zeros((5, 3)), NoiseSpec())
