import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from radarcal import ego_velocity
from radarcal.ego_velocity import (
    MIN_DETECTIONS,
    RANSAC_MIN_SAMPLE,
    EgoVelocityEstimate,
    RadarScan,
    RansacConfig,
    _decode_choice_pairs,
    _refit,
    _scan_seed,
    build_lsq,
    ransac_ego_velocity,
    ransac_scans,
    solve_ego_velocity,
)
from radarcal.errors import (
    CalibrationError,
    DegenerateGeometryError,
    EmptyInputError,
    InsufficientDataError,
    InvalidArgumentError,
    NoConsensusError,
)
from radarcal.pipeline_io import estimate_stream, load_scans
from radarcal.simulator import (
    NoiseSpec,
    TrajectoryProfile,
    generate_trajectory,
    sample_landmarks,
    simulate_scans,
)


def scan_from_arrays(az, rr, t=0.0, rid="a"):
    dets = np.column_stack([np.full(len(az), 10.0), az, rr])
    return RadarScan(timestamp=t, radar_id=rid, detections=dets)


def synthetic_scan(v, az, noise=None, t=0.0):
    """Scan whose range rates are exactly consistent with velocity ``v``."""
    az = np.asarray(az, dtype=float)
    rr = -(np.sin(az) * v[0] + np.cos(az) * v[1])
    if noise is not None:
        rr = rr + noise
    return scan_from_arrays(az, rr, t=t)


# ---------------------------------------------------------------------------
# build_lsq


def test_build_lsq_boresight_row():
    # target dead ahead (+y boresight), radar moving straight at it
    scan = scan_from_arrays([0.0], [-1.0])
    A, y = build_lsq(scan)
    np.testing.assert_allclose(A, [[0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(y, [1.0])


def test_build_lsq_side_row():
    scan = scan_from_arrays([math.pi / 2], [0.25])
    A, y = build_lsq(scan)
    np.testing.assert_allclose(A, [[1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(y, [-0.25])


def test_build_lsq_empty_scan(tmp_path):
    path = tmp_path / "scans.txt"
    path.write_text("# radarcal scans 1\n0.0 a 0\n")
    (loaded,) = load_scans(path)["a"]
    for scan in (RadarScan(timestamp=0.0, radar_id="a"), loaded):
        assert scan.detections.shape == (0, 3)
        with pytest.raises(EmptyInputError, match="has no detections"):
            build_lsq(scan)


def test_radar_scan_holds_a_read_only_float_copy():
    scan = RadarScan(timestamp=0.0, radar_id="a", detections=[[10, 0, 1], [5, 0.5, -1]])
    assert scan.detections.dtype == np.float64
    np.testing.assert_array_equal(scan.detections, [[10.0, 0.0, 1.0], [5.0, 0.5, -1.0]])
    with pytest.raises(ValueError):
        scan.detections[0, 0] = -1.0  # would skip the range check
    with pytest.raises(dataclasses.FrozenInstanceError):
        scan.detections = np.array([[-1.0, 0.0, 0.0]])
    dets = np.ones((2, 3))
    RadarScan(timestamp=0.0, radar_id="a", detections=dets)
    assert dets.flags.writeable  # the caller's array is left alone


@pytest.mark.parametrize("shape", [(4, 2), (4,), (2, 3, 3), (3, 4)])
def test_radar_scan_refuses_a_detection_array_not_n_by_3(shape):
    with pytest.raises(InvalidArgumentError, match=r"detections must have shape \(n, 3\)"):
        RadarScan(timestamp=0.0, radar_id="a", detections=np.ones(shape))


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_radar_scan_refuses_a_non_finite_field(column, bad):
    dets = np.ones((3, 3))
    dets[1, column] = bad
    with pytest.raises(InvalidArgumentError) as exc:
        RadarScan(timestamp=0.0, radar_id="a", detections=dets)
    assert str(exc.value) == f"detection fields must be finite: {dets[1].tolist()}"


@pytest.mark.parametrize("r", [0.0, -0.0, -1.0, -1e-300])
def test_radar_scan_refuses_a_range_of_zero_or_below(r):
    dets = np.ones((4, 3))
    dets[1, 0], dets[3, 0] = r, -5.0  # the first bad range is named
    with pytest.raises(InvalidArgumentError) as exc:
        RadarScan(timestamp=0.0, radar_id="a", detections=dets)
    assert str(exc.value) == f"detection range must be positive: {r}"


def test_detection_validation():
    with pytest.raises(InvalidArgumentError):
        RadarScan(timestamp=0.0, radar_id="a", detections=[[0.0, 0.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        RadarScan(timestamp=0.0, radar_id="a", detections=[[1.0, math.nan, 0.0]])
    with pytest.raises(InvalidArgumentError):
        RadarScan(timestamp=0.0, radar_id="radar a")


# ---------------------------------------------------------------------------
# solve_ego_velocity


def test_exact_three_detection_solve():
    v = np.array([0.7, -1.1])
    scan = synthetic_scan(v, [-0.5, 0.1, 0.6])
    est = solve_ego_velocity(*build_lsq(scan))
    np.testing.assert_allclose(est.velocity, v, atol=1e-12)
    assert est.n_inliers == est.n_total == 3


def test_too_few_detections():
    scan = synthetic_scan([1.0, 0.0], [-0.3, 0.4])
    with pytest.raises(InsufficientDataError):
        solve_ego_velocity(*build_lsq(scan))


def test_collinear_azimuths_degenerate():
    scan = synthetic_scan([1.0, 0.0], [0.2, 0.2, 0.2])
    with pytest.raises(DegenerateGeometryError):
        solve_ego_velocity(*build_lsq(scan))


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-0.9, max_value=0.9),
)
def test_exact_solve_recovers_any_velocity(vx, vy, az_shift):
    az = np.array([-0.8, -0.2, 0.3, 0.9]) + az_shift
    scan = synthetic_scan([vx, vy], az)
    est = solve_ego_velocity(*build_lsq(scan))
    np.testing.assert_allclose(est.velocity, [vx, vy], atol=1e-9)


def test_rotation_equivariance():
    """Rotating the whole scene rotates the velocity estimate the same way."""
    rng = np.random.default_rng(3)
    v = np.array([1.3, 0.4])
    az = rng.uniform(-1.0, 1.0, size=12)
    noise = 0.01 * rng.standard_normal(12)
    est = solve_ego_velocity(*build_lsq(synthetic_scan(v, az, noise)))

    phi = 0.37
    # rotating the sensor frame by phi shifts every azimuth by -phi ... but
    # azimuth is measured from +y toward +x, so the velocity rotates by +phi
    # when the targets' azimuths shift by -phi with identical range rates.
    c, s = math.cos(phi), math.sin(phi)
    R = np.array([[c, -s], [s, c]])
    est_rot = solve_ego_velocity(*build_lsq(synthetic_scan(R @ v, az - phi, noise)))
    np.testing.assert_allclose(est_rot.velocity, R @ est.velocity, atol=1e-9)
    # covariance transforms as R Sigma R^T
    np.testing.assert_allclose(est_rot.covariance, R @ est.covariance @ R.T, atol=1e-9)


def test_appending_consistent_detection_preserves_solution():
    v = np.array([-0.6, 0.9])
    az = [-0.7, -0.1, 0.5]
    est = solve_ego_velocity(*build_lsq(synthetic_scan(v, az)))
    est2 = solve_ego_velocity(*build_lsq(synthetic_scan(v, az + [1.0])))
    np.testing.assert_allclose(est2.velocity, est.velocity, atol=1e-9)


def test_covariance_matches_monte_carlo():
    """The reported covariance agrees with the scatter of repeated estimates."""
    rng = np.random.default_rng(10)
    v = np.array([1.0, 0.5])
    az = np.linspace(-1.0, 1.0, 15)
    sigma = 0.05
    ests = []
    covs = []
    for _ in range(1000):
        noise = sigma * rng.standard_normal(az.size)
        est = solve_ego_velocity(*build_lsq(synthetic_scan(v, az, noise)))
        ests.append(est.velocity)
        covs.append(est.covariance)
    sample_cov = np.cov(np.array(ests).T)
    mean_cov = np.mean(covs, axis=0)
    # 1000 trials pin the diagonal to a few percent; 25% is generous
    np.testing.assert_allclose(
        np.diag(mean_cov), np.diag(sample_cov), rtol=0.25
    )


def test_covariance_scales_with_noise_power():
    rng = np.random.default_rng(11)
    v = np.array([0.3, 1.2])
    az = np.linspace(-0.9, 0.9, 20)
    out = {}
    for sigma in (0.02, 0.08):
        traces = []
        for _ in range(400):
            noise = sigma * rng.standard_normal(az.size)
            est = solve_ego_velocity(*build_lsq(synthetic_scan(v, az, noise)))
            traces.append(np.trace(est.covariance))
        out[sigma] = np.mean(traces)
    ratio = out[0.08] / out[0.02]
    assert ratio == pytest.approx((0.08 / 0.02) ** 2, rel=0.2)


def test_bad_system_shapes():
    with pytest.raises(InvalidArgumentError):
        solve_ego_velocity(np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        solve_ego_velocity(np.zeros((3, 2)), np.zeros(4))


# ---------------------------------------------------------------------------
# RANSAC


def test_ransac_clean_scan_matches_direct_fit():
    rng = np.random.default_rng(21)
    v = np.array([0.9, -0.4])
    az = rng.uniform(-1.0, 1.0, size=25)
    scan = synthetic_scan(v, az, 0.005 * rng.standard_normal(25))
    direct = solve_ego_velocity(*build_lsq(scan))
    robust = ransac_ego_velocity(scan, RansacConfig(rng_seed=1))
    assert robust.n_inliers == 25
    np.testing.assert_allclose(robust.velocity, direct.velocity, atol=1e-12)
    np.testing.assert_allclose(robust.covariance, direct.covariance, atol=1e-12)


def test_ransac_rejects_outliers():
    rng = np.random.default_rng(22)
    v = np.array([1.4, 0.2])
    az = rng.uniform(-1.0, 1.0, size=30)
    noise = 0.005 * rng.standard_normal(30)
    rr = -(np.sin(az) * v[0] + np.cos(az) * v[1]) + noise
    bad = rng.choice(30, size=8, replace=False)
    rr[bad] += rng.uniform(1.0, 3.0, size=8) * rng.choice([-1.0, 1.0], size=8)
    scan = scan_from_arrays(az, rr)

    est = ransac_ego_velocity(scan, RansacConfig(rng_seed=2))
    assert np.linalg.norm(est.velocity - v) < 0.02
    assert not est.inlier_mask[bad].any()
    assert est.n_inliers >= 20
    assert est.n_total == 30


def test_ransac_no_consensus():
    rng = np.random.default_rng(23)
    az = rng.uniform(-1.0, 1.0, size=20)
    rr = rng.uniform(-5.0, 5.0, size=20)  # incoherent: no common velocity
    scan = scan_from_arrays(az, rr)
    with pytest.raises(NoConsensusError):
        ransac_ego_velocity(scan, RansacConfig(rng_seed=3))


def test_ransac_deterministic_per_scan():
    rng = np.random.default_rng(24)
    v = np.array([0.5, 1.0])
    az = rng.uniform(-1.0, 1.0, size=18)
    rr = -(np.sin(az) * v[0] + np.cos(az) * v[1]) + 0.01 * rng.standard_normal(18)
    rr[3] += 2.0
    scan = scan_from_arrays(az, rr, t=12.75)
    cfg = RansacConfig(rng_seed=9)
    a = ransac_ego_velocity(scan, cfg)
    b = ransac_ego_velocity(scan, cfg)
    np.testing.assert_array_equal(a.velocity, b.velocity)
    np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)


def test_ransac_too_few_detections():
    scan = synthetic_scan([1.0, 0.0], [0.1, 0.5])
    with pytest.raises(InsufficientDataError):
        ransac_ego_velocity(scan, RansacConfig())


def test_ransac_config_validation():
    with pytest.raises(InvalidArgumentError):
        RansacConfig(residual_threshold=0.0)
    with pytest.raises(InvalidArgumentError):
        RansacConfig(inlier_fraction_threshold=1.5)
    with pytest.raises(InvalidArgumentError):
        RansacConfig(max_iterations=0)


@pytest.mark.parametrize("big", [1e155, 1e300, 1e308])
def test_ransac_on_huge_range_rates_warns_nothing(big):
    # Squaring an outlier's residual, or solving a hypothesis through two huge
    # range rates, overflows; neither may leak a numpy warning.
    az = np.linspace(-1.0, 1.0, 12)
    signs = np.where(np.arange(12) % 2, 1.0, -1.0)
    clean = -(np.sin(az) * 1.0 + np.cos(az) * 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConsensusError):
            ransac_ego_velocity(scan_from_arrays(az, big * signs), RansacConfig())
        # a third of the detections are huge outliers
        rr = np.where(np.arange(12) % 3 == 0, big * signs, clean)
        est = ransac_ego_velocity(scan_from_arrays(az, rr), RansacConfig())
    np.testing.assert_allclose(est.velocity, [1.0, 0.5], atol=1e-12)
    assert est.n_inliers == 8
    np.testing.assert_array_equal(est.inlier_mask, np.arange(12) % 3 != 0)


@pytest.mark.parametrize("big", [1e300, 1e308])
def test_refit_that_is_not_finite_is_refused(big):
    # Two perpendicular lines of sight, five detections each, all with one
    # huge range rate: every detection is an inlier, and the refit overflows
    # to an infinite covariance (1e300) or a NaN velocity (1e308).
    scan = scan_from_arrays(np.repeat([0.0, math.pi / 2], 5), np.full(10, -big))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGeometryError, match="refit overflows.*not finite"):
            ransac_ego_velocity(scan, RansacConfig())
        with pytest.raises(DegenerateGeometryError, match="refit overflows.*not finite"):
            solve_ego_velocity(*build_lsq(scan))
        (got,) = ransac_scans([scan], RansacConfig())
    assert isinstance(got, DegenerateGeometryError)


# ---------------------------------------------------------------------------
# RANSAC against a one-hypothesis-at-a-time reference


def reference_ransac(scan, config):
    """The per-hypothesis loop that scores one draw at a time, kept as the
    reference for the array scoring in ``ransac_ego_velocity``."""
    n = len(scan.detections)
    A, y = build_lsq(scan)
    rng = np.random.default_rng(_scan_seed(config.rng_seed, scan.timestamp))
    best_mask = None
    best_count = 0
    best_rms = math.inf
    for _ in range(config.max_iterations):
        i, j = rng.choice(n, size=RANSAC_MIN_SAMPLE, replace=False)
        As = A[[i, j]]
        det = As[0, 0] * As[1, 1] - As[0, 1] * As[1, 0]
        if abs(det) < 1e-12:
            continue
        v = np.array(
            [
                (As[1, 1] * y[i] - As[0, 1] * y[j]) / det,
                (As[0, 0] * y[j] - As[1, 0] * y[i]) / det,
            ]
        )
        resid = np.abs(y - A @ v)
        mask = resid <= config.residual_threshold
        count = int(mask.sum())
        if count == 0:
            continue
        rms = float(np.sqrt(np.mean(resid[mask] ** 2)))
        if count > best_count or (count == best_count and rms < best_rms):
            best_count = count
            best_rms = rms
            best_mask = mask
    if best_mask is None or best_count < max(
        MIN_DETECTIONS, math.ceil(config.inlier_fraction_threshold * n)
    ):
        raise NoConsensusError("no consensus")
    refit = solve_ego_velocity(A[best_mask], y[best_mask], scan.timestamp)
    refit.n_total = n
    refit.n_inliers = best_count
    refit.inlier_mask = best_mask
    return refit


def assert_matches_reference(scan, config):
    """Same estimate bit for bit, or the same exception type; returns it."""
    try:
        expected = reference_ransac(scan, config)
    except CalibrationError as exc:
        with pytest.raises(CalibrationError) as got:
            ransac_ego_velocity(scan, config)
        assert type(got.value) is type(exc)
        return exc
    got = ransac_ego_velocity(scan, config)
    np.testing.assert_array_equal(got.velocity, expected.velocity)
    np.testing.assert_array_equal(got.covariance, expected.covariance)
    np.testing.assert_array_equal(got.inlier_mask, expected.inlier_mask)
    assert (got.n_inliers, got.n_total) == (expected.n_inliers, expected.n_total)
    return got


def test_ransac_matches_reference_on_simulated_scans():
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=10.0))
    landmarks = sample_landmarks(truth, n=60, rng_seed=41)
    noise = NoiseSpec(sigma_r=0.0, detection_sigma=0.01, outlier_fraction=0.1)
    sim = simulate_scans(truth, landmarks, noise, rng_seed=42)
    scans = sim.scans["a"] + sim.scans["b"]
    assert len(scans) >= 200
    outcomes = [assert_matches_reference(scan, RansacConfig(rng_seed=43)) for scan in scans]
    assert not any(isinstance(o, CalibrationError) for o in outcomes)


def test_ransac_matches_reference_with_a_parallel_pair():
    # detections 0 and 1 share an azimuth: drawing that pair gives det = 0
    v = np.array([0.8, -0.3])
    scan = synthetic_scan(v, [0.3, 0.3, -0.5, 0.8], noise=[0.0, 0.002, -0.001, 0.001])
    est = assert_matches_reference(scan, RansacConfig(rng_seed=5))
    assert est.n_inliers == 4


def test_ransac_equal_counts_go_to_the_later_lower_rms_hypothesis():
    # Two groups of three, each consistent with its own velocity: {0, 1, 2}
    # with 1 mm/s range-rate offsets, {3, 4, 5} with 4 mm/s.  Every pair
    # within a group has 3 inliers; pairs across the groups have 2.
    az = np.array([-0.9, 0.0, 0.9, -0.6, 0.3, 1.2])
    v = np.array([[1.0, 0.5]] * 3 + [[-0.8, 1.5]] * 3)
    rr = -(np.sin(az) * v[:, 0] + np.cos(az) * v[:, 1])
    rr += np.array([0.001, -0.001, 0.001, 0.004, -0.004, 0.004])
    scan = scan_from_arrays(az, rr)
    config = RansacConfig(rng_seed=0)
    first = np.random.default_rng(_scan_seed(config.rng_seed, scan.timestamp)).choice(
        6, size=RANSAC_MIN_SAMPLE, replace=False
    )
    assert set(first) <= {3, 4, 5}  # the first draw is a 3-inlier, higher-RMS hypothesis
    est = assert_matches_reference(scan, config)
    np.testing.assert_array_equal(est.inlier_mask, [True, True, True, False, False, False])


def test_ransac_matches_reference_when_all_detections_are_outliers():
    rng = np.random.default_rng(44)
    scan = scan_from_arrays(rng.uniform(-1.0, 1.0, size=12), rng.uniform(-5.0, 5.0, size=12))
    exc = assert_matches_reference(scan, RansacConfig(rng_seed=6))
    assert isinstance(exc, NoConsensusError)


def mixed_stream():
    """Simulated scans (several per detection count) plus one scan of each
    kind the batch must keep apart, all at distinct timestamps."""
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=6.0))
    landmarks = sample_landmarks(truth, n=40, rng_seed=51)
    noise = NoiseSpec(sigma_r=0.0, detection_sigma=0.01, outlier_fraction=0.1)
    scans = simulate_scans(truth, landmarks, noise, rng_seed=52).scans["a"]
    rng = np.random.default_rng(53)
    v = np.array([0.8, -0.3])
    narrow = 0.3 + 1e-7 * np.arange(10)
    extra = [
        synthetic_scan(v, [0.1, 0.5], t=100.0),  # too few detections
        # no consensus: incoherent range rates
        scan_from_arrays(rng.uniform(-1.0, 1.0, 10), rng.uniform(-5.0, 5.0, 10), t=100.1),
        synthetic_scan(v, narrow, t=100.2),  # consensus, but a singular refit
        # detections 0 and 1 share an azimuth, so some draws are parallel pairs
        synthetic_scan(v, [0.3, 0.3, -0.5, 0.8], [0.0, 0.002, -0.001, 0.001], t=100.3),
        synthetic_scan(v, [0.3, 0.3, -0.5, 0.8], [0.001, 0.0, 0.002, -0.001], t=100.4),
    ]
    return scans + extra


def test_estimate_stream_matches_the_per_scan_reference(monkeypatch):
    scans = mixed_stream()
    config = RansacConfig(rng_seed=54)
    sizes = [len(s.detections) for s in scans]
    monkeypatch.setattr(ego_velocity, "_SCAN_BLOCK", 3)
    assert max(sizes.count(n) for n in set(sizes)) > 2 * ego_velocity._SCAN_BLOCK

    # Force a Lemire rejection on one scan of a group that fills a block.
    # Bound n must not be a power of two, or it has no rejection zone.
    n = next(n for n in sizes if sizes.count(n) > 3 and n & (n - 1))
    target = scans[sizes.index(n)]  # the first scan of its group, in a block of 3
    target_u = raw_draws(_scan_seed(config.rng_seed, target.timestamp), config.max_iterations)
    decode, choice = ego_velocity._decode_choice_pairs, ego_velocity._choice_pairs

    def decode_rejecting_the_target(u, n):
        u = u.copy()
        u[..., 4] = np.where((u == target_u).all(axis=-1), 0, u[..., 4])
        return decode(u, n)

    fallbacks = []

    def counted_choice(rng, n, k):
        fallbacks.append(n)
        return choice(rng, n, k)

    monkeypatch.setattr(ego_velocity, "_decode_choice_pairs", decode_rejecting_the_target)
    monkeypatch.setattr(ego_velocity, "_choice_pairs", counted_choice)

    expected = []
    kinds = set()
    for scan, got in zip(scans, ransac_scans(scans, config)):
        if len(scan.detections) < MIN_DETECTIONS:  # refused before any draw
            assert isinstance(got, InsufficientDataError)
            kinds.add(InsufficientDataError)
            continue
        try:
            ref = reference_ransac(scan, config)
        except CalibrationError as exc:
            assert type(got) is type(exc)
            kinds.add(type(exc))
            continue
        kinds.add(EgoVelocityEstimate)
        expected.append(ref)
    assert fallbacks == [n]  # only the target fell back on rng.choice
    assert kinds == {EgoVelocityEstimate, InsufficientDataError, NoConsensusError,
                     DegenerateGeometryError}

    expected.sort(key=lambda e: e.timestamp)
    stream = estimate_stream(scans, config)
    assert [e.timestamp for e in stream] == [e.timestamp for e in expected]
    for got, ref in zip(stream, expected):
        np.testing.assert_array_equal(got.velocity, ref.velocity)
        np.testing.assert_array_equal(got.covariance, ref.covariance)
        np.testing.assert_array_equal(got.inlier_mask, ref.inlier_mask)
        assert (got.n_inliers, got.n_total) == (ref.n_inliers, ref.n_total)


def test_ransac_ego_velocity_raises_the_batch_errors():
    scans = mixed_stream()[-5:-2]
    messages = [
        r"scan at t=100.0 has 2 detections, need >= 3",
        r"scan at t=100.1: best consensus \d+/10 below threshold 0.40",
        r"one-directional \(cond\(A\^T A\) = ",
    ]
    for scan, kind, message in zip(
        scans, [InsufficientDataError, NoConsensusError, DegenerateGeometryError], messages
    ):
        with pytest.raises(kind, match=message):
            ransac_ego_velocity(scan, RansacConfig())


def test_solve_ego_velocity_is_the_one_system_refit():
    rng = np.random.default_rng(55)
    v = np.array([1.1, -0.6])
    systems = [
        build_lsq(synthetic_scan(v, rng.uniform(-1.0, 1.0, 9), 0.01 * rng.standard_normal(9)))
        for _ in range(3)
    ]
    order = [systems[0], systems[1], systems[0], systems[2]]
    A = np.stack([a for a, _ in order])
    y = np.stack([b for _, b in order])
    cond, vel, cov = _refit(A, y)
    for k, (a, b) in enumerate(order):
        est = solve_ego_velocity(a, b)
        np.testing.assert_array_equal(est.velocity, vel[k])
        np.testing.assert_array_equal(est.covariance, cov[k])
        assert cond[k] == np.linalg.cond(a.T @ a)

    narrow = build_lsq(synthetic_scan(v, 0.3 + 1e-7 * np.arange(9)))
    cond, vel, cov = _refit(
        np.stack([narrow[0], systems[0][0]]), np.stack([narrow[1], systems[0][1]])
    )
    assert cond[0] > ego_velocity.CONDITION_CAP
    assert np.isnan(vel[0]).all() and np.isnan(cov[0]).all()
    np.testing.assert_array_equal(vel[1], solve_ego_velocity(*systems[0]).velocity)
    with pytest.raises(DegenerateGeometryError) as exc:
        solve_ego_velocity(*narrow)
    assert f"(cond(A^T A) = {cond[0]:.3g})" in str(exc.value)


# ---------------------------------------------------------------------------
# The batched draw against rng.choice


def choice_pairs(seed, n, k):
    """The (2, k) samples of ``k`` calls ``rng.choice(n, 2, replace=False)``."""
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, size=RANSAC_MIN_SAMPLE, replace=False) for _ in range(k)]).T


def raw_draws(seed, k):
    return np.random.default_rng(seed).integers(0, 2**32, size=3 * k, dtype=np.uint32)


# n or n - 1 a power of two (Lemire threshold 0), and large n.
EDGE_SIZES = [m for p in (2, 3, 4, 6, 10, 16, 20) for m in (2**p, 2**p + 1)] + [
    10_001, 50_000, 1_000_003, 2**31 - 1, 2**31, 2**32,
]


@pytest.mark.parametrize("seed", [0, 1, 43, 2024])
def test_batched_draw_matches_rng_choice(seed):
    # Pins numpy's Generator.choice internals: a numpy whose choice draws
    # differently fails here instead of silently changing the samples.
    for n in [*range(3, 201), *EDGE_SIZES]:
        key = np.random.SeedSequence((seed, n))
        got, rejected = _decode_choice_pairs(raw_draws(key, 100), n)
        assert not rejected, n
        np.testing.assert_array_equal(got, choice_pairs(key, n, 100), err_msg=f"n={n}")


@pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30 + 1])
def test_batched_draw_rejects_exactly_where_rng_choice_draws_again(n):
    # At these n Lemire's method rejects a quarter to a half of the draws.
    # rng.choice consumes more than three draws exactly when one of them is
    # rejected, and then the draw after its third is no longer u[3].
    rejected = 0
    for s in range(200):
        key = np.random.SeedSequence((s, n))
        u = np.random.default_rng(key).integers(0, 2**32, size=4, dtype=np.uint32)
        rng = np.random.default_rng(key)
        sample = rng.choice(n, size=RANSAC_MIN_SAMPLE, replace=False)
        drew_three = rng.integers(0, 2**32, dtype=np.uint32) == u[3]
        got, row_rejected = _decode_choice_pairs(u[:3], n)
        assert row_rejected != drew_three
        if row_rejected:
            rejected += 1
        else:
            np.testing.assert_array_equal(got[:, 0], sample)
    assert 20 <= rejected <= 180


def test_a_rejected_draw_falls_back_on_rng_choice():
    n, k = 6, 100  # bounds 5 and 6 are not powers of two, so a zero draw is rejected
    key = np.random.SeedSequence(3)
    u = raw_draws(key, k)
    assert not _decode_choice_pairs(u, n)[1]
    for pos in (0, 4, 3 * k - 2):  # a first or second Floyd draw
        crafted = u.copy()
        crafted[pos] = 0
        assert _decode_choice_pairs(crafted, n)[1]
    crafted = u.copy()
    crafted[2] = 0  # the shuffle's bound, 2, has no rejection zone
    assert not _decode_choice_pairs(crafted, n)[1]

    # A rejected row leaves the samples of the other rows as rng.choice draws them.
    keys = [np.random.SeedSequence((3, r)) for r in range(3)]
    u = np.stack([raw_draws(key, k) for key in keys])
    u[1, 4] = 0
    pairs, rejected = _decode_choice_pairs(u, n)
    assert rejected.tolist() == [False, True, False]
    for r in (0, 2):
        np.testing.assert_array_equal(pairs[:, r], choice_pairs(keys[r], n, k))

    # A real rejection: at n = 2**31 + 1 about half of the second draws fall in
    # the zone.  One hypothesis per row, so some rows pass and some do not.
    n = 2**31 + 1
    assert _decode_choice_pairs(raw_draws(key, k), n)[1]
    keys = [np.random.SeedSequence((s, n)) for s in range(12)]
    pairs, rejected = _decode_choice_pairs(np.stack([raw_draws(key, 1) for key in keys]), n)
    assert 0 < rejected.sum() < len(keys)
    for r in np.flatnonzero(~rejected):
        np.testing.assert_array_equal(pairs[:, r], choice_pairs(keys[r], n, 1))
    for r in np.flatnonzero(rejected):  # the reference draw a rejected scan takes
        np.testing.assert_array_equal(
            ego_velocity._choice_pairs(np.random.default_rng(keys[r]), n, 1),
            choice_pairs(keys[r], n, 1),
        )


def test_only_the_rejected_scan_of_a_block_is_redrawn(monkeypatch):
    rng = np.random.default_rng(8)
    v = np.array([0.9, -0.4])
    config = RansacConfig(rng_seed=5)
    scans = []
    for s in range(5):  # one block of five 9-detection scans, 2 outliers each
        noise = 0.005 * rng.standard_normal(9)
        noise[[2, 6]] += 1.5
        scans.append(synthetic_scan(v, rng.uniform(-1.0, 1.0, 9), noise, t=0.1 * s))
    alone = [ransac_ego_velocity(scan, config) for scan in scans]

    target_u = raw_draws(_scan_seed(config.rng_seed, scans[2].timestamp), config.max_iterations)
    decode, choice = ego_velocity._decode_choice_pairs, ego_velocity._choice_pairs
    decoded, fallbacks = [], []

    def decode_rejecting_the_target(u, n):
        decoded.append(u.shape[:-1])
        u = u.copy()
        u[..., 4] = np.where((u == target_u).all(axis=-1), 0, u[..., 4])
        return decode(u, n)

    def counted_choice(rng, n, k):
        fallbacks.append(n)
        return choice(rng, n, k)

    monkeypatch.setattr(ego_velocity, "_decode_choice_pairs", decode_rejecting_the_target)
    monkeypatch.setattr(ego_velocity, "_choice_pairs", counted_choice)
    got = ransac_scans(scans, config)
    assert decoded == [(5,)]  # the block is decoded once and never drawn again
    assert fallbacks == [9]  # only the target takes the reference draw
    for est, ref in zip(got, alone):
        np.testing.assert_array_equal(est.velocity, ref.velocity)
        np.testing.assert_array_equal(est.covariance, ref.covariance)
        np.testing.assert_array_equal(est.inlier_mask, ref.inlier_mask)
