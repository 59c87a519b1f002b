import math
import warnings

import numpy as np
import pytest

from radarcal.calib_solver import solve_lm
from radarcal.errors import InsufficientExcitationError, InvalidArgumentError, ParseError
from radarcal.scale_recovery import (
    AngularRateSeries,
    load_angular_rate_csv,
    load_heading_csv,
    recover_scale,
    smooth_angular_rate_from_poses,
)
from radarcal.simulator import NoiseSpec, TrajectoryProfile, generate_trajectory, simulate_pairs


def solved(translation=(1.2, 1.6), duration=60.0, sigma=0.05, seed=0):
    truth = generate_trajectory(
        TrajectoryProfile(kind="periodic_default", duration=duration), translation=translation
    )
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=sigma), rng_seed=seed)
    return truth, solve_lm(pairs)


def reference_from_truth(truth, sigma=0.0, seed=42, sign=1.0):
    rng = np.random.default_rng(seed)
    omega = sign * truth.omega + sigma * rng.standard_normal(truth.omega.shape)
    return AngularRateSeries(timestamps=truth.timestamps.copy(), omega=omega)


# ---------------------------------------------------------------------------
# scale from a rate reference


def test_exact_reference_recovers_exact_scale():
    truth, report = solved(sigma=0.0)
    ref = reference_from_truth(truth)
    res = recover_scale(report, ref)
    assert res.translation_magnitude == pytest.approx(2.0, abs=1e-6)
    assert res.gamma == res.translation_magnitude
    assert res.sign_ambiguous


def test_noisy_reference_recovers_scale_within_ten_percent():
    truth, report = solved(sigma=0.05, seed=3)
    ref = reference_from_truth(truth, sigma=0.02, seed=11)
    res = recover_scale(report, ref)
    assert abs(res.translation_magnitude - 2.0) / 2.0 < 0.1
    assert res.n_samples >= 10


def test_reference_sign_does_not_matter():
    truth, report = solved(sigma=0.0)
    plus = recover_scale(report, reference_from_truth(truth, sign=1.0))
    minus = recover_scale(report, reference_from_truth(truth, sign=-1.0))
    assert plus.translation_magnitude == pytest.approx(minus.translation_magnitude, abs=1e-12)
    assert plus.sign_ambiguous and minus.sign_ambiguous


def test_min_rate_filters_slow_reference_samples():
    truth, report = solved(sigma=0.0)
    ref = reference_from_truth(truth)
    strict = recover_scale(report, ref, min_rate=0.3)
    loose = recover_scale(report, ref, min_rate=0.1)
    assert strict.n_samples < loose.n_samples
    assert strict.translation_magnitude == pytest.approx(2.0, abs=1e-6)
    # an impossible rate floor leaves nothing to divide by
    with pytest.raises(InsufficientExcitationError):
        recover_scale(report, ref, min_rate=10.0)
    with pytest.raises(InvalidArgumentError):
        recover_scale(report, ref, min_rate=0.0)


def test_reference_outside_time_span_is_dropped():
    truth, report = solved(sigma=0.0)
    # reference covering only the first half; the rest interpolates nowhere
    m = len(truth.timestamps) // 2
    ref = AngularRateSeries(
        timestamps=truth.timestamps[:m].copy(), omega=truth.omega[:m].copy()
    )
    res = recover_scale(report, ref)
    assert res.n_samples <= m
    assert res.translation_magnitude == pytest.approx(2.0, abs=1e-6)
    tiny = AngularRateSeries(timestamps=np.array([0.0]), omega=np.array([0.4]))
    with pytest.raises(InsufficientExcitationError):
        recover_scale(report, tiny)


def test_angular_rate_series_validation():
    with pytest.raises(InvalidArgumentError):
        AngularRateSeries(timestamps=np.array([0.0, 1.0]), omega=np.array([0.1]))
    with pytest.raises(InvalidArgumentError):
        AngularRateSeries(timestamps=np.array([0.0, 0.0]), omega=np.array([0.1, 0.2]))


# ---------------------------------------------------------------------------
# rates from headings


def test_smoother_tracks_constant_rate():
    t = np.arange(200) / 10.0
    headings = 0.5 * t + 0.3
    series = smooth_angular_rate_from_poses(t, headings, heading_sigma=0.001)
    np.testing.assert_allclose(series.omega[5:-5], 0.5, atol=1e-3)


def test_smoother_handles_wrapped_headings():
    t = np.arange(300) / 10.0
    psi = 0.4 * t
    wrapped = np.mod(psi + math.pi, 2 * math.pi) - math.pi
    series = smooth_angular_rate_from_poses(t, wrapped, heading_sigma=0.001)
    np.testing.assert_allclose(series.omega[5:-5], 0.4, atol=1e-3)


def test_smoother_tracks_sinusoid_from_noisy_headings():
    rng = np.random.default_rng(17)
    t = np.arange(600) / 10.0
    omega = 0.6 * np.sin(2 * math.pi * t / 15.0 + 0.4)
    psi = np.concatenate([[0.0], np.cumsum(0.5 * (omega[1:] + omega[:-1]) * np.diff(t))])
    noisy = psi + 0.01 * rng.standard_normal(t.shape)
    series = smooth_angular_rate_from_poses(t, noisy, heading_sigma=0.01)
    rms = float(np.sqrt(np.mean((series.omega - omega) ** 2)))
    assert rms < 0.1 * float(np.sqrt(np.mean(omega ** 2)))


def test_smoother_input_validation():
    t = np.arange(10.0)
    with pytest.raises(InvalidArgumentError):
        smooth_angular_rate_from_poses(t[:2], np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        smooth_angular_rate_from_poses(t, np.zeros(9))
    with pytest.raises(InvalidArgumentError):
        smooth_angular_rate_from_poses(t, np.zeros(10), heading_sigma=0.0)
    bad = t.copy()
    bad[5] = bad[4]
    with pytest.raises(InvalidArgumentError):
        smooth_angular_rate_from_poses(bad, np.zeros(10))
    # NaN passes a plain ``<= 0`` test, and 1e-300 squares to 0.
    for sigma in (math.nan, math.inf, -0.01, 1e-300, 1e200):
        with pytest.raises(InvalidArgumentError, match="heading_sigma"):
            smooth_angular_rate_from_poses(t, np.zeros(10), heading_sigma=sigma)
    for psd in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="jerk_psd"):
            smooth_angular_rate_from_poses(t, np.zeros(10), jerk_psd=psd)
    for value in (math.nan, math.inf):
        stamps = t.copy()
        stamps[5] = value
        headings = np.zeros(10)
        headings[5] = value
        for args in ((stamps, np.zeros(10)), (t, headings)):
            with pytest.raises(InvalidArgumentError, match="finite"):
                smooth_angular_rate_from_poses(*args)


@pytest.mark.parametrize("t", [
    pytest.param(1e70 * np.arange(10.0), id="every-step"),
    pytest.param(np.r_[0.02 * np.arange(10.0), 1e70 + 1e56 * np.arange(10.0)], id="one-step"),
])
def test_smoother_refuses_a_step_whose_covariance_overflows(t):
    # The fifth power of a 1e70 s step overflows; the smoother must name the
    # step instead of returning NaN rates, and leak no numpy warning.
    headings = 0.01 * np.arange(t.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=r"heading time step of 1e\+70 s"):
            smooth_angular_rate_from_poses(t, headings)


@pytest.mark.parametrize("step, jerk_psd", [(1e10, 1e-100), (1e9, 1e-30), (1e8, 1e-50)])
def test_smoother_refuses_a_step_whose_covariance_is_singular(step, jerk_psd):
    # So long a step with so small a jerk density leaves a predicted
    # covariance that cannot be inverted; the smoother must name the step.
    t = step * np.arange(1.0, 60.0)
    with pytest.raises(InvalidArgumentError, match=rf"step of {step!r} s .* singular"):
        smooth_angular_rate_from_poses(t, 0.01 * np.arange(t.size), jerk_psd=jerk_psd)


def reference_smoother(timestamps, headings, heading_sigma=0.01, jerk_psd=0.5):
    """The per-sample filter and backward pass, matrices and gains built at
    every step, kept as the reference for ``smooth_angular_rate_from_poses``."""
    t = np.asarray(timestamps, dtype=float)
    z = np.unwrap(np.asarray(headings, dtype=float))
    n = t.size
    r = heading_sigma ** 2
    hrow = np.array([1.0, 0.0, 0.0])

    x = np.array([z[0], (z[1] - z[0]) / (t[1] - t[0]), 0.0])
    P = np.diag([r, 1.0, 1.0])

    xs_pred = np.zeros((n, 3))
    xs_filt = np.zeros((n, 3))
    gains = np.zeros((n - 1, 3, 3))

    for i in range(n):
        if i == 0:
            xp, Pp = x, P
        else:
            dt = t[i] - t[i - 1]
            F = np.array([[1.0, dt, 0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
            Q = jerk_psd * np.array(
                [
                    [dt ** 5 / 20.0, dt ** 4 / 8.0, dt ** 3 / 6.0],
                    [dt ** 4 / 8.0, dt ** 3 / 3.0, dt ** 2 / 2.0],
                    [dt ** 3 / 6.0, dt ** 2 / 2.0, dt],
                ]
            )
            xp = F @ x
            Pp = F @ P @ F.T + Q
            gains[i - 1] = P @ F.T @ np.linalg.inv(Pp)
        innov = z[i] - hrow @ xp
        s = float(hrow @ Pp @ hrow) + r
        k = (Pp @ hrow) / s
        x = xp + k * innov
        P = (np.eye(3) - np.outer(k, hrow)) @ Pp
        xs_pred[i], xs_filt[i] = xp, x

    xs = xs_filt.copy()
    for i in range(n - 2, -1, -1):
        xs[i] = xs_filt[i] + gains[i] @ (xs[i + 1] - xs_pred[i + 1])
    return xs[:, 1]


def assert_smoother_matches_reference(t, headings, **kwargs):
    got = smooth_angular_rate_from_poses(t, headings, **kwargs)
    np.testing.assert_array_equal(got.timestamps, t)
    assert np.array_equal(got.omega, reference_smoother(t, headings, **kwargs))


@pytest.mark.parametrize("duration, seeds", [(15.0, (0, 1, 2)), (600.0, (0, 1))])
def test_smoother_matches_reference_on_simulated_tracks(duration, seeds):
    # 50 Hz, the rate of the heading tracks ``recover-scale --poses`` is fed;
    # a 600 s track takes 30,000 steps through about 1,400 distinct
    # (covariance, step) states, so most steps reuse a computed one.
    track = generate_trajectory(TrajectoryProfile(duration=duration, rate=50.0))
    _, psi, _, _ = track.world_poses()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        noisy = psi + 0.01 * rng.standard_normal(psi.shape)
        assert_smoother_matches_reference(track.timestamps, noisy)


def test_smoother_matches_reference_on_irregular_and_repeated_steps():
    rng = np.random.default_rng(5)
    irregular = np.cumsum(rng.uniform(0.005, 0.05, 3000))
    assert_smoother_matches_reference(irregular, rng.standard_normal(irregular.size))
    repeated = np.cumsum(rng.choice([0.02, 0.1, 0.03], 5000))
    headings = np.sin(repeated) + 0.01 * rng.standard_normal(repeated.size)
    assert_smoother_matches_reference(repeated, headings)
    assert_smoother_matches_reference(repeated, headings, heading_sigma=0.003, jerk_psd=2.0)
    assert_smoother_matches_reference(np.array([0.0, 0.1, 0.3]), np.array([0.0, 0.1, 0.3]))


def test_smoother_matches_reference_when_the_rate_switches():
    # 50 Hz, then 10 Hz, then 50 Hz: at each switch the filtered covariance
    # leaves the set it settled into, and then settles again.
    steps = [np.full(999, 0.02), np.full(200, 0.1), np.full(1000, 0.02)]
    t = np.cumsum(np.concatenate([[0.0], *steps]))
    rng = np.random.default_rng(8)
    headings = 0.8 * np.sin(0.4 * t) + 0.01 * rng.standard_normal(t.size)
    assert_smoother_matches_reference(t, headings)


@pytest.mark.parametrize("heading_sigma", [1e-6, 10.0])
def test_smoother_matches_reference_at_extreme_heading_noise(heading_sigma):
    track = generate_trajectory(TrajectoryProfile(duration=15.0, rate=50.0))
    _, psi, _, _ = track.world_poses()
    noisy = psi + 0.01 * np.random.default_rng(9).standard_normal(psi.shape)
    assert_smoother_matches_reference(track.timestamps, noisy, heading_sigma=heading_sigma)


def test_smoother_matches_reference_when_every_step_is_distinct():
    # No two steps are equal, so no (covariance, step) state recurs.
    t = np.concatenate([[0.0], np.cumsum(0.02 * (1.0 + 1e-4 * np.arange(2000)))])
    assert np.unique(np.diff(t)).size == t.size - 1
    headings = np.sin(t) + 0.01 * np.random.default_rng(10).standard_normal(t.size)
    assert_smoother_matches_reference(t, headings)


def test_smoother_matches_reference_on_a_jittered_clock_rounded_to_1ms():
    # Step lengths recur in no pattern: all but 5 steps are keyed, and no
    # key recurs, so keyed and unkeyed steps mix and every step is computed.
    rng = np.random.default_rng(11)
    t = np.round(0.02 * np.arange(3000) + 2e-4 * rng.standard_normal(3000), 3)
    assert np.unique(np.diff(t)).size < 50
    headings = np.sin(t) + 0.01 * rng.standard_normal(t.size)
    assert_smoother_matches_reference(t, headings)


def test_end_to_end_scale_from_poses():
    truth, report = solved(sigma=0.02, seed=7)
    rng = np.random.default_rng(23)
    _, psi_a, _, _ = truth.world_poses()
    noisy = psi_a + 0.005 * rng.standard_normal(psi_a.shape)
    series = smooth_angular_rate_from_poses(truth.timestamps, noisy, heading_sigma=0.005)
    res = recover_scale(report, series)
    assert abs(res.translation_magnitude - 2.0) / 2.0 < 0.1


# ---------------------------------------------------------------------------
# CSV loaders


def test_rate_csv_round_trip(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("t,omega\n0.0,0.11\n0.1,-0.25\n0.2,0.5\n")
    series = load_angular_rate_csv(path)
    np.testing.assert_array_equal(series.timestamps, [0.0, 0.1, 0.2])
    np.testing.assert_array_equal(series.omega, [0.11, -0.25, 0.5])


def test_heading_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "headings.csv"
    path.write_text("# exported\n\n0.0,0.1\n1.0,0.2\n")
    t, psi = load_heading_csv(path)
    np.testing.assert_array_equal(t, [0.0, 1.0])
    np.testing.assert_array_equal(psi, [0.1, 0.2])


def test_csv_errors_carry_line_numbers(tmp_path):
    three = tmp_path / "three.csv"
    three.write_text("0.0,0.1,9\n")
    with pytest.raises(ParseError) as exc:
        load_angular_rate_csv(three)
    assert exc.value.line == 1

    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("0.0,0.1\nfoo,bar\n")
    with pytest.raises(ParseError) as exc:
        load_angular_rate_csv(nonnum)
    assert exc.value.line == 2

    inf = tmp_path / "inf.csv"
    inf.write_text("0.0,inf\n")
    with pytest.raises(ParseError):
        load_angular_rate_csv(inf)

    empty = tmp_path / "empty.csv"
    empty.write_text("t,omega\n")
    with pytest.raises(ParseError):
        load_angular_rate_csv(empty)
