import dataclasses
import math

import numpy as np
import pytest

import radarcal.calib_solver as calib_solver
import radarcal.identifiability as identifiability
from radarcal.calib_solver import (
    COV_FLOOR,
    CalibState,
    Extrinsics,
    MeasurementPairs,
    SolverOptions,
    _profile_costs,
    _weights,
    fused_ego_velocities,
    init_motion_states,
    init_rotation,
    init_translation_axis,
    jacobian,
    residuals,
    solve_lm,
    unconstrained_cost,
    velocity_error_metric,
)
from radarcal.errors import (
    InsufficientDataError,
    InsufficientExcitationError,
    InvalidArgumentError,
    UnidentifiableError,
)
from radarcal.geometry import axis_unit, lever_unit, rot2, wrap_to_pi
from radarcal.identifiability import assess_excitation, excitation_report
from radarcal.simulator import NoiseSpec, TrajectoryProfile, generate_trajectory, simulate_pairs


def pairs_from_arrays(ha, hb, cov_a=None, cov_b=None, ts=None):
    ha = np.asarray(ha, dtype=float)
    hb = np.asarray(hb, dtype=float)
    m = ha.shape[0]
    if cov_a is None:
        cov_a = [0.01 * np.eye(2)] * m
    if cov_b is None:
        cov_b = [0.01 * np.eye(2)] * m
    if ts is None:
        ts = np.arange(m) * 0.1
    return MeasurementPairs(timestamps=ts, h_a=ha, h_b=hb, cov_a=cov_a, cov_b=cov_b)


def model_pairs(v, w, theta_t, theta_ba, **kw):
    """Pairs satisfying the measurement model exactly."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    R = rot2(theta_ba)
    u = lever_unit(theta_t)
    hb = (v + w[:, None] * u) @ R.T
    return pairs_from_arrays(v, hb, **kw)


def random_spd(rng, scale=0.05):
    a = rng.standard_normal((2, 2))
    return scale ** 2 * (a @ a.T + 0.5 * np.eye(2))


def periodic_pairs(sigma, duration=15.0, seed=0, **traj_kw):
    truth = generate_trajectory(
        TrajectoryProfile(kind="periodic_default", duration=duration), **traj_kw
    )
    return truth, simulate_pairs(truth, NoiseSpec(sigma_r=sigma), rng_seed=seed)


# ---------------------------------------------------------------------------
# the pairs type


def test_measurement_pairs_validate_once_and_select_pairs():
    _, pairs = periodic_pairs(sigma=0.1)
    assert len(pairs) == 150
    for key in (slice(3, 9), pairs.timestamps < 1.0, np.array([4, 2, 2])):
        sub = pairs[key]
        assert isinstance(sub, MeasurementPairs)
        for name in ("timestamps", "h_a", "h_b", "cov_a", "cov_b"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(pairs, name)[key])
    for bad in ({"h_b": pairs.h_b[:-1]}, {"cov_a": pairs.cov_a[:, 0]}, {"timestamps": 0.0}):
        with pytest.raises(InvalidArgumentError, match="wrong shapes"):
            dataclasses.replace(pairs, **bad)
    ts = pairs.timestamps.copy()
    ts[3] = math.inf
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        dataclasses.replace(pairs, timestamps=ts)
    with pytest.raises(InsufficientDataError, match="no measurement pairs"):
        solve_lm(pairs[:0])


# ---------------------------------------------------------------------------
# closed-form initialization


def test_init_rotation_exact_without_lever_motion():
    # omega = 0 everywhere: h_b is exactly the rotated h_a, so the angle
    # between them is theta_ba for every pair.
    rng = np.random.default_rng(3)
    theta_ba = 0.8
    v = rng.uniform(-2.0, 2.0, size=(40, 2))
    v[np.hypot(v[:, 0], v[:, 1]) < 0.3] += 1.0
    pairs = model_pairs(v, np.zeros(40), theta_t=0.3, theta_ba=theta_ba)
    assert abs(wrap_to_pi(init_rotation(pairs) - theta_ba)) < 1e-12


def test_init_rotation_close_on_default_rig():
    truth, pairs = periodic_pairs(sigma=0.0, duration=120.0)
    est = init_rotation(pairs)
    assert abs(wrap_to_pi(est - truth.theta_ba)) < 0.2


def test_init_rotation_rejects_slow_and_empty_input():
    slow = pairs_from_arrays(np.full((5, 2), 0.001), np.full((5, 2), 0.001))
    with pytest.raises(InsufficientDataError):
        init_rotation(slow)
    with pytest.raises(InsufficientDataError):
        init_rotation(slow[:0])


def test_init_translation_axis_recovers_lever_direction():
    # pure rotational excitation: b_j = omega_gamma^j * u(theta_t) exactly,
    # so undoing the quarter turn must give back theta_t.
    theta_t = math.pi / 3
    theta_ba = -1.0
    w = np.array([0.5, -0.4, 0.8, 0.3, -0.6])
    v = np.tile([1.0, 0.2], (5, 1))
    pairs = model_pairs(v, w, theta_t, theta_ba)
    est = init_translation_axis(pairs, theta_ba)
    assert abs(est - theta_t) < 1e-9


def test_init_translation_axis_needs_rotational_signal():
    v = np.tile([1.0, 0.5], (10, 1))
    pairs = model_pairs(v, np.zeros(10), theta_t=0.3, theta_ba=0.7)
    with pytest.raises(InsufficientExcitationError):
        init_translation_axis(pairs, theta_ba=0.7)


@pytest.mark.parametrize("init", ["rotation", "axis"])
def test_init_rejects_non_finite_pairs(init):
    # A NaN pair fails every speed and lever comparison, so without the
    # validation it would be dropped silently.  The pairs refuse it when built.
    _, pairs = periodic_pairs(sigma=0.05)
    h_b = pairs.h_b.copy()
    h_b[7] = [math.nan, 1.0]
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        bad = dataclasses.replace(pairs, h_b=h_b)
        if init == "rotation":
            init_rotation(bad)
        else:
            init_translation_axis(bad, theta_ba=0.3)


def test_init_motion_states_match_dense_least_squares():
    rng = np.random.default_rng(11)
    m = 25
    ha = rng.uniform(-2, 2, size=(m, 2))
    hb = rng.uniform(-2, 2, size=(m, 2))
    cov_a = [random_spd(rng) for _ in range(m)]
    cov_b = [random_spd(rng) for _ in range(m)]
    pairs = pairs_from_arrays(ha, hb, cov_a, cov_b)
    ext = Extrinsics(theta_t=0.9, theta_ba=-1.3)
    state = init_motion_states(pairs, ext)
    assert state.extrinsics == ext

    R = rot2(ext.theta_ba)
    u = lever_unit(ext.theta_t)
    for j in range(m):
        Wa = np.linalg.cholesky(np.linalg.inv(cov_a[j] + COV_FLOOR * np.eye(2))).T
        Wb = np.linalg.cholesky(np.linalg.inv(cov_b[j] + COV_FLOOR * np.eye(2))).T
        G = np.zeros((4, 3))
        G[0:2, 0:2] = Wa
        G[2:4, 0:2] = Wb @ R
        G[2:4, 2] = Wb @ R @ u
        y = np.concatenate([Wa @ ha[j], Wb @ hb[j]])
        z, *_ = np.linalg.lstsq(G, y, rcond=None)
        np.testing.assert_allclose(state.v_a[j], z[:2], atol=1e-8)
        assert abs(state.omega_gamma[j] - z[2]) < 1e-8


def test_profile_costs_match_point_api():
    # the grid's closed-form profile cost against motion states fitted and
    # residuals evaluated through the public per-point API
    rng = np.random.default_rng(23)
    m = 30
    ha = rng.uniform(-2, 2, size=(m, 2))
    hb = rng.uniform(-2, 2, size=(m, 2))
    cov_a = [random_spd(rng) for _ in range(m)]
    cov_b = [random_spd(rng, scale=0.1) for _ in range(m)]
    pairs = pairs_from_arrays(ha, hb, cov_a, cov_b)
    t_grid = rng.uniform(0.0, math.pi, 5)
    ba_grid = rng.uniform(-math.pi, math.pi, 5)
    costs = _profile_costs(pairs, _weights(pairs), t_grid, ba_grid)
    assert costs.shape == (5, 5)
    for i, tt in enumerate(t_grid):
        for j, tb in enumerate(ba_grid):
            ext = Extrinsics(theta_t=float(tt), theta_ba=float(tb))
            r = residuals(init_motion_states(pairs, ext), pairs)
            assert abs(costs[i, j] - r @ r) <= 1e-12 * (r @ r)


def reference_profile_costs(pairs, wt, t_grid, ba_grid):
    # the sweep's former form: one loop pass per rotation, inverting the sum
    # of both covariances and subtracting the lever's share from d^T H d
    Ca = np.linalg.inv(wt.Pa)
    Cb = np.linalg.inv(wt.Pb)
    U = np.stack([-np.sin(t_grid), np.cos(t_grid)], axis=1)
    costs = np.empty((t_grid.size, ba_grid.size))
    for j, theta_ba in enumerate(ba_grid):
        R = rot2(float(theta_ba))
        H = np.linalg.inv(Ca + R.T @ Cb @ R)
        d = pairs.h_a - pairs.h_b @ R                 # rows h_a - R^T h_b
        Hd = np.einsum("mij,mj->mi", H, d)
        uHd = U @ Hd.T                                # (G_t, M)
        uHu = np.einsum("ti,mij,tj->tm", U, H, U)
        costs[:, j] = np.sum(d * Hd) - np.sum(uHd * uHd / uHu, axis=1)
    return costs


def grid(step_deg):
    """The axis and rotation grids of the solver's sweep at this step."""
    step = math.radians(step_deg)
    return np.arange(0.0, math.pi, step), np.arange(-math.pi, math.pi, step)


def sweep_logs():
    # the benchmark's short_pairs_sweep logs of seed 1: 15 s at 10/3 Hz, sigma 0.1
    truth = generate_trajectory(TrajectoryProfile(duration=15.0, rate=10.0 / 3.0))
    for k in range(12):
        yield simulate_pairs(truth, NoiseSpec(sigma_r=0.1), np.random.SeedSequence((1, k, 0)))


def anisotropic_logs():
    rng = np.random.default_rng(31)
    for seed in range(4):
        _, pairs = periodic_pairs(sigma=0.1, duration=5.0, seed=seed)
        m = len(pairs)
        yield dataclasses.replace(
            pairs,
            cov_a=[random_spd(rng, scale=0.1) for _ in range(m)],
            cov_b=[random_spd(rng, scale=rng.uniform(0.02, 0.3)) for _ in range(m)],
        )


@pytest.mark.parametrize("logs", ["sweep", "sigma_0.3", "anisotropic"])
def test_profile_costs_match_the_per_rotation_reference(logs):
    t_grid, ba_grid = grid(2.5)
    cases = {
        "sweep": sweep_logs,
        "sigma_0.3": lambda: (periodic_pairs(0.3, duration=5.0, seed=s)[1] for s in range(4)),
        "anisotropic": anisotropic_logs,
    }[logs]()
    for pairs in cases:
        wt = _weights(pairs)
        costs = _profile_costs(pairs, wt, t_grid, ba_grid)
        ref = reference_profile_costs(pairs, wt, t_grid, ba_grid)
        np.testing.assert_allclose(costs, ref, rtol=1e-12, atol=0.0)
        assert np.argmin(costs) == np.argmin(ref)


@pytest.mark.parametrize("sigma", [0.0, 1e-9])
def test_profile_costs_are_never_negative_on_noise_free_data(sigma):
    # The former d^T H d - (u^T H d)^2 / (u^T H u) cancelled to about -4e-9
    # at the true cell of such logs; a sum of squares cannot go below zero.
    t_grid, ba_grid = grid(10.0)
    rng = np.random.default_rng(0)
    for n in range(8):
        i, j = rng.integers(t_grid.size), rng.integers(ba_grid.size)
        truth = generate_trajectory(
            TrajectoryProfile(duration=5.0),
            theta_ba=ba_grid[j],
            translation=2.0 * axis_unit(t_grid[i]),
        )
        pairs = simulate_pairs(truth, NoiseSpec(sigma_r=sigma), rng_seed=n)
        costs = _profile_costs(pairs, _weights(pairs), t_grid, ba_grid)
        assert costs.min() >= 0.0
        assert np.unravel_index(np.argmin(costs), costs.shape) == (i, j)
        assert costs[i, j] < 1e-9


@pytest.mark.parametrize("m", [50, 600])
def test_profile_cost_columns_do_not_depend_on_the_block(m):
    # Each rotation's column must come out bit for bit as if computed alone,
    # so the block size can never move a start cell.  At m = 50 the rotations
    # fill several blocks and the last one is short; at m = 600 one rotation
    # row exceeds PROFILE_BLOCK and each rotation is a block of its own.
    _, pairs = periodic_pairs(sigma=0.1, duration=m / 10.0, seed=5)
    wt = _weights(pairs)
    t_grid = np.linspace(0.0, math.pi, 18 if m > 50 else 10, endpoint=False)
    ba_grid = np.linspace(-math.pi, math.pi, 37, endpoint=False)
    rows = calib_solver.PROFILE_BLOCK // (t_grid.size * m)
    assert (rows == 0) if m > 50 else (1 < rows < ba_grid.size and ba_grid.size % rows)
    costs = _profile_costs(pairs, wt, t_grid, ba_grid)
    for j in range(ba_grid.size):
        alone = _profile_costs(pairs, wt, t_grid, ba_grid[j:j + 1])
        assert np.array_equal(costs[:, j], alone[:, 0])


# ---------------------------------------------------------------------------
# residuals and Jacobian


def test_residuals_match_direct_evaluation():
    rng = np.random.default_rng(7)
    m = 8
    ha = rng.uniform(-2, 2, size=(m, 2))
    hb = rng.uniform(-2, 2, size=(m, 2))
    cov_a = [random_spd(rng) for _ in range(m)]
    cov_b = [random_spd(rng) for _ in range(m)]
    pairs = pairs_from_arrays(ha, hb, cov_a, cov_b)
    v = rng.uniform(-2, 2, size=(m, 2))
    w = rng.uniform(-1, 1, size=m)
    tht, thb = 0.7, -2.1
    state = CalibState(v_a=v, omega_gamma=w, extrinsics=Extrinsics(theta_t=tht, theta_ba=thb))

    r = residuals(state, pairs)
    assert r.shape == (4 * m,)

    R = rot2(thb)
    u = lever_unit(tht)
    expected = np.empty(4 * m)
    for j in range(m):
        Wa = np.linalg.cholesky(np.linalg.inv(cov_a[j] + COV_FLOOR * np.eye(2))).T
        Wb = np.linalg.cholesky(np.linalg.inv(cov_b[j] + COV_FLOOR * np.eye(2))).T
        expected[4 * j : 4 * j + 2] = Wa @ (ha[j] - v[j])
        expected[4 * j + 2 : 4 * j + 4] = Wb @ (hb[j] - R @ (v[j] + w[j] * u))
    np.testing.assert_allclose(r, expected, atol=1e-10)

    # the squared norm is the weighted cost
    cost = 0.0
    for j in range(m):
        Pa = np.linalg.inv(cov_a[j] + COV_FLOOR * np.eye(2))
        Pb = np.linalg.inv(cov_b[j] + COV_FLOOR * np.eye(2))
        ea = ha[j] - v[j]
        eb = hb[j] - R @ (v[j] + w[j] * u)
        cost += ea @ Pa @ ea + eb @ Pb @ eb
    np.testing.assert_allclose(r @ r, cost, rtol=1e-12)


def test_residuals_rejects_mismatched_state():
    pairs = model_pairs(np.ones((4, 2)), np.zeros(4), 0.1, 0.2)
    state = CalibState(
        v_a=np.ones((3, 2)), omega_gamma=np.zeros(3), extrinsics=Extrinsics(0.1, 0.2)
    )
    with pytest.raises(InvalidArgumentError):
        residuals(state, pairs)


def pack(state):
    blk = np.concatenate([state.v_a, state.omega_gamma[:, None]], axis=1)
    return np.concatenate([blk.ravel(), [state.extrinsics.theta_t, state.extrinsics.theta_ba]])


def unpack(x, m):
    blk = x[: 3 * m].reshape(m, 3)
    return CalibState(
        v_a=blk[:, :2].copy(),
        omega_gamma=blk[:, 2].copy(),
        extrinsics=Extrinsics(theta_t=float(x[-2]), theta_ba=float(x[-1])),
    )


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(19)
    m = 6
    ha = rng.uniform(-2, 2, size=(m, 2))
    hb = rng.uniform(-2, 2, size=(m, 2))
    cov_a = [random_spd(rng) for _ in range(m)]
    cov_b = [random_spd(rng) for _ in range(m)]
    pairs = pairs_from_arrays(ha, hb, cov_a, cov_b)
    state = unpack(rng.uniform(-1.5, 1.5, size=3 * m + 2), m)

    J = jacobian(state, pairs).toarray()
    assert J.shape == (4 * m, 3 * m + 2)

    x0 = pack(state)
    h = 1e-6
    Jfd = np.empty_like(J)
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        Jfd[:, i] = (residuals(unpack(xp, m), pairs) - residuals(unpack(xm, m), pairs)) / (2 * h)
    rel = np.abs(J - Jfd) / np.maximum(np.abs(Jfd), 1.0)
    assert rel.max() < 1e-5


def test_jacobian_is_a_csr_matrix():
    # The package imports scipy.sparse only inside jacobian().
    import scipy.sparse

    rng = np.random.default_rng(3)
    m = 4
    pairs = pairs_from_arrays(rng.uniform(-1, 1, (m, 2)), rng.uniform(-1, 1, (m, 2)))
    J = jacobian(unpack(rng.uniform(-1, 1, size=3 * m + 2), m), pairs)
    assert isinstance(J, scipy.sparse.csr_matrix)
    assert J.shape == (4 * m, 3 * m + 2)
    assert J.nnz == 4 * m * 5


def test_jacobian_sparsity_pattern():
    rng = np.random.default_rng(2)
    m = 5
    pairs = pairs_from_arrays(rng.uniform(-1, 1, (m, 2)), rng.uniform(-1, 1, (m, 2)))
    state = unpack(rng.uniform(-1, 1, size=3 * m + 2), m)
    J = jacobian(state, pairs).toarray()
    for j in range(m):
        block = J[4 * j : 4 * j + 4].copy()
        block[:, 3 * j : 3 * j + 3] = 0.0
        block[:, 3 * m :] = 0.0
        assert not block.any(), f"timestep {j} leaks into foreign motion columns"


# ---------------------------------------------------------------------------
# cost model properties


def test_unconstrained_cost_scale_invariance():
    rng = np.random.default_rng(23)
    m = 12
    pairs = pairs_from_arrays(
        rng.uniform(-2, 2, (m, 2)),
        rng.uniform(-2, 2, (m, 2)),
        [random_spd(rng) for _ in range(m)],
        [random_spd(rng) for _ in range(m)],
    )
    for trial in range(20):
        v = rng.uniform(-2, 2, size=(m, 2))
        omega = rng.uniform(-1, 1, size=m)
        t_vec = rng.uniform(-3, 3, size=2)
        thb = rng.uniform(-math.pi, math.pi)
        base = unconstrained_cost(pairs, v, omega, t_vec, thb)
        for g in (0.1, 3.0, 10.0):
            scaled = unconstrained_cost(pairs, v, g * omega, t_vec / g, thb)
            assert abs(scaled - base) <= 1e-12 * max(base, 1.0)


def test_velocity_error_metric_zero_on_model_data():
    truth, pairs = periodic_pairs(sigma=0.0)
    assert velocity_error_metric(pairs, truth.extrinsics) < 1e-12
    _, noisy = periodic_pairs(sigma=0.1)
    assert velocity_error_metric(noisy, truth.extrinsics) > 0.01


# ---------------------------------------------------------------------------
# full solves


def test_solve_noise_free_recovers_everything():
    truth, pairs = periodic_pairs(sigma=0.0)
    report = solve_lm(pairs)
    assert report.converged
    d_t = abs(report.extrinsics.theta_t - truth.extrinsics.theta_t)
    assert min(d_t, math.pi - d_t) < 1e-8
    assert abs(wrap_to_pi(report.extrinsics.theta_ba - truth.extrinsics.theta_ba)) < 1e-8
    np.testing.assert_allclose(report.v_a, truth.v_a, atol=1e-8)
    np.testing.assert_allclose(report.omega_gamma, truth.omega_gamma, atol=1e-8)
    assert report.final_cost < 1e-12


def test_solve_folds_axis_into_canonical_range():
    # translation pointing into the third quadrant: the physical axis angle
    # is negative, so the reported axis is the fold and the unscaled rates
    # carry the compensating sign flip.
    truth = generate_trajectory(
        TrajectoryProfile(kind="periodic_default", duration=30.0),
        translation=(-1.2, -1.6),
    )
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.0), rng_seed=0)
    assert truth.gauge_sign == -1.0
    report = solve_lm(pairs)
    assert 0.0 <= report.extrinsics.theta_t < math.pi
    assert abs(report.extrinsics.theta_t - truth.extrinsics.theta_t) < 1e-8
    np.testing.assert_allclose(report.omega_gamma, truth.omega_gamma, atol=1e-8)


def test_solve_report_quantile_table_shape():
    _, pairs = periodic_pairs(sigma=0.1)
    report = solve_lm(pairs)
    for radar in ("radar_a", "radar_b"):
        for kind in ("raw", "fused"):
            q = report.velocity_error_table[radar][kind]
            assert set(q) == {"q25", "q50", "q75", "q90"}
            assert q["q25"] <= q["q50"] <= q["q75"] <= q["q90"]


def test_solve_requires_two_pairs_and_excitation_check_three():
    truth, pairs = periodic_pairs(sigma=0.0)
    with pytest.raises(InsufficientDataError):
        solve_lm(pairs[:1])
    with pytest.raises(InsufficientDataError):
        solve_lm(pairs[:2])  # excitation check impossible
    # with enforcement off, two pairs solve fine
    report = solve_lm(pairs[:2], SolverOptions(enforce_excitation=False))
    assert np.isfinite(report.final_cost)


@pytest.mark.parametrize("radar", ["a", "b"])
def test_solve_rejects_non_finite_covariance(radar):
    truth, pairs = periodic_pairs(sigma=0.1)
    cov = getattr(pairs, f"cov_{radar}").copy()
    cov[5, 0, 1] = math.nan
    with pytest.raises(InvalidArgumentError, match=f"radar {radar} covariance"):
        solve_lm(dataclasses.replace(pairs, **{f"cov_{radar}": cov}))


def test_solve_converts_pairs_once(monkeypatch):
    # one solve inverts the covariances into weights once, shared by every stage
    calls = []
    real = calib_solver._weights

    def counting(pairs, *args, **kwargs):
        calls.append(len(pairs))
        return real(pairs, *args, **kwargs)

    monkeypatch.setattr(calib_solver, "_weights", counting)
    monkeypatch.setattr(identifiability, "_weights", counting)
    _, pairs = periodic_pairs(sigma=0.05)
    solve_lm(pairs)
    assert calls == [len(pairs)]


@pytest.mark.parametrize("duration", [15.0, 5.0])  # M = 150 runs one LM start, M = 50 two
def test_solve_fits_the_motion_once_per_start(monkeypatch, duration):
    starts = []
    real = calib_solver._motion_from_data

    def counting(pairs, wt, theta_t, theta_ba):
        starts.append((theta_t, theta_ba))
        return real(pairs, wt, theta_t, theta_ba)

    _, pairs = periodic_pairs(sigma=0.05, duration=duration)
    guess = assess_excitation(pairs).guess
    monkeypatch.setattr(calib_solver, "_motion_from_data", counting)
    monkeypatch.setattr(identifiability, "_motion_from_data", counting)
    solve_lm(pairs)
    assert starts[0] == (guess.theta_t, guess.theta_ba)
    assert len(starts) == len(set(starts)) == (1 if len(pairs) > 60 else 2)


@pytest.mark.parametrize("options", [
    pytest.param(None, id="defaults"),
    pytest.param(SolverOptions(max_iterations=3), id="three-iterations"),
    pytest.param(SolverOptions(grid_init_max_pairs=0, init_k=5), id="no-sweep"),
])
def test_excitation_and_residuals_share_the_solver_weights(options):
    # Non-isotropic covariances, so that a floor or weighting applied by one
    # entry point and not another would change the numbers.
    rng = np.random.default_rng(5)
    _, pairs = periodic_pairs(sigma=0.1, seed=4)
    covs = np.array([
        [random_spd(rng, scale=rng.uniform(0.02, 0.5)) for _ in "ab"] for _ in range(len(pairs))
    ])
    pairs = dataclasses.replace(pairs, cov_a=covs[:, 0], cov_b=covs[:, 1])
    verdict = assess_excitation(pairs, options)
    assert verdict.report == excitation_report(pairs, verdict.guess)
    report = solve_lm(pairs, options)
    state = CalibState(v_a=report.v_a, omega_gamma=report.omega_gamma,
                       extrinsics=report.extrinsics)
    r = residuals(state, pairs)
    assert np.sum(r * r) == report.final_cost


@pytest.mark.parametrize("bad", [pytest.param({"max_iterations": -1}, id="bad6")])
def test_solver_options_reject_damping_that_cannot_terminate(bad):
    with pytest.raises(InvalidArgumentError):
        SolverOptions(**bad)


def test_solver_options_accept_edge_values():
    opts = SolverOptions(max_iterations=0)
    assert dataclasses.replace(opts, grid_init_max_pairs=0, restart_cost_ratio=math.inf)


def test_solve_refuses_constant_turn_rate_data():
    truth = generate_trajectory(TrajectoryProfile(kind="constant_omega", duration=15.0))
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.0), rng_seed=0)
    with pytest.raises(UnidentifiableError) as exc:
        solve_lm(pairs)
    assert exc.value.report is not None
    assert exc.value.report.fraction_degenerate == 1.0


def test_solve_refuses_straight_line_data_even_with_noise():
    truth = generate_trajectory(TrajectoryProfile(kind="straight_line", duration=15.0))
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.05), rng_seed=4)
    with pytest.raises(UnidentifiableError):
        solve_lm(pairs)


def test_solve_degenerate_data_with_enforcement_off_is_uninformative():
    truth = generate_trajectory(TrajectoryProfile(kind="constant_omega", duration=15.0))
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.0), rng_seed=0)
    report = solve_lm(pairs, SolverOptions(enforce_excitation=False))
    # the marginal information over the extrinsics collapses along one axis
    evals = np.linalg.eigvalsh(np.linalg.pinv(report.extrinsic_covariance))
    assert evals[0] < 1e-6 * evals[-1]


def test_solve_long_baseline_needs_restart():
    # at a 5.68 m baseline the speed-similarity rotation guess lands in the
    # wrong basin; the coarse-grid restart must rescue the solve.
    axis = 2.2
    t_vec = 5.68 * np.array([math.cos(axis), math.sin(axis)])
    truth = generate_trajectory(
        TrajectoryProfile(kind="periodic_default", duration=60.0), translation=t_vec
    )
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.05), rng_seed=568)
    report = solve_lm(pairs)
    m = len(pairs)
    dof = 4 * m - (3 * m + 2)
    assert report.final_cost / dof < 1.5
    d_t = abs(report.extrinsics.theta_t - truth.extrinsics.theta_t)
    assert min(d_t, math.pi - d_t) < 0.02
    assert abs(wrap_to_pi(report.extrinsics.theta_ba - truth.extrinsics.theta_ba)) < 0.02


def test_extrinsic_covariance_is_consistent():
    # normalized estimation error squared over repeated noisy draws; for a
    # consistent 2-dof estimate the mean sits near 2.
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=15.0))
    nees = []
    for k in range(100):
        pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.1), rng_seed=(500, k))
        report = solve_lm(pairs)
        d_t = report.extrinsics.theta_t - truth.extrinsics.theta_t
        d_t = (d_t + math.pi / 2) % math.pi - math.pi / 2
        d_b = wrap_to_pi(report.extrinsics.theta_ba - truth.extrinsics.theta_ba)
        err = np.array([d_t, d_b])
        nees.append(err @ np.linalg.solve(report.extrinsic_covariance, err))
    mean = float(np.mean(nees))
    assert 1.0 < mean < 4.0, f"NEES mean {mean}"


# ---------------------------------------------------------------------------
# fused velocity bookkeeping


def test_fused_ego_velocities_simulation_mode():
    truth, pairs = periodic_pairs(sigma=0.2, duration=60.0, seed=8)
    report = solve_lm(pairs)
    errs = fused_ego_velocities(report, pairs, ground_truth=truth)
    for radar in ("radar_a", "radar_b"):
        raw = errs[radar]["raw"]
        fused = errs[radar]["fused"]
        assert raw.shape == fused.shape == (len(pairs),)
        assert np.median(fused) < np.median(raw)


def test_fused_ego_velocities_validates_inputs():
    truth, pairs = periodic_pairs(sigma=0.1)
    report = solve_lm(pairs)
    short = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=5.0))
    with pytest.raises(InvalidArgumentError):
        fused_ego_velocities(report, pairs, ground_truth=short)
    # as many pairs as the report, but at other timesteps
    later = MeasurementPairs(
        pairs.timestamps + 7.5, pairs.h_a, pairs.h_b, pairs.cov_a, pairs.cov_b
    )
    with pytest.raises(InvalidArgumentError, match="report and pairs disagree on the timesteps"):
        fused_ego_velocities(report, later)
