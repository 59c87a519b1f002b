"""End-to-end acceptance gates for the whole toolkit.

Each test prints exactly one ``ACCEPTANCE <n> (<name>): PASS|FAIL`` line
(visible with ``pytest -s`` or on failure) and then asserts, so the suite
doubles as a machine-checkable scorecard.  Tolerances and workloads are the
product contract; do not loosen them to make a run green.
"""

import json
import math
import time

import numpy as np

from radarcal import cli
from radarcal.calib_solver import (
    COV_FLOOR,
    CalibState,
    Extrinsics,
    MeasurementPairs,
    fused_ego_velocities,
    init_motion_states,
    jacobian,
    residuals,
    solve_lm,
    unconstrained_cost,
)
from radarcal.ego_velocity import RansacConfig, ransac_ego_velocity
from radarcal.geometry import wrap_to_pi
from radarcal.pipeline_io import (
    PipelineConfig,
    estimate_stream,
    load_config,
    load_pairs,
    load_scans,
    load_truth,
    read_json,
    read_report,
    report_to_dict,
    save_config,
    save_pairs,
    save_scans,
    save_truth,
    write_report,
)
from radarcal.scale_recovery import AngularRateSeries, recover_scale
from radarcal.simulator import (
    NoiseSpec,
    TrajectoryProfile,
    generate_trajectory,
    sample_landmarks,
    simulate_pairs,
    simulate_scans,
)


def _verdict(number: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _angle_errors_deg(report, truth) -> tuple[float, float]:
    d_t = abs(report.extrinsics.theta_t - truth.extrinsics.theta_t)
    d_t = min(d_t, math.pi - d_t)
    d_b = abs(wrap_to_pi(report.extrinsics.theta_ba - truth.extrinsics.theta_ba))
    return math.degrees(d_t), math.degrees(d_b)


def _random_pairs(rng, covs):
    """Uniform random velocities in [-2, 2), drawn pair by pair (a, then b),
    with ``covs`` alternating between the radars; pairs 0.1 s apart."""
    m = len(covs) // 2
    h = np.array([(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)) for _ in range(m)])
    return MeasurementPairs(
        timestamps=0.1 * np.arange(m), h_a=h[:, 0], h_b=h[:, 1], cov_a=covs[0::2], cov_b=covs[1::2]
    )


# ---------------------------------------------------------------------------
# 1: accuracy across the noise/duration sweep


def test_acceptance_01_noise_sweep_accuracy():
    sigmas = (0.05, 0.1, 0.2)
    durations = (15.0, 120.0)
    trials = 100
    truths = {
        d: generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=d))
        for d in durations
    }
    start = time.perf_counter()
    medians = {}
    for si, sigma in enumerate(sigmas):
        for di, duration in enumerate(durations):
            truth = truths[duration]
            errs_t, errs_b = [], []
            for k in range(trials):
                pairs = simulate_pairs(
                    truth,
                    NoiseSpec(sigma_r=sigma),
                    rng_seed=np.random.SeedSequence((100, si, di, k)),
                )
                report = solve_lm(pairs)
                e_t, e_b = _angle_errors_deg(report, truth)
                errs_t.append(e_t)
                errs_b.append(e_b)
            medians[(sigma, duration)] = (
                float(np.median(errs_t)),
                float(np.median(errs_b)),
            )
    elapsed = time.perf_counter() - start

    ok = elapsed < 300.0
    details = [f"{elapsed:.0f}s"]
    for (sigma, duration), (m_t, m_b) in sorted(medians.items()):
        lim_t, lim_b = (1.0, 1.5) if (sigma, duration) == (0.05, 120.0) else (2.0, 3.0)
        ok = ok and m_t <= lim_t and m_b <= lim_b
        details.append(f"s{sigma:g}/d{duration:g}: {m_t:.3f}/{m_b:.3f} deg")
    _verdict(1, "noise sweep accuracy", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 2: fusion beats the raw measurements


def test_acceptance_02_fused_velocity_improvement():
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=120.0))
    gaps = {"radar_a": [], "radar_b": []}
    raw_all = {"radar_a": [], "radar_b": []}
    fused_all = {"radar_a": [], "radar_b": []}
    for k in range(50):
        pairs = simulate_pairs(
            truth, NoiseSpec(sigma_r=0.2), rng_seed=np.random.SeedSequence((300, k))
        )
        report = solve_lm(pairs)
        errors = fused_ego_velocities(report, pairs, ground_truth=truth)
        for radar in gaps:
            raw_all[radar].append(errors[radar]["raw"])
            fused_all[radar].append(errors[radar]["fused"])
    detail = []
    ok = True
    for radar in gaps:
        raw_med = float(np.median(np.concatenate(raw_all[radar])))
        fused_med = float(np.median(np.concatenate(fused_all[radar])))
        gap = raw_med - fused_med
        ok = ok and gap >= 0.03
        detail.append(f"{radar}: raw {raw_med:.4f} fused {fused_med:.4f} (gap {gap * 100:.2f} cm/s)")
    _verdict(2, "fused velocity improvement", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 3: exact recovery on clean data


def test_acceptance_03_exact_recovery():
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=15.0))
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.0), rng_seed=0)
    report = solve_lm(pairs)
    d_t = abs(report.extrinsics.theta_t - truth.extrinsics.theta_t)
    d_t = min(d_t, math.pi - d_t)
    d_b = abs(wrap_to_pi(report.extrinsics.theta_ba - truth.extrinsics.theta_ba))
    motion_err = max(
        float(np.max(np.abs(report.v_a - truth.v_a))),
        float(np.max(np.abs(report.omega_gamma - truth.omega_gamma))),
    )
    ok = d_t < 1e-6 and d_b < 1e-6 and motion_err < 1e-8
    _verdict(
        3,
        "exact recovery",
        ok,
        f"theta_t {d_t:.2e} rad, theta_ba {d_b:.2e} rad, motion {motion_err:.2e}",
    )


# ---------------------------------------------------------------------------
# 4: joint rate/translation rescaling cannot change the cost


def test_acceptance_04_scale_ambiguity_invariance():
    rng = np.random.default_rng(41)
    m = 20
    covs = []
    for _ in range(2 * m):
        a = rng.standard_normal((2, 2))
        covs.append(0.01 * (a @ a.T + 0.5 * np.eye(2)))
    pairs = _random_pairs(rng, covs)
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(-2, 2, (m, 2))
        omega = rng.uniform(-1, 1, m)
        t_vec = rng.uniform(-3, 3, 2)
        thb = rng.uniform(-math.pi, math.pi)
        base = unconstrained_cost(pairs, v, omega, t_vec, thb)
        for g in (0.1, 3.0, 10.0):
            scaled = unconstrained_cost(pairs, v, g * omega, t_vec / g, thb)
            worst = max(worst, abs(scaled - base) / max(abs(base), 1e-300))
    ok = worst < 1e-12
    _verdict(4, "scale ambiguity invariance", ok, f"worst relative change {worst:.2e}")


# ---------------------------------------------------------------------------
# 5: degenerate trajectories are refused, good ones pass


def test_acceptance_05_degeneracy_detection(tmp_path):
    outcomes = []
    ok = True
    for profile, want_code in (
        ("constant_omega", cli.EXIT_UNIDENTIFIABLE),
        ("straight_line", cli.EXIT_UNIDENTIFIABLE),
        ("periodic_default", cli.EXIT_OK),
    ):
        sim = tmp_path / profile
        sigma = "0.05" if profile == "periodic_default" else "0"
        code = cli.main(
            ["simulate", "--out", str(sim), "--trials", "1", "--sigma", sigma,
             "--duration", "15", "--profile", profile, "--no-scans"]
        )
        assert code == 0
        pairs_file = sim / f"sigma_{sigma}" / "dur_15" / "trial_0" / "pairs.txt"
        cal = tmp_path / f"cal_{profile}"
        code = cli.main(["calibrate", "--input", str(pairs_file), "--out", str(cal)])
        ok = ok and code == want_code
        outcomes.append(f"{profile}: exit {code} (want {want_code})")
        if want_code == cli.EXIT_UNIDENTIFIABLE:
            frac = read_json(cal / "excitation.json")["fraction_degenerate"]
            ok = ok and frac == 1.0
            outcomes[-1] += f", degenerate fraction {frac:g}"
    _verdict(5, "degeneracy detection", ok, "; ".join(outcomes))


# ---------------------------------------------------------------------------
# 6: analytic Jacobian against finite differences


def test_acceptance_06_jacobian_correctness():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 9))
        covs = []
        for _ in range(2 * m):
            a = rng.standard_normal((2, 2))
            covs.append(0.0025 * (a @ a.T + 0.5 * np.eye(2)))
        pairs = _random_pairs(rng, covs)
        x0 = rng.uniform(-1.5, 1.5, 3 * m + 2)

        def state(x):
            blk = x[: 3 * m].reshape(m, 3)
            return CalibState(
                v_a=blk[:, :2].copy(),
                omega_gamma=blk[:, 2].copy(),
                extrinsics=Extrinsics(theta_t=float(x[-2]), theta_ba=float(x[-1])),
            )

        J = jacobian(state(x0), pairs).toarray()
        h = 1e-6
        Jfd = np.empty_like(J)
        for i in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            Jfd[:, i] = (residuals(state(xp), pairs) - residuals(state(xm), pairs)) / (2 * h)
        rel = np.abs(J - Jfd) / np.maximum(np.abs(Jfd), 1.0)
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-5
    _verdict(6, "jacobian correctness", ok, f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 7: robust ego-velocity under heavy outlier contamination


def test_acceptance_07_ransac_robustness():
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=10.0))
    landmarks = sample_landmarks(truth, n=60, rng_seed=11)
    noise = NoiseSpec(sigma_r=0.0, detection_sigma=0.01, outlier_fraction=0.3)
    sim = simulate_scans(truth, landmarks, noise, rng_seed=12)
    config = RansacConfig(rng_seed=13)

    errors = []
    n_outliers = 0
    n_rejected = 0
    for j, (scan, mask) in enumerate(zip(sim.scans["a"], sim.outlier_masks["a"])):
        est = ransac_ego_velocity(scan, config)
        errors.append(float(np.linalg.norm(est.velocity - truth.v_a[j])))
        n_outliers += int(mask.sum())
        n_rejected += int(np.sum(mask & ~est.inlier_mask))
    mean_err = float(np.mean(errors))
    rejection = n_rejected / n_outliers
    ok = len(errors) == 100 and mean_err < 0.05 and rejection >= 0.95
    _verdict(
        7,
        "ransac robustness",
        ok,
        f"{len(errors)} scans, mean error {mean_err:.4f} m/s, "
        f"rejected {rejection * 100:.1f}% of {n_outliers} outliers",
    )


# ---------------------------------------------------------------------------
# 8: the solver matches a dense two-angle grid oracle


def _grid_costs(pairs, tts, tbs):
    """Profile cost over a (theta_t, theta_ba) grid with closed-form motion.

    Written against the model directly, not against the solver internals;
    cross-checked below against the public per-point API before being
    trusted as the oracle.  Per pair, ``h_a = v + n_a`` and
    ``R^T h_b = v + omega_gamma u + R^T n_b`` with ``u = (-sin tt, cos tt)``.
    Eliminating ``v`` leaves ``d = h_a - R^T h_b`` with covariance
    ``C_a + R^T C_b R + 2 COV_FLOOR I``; eliminating ``omega_gamma`` then
    leaves ``d^T H d - (u^T H d)^2 / (u^T H u)``, with ``H`` the inverse of
    that covariance.  ``d`` and ``H`` depend on theta_ba alone, so the loop
    runs over theta_ba and vectorizes over theta_t and the pairs.
    """
    ha, hb, Ca, Cb = pairs.h_a, pairs.h_b, pairs.cov_a, pairs.cov_b
    u = np.stack([-np.sin(tts), np.cos(tts)], axis=1)  # (T, 2)

    best = math.inf
    arg = (math.nan, math.nan)
    for tb in tbs:
        c, s = math.cos(tb), math.sin(tb)
        R = np.array([[c, -s], [s, c]])
        d = ha - hb @ R  # rows h_a - R^T h_b
        H = np.linalg.inv(Ca + R.T @ Cb @ R + 2.0 * COV_FLOOR * np.eye(2))
        Hd = np.einsum("mij,mj->mi", H, d)
        uHd = u @ Hd.T  # (T, M)
        uHu = np.einsum("ti,mij,tj->tm", u, H, u)
        costs = np.sum(d * Hd) - np.sum(uHd * uHd / uHu, axis=1)
        i = int(np.argmin(costs))
        if costs[i] < best:
            best = float(costs[i])
            arg = (float(tts[i]), float(tb))
    return best, arg


def _point_cost(pairs, theta_t, theta_ba):
    ext = Extrinsics(theta_t=theta_t, theta_ba=theta_ba)
    r = residuals(init_motion_states(pairs, ext), pairs)
    return float(r @ r)


def test_acceptance_08_grid_oracle_equivalence():
    truth = generate_trajectory(
        TrajectoryProfile(kind="periodic_default", duration=1.0, rate=10.0)
    )
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.1), rng_seed=77)
    assert len(pairs) == 10

    start = time.perf_counter()
    step = math.radians(0.1)
    tts = np.arange(0.0, math.pi, step)
    tbs = np.arange(-math.pi + step, math.pi + step / 2, step)

    # the batched evaluator must agree with the public per-point API
    rng = np.random.default_rng(8)
    worst_xcheck = 0.0
    for _ in range(50):
        tt = float(rng.choice(tts))
        tb = float(rng.choice(tbs))
        b, _ = _grid_costs(pairs, np.array([tt]), np.array([tb]))
        p = _point_cost(pairs, tt, tb)
        worst_xcheck = max(worst_xcheck, abs(b - p) / max(p, 1e-300))
    assert worst_xcheck < 1e-12, f"grid evaluator disagrees with API: {worst_xcheck:.2e}"

    grid_best, grid_arg = _grid_costs(pairs, tts, tbs)
    report = solve_lm(pairs)
    elapsed = time.perf_counter() - start

    ok = report.final_cost <= grid_best * (1.0 + 1e-6) and elapsed < 120.0
    _verdict(
        8,
        "grid oracle equivalence",
        ok,
        f"LM cost {report.final_cost:.9f} vs grid best {grid_best:.9f} at "
        f"({grid_arg[0]:.4f}, {grid_arg[1]:.4f}), {tts.size * tbs.size} gridpoints, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9: metric scale from a noisy external rate reference


def test_acceptance_09_scale_recovery():
    detail = []
    ok = True
    for norm, axis in ((0.8, 0.6), (2.0, math.atan2(1.6, 1.2)), (5.68, 2.2)):
        t_vec = norm * np.array([math.cos(axis), math.sin(axis)])
        truth = generate_trajectory(
            TrajectoryProfile(kind="periodic_default", duration=60.0), translation=t_vec
        )
        pairs = simulate_pairs(
            truth,
            NoiseSpec(sigma_r=0.05),
            rng_seed=np.random.SeedSequence((9, int(norm * 100))),
        )
        report = solve_lm(pairs)
        rng = np.random.default_rng(42)
        ref = AngularRateSeries(
            timestamps=truth.timestamps.copy(),
            omega=truth.omega + 0.02 * rng.standard_normal(truth.omega.shape),
        )
        result = recover_scale(report, ref, min_rate=0.1)
        rel = abs(result.translation_magnitude - norm) / norm
        ok = ok and rel < 0.10
        detail.append(f"|t|={norm:g}: {result.translation_magnitude:.3f} ({rel * 100:.2f}%)")
    _verdict(9, "scale recovery", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 10: bitwise round trips and seeded determinism


def test_acceptance_10_round_trip_determinism(tmp_path):
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=10.0))
    noise = NoiseSpec(sigma_r=0.1, detection_sigma=0.01, outlier_fraction=0.1)
    pairs = simulate_pairs(truth, noise, rng_seed=1001)
    landmarks = sample_landmarks(truth, n=40, rng_seed=1002)
    scans = simulate_scans(truth, landmarks, noise, rng_seed=1003).scans

    checks = []

    def roundtrip(tag, save, load, path_a, path_b, payload):
        save(payload, path_a)
        save(load(path_a), path_b)
        same = path_a.read_bytes() == path_b.read_bytes()
        checks.append(f"{tag}: {'bitwise' if same else 'DIFFERS'}")
        return same

    ok = roundtrip("pairs", save_pairs, load_pairs, tmp_path / "p1", tmp_path / "p2", pairs)
    ok &= roundtrip("scans", save_scans, load_scans, tmp_path / "s1", tmp_path / "s2", scans)
    ok &= roundtrip("truth", save_truth, load_truth, tmp_path / "t1", tmp_path / "t2", truth)
    ok &= roundtrip(
        "config", save_config, load_config, tmp_path / "c1", tmp_path / "c2", PipelineConfig()
    )

    report = solve_lm(pairs)
    write_report(report, tmp_path / "r1")
    write_report(read_report(tmp_path / "r1"), tmp_path / "r2")
    same = (tmp_path / "r1").read_bytes() == (tmp_path / "r2").read_bytes()
    checks.append(f"report: {'bitwise' if same else 'DIFFERS'}")
    ok &= same

    # a fixed seed reproduces the entire pipeline bit for bit
    runs = []
    for _ in range(2):
        p = simulate_pairs(truth, noise, rng_seed=1001)
        runs.append(json.dumps(report_to_dict(solve_lm(p)), sort_keys=True))
    same = runs[0] == runs[1]
    checks.append(f"seeded report: {'identical' if same else 'DIFFERS'}")
    ok &= same

    ests = [
        [e.velocity.tolist() for e in estimate_stream(scans["a"], RansacConfig(rng_seed=5))]
        for _ in range(2)
    ]
    same = ests[0] == ests[1]
    checks.append(f"seeded ransac: {'identical' if same else 'DIFFERS'}")
    ok &= same

    _verdict(10, "round trip determinism", bool(ok), "; ".join(checks))
