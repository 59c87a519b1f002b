import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from radarcal import cli
from radarcal.pipeline_io import (
    ExperimentMatrix,
    load_pairs,
    load_scans,
    load_truth,
    read_json,
    read_report,
    save_pairs,
    save_scans,
)
from radarcal.scale_recovery import recover_scale, smooth_angular_rate_from_poses
from radarcal.simulator import NoiseSpec, TrajectoryProfile, generate_trajectory, sample_landmarks


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def simulate(out, *extra) -> None:
    code = run(
        "simulate", "--out", out, "--trials", 1, "--sigma", 0.1, "--duration", 15,
        "--seed", 3, "--no-scans", *extra,
    )
    assert code == cli.EXIT_OK


def trial_dir(out, sigma="0.1", dur="15"):
    return out / f"sigma_{sigma}" / f"dur_{dur}" / "trial_0"


# ---------------------------------------------------------------------------
# argument handling


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run("no-such-command") == cli.EXIT_USAGE
    assert run("calibrate", "--input", "x", "--out", "y", "--bogus") == cli.EXIT_USAGE
    assert run("calibrate", "--input", "x") == cli.EXIT_USAGE  # --out missing
    assert run("simulate", "--out", tmp_path / "s", "--translation", "1;2") == cli.EXIT_USAGE
    assert run("simulate", "--out", tmp_path / "s", "--jobs", 0) == cli.EXIT_USAGE
    assert run("simulate", "--out", tmp_path / "s", "--sigma", 0.1, -1) == cli.EXIT_USAGE
    assert run("simulate", "--out", tmp_path / "s", "--trials", -3, "--duration", 15) == cli.EXIT_USAGE
    assert run("simulate", "--out", tmp_path / "s", "--duration", 15, 0) == cli.EXIT_USAGE
    assert run("simulate", "--out", tmp_path / "s", "--sigma", "nan") == cli.EXIT_USAGE
    assert run("simulate", "--out", tmp_path / "s", "--sigma", "inf") == cli.EXIT_USAGE
    assert not (tmp_path / "s").exists()  # a bad sweep fails before anything is written
    capsys.readouterr()

    # Command-line overrides pass the same checks as config-file values.
    simulate(tmp_path / "sim")
    pairs = trial_dir(tmp_path / "sim") / "pairs.txt"
    for flag in ("--sync-max-gap", "--min-speed"):
        code = run("calibrate", "--input", pairs, "--out", tmp_path / "bad", flag, "nan")
        assert code == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err
    assert run("calibrate", "--input", pairs, "--out", tmp_path / "cal") == cli.EXIT_OK
    rates = tmp_path / "rates.csv"
    rates.write_text("t,omega\n0,0.5\n100,0.5\n")
    code = run("recover-scale", "--report", tmp_path / "cal" / "report.json", "--rates", rates,
               "--out", tmp_path / "sc", "--min-rate", "nan")
    assert code == cli.EXIT_USAGE
    assert "min_rate" in capsys.readouterr().err
    poses = tmp_path / "poses.csv"
    poses.write_text("t,heading\n" + "".join(f"{k / 50},{0.5 * k / 50}\n" for k in range(750)))
    bad_smoother = [("--heading-sigma", "nan"), ("--heading-sigma", "inf"),
                    ("--heading-sigma", "1e-300"), ("--jerk-psd", "nan"), ("--jerk-psd", "inf")]
    for flag, value in bad_smoother:
        code = run("recover-scale", "--report", tmp_path / "cal" / "report.json", "--poses", poses,
                   "--out", tmp_path / "sc", flag, value)
        assert code == cli.EXIT_USAGE
        assert flag[2:].replace("-", "_") in capsys.readouterr().err


def test_cli_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    sim = parser.parse_args(["simulate", "--out", "o"])
    profile, noise, matrix = TrajectoryProfile(), NoiseSpec(), ExperimentMatrix()
    assert (sim.profile, sim.rate, sim.speed, sim.omega) == (
        profile.kind, profile.rate, profile.speed, profile.omega
    )
    assert (sim.detection_sigma, sim.outlier_fraction) == (
        noise.detection_sigma, noise.outlier_fraction
    )
    assert (tuple(sim.sigma), tuple(sim.duration), sim.trials) == (
        matrix.sigmas, matrix.durations, matrix.trials
    )
    trajectory = inspect.signature(generate_trajectory).parameters
    assert (sim.theta_ba, sim.translation, sim.landmarks) == (
        trajectory["theta_ba"].default, trajectory["translation"].default,
        inspect.signature(sample_landmarks).parameters["n"].default,
    )
    rec = parser.parse_args(["recover-scale", "--report", "r", "--rates", "x", "--out", "o"])
    smoother = inspect.signature(smooth_angular_rate_from_poses).parameters
    assert (rec.min_rate, rec.heading_sigma, rec.jerk_psd) == (
        inspect.signature(recover_scale).parameters["min_rate"].default,
        smoother["heading_sigma"].default, smoother["jerk_psd"].default,
    )


@pytest.fixture(scope="module")
def constant_turn_pairs(tmp_path_factory):
    """Noise-free constant-turn-rate pairs, which default settings refuse with exit 5."""
    out = tmp_path_factory.mktemp("constant_turn")
    assert run("simulate", "--out", out, "--trials", 1, "--sigma", 0, "--duration", 15,
               "--profile", "constant_omega", "--no-scans") == cli.EXIT_OK
    return trial_dir(out, sigma="0") / "pairs.txt"


@pytest.mark.parametrize("line", [
    "ransac.max_iterations = 0", "solver.lambda_down = 0", "solver.lambda_up = 1",
    "solver.lambda0 = 0", "solver.lambda_max = inf", "solver.max_degenerate_fraction = nan",
    "excitation.flag_fraction = nan", "excitation.align_tol = nan",
    "solver.cov_floor = -1", "solver.cov_floor = inf", "solver.gradient_tol = -1",
    "excitation.det_rel_tol = -1", "min_speed = -1", "solver.max_degenerate_fraction = inf",
    "experiment.trials = -3", "experiment.trials = 0", "experiment.sigmas = -1",
    "experiment.sigmas = 0.1,inf", "experiment.sigmas = ,", "experiment.durations = 0",
    "experiment.durations = 15,-inf",
])
def test_bad_config_values_exit_3(tmp_path, constant_turn_pairs, line, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text(f"# radarcal config 1\n# comment\n{line}\n")
    code = run("calibrate", "--input", constant_turn_pairs, "--out", tmp_path / "cal",
               "--config", cfg)
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "line 3" in err and line.split(" = ")[0] in err


@pytest.mark.parametrize("command", ["calibrate", "excitation-check", "evaluate"])
def test_input_flags_shared_by_data_commands(command):
    parser = cli.build_parser()
    required = ["--input", "i", "--out", "o"] + (["--report", "r"] if command == "evaluate" else [])
    args = parser.parse_args([command, *required])
    assert (args.config, args.seed, args.min_speed, args.sync_max_gap) == (None, None, None, None)
    args = parser.parse_args(
        [command, *required, "--config", "c", "--seed", "4", "--min-speed", "0.2",
         "--sync-max-gap", "0.03"]
    )
    assert (args.config, args.seed, args.min_speed, args.sync_max_gap) == ("c", 4, 0.2, 0.03)


def test_missing_and_malformed_inputs_exit_3(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("calibrate", "--input", tmp_path / "nope.txt", "--out", out) == cli.EXIT_IO
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not a known header\n1 2 3\n")
    assert run("calibrate", "--input", garbage, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "error:" in err


def test_too_little_data_exits_4(tmp_path, capsys):
    simulate(tmp_path / "sim")
    pairs = load_pairs(trial_dir(tmp_path / "sim") / "pairs.txt")
    single = tmp_path / "single.txt"
    save_pairs(pairs[:1], single)
    assert run("calibrate", "--input", single, "--out", tmp_path / "o") == cli.EXIT_NO_DATA
    capsys.readouterr()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_experiment_matrix(tmp_path):
    out = tmp_path / "sweep"
    code = run(
        "simulate", "--out", out, "--trials", 2, "--sigma", 0.05, 0.2,
        "--duration", 5, "--no-scans",
    )
    assert code == cli.EXIT_OK
    assert (out / "resolved_config.txt").exists()
    trials = sorted(p.relative_to(out).as_posix() for p in out.glob("sigma_*/dur_*/trial_*"))
    assert trials == [
        "sigma_0.05/dur_5/trial_0",
        "sigma_0.05/dur_5/trial_1",
        "sigma_0.2/dur_5/trial_0",
        "sigma_0.2/dur_5/trial_1",
    ]
    for t in out.glob("sigma_*/dur_*/trial_*"):
        assert (t / "pairs.txt").exists()
        assert (t / "truth.txt").exists()
        assert not (t / "scans.txt").exists()
    assert len(load_pairs(out / "sigma_0.05/dur_5/trial_0/pairs.txt")) == 50


def test_simulate_scan_output_parses_back(tmp_path):
    out = tmp_path / "scans"
    code = run(
        "simulate", "--out", out, "--trials", 1, "--sigma", 0.1, "--duration", 5,
        "--landmarks", 30,
    )
    assert code == cli.EXIT_OK
    streams = load_scans(trial_dir(out, dur="5") / "scans.txt")
    assert set(streams) == {"a", "b"}
    assert len(streams["a"]) == 50


def test_simulate_deterministic_and_jobs_invariant(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, jobs in ((a, 1), (b, 1), (c, 2)):
        code = run(
            "simulate", "--out", out, "--trials", 2, "--sigma", 0.1, "--duration", 5,
            "--seed", 11, "--no-scans", "--jobs", jobs,
        )
        assert code == cli.EXIT_OK
    files = sorted(p.relative_to(a) for p in a.rglob("*.txt") if p.name != "resolved_config.txt")
    assert files
    for rel in files:
        ref = (a / rel).read_bytes()
        assert (b / rel).read_bytes() == ref
        assert (c / rel).read_bytes() == ref


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_happy_path_is_deterministic(tmp_path, capsys):
    simulate(tmp_path / "sim")
    pairs_file = trial_dir(tmp_path / "sim") / "pairs.txt"
    o1, o2 = tmp_path / "cal1", tmp_path / "cal2"
    assert run("calibrate", "--input", pairs_file, "--out", o1) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "theta_t" in out and "theta_ba" in out
    assert run("calibrate", "--input", pairs_file, "--out", o2) == cli.EXIT_OK
    assert (o1 / "report.json").read_bytes() == (o2 / "report.json").read_bytes()
    assert (o1 / "used_pairs.txt").exists()
    assert (o1 / "resolved_config.txt").exists()

    report = read_report(o1 / "report.json")
    truth = load_truth(trial_dir(tmp_path / "sim") / "truth.txt")
    d_t = abs(report.extrinsics.theta_t - truth.extrinsics.theta_t)
    assert min(d_t, math.pi - d_t) < math.radians(2.0)


def test_calibrate_scans_input(tmp_path):
    out = tmp_path / "sim"
    code = run(
        "simulate", "--out", out, "--trials", 1, "--sigma", 0.1, "--duration", 10,
        "--landmarks", 50, "--seed", 5,
    )
    assert code == cli.EXIT_OK
    cal = tmp_path / "cal"
    scans_file = trial_dir(out, dur="10") / "scans.txt"
    assert run("calibrate", "--input", scans_file, "--out", cal) == cli.EXIT_OK
    report = read_report(cal / "report.json")
    truth = load_truth(trial_dir(out, dur="10") / "truth.txt")
    d_t = abs(report.extrinsics.theta_t - truth.extrinsics.theta_t)
    assert min(d_t, math.pi - d_t) < 0.1
    # the pairs actually fed to the solver ride along for reproduction
    assert len(load_pairs(cal / "used_pairs.txt")) > 50


def test_calibrate_reversed_pairs_file(tmp_path, capsys):
    simulate(tmp_path / "sim")
    pairs = load_pairs(trial_dir(tmp_path / "sim") / "pairs.txt")
    forward, backward = tmp_path / "forward.txt", tmp_path / "backward.txt"
    save_pairs(pairs, forward)
    save_pairs(pairs[::-1], backward)
    assert run("calibrate", "--input", forward, "--out", tmp_path / "c1") == cli.EXIT_OK
    assert run("calibrate", "--input", backward, "--out", tmp_path / "c2") == cli.EXIT_OK
    assert (tmp_path / "c1" / "report.json").read_bytes() == (
        tmp_path / "c2" / "report.json"
    ).read_bytes()
    capsys.readouterr()


def test_calibrate_skips_collinear_scan(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run(
        "simulate", "--out", out, "--trials", 1, "--sigma", 0.1, "--duration", 10,
        "--landmarks", 50, "--seed", 5,
    )
    assert code == cli.EXIT_OK
    streams = load_scans(trial_dir(out, dur="10") / "scans.txt")
    # radar a's 11th scan sees its targets within 1e-6 rad of one azimuth:
    # RANSAC finds a consensus whose refit is singular
    az = 0.3 + 1e-7 * np.arange(8)
    dets = np.column_stack([np.full(az.size, 10.0), az, -np.cos(az)])
    scan = streams["a"][10] = dataclasses.replace(streams["a"][10], detections=dets)
    scans_file = tmp_path / "scans.txt"
    save_scans(streams, scans_file)
    cal = tmp_path / "cal"
    assert run("calibrate", "--input", scans_file, "--out", cal) == cli.EXIT_OK
    assert scan.timestamp not in load_pairs(cal / "used_pairs.txt").timestamps
    capsys.readouterr()


@pytest.mark.parametrize("profile", ["constant_omega", "straight_line"])
def test_calibrate_refuses_degenerate_profiles(tmp_path, profile, capsys):
    sim = tmp_path / "sim"
    code = run(
        "simulate", "--out", sim, "--trials", 1, "--sigma", 0, "--duration", 15,
        "--profile", profile, "--no-scans",
    )
    assert code == cli.EXIT_OK
    cal = tmp_path / "cal"
    code = run("calibrate", "--input", trial_dir(sim, sigma="0") / "pairs.txt", "--out", cal)
    assert code == cli.EXIT_UNIDENTIFIABLE
    # the diagnostic rides along as a machine-readable artifact
    exc = read_json(cal / "excitation.json")
    assert exc["fraction_degenerate"] == 1.0
    assert not (cal / "report.json").exists()
    capsys.readouterr()


def test_calibrate_not_converged_exit(tmp_path, capsys):
    simulate(tmp_path / "sim")
    cfg = tmp_path / "stop_early.txt"
    cfg.write_text("# radarcal config 1\nsolver.max_iterations = 0\n")
    code = run(
        "calibrate", "--input", trial_dir(tmp_path / "sim") / "pairs.txt",
        "--out", tmp_path / "cal", "--config", cfg,
    )
    assert code == cli.EXIT_NOT_CONVERGED
    assert "did not converge" in capsys.readouterr().err
    assert (tmp_path / "cal" / "report.json").exists()


# ---------------------------------------------------------------------------
# excitation-check


@pytest.mark.parametrize("profile", ["periodic_default", "constant_omega", "straight_line"])
def test_excitation_check_verdicts(tmp_path, profile, capsys):
    sim = tmp_path / "sim"
    sigma = "0.1" if profile == "periodic_default" else "0"
    code = run(
        "simulate", "--out", sim, "--trials", 1, "--sigma", sigma, "--duration", 15,
        "--seed", 3, "--profile", profile, "--no-scans",
    )
    assert code == cli.EXIT_OK
    pairs = trial_dir(sim, sigma=sigma) / "pairs.txt"
    code = run("excitation-check", "--input", pairs, "--out", tmp_path / "chk")
    rep = read_json(tmp_path / "chk" / "excitation.json")
    if profile == "periodic_default":
        assert code == cli.EXIT_OK
        assert rep["fraction_degenerate"] < 0.1
    else:
        assert code == cli.EXIT_UNIDENTIFIABLE
        assert rep["fraction_degenerate"] == 1.0
    # calibrate refuses by the same verdict
    calibrated = run("calibrate", "--input", pairs, "--out", tmp_path / "cal")
    assert (calibrated == cli.EXIT_UNIDENTIFIABLE) == (code == cli.EXIT_UNIDENTIFIABLE)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_with_truth(tmp_path, capsys):
    simulate(tmp_path / "sim")
    trial = trial_dir(tmp_path / "sim")
    assert run("calibrate", "--input", trial / "pairs.txt", "--out", tmp_path / "cal") == 0
    code = run(
        "evaluate", "--input", trial / "pairs.txt", "--report", tmp_path / "cal" / "report.json",
        "--truth", trial / "truth.txt", "--out", tmp_path / "ev",
    )
    assert code == cli.EXIT_OK
    ev = read_json(tmp_path / "ev" / "evaluation.json")
    assert ev["format"] == "radarcal-evaluation-1"
    assert ev["n_pairs"] == 150
    assert ev["extrinsic_error_deg"]["theta_t"] < 2.0
    assert ev["extrinsic_error_deg"]["theta_ba"] < 3.0
    for radar in ("radar_a", "radar_b"):
        assert ev["median_errors"][radar]["fused"] < ev["median_errors"][radar]["raw"]
    assert (tmp_path / "ev" / "resolved_config.txt").exists()
    capsys.readouterr()


def test_evaluate_without_truth(tmp_path, capsys):
    simulate(tmp_path / "sim")
    trial = trial_dir(tmp_path / "sim")
    assert run("calibrate", "--input", trial / "pairs.txt", "--out", tmp_path / "cal") == 0
    code = run(
        "evaluate", "--input", trial / "pairs.txt",
        "--report", tmp_path / "cal" / "report.json", "--out", tmp_path / "ev",
    )
    assert code == cli.EXIT_OK
    ev = read_json(tmp_path / "ev" / "evaluation.json")
    assert ev["extrinsic_error_deg"] is None
    assert ev["median_errors"] is not None
    assert ev["mean_velocity_error"] > 0.0
    capsys.readouterr()


def test_evaluate_scans_input_with_truth(tmp_path, capsys):
    # Scans reduce to a filtered subset of the truth grid; scoring must
    # align by timestamp rather than insist on the full trajectory.
    out = tmp_path / "sim"
    code = run(
        "simulate", "--out", out, "--trials", 1, "--sigma", 0.1, "--duration", 10,
        "--landmarks", 50, "--seed", 5,
    )
    assert code == cli.EXIT_OK
    trial = trial_dir(out, dur="10")
    assert run("calibrate", "--input", trial / "scans.txt", "--out", tmp_path / "cal") == 0
    code = run(
        "evaluate", "--input", trial / "scans.txt", "--report", tmp_path / "cal" / "report.json",
        "--truth", trial / "truth.txt", "--out", tmp_path / "ev",
    )
    assert code == cli.EXIT_OK
    ev = read_json(tmp_path / "ev" / "evaluation.json")
    assert ev["extrinsic_error_deg"]["theta_ba"] < 3.0
    assert ev["n_pairs"] <= 100
    capsys.readouterr()


# ---------------------------------------------------------------------------
# recover-scale


def test_recover_scale_from_rates_and_poses(tmp_path, capsys):
    sim = tmp_path / "sim"
    code = run("simulate", "--out", sim, "--trials", 1, "--sigma", 0.05, "--duration", 60,
               "--seed", 2, "--no-scans")
    assert code == cli.EXIT_OK
    trial = trial_dir(sim, sigma="0.05", dur="60")
    assert run("calibrate", "--input", trial / "pairs.txt", "--out", tmp_path / "cal") == 0
    truth = load_truth(trial / "truth.txt")

    rng = np.random.default_rng(31)
    rates = tmp_path / "rates.csv"
    with open(rates, "w") as fh:
        fh.write("t,omega\n")
        for t, w in zip(truth.timestamps, truth.omega + 0.02 * rng.standard_normal(len(truth.omega))):
            fh.write(f"{t},{w}\n")
    code = run("recover-scale", "--report", tmp_path / "cal" / "report.json",
               "--rates", rates, "--out", tmp_path / "sc1")
    assert code == cli.EXIT_OK
    sc = read_json(tmp_path / "sc1" / "scale.json")
    assert abs(sc["translation_magnitude"] - 2.0) / 2.0 < 0.1
    assert sc["sign_ambiguous"] is True
    assert (tmp_path / "sc1" / "resolved_config.txt").exists()

    _, psi_a, _, _ = truth.world_poses()
    poses = tmp_path / "poses.csv"
    with open(poses, "w") as fh:
        fh.write("t,heading\n")
        for t, p in zip(truth.timestamps, psi_a + 0.005 * rng.standard_normal(len(psi_a))):
            fh.write(f"{t},{p}\n")
    code = run("recover-scale", "--report", tmp_path / "cal" / "report.json",
               "--poses", poses, "--heading-sigma", 0.005, "--out", tmp_path / "sc2")
    assert code == cli.EXIT_OK
    sc = read_json(tmp_path / "sc2" / "scale.json")
    assert abs(sc["translation_magnitude"] - 2.0) / 2.0 < 0.1

    # rates and poses are mutually exclusive
    assert run("recover-scale", "--report", tmp_path / "cal" / "report.json",
               "--rates", rates, "--poses", poses, "--out", tmp_path / "sc3") == cli.EXIT_USAGE
    capsys.readouterr()


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """(pairs file, its report.json, a heading track) of one simulated run."""
    base = tmp_path_factory.mktemp("calibrated")
    simulate(base / "sim")
    pairs = trial_dir(base / "sim") / "pairs.txt"
    assert run("calibrate", "--input", pairs, "--out", base / "cal") == cli.EXIT_OK
    poses = base / "poses.csv"
    poses.write_text("t,heading\n" + "".join(f"{k / 50},{0.5 * k / 50}\n" for k in range(750)))
    return pairs, base / "cal" / "report.json", poses


@pytest.mark.parametrize("flag", ["--heading-sigma", "--min-rate"])
def test_recover_scale_failure_writes_nothing(tmp_path, calibrated, flag, capsys):
    _, report, poses = calibrated
    out = tmp_path / "sc"
    code = run("recover-scale", "--report", report, "--poses", poses, "--out", out, flag, "nan")
    assert code == cli.EXIT_USAGE
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, missing", [
    ("calibrate", "--input"),
    ("excitation-check", "--input"),
    ("evaluate", "--input"),
    ("evaluate", "--report"),
    ("evaluate", "--truth"),
])
def test_unreadable_input_leaves_no_out(tmp_path, calibrated, command, missing, capsys):
    pairs, report, _ = calibrated
    files = {"--input": pairs, "--report": report} if command == "evaluate" else {"--input": pairs}
    files[missing] = tmp_path / "missing.txt"
    out = tmp_path / "out"
    assert run(command, *[x for kv in files.items() for x in kv], "--out", out) == cli.EXIT_IO
    assert "missing.txt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["recover-scale", "evaluate"])
@pytest.mark.parametrize("edit, field", [
    pytest.param(lambda d: d.pop("timestamps"), "timestamps", id="no-timestamps"),
    pytest.param(lambda d: d.pop("fused_motion"), "fused_motion", id="no-fused_motion"),
    pytest.param(lambda d: d["fused_motion"][3].pop(), "fused_motion", id="short-row"),
    pytest.param(lambda d: d["fused_motion"].pop(), "fused_motion", id="missing-row"),
    pytest.param(lambda d: d.update(fused_motion="none"), "fused_motion", id="text-rows"),
    pytest.param(lambda d: d.update(timestamps=[[0.0]]), "timestamps", id="2d-timestamps"),
    pytest.param(lambda d: d.pop("extrinsics"), "extrinsics", id="no-extrinsics"),
    pytest.param(lambda d: d["extrinsics"].pop("theta_t"), "theta_t", id="no-theta_t"),
    pytest.param(lambda d: d.update(extrinsic_covariance=[1.0, 2.0]), "extrinsic_covariance",
                 id="flat-covariance"),
    pytest.param(lambda d: d.pop("final_cost"), "final_cost", id="no-final_cost"),
    pytest.param(lambda d: d["excitation"].pop("flags"), "flags", id="no-excitation-flags"),
])
def test_malformed_report_exits_3_naming_the_field(
    tmp_path, calibrated, command, edit, field, capsys
):
    pairs, report, poses = calibrated
    d = read_json(report)
    edit(d)
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "out"
    if command == "recover-scale":
        code = run(command, "--report", bad, "--poses", poses, "--out", out)
    else:
        code = run(command, "--input", pairs, "--report", bad, "--out", out)
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# global behavior


def test_commands_write_only_under_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    simulate(tmp_path / "sim")
    before = {p.name for p in tmp_path.iterdir()}
    assert run("calibrate", "--input", trial_dir(tmp_path / "sim") / "pairs.txt",
               "--out", tmp_path / "cal") == 0
    after = {p.name for p in tmp_path.iterdir()}
    assert after - before == {"cal"}
    capsys.readouterr()


def test_module_entry_point():
    import radarcal.__main__  # noqa: F401  (import must not execute main)
    assert callable(cli.main)
