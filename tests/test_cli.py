import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from radarcal import cli
from radarcal.geometry import lever_unit
from radarcal.pipeline_io import (
    PipelineConfig,
    load_config,
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


def assert_no_nan_or_infinity(out):
    """No file under ``out`` holds a NaN or an infinity, as text or as JSON."""
    for path in Path(out).rglob("*"):
        if path.is_file():
            assert not re.search(r"(?i)\b(nan|inf|infinity)\b", path.read_text()), path


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
    assert run("simulate", "--out", tmp_path / "s", "--scans") == cli.EXIT_USAGE  # no such flag
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
               "--out", tmp_path / "sc", "--config", "c")  # recover-scale reads no config
    assert code == cli.EXIT_USAGE
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
    profile, noise = TrajectoryProfile(), NoiseSpec()
    assert (sim.profile, sim.rate, sim.speed, sim.omega) == (
        profile.kind, profile.rate, profile.speed, profile.omega
    )
    assert (sim.detection_sigma, sim.outlier_fraction) == (
        noise.detection_sigma, noise.outlier_fraction
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


COMMANDS = ("simulate", "calibrate", "excitation-check", "evaluate", "recover-scale")


def help_texts(parse, capsys) -> list[str]:
    """The ``--help`` text of the program and of each command, as ``parse`` prints it."""
    texts = []
    for argv in ([], *([c] for c in COMMANDS)):
        with pytest.raises(SystemExit):
            parse([*argv, "--help"])
        texts.append(capsys.readouterr().out)
    return texts


def test_the_parser_is_built_once_and_parsing_leaves_it_unchanged(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    fresh = cli.build_parser.__wrapped__()
    assert fresh is not cli.build_parser()
    expected = help_texts(fresh.parse_args, capsys)
    assert help_texts(cli.build_parser().parse_args, capsys) == expected

    # Calls in one process share the parser: an option given to one call
    # must not reach the next, so the two plain runs write the same bytes.
    simulate(tmp_path / "sim")
    pairs = trial_dir(tmp_path / "sim") / "pairs.txt"
    assert run("calibrate", "--input", pairs, "--out", tmp_path / "a") == cli.EXIT_OK
    assert run("calibrate", "--input", pairs, "--out", tmp_path / "b", "--seed", 9,
               "--min-speed", 0.3, "--no-enforce-excitation") == cli.EXIT_OK
    assert run("calibrate", "--input", pairs, "--out", tmp_path / "c") == cli.EXIT_OK
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "c").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes(), name
    assert (tmp_path / "a" / "resolved_config.txt").read_bytes() != (
        tmp_path / "b" / "resolved_config.txt").read_bytes()
    capsys.readouterr()

    def main(argv):
        raise SystemExit(cli.main(argv))

    assert help_texts(main, capsys) == expected


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
    "excitation.flag_fraction = nan", "excitation.align_tol = nan",  # constants, so unknown keys
    "solver.cov_floor = -1", "solver.cov_floor = inf", "solver.gradient_tol = -1",
    "excitation.det_rel_tol = -1", "min_speed = -1", "solver.max_degenerate_fraction = inf",
    "experiment.trials = 100",  # the sweep is simulate's own; the config has no such key
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
    resolved = (out / "resolved_config.txt").read_text().splitlines()
    assert "# simulate sigma=0.05,0.2 duration=5.0 trials=2" in resolved
    # simulate reads no pipeline setting, so the file holds only its comment lines
    assert all(line.startswith("# ") for line in resolved)
    assert load_config(out / "resolved_config.txt") == PipelineConfig()
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


@pytest.mark.parametrize("flags, named", [
    pytest.param(flags, named, id=" ".join(flags)) for flags, named in [
        (("--rate", "nan"), "rate"),
        (("--rate", "inf"), "rate"),
        (("--rate", "1e300"), "samples"),
        (("--duration", "2", "1e300"), "samples"),
        (("--detection-sigma", "nan"), "detection_sigma"),
        (("--detection-sigma", "inf"), "detection_sigma"),
        (("--speed", "nan", "--profile", "straight_line"), "speed"),
        (("--theta-ba", "nan"), "theta_ba"),
        (("--translation", "nan,1"), "translation"),
        (("--landmarks", "0"), "landmarks"),
        (("--outlier-fraction", "nan"), "outlier_fraction"),
    ]
])
def test_simulate_refuses_a_bad_flag_before_writing(tmp_path, flags, named, capsys):
    out = tmp_path / "s"
    assert run("simulate", "--out", out, "--trials", 1, "--duration", 2, *flags) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


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


def test_calibrate_drops_a_scan_whose_refit_overflows(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run(
        "simulate", "--out", out, "--trials", 1, "--sigma", 0.1, "--duration", 15, "--seed", 5
    )
    assert code == cli.EXIT_OK
    streams = load_scans(trial_dir(out) / "scans.txt")
    cal = tmp_path / "cal"
    assert run("calibrate", "--input", trial_dir(out) / "scans.txt", "--out", cal) == cli.EXIT_OK
    t = streams["a"][10].timestamp
    assert t in load_pairs(cal / "used_pairs.txt").timestamps
    # Ten detections along two perpendicular lines of sight, all with one
    # huge range rate: RANSAC keeps all ten, and the refit overflows.
    az = np.repeat([0.0, math.pi / 2], 5)
    for big in (1e300, 1e308):
        dets = np.column_stack([np.full(10, 10.0), az, np.full(10, -big)])
        streams["a"][10] = dataclasses.replace(streams["a"][10], detections=dets)
        scans_file = tmp_path / f"scans_{big:g}.txt"
        save_scans(streams, scans_file)
        cal = tmp_path / f"cal_{big:g}"
        assert run("calibrate", "--input", scans_file, "--out", cal) == cli.EXIT_OK
        assert t not in load_pairs(cal / "used_pairs.txt").timestamps
    capsys.readouterr()


@pytest.mark.parametrize("command", ["calibrate", "excitation-check"])
@pytest.mark.parametrize("radar", ["a", "b"])
def test_a_pair_covariance_whose_determinant_overflows_exits_2(
    tmp_path, calibrated, command, radar, capsys
):
    pairs = load_pairs(calibrated[0])
    cov = getattr(pairs, f"cov_{radar}").copy()
    cov[5] = np.diag([1e160, 1e160])
    bad = tmp_path / "pairs.txt"
    save_pairs(dataclasses.replace(pairs, **{f"cov_{radar}": cov}), bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command, "--input", bad, "--out", tmp_path / "out")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"radar {radar} covariance of the pair at t={float(pairs.timestamps[5])!r}" in err


@pytest.mark.parametrize("command", ["calibrate", "excitation-check"])
@pytest.mark.parametrize("radar", ["a", "b"])
def test_a_pair_covariance_too_ill_conditioned_to_invert_exits_2(
    tmp_path, calibrated, command, radar, capsys
):
    # One entry at 1e160: still positive definite with a finite determinant,
    # but its eigenvalues differ by far more than MAX_COV_CONDITION.
    pairs = load_pairs(calibrated[0])
    cov = getattr(pairs, f"cov_{radar}").copy()
    cov[5, 1, 1] = 1e160
    bad = tmp_path / "pairs.txt"
    save_pairs(dataclasses.replace(pairs, **{f"cov_{radar}": cov})[:50], bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command, "--input", bad, "--out", tmp_path / "out")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"radar {radar} covariance of the pair at t={float(pairs.timestamps[5])!r}" in err
    assert "too ill-conditioned" in err


@pytest.mark.parametrize("command", ["calibrate", "excitation-check"])
@pytest.mark.parametrize("stamps", ["last at 1e160", "last at -1e160", "second 1e-200 after the first"])
def test_a_pair_time_step_outside_the_float_range_of_its_difference_exits_2(
    tmp_path, calibrated, command, stamps, capsys
):
    pairs = load_pairs(calibrated[0])
    t = pairs.timestamps.copy()
    if stamps.startswith("second"):
        t[1] = named = t[0] + 1e-200
    else:
        t[-1] = named = float(stamps.split()[-1])  # -1e160 sorts first
    bad = tmp_path / "pairs.txt"
    save_pairs(dataclasses.replace(pairs, timestamps=t), bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command, "--input", bad, "--out", tmp_path / "out")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"t={float(named)!r}" in err
    assert "lies outside [1e-150, 1e+150] s" in err


def huge_velocity_pairs(path, out, rows, column, value):
    """The pairs of ``path`` with ``column`` of radar a's velocity at ``rows``
    set to ``value``, saved as ``out``."""
    pairs = load_pairs(path)
    h_a = pairs.h_a.copy()
    h_a[rows, column] = value
    save_pairs(dataclasses.replace(pairs, h_a=h_a), out)
    return pairs


@pytest.mark.parametrize("command", ["calibrate", "excitation-check"])
@pytest.mark.parametrize("column", [0, 1])
def test_a_velocity_column_too_large_to_compute_with_exits_2(
    tmp_path, calibrated, command, column, capsys
):
    # Finite, but the excitation check's medians and gradient overflow on it.
    bad = tmp_path / "pairs.txt"
    huge_velocity_pairs(calibrated[0], bad, slice(None), column, 9e307)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command, "--input", bad, "--out", out)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "radar a velocity of the pair at t=" in err
    assert "exceeds 1e+50 m/s" in err
    assert_no_nan_or_infinity(out)


@pytest.mark.parametrize("enforce", [True, False])
def test_one_velocity_too_large_to_compute_with_exits_2(tmp_path, calibrated, enforce, capsys):
    # Refused as unidentifiable (exit 5) while the check was on; with it off
    # the LM cost overflowed into a NaN angle.
    bad = tmp_path / "pairs.txt"
    pairs = huge_velocity_pairs(calibrated[0], bad, 5, 0, 1e160)
    out = tmp_path / "out"
    flags = [] if enforce else ["--no-enforce-excitation"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("calibrate", "--input", bad, "--out", out, *flags)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    t = float(pairs.timestamps[5])
    assert f"radar a velocity of the pair at t={t!r} exceeds 1e+50 m/s" in err
    assert_no_nan_or_infinity(out)


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


def test_evaluate_reads_truth_records_in_any_order(tmp_path, calibrated, capsys):
    pairs, report, _ = calibrated
    header, extrinsics, *rows = (pairs.parent / "truth.txt").read_text().splitlines()
    shuffled = tmp_path / "truth.txt"
    shuffled.write_text("\n".join([header, extrinsics, *rows[::-1]]) + "\n")
    for truth, out in [(pairs.parent / "truth.txt", "ev"), (shuffled, "ev_shuffled")]:
        code = run("evaluate", "--input", pairs, "--report", report, "--truth", truth,
                   "--out", tmp_path / out)
        assert code == cli.EXIT_OK
    evaluation = (tmp_path / "ev" / "evaluation.json").read_bytes()
    assert (tmp_path / "ev_shuffled" / "evaluation.json").read_bytes() == evaluation
    capsys.readouterr()


def test_evaluate_scores_the_fused_motion_only_on_the_report_s_own_pairs(tmp_path, capsys):
    # Two windows of one 30 s log with the same count, the second 7.5 s later.
    assert run(
        "simulate", "--out", tmp_path / "sim", "--trials", 1, "--sigma", 0.05,
        "--duration", 30, "--seed", 3, "--no-scans",
    ) == cli.EXIT_OK
    trial = trial_dir(tmp_path / "sim", sigma="0.05", dur="30")
    pairs = load_pairs(trial / "pairs.txt")
    first, later = tmp_path / "first.txt", tmp_path / "later.txt"
    save_pairs(pairs[0:150], first)
    save_pairs(pairs[75:225], later)
    assert run("calibrate", "--input", first, "--out", tmp_path / "cal") == cli.EXIT_OK
    report = tmp_path / "cal" / "report.json"
    for pairs_file, out in [(first, "ev"), (later, "ev_later")]:
        code = run("evaluate", "--input", pairs_file, "--report", report,
                   "--truth", trial / "truth.txt", "--out", tmp_path / out)
        assert code == cli.EXIT_OK
    own = read_json(tmp_path / "ev" / "evaluation.json")
    other = read_json(tmp_path / "ev_later" / "evaluation.json")
    assert own["median_errors"]["radar_a"]["fused"] < 0.1
    assert other["n_pairs"] == own["n_pairs"] == 150
    assert other["median_errors"] is None
    assert other["extrinsic_error_deg"] == own["extrinsic_error_deg"]
    capsys.readouterr()


@pytest.mark.parametrize("omega", ["1e308", "-1e308"])
def test_evaluate_refuses_a_truth_rate_whose_velocity_error_overflows(
    tmp_path, calibrated, omega, capsys
):
    # A finite but huge turn rate makes radar b's true velocity about 2e308 m/s.
    pairs, report, _ = calibrated
    lines = (pairs.parent / "truth.txt").read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    toks = lines[k].split()
    toks[3] = omega
    lines[k] = " ".join(toks)
    truth = tmp_path / "truth.txt"
    truth.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("evaluate", "--input", pairs, "--report", report, "--truth", truth,
                   "--out", tmp_path / "ev")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"radar_b raw velocity error against the ground-truth velocity at t={toks[0]}" in err
    assert "too large" in err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("shift", ["x", "y", "along the lever"])
def test_evaluate_refuses_a_velocity_error_statistic_that_overflows(
    tmp_path, calibrated, shift, capsys
):
    pairs_file, report, _ = calibrated
    pairs = load_pairs(pairs_file)
    if shift == "along the lever":
        # The best-fit rates absorb the shift, so the mean stays finite, but
        # radar a's raw errors are all about 9e307 and their median is not.
        h_a = pairs.h_a + 9e307 * lever_unit(read_report(report).extrinsics.theta_t)
        named = "radar_a raw median velocity error overflows"
    else:
        h_a = pairs.h_a.copy()
        h_a[:, "xy".index(shift)] = 9e307
        named = "mean velocity error overflows"
    bad = tmp_path / "pairs.txt"
    save_pairs(dataclasses.replace(pairs, h_a=h_a), bad)
    out = tmp_path / "ev"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("evaluate", "--input", bad, "--report", report, "--out", out)
    assert code == cli.EXIT_USAGE
    assert f"{named}: the velocities are too large" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# recover-scale


@pytest.mark.parametrize("omega", [1e308, -1e308])
def test_recover_scale_refuses_a_rate_ratio_that_overflows(tmp_path, calibrated, omega, capsys):
    _, report, poses = calibrated
    payload = json.loads(report.read_text())
    k = 40
    payload["fused_motion"][k][2] = omega
    huge = tmp_path / "report.json"
    huge.write_text(json.dumps(payload))
    out = tmp_path / "sc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("recover-scale", "--report", huge, "--poses", poses, "--out", out)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"rate ratio at t={payload['timestamps'][k]!r} overflows" in err
    assert not out.exists()


def test_recover_scale_refuses_a_median_rate_ratio_that_overflows(tmp_path, calibrated, capsys):
    # Every ratio is a finite 9e307; the mean of the two middle ones is not.
    _, report, _ = calibrated
    payload = json.loads(report.read_text())
    assert len(payload["fused_motion"]) % 2 == 0
    for row in payload["fused_motion"]:
        row[2] = 9e307
    huge = tmp_path / "report.json"
    huge.write_text(json.dumps(payload))
    rates = tmp_path / "rates.csv"
    rates.write_text("t,omega\n0,1\n100,1\n")
    out = tmp_path / "sc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("recover-scale", "--report", huge, "--rates", rates, "--out", out)
    assert code == cli.EXIT_USAGE
    assert "median rate ratio overflows" in capsys.readouterr().err
    assert not out.exists()


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
    resolved = tmp_path / "sc1" / "resolved_config.txt"
    assert all(line.startswith("# ") for line in resolved.read_text().splitlines())
    assert load_config(resolved) == PipelineConfig()

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


def test_recover_scale_refuses_a_heading_step_that_overflows(tmp_path, calibrated, capsys):
    _, report, _ = calibrated
    poses = tmp_path / "poses.csv"
    poses.write_text("t,heading\n" + "".join(f"{k}e70,{0.01 * k}\n" for k in range(1, 751)))
    out = tmp_path / "sc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("recover-scale", "--report", report, "--poses", poses, "--out", out)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "heading time step of 1e+70 s" in err
    assert not out.exists()


def test_recover_scale_refuses_a_heading_step_whose_covariance_is_singular(
    tmp_path, calibrated, capsys
):
    _, report, _ = calibrated
    poses = tmp_path / "poses.csv"
    poses.write_text("t,heading\n" + "".join(f"{k}e10,{0.01 * k}\n" for k in range(1, 751)))
    out = tmp_path / "sc"
    code = run("recover-scale", "--report", report, "--poses", poses, "--out", out,
               "--jerk-psd", "1e-100")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "heading time step of 10000000000.0 s" in err and "singular" in err
    assert not out.exists()


@pytest.mark.parametrize("reader", ["pairs", "scans", "config", "truth", "report", "rates", "poses"])
@pytest.mark.parametrize("line", [1, 3])
def test_input_that_is_not_utf8_exits_3_naming_the_line(
    tmp_path, calibrated, reader, line, capsys
):
    pairs, report, poses = calibrated
    files = {
        "pairs": pairs,
        "scans": tmp_path / "scans.txt",
        "config": tmp_path / "config.txt",
        "truth": pairs.parent / "truth.txt",
        "report": report,
        "rates": tmp_path / "rates.csv",
        "poses": poses,
    }
    files["scans"].write_text("# radarcal scans 1\n0.0 a 0\n0.1 a 0\n")
    files["config"].write_text("# radarcal config 1\nmin_speed = 0.2\nsync_max_gap = 0.3\n")
    files["rates"].write_text("t,omega\n0,0.5\n100,0.5\n")
    lines = files[reader].read_bytes().split(b"\n")
    if line == 1:
        lines[0] = b"\xff" + lines[0]
    else:
        lines.insert(2, b"# caf\xe9")
    bad = tmp_path / f"bad_{reader}"
    bad.write_bytes(b"\n".join(lines))
    files[reader] = bad
    out = tmp_path / "out"
    argv = {
        "pairs": ["calibrate", "--input", files["pairs"]],
        "scans": ["calibrate", "--input", files["scans"]],
        "config": ["calibrate", "--input", pairs, "--config", files["config"]],
        "truth": ["evaluate", "--input", pairs, "--report", report, "--truth", files["truth"]],
        "report": ["recover-scale", "--report", files["report"], "--poses", poses],
        "rates": ["recover-scale", "--report", report, "--rates", files["rates"]],
        "poses": ["recover-scale", "--report", report, "--poses", files["poses"]],
    }[reader]
    assert run(*argv, "--out", out) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: byte 0x") and "not UTF-8" in err
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
    pytest.param(lambda d: d["extrinsics"].update(theta_t=math.nan), "theta_t", id="nan-theta_t"),
    pytest.param(lambda d: d["extrinsics"].update(theta_ba="nan"), "theta_ba",
                 id="nan-text-theta_ba"),
    pytest.param(lambda d: d["extrinsic_covariance"][0].__setitem__(0, math.inf),
                 "extrinsic_covariance", id="inf-covariance"),
    pytest.param(lambda d: d["timestamps"].__setitem__(3, math.nan), "timestamps",
                 id="nan-timestamp"),
    pytest.param(lambda d: d["fused_motion"][3].__setitem__(2, -math.inf), "fused_motion",
                 id="inf-fused_motion"),
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


# Run by a fresh interpreter: the commands named in argv[1] (a JSON list of
# argument lists) through ``cli.main``, then their exit codes and the loaded
# modules that the commands must not need.
_COMMANDS_AND_IMPORTS = """
import json, sys
from radarcal import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
heavy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or
               m.startswith("concurrent.futures") or m.split(".")[:2] == ["numpy", "ma"])
print(json.dumps({"codes": codes, "heavy": heavy, "numpy": "numpy" in sys.modules}))
"""


def test_commands_load_neither_scipy_nor_concurrent_futures(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "--out", sim, "--trials", 1, "--sigma", 0.1, "--duration", 10,
               "--landmarks", 50, "--seed", 5) == cli.EXIT_OK
    trial = trial_dir(sim, dur="10")
    poses = tmp_path / "poses.csv"
    poses.write_text("t,heading\n" + "".join(f"{k / 50},{0.5 * k / 50}\n" for k in range(-50, 650)))
    report = tmp_path / "cal" / "report.json"
    commands = [
        ["calibrate", "--input", trial / "scans.txt", "--out", tmp_path / "cal"],
        ["calibrate", "--input", trial / "pairs.txt", "--out", tmp_path / "cal_pairs"],
        ["excitation-check", "--input", trial / "pairs.txt", "--out", tmp_path / "exc"],
        ["recover-scale", "--report", report, "--poses", poses, "--out", tmp_path / "sc"],
        ["evaluate", "--input", trial / "pairs.txt", "--report", report,
         "--truth", trial / "truth.txt", "--out", tmp_path / "ev"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_AND_IMPORTS,
         json.dumps([[str(a) for a in argv] for argv in commands])],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [cli.EXIT_OK] * len(commands)
    assert result["numpy"]
    assert result["heavy"] == []


def test_module_entry_point():
    import radarcal.__main__  # noqa: F401  (import must not execute main)
    assert callable(cli.main)
