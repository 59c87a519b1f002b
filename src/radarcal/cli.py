"""Command-line front end.

Subcommands:

``simulate``
    Generate a sweep of simulated datasets (truth, velocity pairs and
    optionally detection-level scans) under ``--out``.

``calibrate``
    Estimate the extrinsics from a pairs or scans file and write
    ``report.json`` plus the pairs actually used.

``excitation-check``
    Judge whether a dataset's motion can identify the extrinsics at all,
    without running the full solver.

``evaluate``
    Score a calibration report against a pairs file and optional ground
    truth.

``recover-scale``
    Turn the unit-baseline report into meters using an external angular
    rate or heading series.

Exit codes: 0 success; 2 usage or invalid argument; 3 unreadable or
malformed input file; 4 not enough data to estimate; 5 motion does not
identify the calibration; 6 solver finished without converging.

Scan files may contain any two radar ids; the lexicographically smaller id
is taken as radar a (the reference frame).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import pipeline_io
from .calib_solver import fused_ego_velocities, solve_lm, velocity_error_metric
from .errors import (
    EmptyInputError,
    InsufficientDataError,
    InsufficientExcitationError,
    InvalidArgumentError,
    NoConsensusError,
    ParseError,
    UnidentifiableError,
    open_text,
    utf8_text,
)
from .geometry import median, wrap_axis, wrap_to_pi
from .identifiability import assess_excitation
from .scale_recovery import (
    DEFAULT_HEADING_SIGMA,
    DEFAULT_JERK_PSD,
    DEFAULT_MIN_RATE,
    load_angular_rate_csv,
    load_heading_csv,
    recover_scale,
    smooth_angular_rate_from_poses,
)
from .simulator import (
    DEFAULT_LANDMARKS,
    KINDS,
    DEFAULT_THETA_BA,
    DEFAULT_TRANSLATION,
    GroundTruth,
    NoiseSpec,
    TrajectoryProfile,
    generate_trajectory,
    sample_landmarks,
    simulate_scans,
    simulate_pairs,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_DATA = 4
EXIT_UNIDENTIFIABLE = 5
EXIT_NOT_CONVERGED = 6


def _translation_arg(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers, got {text!r}")


def _num_tag(x: float) -> str:
    return f"{x:g}"


def _load_config(args) -> pipeline_io.PipelineConfig:
    """The config file (or the defaults) with the command-line overrides
    applied; an override passes the same checks as a file value."""
    if args.config:
        cfg = pipeline_io.load_config(args.config)
    else:
        cfg = pipeline_io.PipelineConfig()
    overrides = [  # (flag, section or None for the top level, field, value or None)
        ("--seed", "ransac", "rng_seed", args.seed),
        ("--no-enforce-excitation", "solver", "enforce_excitation",
         False if getattr(args, "no_enforce_excitation", False) else None),
        ("--min-speed", None, "min_speed", args.min_speed),
        ("--sync-max-gap", None, "sync_max_gap", args.sync_max_gap),
    ]
    for flag, section, name, value in overrides:
        if value is None:
            continue
        try:
            if section is None:
                cfg = dataclasses.replace(cfg, **{name: value})
            else:
                new = dataclasses.replace(getattr(cfg, section), **{name: value})
                cfg = dataclasses.replace(cfg, **{section: new})
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"bad value for {flag}: {exc}") from None
    return cfg


def _outdir(args) -> Path:
    """Create ``--out``.  Commands call this only once their inputs have
    loaded, so a bad input leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved_config(cfg, out: Path, extra_comments=()):
    """``cfg`` as a config file, or just the header when the command reads
    none, followed by the command's own comment lines."""
    text = pipeline_io.CONFIG_HEADER + "\n" if cfg is None else pipeline_io.serialize_config(cfg)
    for line in extra_comments:
        text += f"# {line}\n"
    (out / "resolved_config.txt").write_text(text)


def _sniff_header(path) -> str:
    with open_text(path) as fh:
        return utf8_text(fh.readline()).strip()


def _pairs_from_input(path, cfg: pipeline_io.PipelineConfig):
    """Load a pairs file directly, or reduce a scans file to pairs."""
    header = _sniff_header(path)
    if header == pipeline_io.PAIRS_HEADER:
        pairs = pipeline_io.load_pairs(path)
    elif header == pipeline_io.SCANS_HEADER:
        streams = pipeline_io.load_scans(path)
        if len(streams) != 2:
            raise InvalidArgumentError(
                f"scans file must contain exactly 2 radar ids, found {sorted(streams)}"
            )
        id_a, id_b = sorted(streams)
        est_a = pipeline_io.estimate_stream(streams[id_a], cfg.ransac)
        est_b = pipeline_io.estimate_stream(streams[id_b], cfg.ransac)
        pairs = pipeline_io.synchronize(est_a, est_b, cfg.sync_max_gap)
    else:
        raise ParseError(f"unrecognized input header {header!r}", 1)
    pairs = pipeline_io.filter_pairs(pairs, cfg.min_speed)
    if not pairs:
        raise InsufficientDataError("no usable measurement pairs after filtering")
    return pairs


# ---------------------------------------------------------------------------
# simulate


def _write_trial(trial_dir: Path, key: tuple, truth: GroundTruth, noise: NoiseSpec,
                 landmarks: np.ndarray | None) -> None:
    """One self-contained simulation trial; safe to run in a worker process.

    All randomness derives from ``key``, the (seed, sigma, duration, trial)
    indices, from which the caller also samples ``landmarks``, so the output
    is identical no matter how trials are distributed over workers.
    ``landmarks=None`` writes no scans.
    """
    trial_dir.mkdir(parents=True, exist_ok=True)
    pipeline_io.save_truth(truth, trial_dir / "truth.txt")
    pairs = simulate_pairs(truth, noise, rng_seed=np.random.SeedSequence(key + (0,)))
    pipeline_io.save_pairs(pairs, trial_dir / "pairs.txt")
    if landmarks is not None:
        sim = simulate_scans(truth, landmarks, noise, rng_seed=np.random.SeedSequence(key + (2,)))
        pipeline_io.save_scans(sim.scans, trial_dir / "scans.txt")


def cmd_simulate(args) -> int:
    """Every input is checked, and every trajectory and landmark field
    built, before ``--out`` is created, so a bad flag writes nothing."""
    if args.jobs < 1:
        raise InvalidArgumentError("--jobs must be >= 1")
    if args.trials < 1:
        raise InvalidArgumentError("--trials must be >= 1")
    noises = [NoiseSpec(sigma, args.detection_sigma, args.outlier_fraction) for sigma in args.sigma]
    truths = [
        generate_trajectory(
            TrajectoryProfile(kind=args.profile, duration=duration, rate=args.rate,
                              speed=args.speed, omega=args.omega),
            theta_ba=args.theta_ba, translation=args.translation,
        )
        for duration in args.duration
    ]
    jobs = []
    cells = []
    for si, (sigma, noise) in enumerate(zip(args.sigma, noises)):
        for di, (duration, truth) in enumerate(zip(args.duration, truths)):
            cell = Path(args.out) / f"sigma_{_num_tag(sigma)}" / f"dur_{_num_tag(duration)}"
            cells.append(cell)
            for k in range(args.trials):
                key = (args.seed, si, di, k)
                landmarks = sample_landmarks(
                    truth, n=args.landmarks, rng_seed=np.random.SeedSequence(key + (1,))
                ) if args.scans else None
                jobs.append((cell / f"trial_{k}", key, truth, noise, landmarks))
    out = _outdir(args)
    _write_resolved_config(
        None,
        out,
        extra_comments=[
            f"simulate sigma={','.join(map(repr, args.sigma))} "
            f"duration={','.join(map(repr, args.duration))} trials={args.trials}",
            f"simulate profile={args.profile} rate={_num_tag(args.rate)} seed={args.seed}",
            f"simulate theta_ba={args.theta_ba!r} translation={args.translation!r}",
            f"simulate scans={'on' if args.scans else 'off'} landmarks={args.landmarks} "
            f"outlier_fraction={_num_tag(args.outlier_fraction)}",
            f"simulate jobs={args.jobs}",
        ],
    )
    if args.jobs > 1 and len(jobs) > 1:
        import concurrent.futures  # only here: it also loads logging

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            list(pool.map(_write_trial, *zip(*jobs), chunksize=4))
    else:
        for job in jobs:
            _write_trial(*job)
    for cell in cells:
        print(f"wrote {args.trials} trials under {cell}")
    print(f"simulated {len(jobs)} trials total")
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    pairs = _pairs_from_input(args.input, cfg)
    out = _outdir(args)
    _write_resolved_config(cfg, out)
    pipeline_io.save_pairs(pairs, out / "used_pairs.txt")
    try:
        report = solve_lm(pairs, cfg.solver)
    except UnidentifiableError as exc:
        if exc.report is not None:
            pipeline_io.write_excitation(exc.report, out / "excitation.json")
        raise
    pipeline_io.write_report(report, out / "report.json")
    sig = np.sqrt(np.maximum(np.diag(np.asarray(report.extrinsic_covariance)), 0.0))
    print(
        f"theta_t  = {report.extrinsics.theta_t:.6f} rad "
        f"({math.degrees(report.extrinsics.theta_t):.3f} deg, "
        f"sigma {math.degrees(sig[0]):.3f} deg)"
    )
    print(
        f"theta_ba = {report.extrinsics.theta_ba:.6f} rad "
        f"({math.degrees(report.extrinsics.theta_ba):.3f} deg, "
        f"sigma {math.degrees(sig[1]):.3f} deg)"
    )
    print(
        f"cost {report.final_cost:.6g} after {report.iterations} iterations "
        f"({report.termination}); mean velocity error {report.mean_velocity_error:.4g} m/s"
    )
    print(f"wrote {out / 'report.json'}")
    if not report.converged:
        print("warning: solver did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# excitation-check


def cmd_excitation_check(args) -> int:
    cfg = _load_config(args)
    pairs = _pairs_from_input(args.input, cfg)
    out = _outdir(args)
    _write_resolved_config(cfg, out)
    verdict = assess_excitation(pairs, cfg.solver)
    rep = verdict.report
    if rep is not None:
        pipeline_io.write_excitation(rep, out / "excitation.json")
        print(
            f"degenerate fraction {rep.fraction_degenerate:.3f} "
            f"(threshold {cfg.solver.max_degenerate_fraction:g}), "
            f"min |det| {rep.min_abs_det:.3g}, flags: {', '.join(rep.flags) or 'none'}"
        )
        print(f"wrote {out / 'excitation.json'}")
    verdict.raise_if_refused()
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _statistic(what: str, fn, *args) -> float:
    """``fn(*args)`` with overflow warnings off; refused when it overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = fn(*args)
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{what} overflows: the velocities are too large")
    return value


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    pairs = _pairs_from_input(args.input, cfg)
    report = pipeline_io.read_report(args.report)
    truth = pipeline_io.load_truth(args.truth) if args.truth else None
    payload = {
        "format": pipeline_io.EVALUATION_FORMAT,
        "n_pairs": len(pairs),
        "mean_velocity_error": _statistic(
            "mean velocity error", velocity_error_metric, pairs, report.extrinsics
        ),
        "median_errors": None,
        "extrinsic_error_deg": None,
    }
    if np.array_equal(pairs.timestamps, report.timestamps):
        errors = fused_ego_velocities(report, pairs, ground_truth=truth)
        payload["median_errors"] = {
            radar: {
                kind: _statistic(f"{radar} {kind} median velocity error", median, series)
                for kind, series in both.items()
            }
            for radar, both in errors.items()
        }
    if truth is not None:
        true_ext = truth.extrinsics
        d_t = wrap_axis(report.extrinsics.theta_t - true_ext.theta_t)
        d_t = min(d_t, math.pi - d_t)
        d_ba = abs(wrap_to_pi(report.extrinsics.theta_ba - true_ext.theta_ba))
        payload["extrinsic_error_deg"] = {
            "theta_t": math.degrees(d_t),
            "theta_ba": math.degrees(d_ba),
        }
    out = _outdir(args)
    _write_resolved_config(
        cfg, out, extra_comments=[f"evaluate report={args.report} truth={args.truth or 'none'}"]
    )
    pipeline_io.write_json(payload, out / "evaluation.json")
    print(f"mean velocity error {payload['mean_velocity_error']:.4g} m/s over {len(pairs)} pairs")
    if payload["extrinsic_error_deg"] is not None:
        err = payload["extrinsic_error_deg"]
        print(
            f"extrinsic error: theta_t {err['theta_t']:.3f} deg, "
            f"theta_ba {err['theta_ba']:.3f} deg"
        )
    print(f"wrote {out / 'evaluation.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# recover-scale


def cmd_recover_scale(args) -> int:
    report = pipeline_io.read_report(args.report)
    if args.rates:
        series = load_angular_rate_csv(args.rates)
    else:
        t, headings = load_heading_csv(args.poses)
        series = smooth_angular_rate_from_poses(
            t, headings, heading_sigma=args.heading_sigma, jerk_psd=args.jerk_psd
        )
    result = recover_scale(report, series, min_rate=args.min_rate)
    out = _outdir(args)  # only once the scale is recovered, so a failure writes nothing
    _write_resolved_config(
        None,
        out,
        extra_comments=[
            f"recover-scale report={args.report} source="
            + (f"rates:{args.rates}" if args.rates else f"poses:{args.poses}"),
            f"recover-scale min_rate={_num_tag(args.min_rate)} "
            f"heading_sigma={_num_tag(args.heading_sigma)} jerk_psd={_num_tag(args.jerk_psd)}",
        ],
    )
    payload = {
        "format": pipeline_io.SCALE_FORMAT,
        "gamma": result.gamma,
        "translation_magnitude": result.translation_magnitude,
        "n_samples": result.n_samples,
        "sign_ambiguous": result.sign_ambiguous,
    }
    pipeline_io.write_json(payload, out / "scale.json")
    print(
        f"|t| = {result.translation_magnitude:.4f} m from {result.n_samples} samples "
        f"(sign of the axis stays ambiguous)"
    )
    print(f"wrote {out / 'scale.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache  # once per process: parse_args does not change the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarcal",
        description="Extrinsic calibration of a 2D radar pair from ego-velocities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Input handling shared by every command that reads a pairs or scans file.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file")
    common.add_argument("--seed", type=int, help="override the robust-estimation seed")
    common.add_argument("--min-speed", type=float, help="override the pair speed filter")
    common.add_argument("--sync-max-gap", type=float, help="override the sync bracket limit")

    p = sub.add_parser("simulate", help="generate simulated datasets")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--profile",
        default=TrajectoryProfile.kind,
        choices=KINDS,
    )
    p.add_argument("--duration", nargs="+", type=float, default=(15.0, 120.0),
                   help="sweep of durations in seconds")
    p.add_argument("--sigma", nargs="+", type=float, default=(0.05, 0.1, 0.2),
                   help="sweep of velocity noise levels in m/s")
    p.add_argument("--trials", type=int, default=100, help="trials per sweep cell")
    p.add_argument("--rate", type=float, default=TrajectoryProfile.rate,
                   help="samples per second")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta-ba", type=float, default=DEFAULT_THETA_BA)
    p.add_argument("--translation", type=_translation_arg, default=DEFAULT_TRANSLATION,
                   metavar="X,Y")
    p.add_argument("--speed", type=float, default=TrajectoryProfile.speed,
                   help="forward speed for the constant profiles")
    p.add_argument("--omega", type=float, default=TrajectoryProfile.omega,
                   help="turn rate for the constant_omega profile")
    p.add_argument("--no-scans", dest="scans", action="store_false",
                   help="write no detection-level scans")
    p.add_argument("--landmarks", type=int, default=DEFAULT_LANDMARKS)
    p.add_argument("--detection-sigma", type=float, default=NoiseSpec.detection_sigma)
    p.add_argument("--outlier-fraction", type=float, default=NoiseSpec.outlier_fraction)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for trial-level parallelism")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", parents=[common], help="estimate the extrinsics")
    p.add_argument("--input", required=True, help="pairs or scans file")
    p.add_argument("--out", required=True)
    p.add_argument("--no-enforce-excitation", action="store_true",
                   help="solve even when the motion looks degenerate")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "excitation-check", parents=[common], help="judge identifiability without solving"
    )
    p.add_argument("--input", required=True, help="pairs or scans file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_excitation_check)

    p = sub.add_parser("evaluate", parents=[common], help="score a report against data")
    p.add_argument("--input", required=True, help="pairs or scans file")
    p.add_argument("--report", required=True, help="report.json from calibrate")
    p.add_argument("--truth", help="ground-truth file for simulation scoring")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recover-scale", help="metric scale from an external rate source")
    p.add_argument("--report", required=True, help="report.json from calibrate")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--rates", help="CSV of timestamp,angular_rate")
    src.add_argument("--poses", help="CSV of timestamp,heading; rates come from smoothing")
    p.add_argument("--min-rate", type=float, default=DEFAULT_MIN_RATE)
    p.add_argument("--heading-sigma", type=float, default=DEFAULT_HEADING_SIGMA)
    p.add_argument("--jerk-psd", type=float, default=DEFAULT_JERK_PSD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recover_scale)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (EmptyInputError, InsufficientDataError, NoConsensusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_DATA
    except (UnidentifiableError, InsufficientExcitationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNIDENTIFIABLE
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
