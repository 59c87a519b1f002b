"""One benchmark process: make a workload's inputs, run the user flow, check it.

``bench/run.py`` starts this script in a fresh interpreter for every
sample, so set-up time and peak memory belong to one process.  The process
runs under an address-space limit, so a regression to quadratic memory
fails as a counted ``MemoryError`` instead of exhausting a shared machine.

The timed flow goes through ``radarcal.cli.main``, the entry point of the
``radarcal`` script: ``calibrate`` and then ``recover-scale --poses`` on
each log.  With ``--trace 1`` the process then runs the commands once more
with a span around each layer function that ``cli`` calls, to time what
``cli.main`` spends outside the layers; replays the same call sequence
through each layer's public functions, with a span around every call into
a layer; and measures the solver layers' peak memory with ``tracemalloc``
in a separate pass so that it does not slow the timed spans.

The process prints one JSON object on stdout; the commands' own output is
captured and shown only when a call fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import radarcal  # noqa: E402
from radarcal import cli, pipeline_io, simulator  # noqa: E402
from radarcal.calib_solver import (  # noqa: E402
    Extrinsics,
    init_rotation,
    init_translation_axis,
    solve_lm,
)
from radarcal.ego_velocity import MIN_DETECTIONS  # noqa: E402
from radarcal.identifiability import excitation_report  # noqa: E402
from radarcal.scale_recovery import (  # noqa: E402
    load_heading_csv,
    recover_scale,
    smooth_angular_rate_from_poses,
)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Well above the 0.9 GB peak of pairs_600s, well below the machine.
MEMORY_LIMIT_BYTES = 3 << 30
LOW_DOF_INLIERS = 4
# Files each command writes that the traced replay must reproduce byte for byte.
OUTPUT_FILES = ("used_pairs.txt", "report.json", "scale/scale.json")

# Per-layer metrics of the traced run, with units.  Counts must repeat
# exactly for a given seed.
LAYER_UNITS = {
    "pipeline_io.parse_s": "s",
    "pipeline_io.input_bytes": "B",
    "pipeline_io.scans_read": "count",
    "pipeline_io.detections_read": "count",
    "pipeline_io.sync_s": "s",
    "pipeline_io.pairs_synced": "count",
    "pipeline_io.pairs_kept": "count",
    "pipeline_io.write_s": "s",
    "pipeline_io.output_bytes": "B",
    "pipeline_io.read_report_s": "s",
    "ego_velocity.estimate_s": "s",
    "ego_velocity.scans_attempted": "count",
    "ego_velocity.scans_accepted": "count",
    "ego_velocity.accept_ratio": "1",
    "ego_velocity.hypotheses": "count",
    "ego_velocity.ns_per_hypothesis": "ns",
    "ego_velocity.low_dof_scans": "count",
    "calib_solver.init_s": "s",
    "calib_solver.init_peak_mb": "MB",
    "calib_solver.solve_s": "s",
    "calib_solver.solve_peak_mb": "MB",
    "calib_solver.lm_s": "s",
    "calib_solver.lm_iterations": "count",
    "calib_solver.cost_per_dof": "1",
    "identifiability.excitation_s": "s",
    "identifiability.peak_mb": "MB",
    "scale_recovery.load_s": "s",
    "scale_recovery.smooth_s": "s",
    "scale_recovery.samples": "count",
    "scale_recovery.us_per_sample": "us",
    "scale_recovery.recover_s": "s",
    "simulator.generate_s": "s",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
    "err_theta_t_deg": "deg",
    "err_theta_ba_deg": "deg",
    "err_scale_pct": "%",
}
EXACT_COUNTS = tuple(name for name, unit in LAYER_UNITS.items() if unit in ("count", "B"))
# The exact counts that the untimed checks can read back from the outputs.
OUTPUT_COUNTS = (
    "pipeline_io.input_bytes",
    "pipeline_io.pairs_kept",
    "pipeline_io.output_bytes",
    "calib_solver.lm_iterations",
)


@dataclass
class Log:
    input: Path
    headings: Path


class Outcome:
    """Calls attempted and failed, with the reasons, counts and answer errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, list[float]] = defaultdict(list)

    def call(self, ok: bool, problem: str = "", calls: int = 1):
        self.attempted += calls
        if not ok:
            self.failed += calls
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# inputs


def make_inputs(wl, seed: int, workdir: Path, tracer: Tracer):
    """Simulate and write every log of the workload; returns (logs, truth)."""
    noise = simulator.NoiseSpec(
        sigma_r=wl.sigma_r,
        detection_sigma=wl.detection_sigma,
        outlier_fraction=wl.outlier_fraction,
    )
    with tracer.span("simulator.generate"):
        truth = simulator.generate_trajectory(
            simulator.TrajectoryProfile(duration=wl.duration, rate=wl.rate)
        )
        track = simulator.generate_trajectory(
            simulator.TrajectoryProfile(duration=wl.duration, rate=wl.heading_rate)
        )
        _, psi, _, _ = track.world_poses()
    logs = []
    for k in range(wl.logs):
        key = (seed, k)
        with tracer.span("simulator.generate"):
            if wl.kind == "scans":
                landmarks = simulator.sample_landmarks(
                    truth, n=wl.landmarks, rng_seed=np.random.SeedSequence(key + (1,))
                )
                data = simulator.simulate_scans(
                    truth, landmarks, noise, rng_seed=np.random.SeedSequence(key + (2,))
                ).scans
            else:
                data = simulator.simulate_pairs(
                    truth, noise, rng_seed=np.random.SeedSequence(key + (0,))
                )
            rng = np.random.default_rng(np.random.SeedSequence(key + (3,)))
            headings = psi + wl.heading_sigma * rng.standard_normal(psi.size)
        log_dir = workdir / f"log{k}"
        log_dir.mkdir(parents=True)
        log = Log(input=log_dir / f"{wl.kind}.txt", headings=log_dir / "headings.csv")
        save = pipeline_io.save_scans if wl.kind == "scans" else pipeline_io.save_pairs
        save(data, log.input)
        with open(log.headings, "w") as fh:
            fh.write("timestamp,heading\n")
            for t, h in zip(track.timestamps.tolist(), headings.tolist()):
                fh.write(f"{t!r},{h!r}\n")
        logs.append(log)
    return logs, truth


# ---------------------------------------------------------------------------
# the timed flow through the command-line entry point


def call_cli(argv: list[str]) -> tuple[int | None, float, str]:
    """Run one command; returns (exit code or None if it raised, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        elapsed = time.perf_counter() - start
        return None, elapsed, err.getvalue() + traceback.format_exc()
    return code, time.perf_counter() - start, err.getvalue()


def run_flow(logs: list[Log], outdir: Path):
    """Calibrate, then recover the scale, for each log in turn (closed loop)."""
    seconds = 0.0
    calls = []
    for k, log in enumerate(logs):
        out = outdir / f"log{k}"
        cal = call_cli(["calibrate", "--input", str(log.input), "--out", str(out)])
        scale = call_cli(
            [
                "recover-scale",
                "--report", str(out / "report.json"),
                "--poses", str(log.headings),
                "--out", str(out / "scale"),
            ]
        )
        seconds += cal[1] + scale[1]
        calls.append((out, cal, scale))
    return seconds, calls


# ---------------------------------------------------------------------------
# output checks


def angle_errors_deg(ext, truth_ext) -> tuple[float, float]:
    d_t = (ext.theta_t - truth_ext.theta_t) % math.pi
    d_ba = math.remainder(ext.theta_ba - truth_ext.theta_ba, 2.0 * math.pi)
    return math.degrees(min(d_t, math.pi - d_t)), math.degrees(abs(d_ba))


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def check_calibration(wl, out: Path, code, stderr: str, truth, outcome: Outcome, tag: str):
    if code != 0:
        outcome.call(False, f"{tag}: calibrate exited {code}: {last_line(stderr)}")
        return
    try:
        report = pipeline_io.read_report(out / "report.json")
    except Exception as exc:
        outcome.call(False, f"{tag}: report.json does not parse: {exc!r}")
        return
    err_t, err_ba = angle_errors_deg(report.extrinsics, truth.extrinsics)
    outcome.errors["err_theta_t_deg"].append(err_t)
    outcome.errors["err_theta_ba_deg"].append(err_ba)
    outcome.counts["pipeline_io.pairs_kept"] += len(report.timestamps)
    outcome.counts["calib_solver.lm_iterations"] += report.iterations
    if wl.max_err_sigmas is None:
        outcome.call(True)
        return
    sig = np.sqrt(np.maximum(np.diag(np.asarray(report.extrinsic_covariance)), 0.0))
    lim_t, lim_ba = (wl.max_err_sigmas * math.degrees(s) for s in sig)
    outcome.call(
        err_t <= lim_t and err_ba <= lim_ba,
        f"{tag}: angle errors {err_t:.3f}/{err_ba:.3f} deg exceed "
        f"{wl.max_err_sigmas:g} reported sigma ({lim_t:.3f}/{lim_ba:.3f} deg)",
    )


def check_scale(out: Path, code, stderr: str, truth, outcome: Outcome, tag: str):
    if code != 0:
        outcome.call(False, f"{tag}: recover-scale exited {code}: {last_line(stderr)}")
        return
    try:
        magnitude = float(pipeline_io.read_json(out / "scale" / "scale.json")["translation_magnitude"])
    except Exception as exc:
        outcome.call(False, f"{tag}: scale.json does not parse: {exc!r}")
        return
    baseline = float(np.hypot(*truth.translation))
    err_pct = 100.0 * abs(magnitude - baseline) / baseline
    outcome.errors["err_scale_pct"].append(err_pct)
    outcome.call(True)


def output_bytes(out: Path) -> int:
    return sum((out / name).stat().st_size for name in OUTPUT_FILES if (out / name).exists())


def check_flow(wl, logs, calls, truth, outcome: Outcome):
    for k, (log, (out, cal, scale)) in enumerate(zip(logs, calls)):
        outcome.counts["pipeline_io.input_bytes"] += log.input.stat().st_size
        outcome.counts["pipeline_io.output_bytes"] += output_bytes(out)
        check_calibration(wl, out, cal[0], cal[2], truth, outcome, f"log{k}")
        check_scale(out, scale[0], scale[2], truth, outcome, f"log{k}")
    limits = dict(zip(("err_theta_t_deg", "err_theta_ba_deg"), wl.max_err_deg))
    limits["err_scale_pct"] = wl.max_scale_err_pct
    for name, limit in limits.items():
        values = outcome.errors.get(name)
        if values and statistics.median(values) > limit:
            outcome.problems.append(
                f"median {name} = {statistics.median(values):.4g} over {len(values)} logs "
                f"exceeds {limit:g}"
            )


# ---------------------------------------------------------------------------
# traced replay of the same call sequence


def closed_form_init(pairs, opts) -> Extrinsics:
    theta_ba = init_rotation(pairs, k=opts.init_k, min_speed=opts.min_speed)
    theta_t = init_translation_axis(pairs, theta_ba, min_lever=opts.min_lever)
    return Extrinsics(theta_t=theta_t, theta_ba=theta_ba)


def traced_pairs(tracer: Tracer, path: Path, cfg):
    """What ``cli`` does to turn a pairs or scans file into filtered pairs."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header == pipeline_io.PAIRS_HEADER:
        with tracer.span("pipeline_io.parse") as counts:
            synced = pipeline_io.load_pairs(path)
        counts["input_bytes"] = path.stat().st_size
    else:
        with tracer.span("pipeline_io.parse") as counts:
            streams = pipeline_io.load_scans(path)
        counts["input_bytes"] = path.stat().st_size
        counts["scans_read"] = sum(len(s) for s in streams.values())
        counts["detections_read"] = sum(len(x.detections) for s in streams.values() for x in s)
        estimates = []
        for radar in sorted(streams):
            scans = streams[radar]
            with tracer.span("ego_velocity.estimate") as counts:
                est = pipeline_io.estimate_stream(scans, cfg.ransac)
            counts["scans_attempted"] = len(scans)
            counts["scans_accepted"] = len(est)
            counts["hypotheses"] = cfg.ransac.max_iterations * sum(
                len(s.detections) >= MIN_DETECTIONS for s in scans
            )
            counts["low_dof_scans"] = sum(e.n_inliers <= LOW_DOF_INLIERS for e in est)
            estimates.append(est)
        with tracer.span("pipeline_io.sync"):
            synced = pipeline_io.synchronize(*estimates, cfg.sync_max_gap)
    with tracer.span("pipeline_io.sync") as counts:
        pairs = pipeline_io.filter_pairs(synced, cfg.min_speed)
    counts["pairs_synced"] = len(synced)
    counts["pairs_kept"] = len(pairs)
    return pairs


def replay(tracer: Tracer, logs: list[Log], outdir: Path):
    """Both commands on every log through the layers' public functions.

    Returns (pairs, config) per log for the memory pass.
    """
    solved = []
    for k, log in enumerate(logs):
        tracer.trial = k
        out = outdir / f"log{k}"
        # calibrate
        cfg = pipeline_io.PipelineConfig()
        cfg.solver.excitation_thresholds = cfg.excitation
        out.mkdir(parents=True)
        (out / "resolved_config.txt").write_text(pipeline_io.serialize_config(cfg))
        pairs = traced_pairs(tracer, log.input, cfg)
        with tracer.span("calib_solver.init"):
            guess = closed_form_init(pairs, cfg.solver)
        with tracer.span("identifiability.excitation"):
            excitation_report(pairs, guess, cfg.excitation)
        with tracer.span("calib_solver.solve") as counts:
            report = solve_lm(pairs, cfg.solver)
        counts["lm_iterations"] = report.iterations
        with tracer.span("pipeline_io.write"):
            pipeline_io.save_pairs(pairs, out / "used_pairs.txt")
            pipeline_io.write_report(report, out / "report.json")
        # recover-scale
        scale_out = out / "scale"
        scale_out.mkdir()
        (scale_out / "resolved_config.txt").write_text(pipeline_io.serialize_config(cfg))
        with tracer.span("pipeline_io.read_report"):
            loaded = pipeline_io.read_report(out / "report.json")
        with tracer.span("scale_recovery.load"):
            t, headings = load_heading_csv(log.headings)
        with tracer.span("scale_recovery.smooth") as counts:
            series = smooth_angular_rate_from_poses(t, headings)
        counts["samples"] = int(t.size)
        with tracer.span("scale_recovery.recover"):
            result = recover_scale(loaded, series)
        with tracer.span("pipeline_io.write") as counts:
            pipeline_io.write_json(
                {
                    "format": pipeline_io.SCALE_FORMAT,
                    "gamma": result.gamma,
                    "translation_magnitude": result.translation_magnitude,
                    "n_samples": result.n_samples,
                    "sign_ambiguous": result.sign_ambiguous,
                },
                scale_out / "scale.json",
            )
        counts["output_bytes"] = output_bytes(out)
        solved.append((pairs, cfg))
    tracer.trial = None
    return solved


# The layer functions that ``cli.main`` calls in ``calibrate`` and
# ``recover-scale``; the rest of its time is parsing, config and printing.
CLI_LAYER_CALLS = {
    pipeline_io: (
        "load_pairs", "load_scans", "estimate_stream", "synchronize", "filter_pairs",
        "save_pairs", "write_report", "read_report", "write_json",
    ),
    cli: ("solve_lm", "load_heading_csv", "smooth_angular_rate_from_poses", "recover_scale"),
}


@contextmanager
def layer_spans(tracer: Tracer):
    """While open, every call ``cli`` makes into a layer records a span."""
    originals = [
        (mod, name, getattr(mod, name)) for mod, names in CLI_LAYER_CALLS.items() for name in names
    ]

    def spanned(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with tracer.span(f"{fn.__module__}.{fn.__name__}"):
                return fn(*args, **kwargs)
        return call

    for mod, name, fn in originals:
        setattr(mod, name, spanned(fn))
    try:
        yield
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)


def cli_other_seconds(logs: list[Log], outdir: Path) -> float:
    """Time ``cli.main`` spends outside the layer calls, over the whole flow."""
    tracer = Tracer()
    with layer_spans(tracer):
        seconds, _ = run_flow(logs, outdir)
    return seconds - tracer.top_level_seconds()


def span_cost_s(n: int = 10_000) -> float:
    """Seconds one empty span takes, measured on a scratch tracer."""
    scratch = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with scratch.span("empty"):
            pass
    return (time.perf_counter() - start) / n


def first_run_cost_per_dof(solved) -> float:
    """Worst log's cost/dof after ``solve_lm``'s first LM run, before any grid
    sweep.  Above ``restart_cost_ratio`` the solver reruns from a 10 deg grid."""
    worst = 0.0
    for pairs, cfg in solved:
        first_only = dataclasses.replace(
            cfg.solver, grid_init_max_pairs=0, restart_cost_ratio=math.inf
        )
        report = solve_lm(pairs, first_only)
        worst = max(worst, report.final_cost / max(len(pairs) - 2, 1))
    return worst


def peak_mb(fn) -> float:
    """Peak memory allocated while ``fn`` runs, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def solver_peaks(solved) -> dict[str, float]:
    peaks = defaultdict(float)
    for pairs, cfg in solved:
        guess = closed_form_init(pairs, cfg.solver)
        for name, fn in (
            ("calib_solver.init_peak_mb", lambda: closed_form_init(pairs, cfg.solver)),
            ("identifiability.peak_mb", lambda: excitation_report(pairs, guess, cfg.excitation)),
            ("calib_solver.solve_peak_mb", lambda: solve_lm(pairs, cfg.solver)),
        ):
            peaks[name] = max(peaks[name], peak_mb(fn))
    return dict(peaks)


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, dict]:
    """Per-layer metrics from the replay's spans, plus those measured apart."""
    seconds, counts = tracer.totals()
    m = {name: 0 for name in EXACT_COUNTS}
    m.update(counts)
    for name in (
        "pipeline_io.parse",
        "pipeline_io.sync",
        "pipeline_io.write",
        "pipeline_io.read_report",
        "ego_velocity.estimate",
        "calib_solver.init",
        "calib_solver.solve",
        "identifiability.excitation",
        "scale_recovery.load",
        "scale_recovery.smooth",
        "scale_recovery.recover",
        "simulator.generate",
    ):
        m[f"{name}_s"] = seconds.get(name, 0.0)
    m.update(extra)
    attempted = m["ego_velocity.scans_attempted"]
    hypotheses = m["ego_velocity.hypotheses"]
    m["ego_velocity.accept_ratio"] = m["ego_velocity.scans_accepted"] / attempted if attempted else 0.0
    m["ego_velocity.ns_per_hypothesis"] = (
        1e9 * m["ego_velocity.estimate_s"] / hypotheses if hypotheses else 0.0
    )
    m["calib_solver.lm_s"] = (
        m["calib_solver.solve_s"] - m["calib_solver.init_s"] - m["identifiability.excitation_s"]
    )
    m["scale_recovery.us_per_sample"] = 1e6 * m["scale_recovery.smooth_s"] / m["scale_recovery.samples"]
    m["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
    return {name: {"value": m[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def compare_outputs(logs, plain: Path, traced: Path, outcome: Outcome):
    """The replay must write the same bytes as the commands did."""
    for k in range(len(logs)):
        for names in (OUTPUT_FILES[:2], OUTPUT_FILES[2:]):  # calibrate's, recover-scale's
            differ = [
                name
                for name in names
                if not (plain / f"log{k}" / name).exists()
                or not (traced / f"log{k}" / name).exists()
                or (plain / f"log{k}" / name).read_bytes()
                != (traced / f"log{k}" / name).read_bytes()
            ]
            outcome.call(
                not differ, f"log{k}: the {traced.name} pass wrote different {', '.join(differ)}"
            )


# ---------------------------------------------------------------------------


def platform_info() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "cpu_features": sorted(k for k, v in __cpu_features__.items() if v),
        "memory_limit_bytes": MEMORY_LIMIT_BYTES,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent when it started this process")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
    if Path(radarcal.__file__).resolve().parent != SRC_DIR.resolve() / "radarcal":
        print(f"error: imported radarcal from {radarcal.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    tracer = Tracer()
    outcome = Outcome()
    logs, truth = make_inputs(wl, args.seed, args.workdir / "inputs", tracer)
    setup_s = time.perf_counter() - args.spawned_at
    wall_s, calls = run_flow(logs, args.workdir / "plain")
    check_flow(wl, logs, calls, truth, outcome)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "platform": platform_info(),
    }
    if args.trace:
        try:
            extra = {"cli.other_s": cli_other_seconds(logs, args.workdir / "spanned")}
            compare_outputs(logs, args.workdir / "plain", args.workdir / "spanned", outcome)
            solved = replay(tracer, logs, args.workdir / "traced")
            compare_outputs(logs, args.workdir / "plain", args.workdir / "traced", outcome)
            extra.update(solver_peaks(solved))
            extra["calib_solver.cost_per_dof"] = first_run_cost_per_dof(solved)
            extra.update((name, statistics.median(v)) for name, v in outcome.errors.items())
            result["layers"] = layer_metrics(tracer, extra)
        except Exception:
            outcome.call(False, "traced run raised:\n" + traceback.format_exc(), 4 * len(logs))
        else:
            traced = {name: result["layers"][name]["value"] for name in EXACT_COUNTS}
            for name in OUTPUT_COUNTS:
                if traced[name] != outcome.counts[name]:
                    outcome.problems.append(
                        f"traced {name} = {traced[name]} but the commands gave "
                        f"{outcome.counts[name]}"
                    )
            outcome.counts.update(traced)
        if args.spans:
            tracer.dump(args.spans)
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
        counts=dict(outcome.counts),
        errors={name: statistics.median(v) for name, v in outcome.errors.items()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
