#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the radarcal calibration flow.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports radarcal from
its ``src`` directory.  The workloads are defined in ``bench/workloads.py``.
Each sample runs in a fresh interpreter (``bench/worker.py``) that
generates the inputs from the seed, then runs ``radarcal calibrate`` and
``radarcal recover-scale --poses`` on every log through ``radarcal.cli.main``
and checks the outputs.  One client, closed loop: each call starts when the
previous one returns.  BLAS is held to one thread, so the run stays within
two cores.

``--trace 0`` starts samples one after another until ``--seconds`` have
passed (at least three) and reports the median per sample of

* ``wall_s``: time of the timed ``cli.main`` calls, both commands, all logs;
* ``setup_s``: fresh interpreter to the first timed call (imports,
  simulation, writing the input files);
* ``peak_rss_mb``: peak resident memory of the sample's process.

``--trace 1`` runs one sample that also replays the flow through each
layer's public functions with a span around every call, and reports the
per-layer times, counts and peak memory.  The spans are written to
``bench/work/``.  ``cli.other_s`` comes from one more pass through
``cli.main`` with a span around each layer function it calls: the time
``cli.main`` spends outside them.  ``trace.overhead_s`` is the number of
spans the replay and the input generation recorded, times the measured
cost of one empty span.
``calib_solver.cost_per_dof`` is the worst log's cost/dof after the
solver's first LM run, the figure its grid restart is decided on.

Exact counts (``*_read``, ``*_kept``, ``hypotheses``, ``samples``,
``*_bytes``, ``lm_iterations``) must repeat for a seed: they must agree
between the samples of a run, and with ``bench/expected_counts.json`` when
that file records the seed for this platform.  A run whose counts differ is
reported as not correct.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"
EXPECTED_COUNTS = BENCH_DIR / "expected_counts.json"

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
# A run must end within 180 s; no sample starts that is expected to end later.
RUN_DEADLINE_S = 165.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# One BLAS thread: with the benchmark's own process idle while a sample
# runs, the run uses one core of the two.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_sample(workload: str, seed: int, trace: int, deadline: float, spans: Path | None):
    """Start one worker process and wait for its JSON result (None if it died)."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_DIR))
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    try:
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: {workload} sample timed out and was stopped", file=sys.stderr)
            return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} sample exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def expected_counts(workload: str, seed: int, platform: dict):
    """Recorded counts for this seed, or None if not recorded for this platform."""
    if not EXPECTED_COUNTS.exists():
        return None
    recorded = json.loads(EXPECTED_COUNTS.read_text())
    if recorded["platform"] != {k: platform.get(k) for k in recorded["platform"]}:
        return None
    return recorded["counts"].get(workload, {}).get(str(seed))


def count_problems(samples: list[dict], workload: str, seed: int) -> list[str]:
    problems = []
    first = samples[0]["counts"]
    for i, s in enumerate(samples[1:], start=1):
        if s["counts"] != first:
            problems.append(f"counts of sample {i} differ from sample 0: {s['counts']} vs {first}")
    expected = expected_counts(workload, seed, samples[0]["platform"])
    if expected is None:
        print(f"note: no recorded counts for {workload} seed {seed} on this platform")
        return problems
    for name, value in first.items():
        if name in expected and expected[name] != value:
            problems.append(
                f"{name} = {value}, but {EXPECTED_COUNTS.name} records {expected[name]} "
                f"for seed {seed}: run invalid"
            )
    return problems


def summarize(samples: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over the samples."""
    out = {}
    for name, unit in END_TO_END_UNITS.items():
        values = [s[name] for s in samples]
        out[name] = {"value": statistics.median(values), "unit": unit, "samples": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the radarcal flow.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (REPO_DIR / "src" / "radarcal" / "__init__.py").is_file():
        print(f"error: no radarcal sources under {REPO_DIR / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    samples = []
    lost = 0
    if args.trace:
        spans = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        result = run_sample(args.workload, args.seed, 1, deadline, spans)
        if result is None:
            lost += 1
        else:
            samples.append(result)
    else:
        durations = []
        while True:
            now = time.perf_counter()
            expect = statistics.median(durations) if durations else 0.0
            enough = len(samples) + lost >= MIN_SAMPLES and now + expect > start + args.seconds
            if enough or now + expect > deadline:
                break
            result = run_sample(args.workload, args.seed, 0, deadline, None)
            durations.append(time.perf_counter() - now)
            if result is None:
                lost += 1
            else:
                samples.append(result)

    # Each command on each log; a traced run checks two more passes of them.
    calls_per_sample = 2 * WORKLOADS[args.workload].logs * (3 if args.trace else 1)
    attempted = sum(s["attempted"] for s in samples) + lost * calls_per_sample
    failed = sum(s["failed"] for s in samples) + lost * calls_per_sample
    problems = [p for s in samples for p in s["problems"]]
    if samples:
        problems += count_problems(samples, args.workload, args.seed)
    for p in problems:
        print(f"problem: {p}")

    if args.trace:
        metrics = samples[0].get("layers", {}) if samples else {}
    else:
        metrics = summarize(samples) if samples else {}
    for name, m in metrics.items():
        each = " ".join(f"{v:.4g}" for v in m.get("samples", ()))
        print(f"{args.workload} seed={args.seed} {name} = {m['value']:.6g} {m['unit']}"
              + (f" (median of {each})" if each else ""))
    if samples:
        errors = ", ".join(f"{k} = {v:.4g}" for k, v in samples[0]["errors"].items())
        print(f"{args.workload} seed={args.seed} answer: {errors}; "
              f"fail_frac = {failed / attempted:.3g} ({failed}/{attempted} calls)")
        print("platform: " + json.dumps(samples[0]["platform"]))
        print("counts: " + json.dumps(samples[0]["counts"], sort_keys=True))
    print(f"run: {len(samples)} samples, {lost} lost, {time.perf_counter() - start:.1f} s")
    print(json.dumps({
        "correct": bool(samples) and not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
