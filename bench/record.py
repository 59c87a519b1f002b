#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize, or record a baseline.

    python3 bench/record.py --seeds 1-10 --seconds 40 [--write]

For every workload this makes one ``--trace 0`` run per seed and prints
the median, quartiles and spread (interquartile range over median) of each
end-to-end metric, then one ``--trace 1`` run per seed and prints the
median of each per-layer metric.  With ``--write`` it also stores

* ``bench/baseline.json``: the workloads' parameters and reasons, the
  platform, a hash of the measured sources, and the summaries above;
* ``bench/expected_counts.json``: the exact counts of every traced run,
  by workload and seed, which ``bench/run.py`` then holds later runs to.

It always records every workload, traced and untraced, and writes only when
every run was correct.  After a change that alters the counts on purpose,
delete ``bench/expected_counts.json`` before recording again.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402

PLATFORM_KEYS = ("numpy", "scipy", "blas_threads", "cpu_features")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run; returns (result object, {'counts': ..., 'platform': ...})."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    extra = {}
    for line in lines:
        key, sep, rest = line.partition(": ")
        if sep and key in ("counts", "platform"):
            extra[key] = json.loads(rest)
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
    return result, extra


def spread_table(runs: list[dict]) -> dict:
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return table


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((BENCH_DIR.parent / "src" / "radarcal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--write", action="store_true",
                        help="write bench/baseline.json and bench/expected_counts.json")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    baseline = {"source_sha256": source_hash(), "run_seconds": args.seconds,
                "seeds": args.seeds, "workloads": {}}
    counts = {}
    platform = None
    correct = True
    for name in WORKLOADS:
        plain = [bench(name, seed, args.seconds, 0)[0] for seed in args.seeds]
        entry = {
            "params": dataclasses.asdict(WORKLOADS[name]),
            "end_to_end": spread_table(plain),
            "correct": [r["correct"] for r in plain],
        }
        correct &= all(entry["correct"])
        for metric, row in entry["end_to_end"].items():
            print(f"{name:20s} {metric:12s} median {row['median']:10.4f} {row['unit']:3s} "
                  f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} spread {row['spread']:.4f}")
        traced = []
        for seed in args.seeds:
            result, extra = bench(name, seed, args.seconds, 1)
            traced.append(result)
            counts.setdefault(name, {})[str(seed)] = extra.get("counts")
            platform = extra.get("platform", platform)
        entry["per_layer"] = spread_table(traced)
        entry["correct"] += [r["correct"] for r in traced]
        correct &= all(r["correct"] for r in traced)
        for metric, row in entry["per_layer"].items():
            print(f"{name:20s} {metric:34s} median {row['median']:14.6g} {row['unit']}")
        baseline["workloads"][name] = entry
    print(f"all runs correct: {correct}")

    if args.write and not correct:
        print("nothing written: the baseline is recorded only from correct runs")
    elif args.write:
        baseline["platform"] = platform
        (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        expected = {
            "platform": {k: platform.get(k) for k in PLATFORM_KEYS},
            "counts": counts,
        }
        (BENCH_DIR / "expected_counts.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
