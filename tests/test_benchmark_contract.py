"""The benchmark's traced replay still runs against this library.

``bench/worker.py --trace 1`` replays ``calibrate`` and ``recover-scale``
through the layers' public functions and names (the ``SolverOptions``
fields, ``PipelineConfig.excitation``, ``excitation_report``'s thresholds,
``RansacConfig.max_iterations``, ...) and checks that the replay writes the
commands' bytes.  Running it here, as ``bench/run.py`` starts it, makes a
library change that breaks the replay fail this suite.  Its exact counts
(bytes written, LM iterations, pairs kept, ...) must also equal those that
``bench/expected_counts.json`` records for seed 1 when that file was
recorded on this platform, so a change that moves an output byte fails here
too, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
EXPECTED_COUNTS = WORKER.parent / "expected_counts.json"


@pytest.mark.parametrize("workload", ["short_pairs_sweep", "scans_8x15s_outliers"])
def test_traced_benchmark_replay_reproduces_the_commands(tmp_path, workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)  # the worker must import radarcal from this checkout by itself
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", "1", "--trace", "1",
        "--workdir", str(tmp_path / "work"), "--spawned-at", repr(time.perf_counter()),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["problems"] == []

    # The platform rule of bench/run.py's expected_counts: every recorded
    # platform key must match.
    recorded = json.loads(EXPECTED_COUNTS.read_text())
    platform = {k: result["platform"].get(k) for k in recorded["platform"]}
    if platform != recorded["platform"]:
        differ = sorted(k for k in platform if platform[k] != recorded["platform"][k])
        pytest.skip(f"{EXPECTED_COUNTS.name} was recorded on another platform (differs: {differ})")
    expected = recorded["counts"][workload]["1"]
    assert {k: result["counts"].get(k) for k in expected} == expected
