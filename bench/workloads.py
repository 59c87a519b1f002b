"""Workload definitions shared by ``bench/run.py`` and its worker processes.

Every workload drives the rig with the simulator's ``periodic_default``
profile (true baseline 2 m at the simulator's default axis and mounting
yaw), writes the generated files, and then runs the documented user flow on
each log: ``radarcal calibrate`` followed by ``radarcal recover-scale
--poses`` on a 50 Hz noisy heading track of the same drive.

The three workloads keep the pipeline's three cost centres apart, so a
change to one layer shows on the workload that exercises it and shows no
change on the ones that bypass it.

Each workload must cost about the same on every seed, or run-to-run spread
hides regressions.  That shaped two choices:

* Scans come as 8 drives of 15 s, not one drive of 120 s.  On one long
  drive a few scans with 3-4 inliers get tiny covariances, and whether
  they push cost/dof past the solver's restart ratio depends on the seed
  (first-run cost/dof 1.5 to 2400 over seeds 1-10; the 10 deg grid restart
  fired on 4 of them), which moved peak memory between 96 and 145 MB.
* The short logs span 15 s (one period of the motion) at 10/3 Hz, not 5 s
  at 10 Hz.  Both give M = 50, so the 2.5 deg grid runs on every solve,
  but 5 s logs do not identify the extrinsics well enough to check: median
  theta_ba error near 5 deg, and one log in 96 stops at the iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                    # "scans" or "pairs": the calibrate input format
    duration: float              # seconds of driving per log
    logs: int                    # independent logs calibrated in turn
    rate: float = 10.0           # scans or pairs per second
    sigma_r: float = 0.1         # m/s per axis on pair velocities
    landmarks: int = 40
    detection_sigma: float = 0.01
    outlier_fraction: float = 0.0
    heading_rate: float = 50.0   # Hz of the heading track given to recover-scale
    heading_sigma: float = 0.01  # rad
    # Limits on the median errors over the workload's logs: the loose
    # limits of acceptance gates 01 (theta_t, theta_ba) and 09 (scale).
    max_err_deg: tuple = (2.0, 3.0)
    max_scale_err_pct: float = 10.0
    # Per-log limit in reported standard deviations, for simulated pairs,
    # whose declared covariances are exact.
    max_err_sigmas: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scans_8x15s_outliers",
            why="only workload that parses scans and runs per-scan RANSAC ego-velocity: "
            "8 drives of 15 s, 2400 scans in all, 10% outlier detections",
            kind="scans",
            duration=15.0,
            logs=8,
            outlier_fraction=0.1,
        ),
        Workload(
            name="pairs_600s",
            why="6000 pairs skip RANSAC and the grid; bound by the O(M^2) circular median, "
            "LM at large M and the heading smoother; peak memory near 0.9 GB",
            kind="pairs",
            duration=600.0,
            logs=1,
        ),
        Workload(
            name="short_pairs_sweep",
            why="12 independent 15 s logs of 50 pairs: M <= 60, so every solve runs the "
            "2.5 deg grid; grid cost and per-call overhead dominate, as in Monte Carlo studies",
            kind="pairs",
            duration=15.0,
            rate=10.0 / 3.0,
            logs=12,
            max_err_sigmas=5.0,
        ),
    )
}
