"""File formats, stream synchronization and report serialization.

Plain-text formats, all versioned by their first line:

``# radarcal scans 1``
    One line per scan: ``<timestamp> <radar_id> <n> <range> <azimuth>
    <range_rate> ...`` with ``n`` detection triplets, read into the
    scan's (n, 3) ``detections`` array row by row.  Duplicate
    ``(radar_id, timestamp)`` records are rejected.

``# radarcal pairs 1``
    One line per synchronized pair: ``<timestamp> <hax> <hay> <caxx> <caxy>
    <cayy> <hbx> <hby> <cbxx> <cbxy> <cbyy>`` (covariances as their three
    unique entries).

``# radarcal truth 1``
    ``extrinsics <theta_ba> <tx> <ty>`` followed by ``<timestamp> <vax>
    <vay> <omega> <alpha>`` per timestep.

``# radarcal config 1``
    ``key = value`` per line, dotted keys, ``#`` comments.  Unknown keys are
    rejected so typos fail loudly.

Calibration reports, excitation reports and scale results are JSON with a
``format`` tag; see :func:`write_report`.

Floats are serialized with ``repr``, which round-trips every finite double
bit for bit, so save followed by load reproduces values exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .calib_solver import (
    DEFAULT_MIN_SPEED,
    CalibrationReport,
    Extrinsics,
    MeasurementPairs,
    SolverOptions,
)
from .ego_velocity import (
    EgoVelocityEstimate,
    RadarScan,
    RansacConfig,
    ransac_scans,
)
from .errors import InvalidArgumentError, ParseError, open_text, utf8_text
from .identifiability import ExcitationReport, ExcitationThresholds
from .simulator import GroundTruth

SCANS_HEADER = "# radarcal scans 1"
PAIRS_HEADER = "# radarcal pairs 1"
TRUTH_HEADER = "# radarcal truth 1"
CONFIG_HEADER = "# radarcal config 1"
REPORT_FORMAT = "radarcal-report-1"
EXCITATION_FORMAT = "radarcal-excitation-1"
SCALE_FORMAT = "radarcal-scale-1"
EVALUATION_FORMAT = "radarcal-evaluation-1"

DEFAULT_MAX_GAP = 0.2


@dataclass
class PipelineConfig:
    """Everything a calibration run needs beyond its input files.  The
    solver options carry the ``excitation`` section as their thresholds."""

    ransac: RansacConfig = field(default_factory=RansacConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    excitation: ExcitationThresholds = field(default_factory=ExcitationThresholds)
    min_speed: float = DEFAULT_MIN_SPEED
    sync_max_gap: float = DEFAULT_MAX_GAP

    def __post_init__(self):
        # Written as ``not (...)`` so that NaN fails every check.
        if not self.min_speed >= 0.0:
            raise InvalidArgumentError("min_speed must be >= 0")
        if not self.sync_max_gap > 0.0:
            raise InvalidArgumentError("sync_max_gap must be > 0")
        self.solver = replace(self.solver, excitation_thresholds=self.excitation)


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(tok: str, lineno: int, what: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise ParseError(f"expected a number for {what}, got {tok!r}", lineno)
    if not math.isfinite(val):
        raise ParseError(f"{what} must be finite, got {tok!r}", lineno)
    return val


def _data_lines(lines, header: str):
    """``(lineno, stripped line)`` for each data line of a text format: the
    first line must be ``header``, every line must be UTF-8, and blank lines
    and ``#`` comments are skipped."""
    lines = iter(lines)
    first = next(lines, "")
    if utf8_text(first).strip() != header:
        raise ParseError(f"expected header {header!r}, found {first.strip()!r}", 1)
    for lineno, line in enumerate(lines, start=2):
        line = utf8_text(line, lineno).strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _records(path, header: str):
    """``(lineno, tokens)`` for each data line of a whitespace-separated file."""
    with open_text(path) as fh:
        for lineno, line in _data_lines(fh, header):
            yield lineno, line.split()


def _by_timestamp(records, n: int, what: str) -> np.ndarray:
    """``(lineno, tokens)`` records of ``n`` floats each, as an (R, n) array
    sorted by timestamp, the first column.  Records may come in any order;
    a timestamp that repeats is refused on the line that repeats it."""
    rows = {}
    for lineno, toks in records:
        if len(toks) != n:
            raise ParseError(f"{what} record needs {n} fields, got {len(toks)}", lineno)
        vals = [_parse_float(t, lineno, f"{what} field") for t in toks]
        if vals[0] in rows:
            raise ParseError(f"duplicate {what} timestamp {vals[0]!r}", lineno)
        rows[vals[0]] = vals
    arr = np.array(list(rows.values()), dtype=float).reshape(-1, n)
    return arr[np.argsort(arr[:, 0], kind="stable")]


def _write_rows(path, header_lines: list[str], rows: np.ndarray):
    """The header lines, then each row of ``rows`` as one line of floats."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in header_lines)
        fh.writelines(" ".join(map(_fmt, row)) + "\n" for row in rows.tolist())


# ---------------------------------------------------------------------------
# Scan files


def save_scans(streams, path):
    """Write scan streams (dict radar_id -> scans) in timestamp order."""
    scans = sorted(
        (s for stream in streams.values() for s in stream), key=lambda s: (s.timestamp, s.radar_id)
    )
    with open(path, "w") as fh:
        fh.write(SCANS_HEADER + "\n")
        for s in scans:
            toks = [_fmt(s.timestamp), s.radar_id, str(len(s.detections))]
            toks += map(_fmt, s.detections.ravel().tolist())
            fh.write(" ".join(toks) + "\n")


def _detections_one_by_one(toks: list[str], n: int, lineno: int):
    """Re-read a refused scan record's detections token by token and raise
    the ParseError that names its first bad field."""
    for i in range(n):
        r = _parse_float(toks[3 + 3 * i], lineno, "range")
        _parse_float(toks[4 + 3 * i], lineno, "azimuth")
        _parse_float(toks[5 + 3 * i], lineno, "range rate")
        if r <= 0.0:
            raise ParseError(f"detection range must be positive: {r}", lineno)


def load_scans(path) -> dict[str, list[RadarScan]]:
    """Read a scan file into per-radar streams sorted by timestamp."""
    streams: dict[str, list[RadarScan]] = {}
    seen = set()
    for lineno, toks in _records(path, SCANS_HEADER):
        if len(toks) < 3:
            raise ParseError("scan record needs timestamp, radar_id, count", lineno)
        ts = _parse_float(toks[0], lineno, "timestamp")
        rid = toks[1]
        try:
            n = int(toks[2])
        except ValueError:
            raise ParseError(f"bad detection count {toks[2]!r}", lineno)
        if n < 0 or len(toks) != 3 + 3 * n:
            raise ParseError(f"scan claims {n} detections but has {len(toks) - 3} fields", lineno)
        if (rid, ts) in seen:
            raise ParseError(f"duplicate scan for radar {rid!r} at t={ts!r}", lineno)
        seen.add((rid, ts))
        try:
            dets = np.array(list(map(float, toks[3:]))).reshape(n, 3)
            scan = RadarScan(timestamp=ts, radar_id=rid, detections=dets)
        except (ValueError, InvalidArgumentError) as exc:
            _detections_one_by_one(toks, n, lineno)
            raise ParseError(str(exc), lineno)
        streams.setdefault(rid, []).append(scan)
    for stream in streams.values():
        stream.sort(key=lambda s: s.timestamp)
    return streams


# ---------------------------------------------------------------------------
# Pair files


# Columns of a pair record: timestamp, h_a, cov_a upper triangle, h_b, cov_b upper triangle.
_COV_A_COLS = [3, 4, 4, 5]
_COV_B_COLS = [8, 9, 9, 10]


def save_pairs(pairs: MeasurementPairs, path):
    ca, cb = pairs.cov_a, pairs.cov_b
    _write_rows(path, [PAIRS_HEADER], np.column_stack([
        pairs.timestamps, pairs.h_a, ca[:, 0, 0], ca[:, 0, 1], ca[:, 1, 1],
        pairs.h_b, cb[:, 0, 0], cb[:, 0, 1], cb[:, 1, 1],
    ]))


def load_pairs(path) -> MeasurementPairs:
    """Read a pairs file; records may come in any order and are returned
    sorted by timestamp."""
    arr = _by_timestamp(_records(path, PAIRS_HEADER), 11, "pair")
    return MeasurementPairs(
        timestamps=arr[:, 0],
        h_a=arr[:, 1:3],
        h_b=arr[:, 6:8],
        cov_a=arr[:, _COV_A_COLS].reshape(-1, 2, 2),
        cov_b=arr[:, _COV_B_COLS].reshape(-1, 2, 2),
    )


# ---------------------------------------------------------------------------
# Ground-truth files


def save_truth(truth, path):
    ext = " ".join(map(_fmt, [truth.theta_ba, truth.translation[0], truth.translation[1]]))
    _write_rows(path, [TRUTH_HEADER, "extrinsics " + ext], np.column_stack([
        truth.timestamps, truth.v_a, truth.omega, truth.alpha,
    ]))


def load_truth(path):
    """Read a truth file; like pairs, records may come in any order and are
    returned sorted by timestamp."""
    extrinsics = []

    def records():
        for lineno, toks in _records(path, TRUTH_HEADER):
            if toks[0] != "extrinsics":
                yield lineno, toks
            elif len(toks) != 4:
                raise ParseError("extrinsics line needs 3 numbers", lineno)
            else:
                names = ("theta_ba", "tx", "ty")
                extrinsics[:] = [_parse_float(t, lineno, name) for t, name in zip(toks[1:], names)]

    arr = _by_timestamp(records(), 5, "truth")
    if not extrinsics or not len(arr):
        raise ParseError("truth file missing extrinsics line or data rows")
    return GroundTruth(
        timestamps=arr[:, 0],
        v_a=arr[:, 1:3],
        omega=arr[:, 3],
        alpha=arr[:, 4],
        theta_ba=extrinsics[0],
        translation=np.array(extrinsics[1:]),
    )


# ---------------------------------------------------------------------------
# Stream processing


def estimate_stream(scans: list[RadarScan], config: RansacConfig) -> list[EgoVelocityEstimate]:
    """Robust per-scan ego-velocities; scans without consensus, with too few
    detections, or whose inliers span too little azimuth are skipped.

    The whole stream is scored in one :func:`ransac_scans` call, which
    batches scans of equal detection count: each estimate is bit for bit
    what :func:`ransac_ego_velocity` gives for its scan alone, because a
    batch of equal-``n`` scans makes every scan's BLAS and LAPACK calls on
    the shapes and layouts of that scan alone.
    """
    out = [e for e in ransac_scans(scans, config) if isinstance(e, EgoVelocityEstimate)]
    out.sort(key=lambda e: e.timestamp)
    return out


def _stacked(stream: list[EgoVelocityEstimate]):
    """Timestamps (n,), velocities (n, 2) and covariances (n, 2, 2) of a
    stream, in a stable sort by timestamp."""
    ts = np.array([e.timestamp for e in stream], dtype=float)
    order = np.argsort(ts, kind="stable")
    v = np.array([e.velocity for e in stream], dtype=float).reshape(-1, 2)
    c = np.array([e.covariance for e in stream], dtype=float).reshape(-1, 2, 2)
    return ts[order], v[order], c[order]


def synchronize(
    stream_a: list[EgoVelocityEstimate],
    stream_b: list[EgoVelocityEstimate],
    max_gap: float = DEFAULT_MAX_GAP,
) -> MeasurementPairs:
    """Pair the streams on radar a's clock.

    Radar b's velocity is linearly interpolated between its bracketing
    estimates; the interpolated covariance is the elementwise maximum of the
    two endpoints (conservative, and positive definite for 2x2 matrices).
    Timestamps of a without a bracket, or whose bracket spans more than
    ``max_gap`` seconds, produce no pair.  Exact timestamp matches pass
    radar b's estimate through unchanged.
    """
    if not max_gap > 0:
        raise InvalidArgumentError("max_gap must be positive")
    ta, va, ca = _stacked(stream_a)
    tb, vb, cb = _stacked(stream_b)
    if tb.size == 0:
        return MeasurementPairs(ta[:0], va[:0], va[:0], ca[:0], ca[:0])
    idx = np.searchsorted(tb, ta)
    hi = np.minimum(idx, tb.size - 1)
    exact = tb[hi] == ta
    gap = tb[hi] - tb[np.maximum(idx - 1, 0)]
    interp = ~exact & (idx > 0) & (idx < tb.size) & ~(gap > max_gap)
    i = idx[interp]
    lam = (ta[interp] - tb[i - 1]) / gap[interp]
    h_b, cov_b = vb[hi], cb[hi]
    h_b[interp] = (1.0 - lam)[:, None] * vb[i - 1] + lam[:, None] * vb[i]
    cov_b[interp] = np.maximum(cb[i - 1], cb[i])
    keep = exact | interp
    return MeasurementPairs(ta[keep], va[keep], h_b[keep], ca[keep], cov_b[keep])


def filter_pairs(pairs: MeasurementPairs, min_speed: float = DEFAULT_MIN_SPEED) -> MeasurementPairs:
    """Drop pairs where either radar reports a speed below ``min_speed``.

    Near-standstill velocities carry no direction information and would let
    noise dominate the fit.  Idempotent.
    """
    if not min_speed >= 0:
        raise InvalidArgumentError("min_speed must be >= 0")
    sa = np.hypot(pairs.h_a[:, 0], pairs.h_a[:, 1])
    sb = np.hypot(pairs.h_b[:, 0], pairs.h_b[:, 1])
    return pairs[(sa >= min_speed) & (sb >= min_speed)]


# ---------------------------------------------------------------------------
# Config files

def _config_fields() -> dict:
    """Config key -> (section, attribute, type), read off the dataclasses.

    Every field of :class:`PipelineConfig` or of one of its sections whose
    default is a number or a flag is a key; fields that default to ``None``
    stay library-only.
    """
    sections = [(None, PipelineConfig)] + [
        (f.name, f.default_factory) for f in fields(PipelineConfig) if f.default_factory is not MISSING
    ]
    out = {}
    for section, cls in sections:
        for f in fields(cls):
            typ = type(f.default)
            if typ in (bool, int, float):
                out[f.name if section is None else f"{section}.{f.name}"] = (section, f.name, typ)
    return out


_CONFIG_FIELDS = _config_fields()


def serialize_config(cfg: PipelineConfig) -> str:
    lines = [CONFIG_HEADER]
    for key in sorted(_CONFIG_FIELDS):
        section, attr, typ = _CONFIG_FIELDS[key]
        obj = cfg if section is None else getattr(cfg, section)
        val = getattr(obj, attr)
        if typ is bool:
            text = "true" if val else "false"
        elif typ is float:
            text = _fmt(val)
        else:
            text = str(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> PipelineConfig:
    """Read a config file.  NaN is rejected for every float key, and each
    value must pass its section's own checks; the ParseError names the first
    line that fails."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty config")
    cfg = PipelineConfig()
    for lineno, line in _data_lines(lines, CONFIG_HEADER):
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_FIELDS:
            raise ParseError(f"unknown config key {key!r}", lineno)
        section, attr, typ = _CONFIG_FIELDS[key]
        try:
            if typ is bool:
                if raw not in ("true", "false"):
                    raise ValueError(raw)
                val = raw == "true"
            else:
                val = typ(raw)
        except ValueError:
            raise ParseError(f"bad value {raw!r} for {key}", lineno)
        if typ is float and math.isnan(val):
            raise ParseError(f"{key} must not be NaN", lineno)
        try:
            if section is None:
                cfg = replace(cfg, **{attr: val})
            else:
                cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{attr: val})})
        except InvalidArgumentError as exc:
            raise ParseError(f"bad value for {key}: {exc}", lineno)
    return cfg


def save_config(cfg: PipelineConfig, path):
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))


def load_config(path) -> PipelineConfig:
    with open_text(path) as fh:
        return parse_config(utf8_text(fh.read()))


# ---------------------------------------------------------------------------
# Reports


def excitation_to_dict(rep: ExcitationReport) -> dict:
    return {"format": EXCITATION_FORMAT, **asdict(rep)}


def _field(d, key: str, what: str):
    """``d[key]`` of a JSON object; a missing key names the field."""
    if not isinstance(d, dict) or key not in d:
        raise ParseError(f"{what} lacks field {key!r}")
    return d[key]


def _array_field(d, key: str, what: str, shape: tuple) -> np.ndarray:
    """Field ``key`` as a finite float array of ``shape``; a ``None`` length
    matches any."""
    try:
        arr = np.array(_field(d, key, what), dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{what} field {key!r} is not numeric") from None
    if arr.ndim != len(shape) or any(n is not None and n != k for n, k in zip(shape, arr.shape)):
        want = "(" + ", ".join("M" if n is None else str(n) for n in shape) + ")"
        raise ParseError(f"{what} field {key!r} has shape {arr.shape}, expected {want}")
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} field {key!r} is not finite")
    return arr


def excitation_from_dict(d: dict) -> ExcitationReport:
    what = "excitation report"
    if _field(d, "format", what) != EXCITATION_FORMAT:
        raise ParseError(f"not an excitation report: format {d['format']!r}")
    flags = _field(d, "flags", what)
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise ParseError(f"{what} field 'flags' is not a list of names")
    values = {f.name: _field(d, f.name, what) for f in fields(ExcitationReport)}
    return ExcitationReport(**{**values, "flags": list(flags)})


def report_to_dict(report: CalibrationReport) -> dict:
    return {
        "format": REPORT_FORMAT,
        "converged": report.converged,
        "termination": report.termination,
        "iterations": report.iterations,
        "final_cost": report.final_cost,
        "extrinsics": {
            "theta_t": report.extrinsics.theta_t,
            "theta_ba": report.extrinsics.theta_ba,
        },
        "extrinsic_covariance": np.asarray(report.extrinsic_covariance).tolist(),
        "excitation": None if report.excitation is None else excitation_to_dict(report.excitation),
        "timestamps": np.asarray(report.timestamps).tolist(),
        "fused_motion": np.column_stack([report.v_a, report.omega_gamma]).tolist(),
        "mean_velocity_error": report.mean_velocity_error,
        "velocity_error_table": report.velocity_error_table,
    }


def report_from_dict(d: dict) -> CalibrationReport:
    """A calibration report from its JSON form; a missing field, or an array
    field of the wrong shape or with a value that is not finite, raises
    ParseError naming the field."""
    what = "calibration report"
    if _field(d, "format", what) != REPORT_FORMAT:
        raise ParseError(f"not a calibration report: format {d['format']!r}")
    ext = _field(d, "extrinsics", what)
    timestamps = _array_field(d, "timestamps", what, (None,))
    motion = _array_field(d, "fused_motion", what, (timestamps.size, 3))
    excitation = _field(d, "excitation", what)
    return CalibrationReport(
        extrinsics=Extrinsics(
            theta_t=float(_array_field(ext, "theta_t", "report extrinsics", ())),
            theta_ba=float(_array_field(ext, "theta_ba", "report extrinsics", ())),
        ),
        extrinsic_covariance=_array_field(d, "extrinsic_covariance", what, (2, 2)),
        final_cost=_field(d, "final_cost", what),
        iterations=_field(d, "iterations", what),
        converged=_field(d, "converged", what),
        termination=_field(d, "termination", what),
        excitation=None if excitation is None else excitation_from_dict(excitation),
        v_a=motion[:, :2],
        omega_gamma=motion[:, 2],
        timestamps=timestamps,
        mean_velocity_error=_field(d, "mean_velocity_error", what),
        velocity_error_table=_field(d, "velocity_error_table", what),
    )


def write_json(payload: dict, path):
    """Deterministic JSON: sorted keys, fixed indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path) -> dict:
    try:
        with open_text(path) as fh:
            return json.loads(utf8_text(fh.read()))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}")


def write_report(report: CalibrationReport, path):
    """Serialize a calibration report to deterministic JSON."""
    write_json(report_to_dict(report), path)


def read_report(path) -> CalibrationReport:
    return report_from_dict(read_json(path))


def write_excitation(rep: ExcitationReport, path):
    write_json(excitation_to_dict(rep), path)


def read_excitation(path) -> ExcitationReport:
    return excitation_from_dict(read_json(path))
