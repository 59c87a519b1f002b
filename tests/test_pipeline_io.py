import dataclasses
import json
import math
import re

import numpy as np
import pytest

from radarcal.calib_solver import MeasurementPairs, solve_lm
from radarcal.ego_velocity import EgoVelocityEstimate, RadarScan, RansacConfig
from radarcal.errors import InvalidArgumentError, ParseError, UnidentifiableError
from radarcal.pipeline_io import (
    _CONFIG_FIELDS,
    PAIRS_HEADER,
    PipelineConfig,
    estimate_stream,
    filter_pairs,
    load_config,
    load_pairs,
    load_scans,
    load_truth,
    parse_config,
    read_excitation,
    read_json,
    read_report,
    save_config,
    save_pairs,
    save_scans,
    save_truth,
    serialize_config,
    synchronize,
    write_excitation,
    write_report,
)
from radarcal.simulator import (
    NoiseSpec,
    TrajectoryProfile,
    generate_trajectory,
    sample_landmarks,
    simulate_pairs,
    simulate_scans,
)

# floats with no short decimal form; a faithful round trip must be bitwise
NASTY = [0.1 + 0.2, 1.0 / 3.0, -0.0, 5e-324, 1e300, math.pi, 123456789.123456789, -2.5e-17]


def make_scan(ts, rid, az, rr, rng=10.0):
    dets = np.column_stack([np.full(len(az), rng), az, rr])
    return RadarScan(timestamp=ts, radar_id=rid, detections=dets)


def estimate(ts, v, cov_scale=1e-4):
    return EgoVelocityEstimate(
        velocity=np.asarray(v, dtype=float),
        covariance=cov_scale * np.eye(2),
        n_inliers=10,
        n_total=12,
        timestamp=ts,
    )


def nasty_pairs():
    x = np.array(NASTY)
    cov = np.stack([[np.abs(x) + 1.0, x / 10.0], [x / 10.0, np.abs(x) + 2.0]]).transpose(2, 0, 1)
    return MeasurementPairs(
        timestamps=np.arange(x.size) + np.abs(x) % 1.0,
        h_a=np.stack([x, -x], axis=1),
        h_b=np.stack([x / 7.0, x * 3.0], axis=1),
        cov_a=cov,
        cov_b=cov * 2.0,
    )


def assert_pairs_equal(got, want):
    for name in ("timestamps", "h_a", "h_b", "cov_a", "cov_b"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


# ---------------------------------------------------------------------------
# scan files


def test_scans_round_trip_is_bitwise(tmp_path):
    scans = {
        "a": [make_scan(0.0, "a", [0.1, NASTY[0]], [NASTY[1], -0.5]), make_scan(0.5, "a", [0.2], [0.3])],
        "b": [make_scan(0.25, "b", [5e-324], [1e308])],
    }
    path = tmp_path / "scans.txt"
    save_scans(scans, path)
    loaded = load_scans(path)
    assert set(loaded) == {"a", "b"}
    for rid in ("a", "b"):
        assert len(loaded[rid]) == len(scans[rid])
        for orig, back in zip(scans[rid], loaded[rid]):
            assert back.timestamp == orig.timestamp
            assert back.radar_id == orig.radar_id
            assert back.detections.tobytes() == orig.detections.tobytes()


def test_simulated_scans_file_survives_load_and_save_byte_for_byte(tmp_path):
    truth = generate_trajectory(TrajectoryProfile(kind="periodic_default", duration=3.0))
    landmarks = sample_landmarks(truth, n=40, rng_seed=11)
    noise = NoiseSpec(sigma_r=0.0, detection_sigma=0.01, outlier_fraction=0.1)
    first, again = tmp_path / "scans.txt", tmp_path / "again.txt"
    save_scans(simulate_scans(truth, landmarks, noise, rng_seed=12).scans, first)
    save_scans(load_scans(first), again)
    assert again.read_bytes() == first.read_bytes()


def test_scans_are_saved_in_timestamp_order(tmp_path):
    streams = {"b": [make_scan(1.0, "b", [0.1], [0.2])], "a": [make_scan(0.0, "a", [0.3], [0.4])]}
    path = tmp_path / "scans.txt"
    save_scans(streams, path)
    assert [line.split()[:2] for line in path.read_text().splitlines()[1:]] == [
        ["0.0", "a"], ["1.0", "b"],
    ]
    loaded = load_scans(path)
    assert [s.timestamp for s in loaded["a"]] == [0.0]
    assert [s.timestamp for s in loaded["b"]] == [1.0]


def test_scans_reject_duplicates_and_garbage(tmp_path):
    dup = tmp_path / "dup.txt"
    save_scans({"a": [make_scan(1.0, "a", [0.1], [0.2]), make_scan(1.0, "a", [0.3], [0.4])]}, dup)
    with pytest.raises(ParseError):
        load_scans(dup)

    bad = tmp_path / "bad.txt"
    bad.write_text("# radarcal scans 1\n0.0 a 2 10.0 0.1 0.2\n")  # declares 2, has 1
    with pytest.raises(ParseError) as exc:
        load_scans(bad)
    assert exc.value.line == 2

    wrong = tmp_path / "wrong.txt"
    wrong.write_text("# radarcal pairs 1\n")
    with pytest.raises(ParseError):
        load_scans(wrong)

    with pytest.raises(FileNotFoundError):
        load_scans(tmp_path / "missing.txt")


# ---------------------------------------------------------------------------
# pair files


def test_pairs_round_trip_is_bitwise(tmp_path):
    pairs = nasty_pairs()
    path = tmp_path / "pairs.txt"
    save_pairs(pairs, path)
    loaded = load_pairs(path)
    assert len(loaded) == len(pairs)
    assert_pairs_equal(loaded, pairs)
    # a second save of the loaded data reproduces the file byte for byte
    again = tmp_path / "again.txt"
    save_pairs(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_pairs_load_sorted_by_timestamp(tmp_path):
    pairs = nasty_pairs()
    forward, backward = tmp_path / "forward.txt", tmp_path / "backward.txt"
    save_pairs(pairs, forward)
    save_pairs(pairs[::-1], backward)
    # the loaded pairs equal the sorted ones bit for bit
    again = tmp_path / "again.txt"
    save_pairs(load_pairs(backward), again)
    assert again.read_bytes() == forward.read_bytes()


def test_pairs_reject_duplicate_timestamps_and_short_rows(tmp_path):
    pairs = nasty_pairs()[:2]
    pairs.timestamps[1] = pairs.timestamps[0]
    dup = tmp_path / "dup.txt"
    save_pairs(pairs, dup)
    with pytest.raises(ParseError):
        load_pairs(dup)

    short = tmp_path / "short.txt"
    short.write_text(PAIRS_HEADER + "\n0.0 1.0 2.0\n")
    with pytest.raises(ParseError) as exc:
        load_pairs(short)
    assert exc.value.line == 2


# ---------------------------------------------------------------------------
# truth files


def test_truth_round_trip_is_bitwise(tmp_path):
    truth = generate_trajectory(TrajectoryProfile(duration=2.0), translation=(-1.2, -1.6))
    path = tmp_path / "truth.txt"
    save_truth(truth, path)
    back = load_truth(path)
    assert back.theta_ba == truth.theta_ba
    np.testing.assert_array_equal(back.translation, truth.translation)
    np.testing.assert_array_equal(back.timestamps, truth.timestamps)
    np.testing.assert_array_equal(back.v_a, truth.v_a)
    np.testing.assert_array_equal(back.omega, truth.omega)
    np.testing.assert_array_equal(back.alpha, truth.alpha)


def test_truth_records_follow_the_pairs_order_rule(tmp_path):
    # Any order loads sorted by timestamp, the extrinsics line anywhere.
    truth = generate_trajectory(TrajectoryProfile(duration=2.0), translation=(-1.2, -1.6))
    path = tmp_path / "truth.txt"
    save_truth(truth, path)
    header, extrinsics, *rows = path.read_text().splitlines()
    shuffled = tmp_path / "shuffled.txt"
    order = np.random.default_rng(0).permutation(len(rows))
    shuffled.write_text("\n".join([header, *(rows[k] for k in order), extrinsics]) + "\n")
    again = tmp_path / "again.txt"
    save_truth(load_truth(shuffled), again)
    assert again.read_bytes() == path.read_bytes()

    dup = tmp_path / "dup.txt"
    dup.write_text("\n".join([header, extrinsics, rows[1], rows[0], rows[1]]) + "\n")
    with pytest.raises(ParseError, match=r"duplicate truth timestamp") as exc:
        load_truth(dup)
    assert exc.value.line == 5


def test_truth_requires_extrinsics_line(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text("# radarcal truth 1\n0.0 1.0 0.0 0.1 0.0\n")
    with pytest.raises(ParseError):
        load_truth(path)


@pytest.mark.parametrize("fields, message", [
    ("10.0 0.1 0.2 abc 0.3 0.4", "expected a number for range, got 'abc'"),
    ("10.0 0.1 0.2 5.0 nan 0.4", "azimuth must be finite, got 'nan'"),
    ("10.0 0.1 0.2 5.0 0.3 -inf", "range rate must be finite, got '-inf'"),
    ("10.0 inf 0.2 5.0 -inf 0.4", "azimuth must be finite, got 'inf'"),
    ("-1.0 0.1 0.2 5.0 0.3 x", "detection range must be positive: -1.0"),
    ("10.0 0.1 0.2 0.0 0.3 0.4", "detection range must be positive: 0.0"),
])
def test_scan_record_errors_name_the_first_bad_field(tmp_path, fields, message):
    path = tmp_path / "scans.txt"
    path.write_text(f"# radarcal scans 1\n0.0 a 0\n0.5 a 2 {fields}\n")
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        load_scans(path)
    assert exc.value.line == 3


def test_scan_record_whose_values_overflow_a_sum_still_loads(tmp_path):
    path = tmp_path / "scans.txt"
    path.write_text("# radarcal scans 1\n0.0 a 2 1e308 0.1 1e308 1e308 -0.2 1e308\n")
    (scan,) = load_scans(path)["a"]
    assert scan.detections.tolist() == [[1e308, 0.1, 1e308], [1e308, -0.2, 1e308]]


# ---------------------------------------------------------------------------
# stream processing


def test_estimate_stream_skips_hopeless_scans():
    rng = np.random.default_rng(0)
    az = np.linspace(-0.9, 0.9, 12)
    good = []
    v = np.array([1.0, 0.4])
    for ts in (0.2, 0.0, 0.4):
        rr = -(np.sin(az) * v[0] + np.cos(az) * v[1])
        good.append(make_scan(ts, "a", az, rr))
    starved = make_scan(0.3, "a", [0.1, 0.2], [0.0, 0.0])
    # consensus exists, but its azimuths span 1e-6 rad: the refit is singular
    narrow = 0.3 + 1e-7 * np.arange(8)
    collinear = make_scan(0.1, "a", narrow, -(np.sin(narrow) * v[0] + np.cos(narrow) * v[1]))
    ests = estimate_stream(good + [starved, collinear], RansacConfig(rng_seed=1))
    assert [e.timestamp for e in ests] == [0.0, 0.2, 0.4]
    for e in ests:
        np.testing.assert_allclose(e.velocity, v, atol=1e-9)


def test_synchronize_exact_match_passes_through():
    a = [estimate(1.0, [1.0, 0.0])]
    b = [estimate(1.0, [0.5, 0.5], cov_scale=3e-4)]
    pairs = synchronize(a, b)
    assert len(pairs) == 1
    np.testing.assert_array_equal(pairs.h_b[0], [0.5, 0.5])
    np.testing.assert_array_equal(pairs.cov_b[0], 3e-4 * np.eye(2))


def test_synchronize_interpolates_between_brackets():
    a = [estimate(0.25, [1.0, 0.0])]
    b0 = estimate(0.0, [0.0, 0.0], cov_scale=1e-4)
    b1 = estimate(1.0, [2.0, -4.0], cov_scale=9e-4)
    pairs = synchronize(a, [b1, b0], max_gap=2.0)
    assert len(pairs) == 1
    np.testing.assert_allclose(pairs.h_b[0], [0.5, -1.0], atol=1e-12)
    # covariance is the conservative elementwise max of the endpoints
    np.testing.assert_array_equal(pairs.cov_b[0], 9e-4 * np.eye(2))
    assert pairs.timestamps[0] == 0.25


def test_synchronize_drops_wide_gaps_and_extrapolation():
    a = [estimate(t, [1.0, 0.0]) for t in (-0.5, 0.25, 9.0)]
    b = [estimate(0.0, [1.0, 1.0]), estimate(1.0, [1.0, 1.0])]
    assert len(synchronize(a, b, max_gap=0.5)) == 0
    assert len(synchronize(a, b, max_gap=1.0)) == 1
    with pytest.raises(InvalidArgumentError):
        synchronize(a, b, max_gap=0.0)
    assert len(synchronize([], b)) == 0


def synchronize_reference(stream_a, stream_b, max_gap):
    """One estimate of radar a at a time: the loop that ``synchronize`` vectorizes.

    Returns the five arrays of the pairs, in field order."""
    rows = []
    a_sorted = sorted(stream_a, key=lambda e: e.timestamp)
    b_sorted = sorted(stream_b, key=lambda e: e.timestamp)
    tb = np.array([e.timestamp for e in b_sorted])
    vb = np.array([e.velocity for e in b_sorted])
    cb = np.array([e.covariance for e in b_sorted])
    for est in a_sorted if b_sorted else []:
        t = est.timestamp
        idx = int(np.searchsorted(tb, t))
        if idx < tb.size and tb[idx] == t:
            hb, cov_b = vb[idx], cb[idx]
        else:
            if idx == 0 or idx >= tb.size:
                continue
            gap = tb[idx] - tb[idx - 1]
            if gap > max_gap:
                continue
            lam = (t - tb[idx - 1]) / gap
            hb = (1.0 - lam) * vb[idx - 1] + lam * vb[idx]
            cov_b = np.maximum(cb[idx - 1], cb[idx])
        rows.append((t, est.velocity, hb, est.covariance, cov_b))
    shapes = ((-1,), (-1, 2), (-1, 2), (-1, 2, 2), (-1, 2, 2))
    return [np.array([r[k] for r in rows], dtype=float).reshape(shapes[k]) for k in range(5)]


def random_estimates(rng, timestamps):
    out = []
    for t in timestamps:
        a = rng.standard_normal((2, 2))
        out.append(EgoVelocityEstimate(
            velocity=rng.uniform(-2.0, 2.0, 2), covariance=1e-3 * (a @ a.T + 0.1 * np.eye(2)),
            n_inliers=5, n_total=8, timestamp=float(t),
        ))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_synchronize_matches_per_estimate_loop(seed):
    rng = np.random.default_rng(seed)
    tb = np.sort(rng.uniform(0.0, 10.0, 80))
    tb = np.delete(tb, rng.choice(tb.size, 10, replace=False))  # opens gaps above max_gap
    tb = np.append(tb, [20.0, 20.25])         # a bracket exactly max_gap = 0.25 wide
    ta = np.concatenate([
        rng.uniform(-1.0, 11.0, 60),          # brackets, plus times before and after b's stream
        rng.choice(tb, 10, replace=False),    # exact matches
        [20.1],
    ])
    a, b = random_estimates(rng, ta), random_estimates(rng, tb)
    rng.shuffle(a)  # unsorted inputs
    rng.shuffle(b)
    cases = [(a, b, gap) for gap in (0.05, 0.2, 0.25, 1.0)]
    cases += [(a, [], 0.2), ([], b, 0.2), ([], [], 0.2)]
    for stream_a, stream_b, max_gap in cases:
        got = synchronize(stream_a, stream_b, max_gap)
        want = synchronize_reference(stream_a, stream_b, max_gap)
        for name, arr in zip(("timestamps", "h_a", "h_b", "cov_a", "cov_b"), want):
            assert np.array_equal(getattr(got, name), arr), name
    # the 0.2 s run keeps exact matches and brackets and drops the rest
    kept = len(synchronize(a, b, 0.2))
    assert 10 < kept < len(a)
    assert 20.1 in synchronize(a, b, 0.25).timestamps


def test_filter_pairs_thresholds_and_idempotence():
    # pair 4 has an enormous speed, clearly moving; pair 1 is slow on radar a
    pairs = nasty_pairs()[[4, 1]]
    pairs.h_a[1] = [0.01, 0.0]
    kept = filter_pairs(pairs)
    assert_pairs_equal(kept, pairs[:1])
    assert_pairs_equal(filter_pairs(kept), kept)
    assert_pairs_equal(filter_pairs(pairs, min_speed=0.0), pairs)
    with pytest.raises(InvalidArgumentError):
        filter_pairs(pairs, min_speed=-1.0)


# ---------------------------------------------------------------------------
# config files


def test_config_serialization_round_trip(tmp_path):
    cfg = PipelineConfig()
    cfg.solver.max_iterations = 7
    cfg.solver.restart_cost_ratio = 12.5
    cfg.ransac.rng_seed = 99
    cfg.excitation.det_rel_tol = 0.07
    cfg.min_speed = 0.11
    text = serialize_config(cfg)
    back = parse_config(text)
    assert serialize_config(back) == text
    assert back.solver.max_iterations == 7
    assert back.solver.restart_cost_ratio == 12.5
    assert back.ransac.rng_seed == 99
    assert back.excitation.det_rel_tol == 0.07
    assert back.min_speed == 0.11

    path = tmp_path / "config.txt"
    save_config(cfg, path)
    assert serialize_config(load_config(path)) == text


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ParseError) as exc:
        parse_config("# radarcal config 1\nsolver.warp = 9\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_config("# radarcal config 1\nsolver.max_iterations = banana\n")
    with pytest.raises(ParseError):
        parse_config("# radarcal config 1\nsolver.enforce_excitation = yes\n")
    with pytest.raises(ParseError):
        parse_config("# radarcal config 1\nno equals sign here\n")
    with pytest.raises(ParseError):
        parse_config("not a config\n")
    with pytest.raises(ParseError):
        parse_config("")


CONFIG_KEYS = [
    "excitation.det_rel_tol", "min_speed",
    "ransac.inlier_fraction_threshold", "ransac.max_iterations", "ransac.residual_threshold",
    "ransac.rng_seed", "solver.enforce_excitation", "solver.grid_init_max_pairs",
    "solver.max_degenerate_fraction", "solver.max_iterations", "solver.min_lever",
    "solver.min_speed", "solver.restart_cost_ratio", "sync_max_gap",
]


def test_config_keys_are_pinned():
    # Keys are read off the option dataclasses; a new field changes the file format.
    lines = serialize_config(PipelineConfig()).splitlines()[1:]
    assert [line.split(" = ")[0] for line in lines] == CONFIG_KEYS


@pytest.mark.parametrize(
    "key", sorted(k for k, (_, _, typ) in _CONFIG_FIELDS.items() if typ is float)
)
def test_config_rejects_nan_for_every_float_key(key):
    with pytest.raises(ParseError) as exc:
        parse_config(f"# radarcal config 1\n{key} = nan\n")
    assert exc.value.line == 2 and key in str(exc.value)


def test_config_values_pass_the_dataclass_checks():
    with pytest.raises(ParseError) as exc:
        parse_config("# radarcal config 1\nmin_speed = 0.2\nsolver.max_degenerate_fraction = 2\n")
    assert exc.value.line == 3 and "solver.max_degenerate_fraction" in str(exc.value)
    # inf stays legal where the field allows it
    cfg = parse_config("# radarcal config 1\nsolver.restart_cost_ratio = inf\n")
    assert cfg.solver.restart_cost_ratio == math.inf


@pytest.mark.parametrize(
    "key", sorted(k for k, (_, _, typ) in _CONFIG_FIELDS.items() if typ is float)
)
def test_option_dataclasses_refuse_nan_built_in_code(key):
    section, attr, _ = _CONFIG_FIELDS[key]
    cfg = PipelineConfig()
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(cfg if section is None else getattr(cfg, section), **{attr: math.nan})


def test_a_loaded_config_gives_its_excitation_thresholds_to_the_solver(tmp_path):
    # A threshold this high marks every timestep degenerate, so the solver refuses.
    path = tmp_path / "config.txt"
    path.write_text("# radarcal config 1\nexcitation.det_rel_tol = 1e6\n")
    cfg = load_config(path)
    assert cfg.solver.excitation_thresholds == cfg.excitation
    pairs = simulate_pairs(
        generate_trajectory(TrajectoryProfile(duration=15.0)), NoiseSpec(sigma_r=0.1), rng_seed=2
    )
    solve_lm(pairs)  # identifiable under the default thresholds
    with pytest.raises(UnidentifiableError) as exc:
        solve_lm(pairs, cfg.solver)
    assert exc.value.report.fraction_degenerate == 1.0


def test_config_ignores_comments_and_blank_lines():
    cfg = parse_config("# radarcal config 1\n\n# a note\nmin_speed = 0.2\n")
    assert cfg.min_speed == 0.2


# ---------------------------------------------------------------------------
# JSON reports


def report_fixture():
    truth = generate_trajectory(TrajectoryProfile(duration=10.0))
    pairs = simulate_pairs(truth, NoiseSpec(sigma_r=0.1), rng_seed=2)
    return solve_lm(pairs)


def test_report_json_round_trip_exact(tmp_path):
    report = report_fixture()
    path = tmp_path / "report.json"
    write_report(report, path)
    back = read_report(path)
    assert back.extrinsics == report.extrinsics
    np.testing.assert_array_equal(back.extrinsic_covariance, report.extrinsic_covariance)
    assert back.final_cost == report.final_cost
    assert back.iterations == report.iterations
    assert back.converged == report.converged
    assert back.termination == report.termination
    assert back.mean_velocity_error == report.mean_velocity_error
    assert back.velocity_error_table == report.velocity_error_table
    np.testing.assert_array_equal(back.timestamps, report.timestamps)
    np.testing.assert_array_equal(back.v_a, report.v_a)
    np.testing.assert_array_equal(back.omega_gamma, report.omega_gamma)
    assert back.excitation == report.excitation
    # writing again produces identical bytes
    path2 = tmp_path / "report2.json"
    write_report(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_excitation_json_round_trip(tmp_path):
    report = report_fixture()
    path = tmp_path / "exc.json"
    write_excitation(report.excitation, path)
    assert read_excitation(path) == report.excitation


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_json(path)
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"a": 1}))
    assert read_json(ok) == {"a": 1}
