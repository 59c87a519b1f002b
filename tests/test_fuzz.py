"""Seeded input fuzzer for the exit-code contract.

Small valid inputs (pairs, scans, config, truth, report, heading and rate
files) are mutated line by line and fed to the commands in-process through
``cli.main``, with every warning raised as an error.  Each run must return
one of the documented exit codes; an exception or a warning that escapes
fails the test.  The mutations are drawn from a fixed seed per target, so
every run replays the same cases.  Only input files are mutated, never a
flag that starts work in proportion to its value (``simulate --rate``,
``--trials``, ``--landmarks``).
"""

import random
import warnings

import pytest

from radarcal import cli

EXIT_CODES = {
    cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO, cli.EXIT_NO_DATA, cli.EXIT_UNIDENTIFIABLE,
    cli.EXIT_NOT_CONVERGED,
}
CASES_PER_TARGET = 100
TOKENS = [
    b"nan", b"-nan", b"inf", b"-inf", b"1e160", b"-1e160", b"1e308", b"-1e308", b"0", b"-1", b"x",
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One small valid file of each kind, as bytes."""
    base = tmp_path_factory.mktemp("fuzz")
    assert cli.main(["simulate", "--out", str(base / "sim"), "--trials", "1", "--sigma", "0.1",
                     "--duration", "5", "--landmarks", "30", "--seed", "7"]) == cli.EXIT_OK
    trial = base / "sim" / "sigma_0.1" / "dur_5" / "trial_0"
    assert cli.main(["calibrate", "--input", str(trial / "pairs.txt"),
                     "--out", str(base / "cal")]) == cli.EXIT_OK
    config = base / "config.txt"
    config.write_bytes(b"# radarcal config 1\nmin_speed = 0.1\nsolver.max_iterations = 50\n"
                       b"ransac.residual_threshold = 0.03\nexcitation.det_rel_tol = 0.001\n")
    # Unmutated, every key is known and valid, so the config cases test their mutations.
    assert cli.main(["calibrate", "--input", str(trial / "pairs.txt"), "--config", str(config),
                     "--out", str(base / "cal_config")]) == cli.EXIT_OK
    steps = range(60)
    return {
        "pairs": (trial / "pairs.txt").read_bytes(),
        "scans": (trial / "scans.txt").read_bytes(),
        "truth": (trial / "truth.txt").read_bytes(),
        "report": (base / "cal" / "report.json").read_bytes(),
        "config": config.read_bytes(),
        "poses": b"t,heading\n" + b"".join(b"%r,%r\n" % (k / 10, 0.3 * k / 10) for k in steps),
        "rates": b"t,omega\n" + b"".join(b"%r,0.3\n" % (k / 10) for k in steps),
    }


def _paired_covariance(lines, rng):
    """Both diagonal entries of one pair covariance at 1e160, so that its
    determinant overflows."""
    k = rng.randrange(1, len(lines))
    toks = lines[k].split()
    if len(toks) == 11:
        for col in rng.choice([(3, 5), (8, 10)]):
            toks[col] = b"1e160"
        lines[k] = b" ".join(toks)
    return "paired 1e160 covariance on line %d" % (k + 1)


def _huge_velocity_column(lines, rng):
    """One velocity column of every pair record at +-9e307, finite but too
    large to compute with."""
    col = rng.choice([1, 2, 6, 7])
    value = rng.choice([b"9e307", b"-9e307"])
    for k, line in enumerate(lines):
        toks = line.split()
        if len(toks) == 11 and not line.startswith(b"#"):
            toks[col] = value
            lines[k] = b" ".join(toks)
    return "velocity column %d of every record set to %r" % (col, value)


def _token(lines, rng):
    k = rng.randrange(len(lines))
    toks = lines[k].split(b",") if b"," in lines[k] else lines[k].split(b" ")
    sep = b"," if b"," in lines[k] else b" "
    i = rng.randrange(len(toks))
    toks[i] = rng.choice(TOKENS)
    lines[k] = sep.join(toks)
    return "token %d of line %d set to %r" % (i, k + 1, toks[i])


def _drop(lines, rng):
    k = rng.randrange(len(lines))
    del lines[k]
    return "line %d dropped" % (k + 1)


def _duplicate(lines, rng):
    k = rng.randrange(len(lines))
    lines.insert(k, lines[k])
    return "line %d duplicated" % (k + 1)


def _truncate(lines, rng):
    k = rng.randrange(len(lines))
    cut = rng.randrange(len(lines[k]) + 1)
    lines[k] = lines[k][:cut]
    return "line %d truncated to %d bytes" % (k + 1, cut)


def _not_utf8(lines, rng):
    k = rng.randrange(len(lines))
    cut = rng.randrange(len(lines[k]) + 1)
    lines[k] = lines[k][:cut] + rng.choice([b"\xff", b"\xe9", b"\xc3"]) + lines[k][cut:]
    return "byte that is not UTF-8 in line %d" % (k + 1)


MUTATIONS = [_token, _drop, _duplicate, _truncate, _not_utf8]


def _commands(kind, path, files):
    """The commands that read a file of ``kind``, with ``path`` in its place."""
    f = {**files, kind: path}
    data = ["--input", f["pairs"]]
    if kind == "scans":
        data = ["--input", f["scans"]]
    calibrate = ["calibrate", *data]
    if kind == "config":
        calibrate += ["--config", f["config"]]
    return {
        "pairs": [calibrate, ["excitation-check", *data]],
        "scans": [calibrate],
        "config": [calibrate, ["excitation-check", *data, "--config", f["config"]]],
        "truth": [["evaluate", *data, "--report", f["report"], "--truth", f["truth"]]],
        "report": [["recover-scale", "--report", f["report"], "--poses", f["poses"]],
                   ["evaluate", *data, "--report", f["report"]]],
        "poses": [["recover-scale", "--report", f["report"], "--poses", f["poses"]]],
        "rates": [["recover-scale", "--report", f["report"], "--rates", f["rates"]]],
    }[kind]


@pytest.mark.parametrize("kind", ["pairs", "scans", "config", "truth", "report", "poses", "rates"])
def test_mutated_inputs_exit_with_a_documented_code(tmp_path, inputs, kind, capsys):
    files = {}
    for name, data in inputs.items():
        files[name] = tmp_path / name
        files[name].write_bytes(data)
    pairs_only = [_paired_covariance, _huge_velocity_column] * 2 if kind == "pairs" else []
    mutations = MUTATIONS + pairs_only
    rng = random.Random(f"radarcal fuzz {kind}")
    escaped = []
    for case in range(CASES_PER_TARGET):
        lines = inputs[kind].split(b"\n")
        what = rng.choice(mutations)(lines, rng)
        bad = tmp_path / f"bad_{kind}"
        bad.write_bytes(b"\n".join(lines))
        for argv in _commands(kind, bad, files):
            argv = [str(a) for a in argv] + ["--out", str(tmp_path / f"out{case}")]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - any escape is the failure reported
                escaped.append(f"{kind}: {what}: {argv[0]} raised {exc!r}")
                continue
            if code not in EXIT_CODES:
                escaped.append(f"{kind}: {what}: {argv[0]} returned {code!r}")
        capsys.readouterr()
    assert not escaped, "\n".join(escaped)
