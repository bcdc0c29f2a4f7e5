"""``ergokit score`` on random and mutated input files, one file argument
at a time: the IMU CSV, the keypoint stream, the annotations and
``--angle-defs``. (``--config`` is fuzzed in ``test_config_fuzz``.)

Every run must exit 0 with no RuntimeWarning and no traceback, or exit
nonzero with exactly one ``ergokit: error:`` line; ``main`` must never
raise. Each argument gets random bytes and byte-level mutations of a
small valid file; the other arguments are valid.

The numeric flags of ``score`` and ``compare`` are swept over the ends of
the float range, where a rate, a time or a window in samples overflows:
each run exits 0 or 1 with at most that one line, prints no line of
200 characters or more, writes nothing when it fails, and writes only
JSON that holds no NaN or Infinity.
"""
import contextlib
import io
import json
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergokit.cli import main
from ergokit.ingest import format_imu_joint_csv, format_keypoint_stream
from ergokit.motion import JointAngleSeries, JointChannel, KeypointRecording
from ergokit.synthetic import work_cycle_recording

_T = np.arange(30) / 100.0
IMU = format_imu_joint_csv(JointAngleSeries(sample_rate=100.0, start_time=0.0, channels={
    ch: np.round(30.0 * np.sin(2 * np.pi * _T * (1 + i)), 3)
    for i, ch in enumerate(JointChannel)})).encode()
# Row 15 of IMU with every channel cell 1e200: a finite number, but no angle.
HUGE_ROW = b"\n".join(line if i != 16 else line.split(b",")[0] + b",1e200" * len(JointChannel)
                      for i, line in enumerate(IMU.split(b"\n")))
_CYCLE = work_cycle_recording(n_frames=20)
STREAM = format_keypoint_stream(KeypointRecording(
    times=_CYCLE.times, positions=np.round(_CYCLE.positions, 4))).encode()
ANNOTATIONS = (b"t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
               b"0.0,0.05,1,2,0,1,1\n0.05,0.1,0,0,0,0,1\n0.12,0.15,1,3,1,3,2\n"
               b"0.15,0.25,0,3,1,3,2\n0.25,0.27,0,1,0,0,1\n")
DEFINITIONS = resources.files("ergokit.data").joinpath("angle_definitions.json").read_bytes()

TOKENS = [b"0", b"1", b"9", b".", b"-", b"e", b",", b'"', b"\n", b"\r", b" ", b"\xff", b"\x00",
          b"\xc3\xa9", b"x", b"1e200", b"1e999", b"nan", b"[", b"]", b"{", b"}", b":", b"null",
          b"true", b"1" * 400]


@st.composite
def mutated(draw, base: bytes):
    """``base`` with 1-3 edits, each deleting 1-8 bytes, or inserting a
    token or writing it over as many bytes. Edits are placed by a seeded
    generator, so that they spread over the whole file rather than gather
    at its start, where hypothesis puts small integers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = bytearray(base)
    for _ in range(rng.integers(1, 4)):
        at = rng.integers(len(data) + 1)
        token = TOKENS[rng.integers(len(TOKENS))]
        edit = rng.integers(3)
        if edit == 0:
            del data[at:at + rng.integers(1, 9)]
        else:
            data[at:at + len(token) * (edit == 2)] = token
    return bytes(data)


def _inputs(base: bytes):
    return st.one_of(st.binary(max_size=200), mutated(base))


FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)


# IMU without its time column, timed by --imu-rate; STREAM's frames by
# number, timed by --fps.
UNTIMED = b"\n".join(line.split(b",", 1)[-1] for line in IMU.split(b"\n"))
NUMBERED = b"\n".join(json.dumps({k: v for k, v in json.loads(line).items() if k != "time"})
                       .encode() for line in STREAM.splitlines())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_fuzz")
    for name, content in (("imu.csv", IMU), ("stream.jsonl", STREAM),
                          ("annotations.csv", ANNOTATIONS), ("defs.json", DEFINITIONS),
                          ("untimed.csv", UNTIMED), ("numbered.jsonl", NUMBERED)):
        (base / name).write_bytes(content)
    return base


def _score(files, fuzzed: bytes, argv: list[str]):
    """Run ``ergokit score`` with ``{fuzzed}`` in ``argv`` standing for a
    file holding ``fuzzed``, and check the outcome."""
    (files / "fuzzed").write_bytes(fuzzed)
    argv = ["score"] + [arg.format(files=files, fuzzed=files / "fuzzed") for arg in argv]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(files / "out")])
    lines = err.getvalue().splitlines()
    runtime_warnings = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime_warnings, runtime_warnings
    assert not any("Traceback" in line for line in lines), lines
    errors = [line for line in lines if line.startswith("ergokit: error:")]
    assert len(errors) == (0 if code == 0 else 1), lines


@FUZZ
@given(data=_inputs(IMU))
@example(data=HUGE_ROW)
def test_imu_csv(files, data):
    _score(files, data, ["{fuzzed}"])


@FUZZ
@given(data=_inputs(STREAM))
def test_keypoint_stream(files, data):
    _score(files, data, ["{fuzzed}", "--kind", "keypoints"])


@FUZZ
@given(data=_inputs(ANNOTATIONS))
def test_annotations(files, data):
    _score(files, data, ["{files}/imu.csv", "--annotations", "{fuzzed}"])


@FUZZ
@given(data=_inputs(DEFINITIONS))
def test_angle_definitions(files, data):
    _score(files, data, ["{files}/stream.jsonl", "--kind", "keypoints", "--angle-defs",
                         "{fuzzed}"])


# --- numeric flags at the ends of the float range ------------------------------------

EXTREMES = ["5e-324", "1e-300", "1e300", "1.7e308"]
RUNS = {  # each command on timed and untimed IMU and on a numbered stream
    "score-imu": ["score", "{files}/imu.csv"],
    "score-untimed": ["score", "{files}/untimed.csv"],
    "score-keypoints": ["score", "{files}/numbered.jsonl", "--kind", "keypoints"],
    "compare-imu": ["compare", "{files}/imu.csv", "{files}/imu.csv"],
    "compare-untimed": ["compare", "{files}/untimed.csv", "{files}/untimed.csv"],
    "compare-keypoints": ["compare", "{files}/numbered.jsonl", "{files}/untimed.csv",
                          "--kind-a", "keypoints"],
}
CASES = [(run, flag) for run in RUNS
         for flag in ("--rate", "--fps", "--imu-rate", "--max-lag", "--min-overlap")
         if run.startswith("compare") or flag not in ("--max-lag", "--min-overlap")]


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize("run, flag", CASES)
def test_numeric_flag_at_the_float_range_ends(files, tmp_path, run, flag, value):
    out = tmp_path / "out"
    argv = [arg.format(files=files) for arg in RUNS[run]] + [flag, value, "--out", str(out)]
    out_text, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 1), lines
    assert len(lines) == code and all(line.startswith("ergokit: error:") for line in lines), lines
    assert all(len(line) < 200 for line in out_text.getvalue().splitlines()), out_text.getvalue()
    assert code == 0 or not out.exists()
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse)
    for path in out.glob("*"):  # a time or rate in fixed point ran to 300 digits
        assert all(len(line) < 200 for line in path.read_text().splitlines()), path.name
