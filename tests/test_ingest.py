import json
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergokit import ingest
from ergokit.errors import (
    EmptyFile,
    EncodingError,
    ErgokitError,
    InvalidForceValue,
    IrregularTimestamps,
    MalformedRecord,
    MissingColumn,
    NonMonotonicTimestamps,
    OverlappingIntervals,
    TooShort,
)
from ergokit.ingest import (
    format_imu_joint_csv,
    format_keypoint_stream,
    parse_annotations,
    parse_imu_joint_csv,
    parse_keypoint_stream,
    resample,
)
from ergokit.motion import (
    LANDMARK_INDEX,
    AnnotationInterval,
    AnnotationTrack,
    JointAngleSeries,
    JointChannel,
    Landmark,
)
from ergokit.synthetic import NEUTRAL_POSITIONS, posed_recording, work_cycle_recording

from keypoint_oracle import parse_keypoint_stream_oracle
from recordings import format_annotations, random_rotation, transform_recording


def test_parse_imu_csv_direct():
    text = b"arm_flex_r,elbow_flex_r,lumbar_flexion\n1.0,2.0,3.0\n4.0,5.0,6.0\n"
    series = parse_imu_joint_csv(text)
    assert series.length == 2
    assert set(series.channels) == {
        JointChannel.arm_flex_r, JointChannel.elbow_flex_r, JointChannel.lumbar_flexion,
    }
    assert series.sample_rate == 100.0
    assert series.channels[JointChannel.arm_flex_r].tolist() == [1.0, 4.0]


def test_parse_imu_csv_missing_column():
    """The header names the channels read; a header naming none is refused."""
    series = parse_imu_joint_csv(b"elbow_flex_r,note,arm_flex_r\n1.0,x,2.0\n")
    assert list(series.channels) == [JointChannel.arm_flex_r, JointChannel.elbow_flex_r]
    assert series.unparseable_cells == 0
    with pytest.raises(MissingColumn, match="no channel column"):
        parse_imu_joint_csv(b"foo,bar\n1.0,2.0\n")


def test_parse_imu_csv_empty_file():
    with pytest.raises(EmptyFile):
        parse_imu_joint_csv(b"")


def test_parse_imu_csv_non_finite_cells_become_missing():
    text = (b"arm_flex_r,elbow_flex_r,lumbar_flexion\n"
            b"inf,nan,-inf\n1e999,5.0,-1e999\n7.0,8.0,9.0\n")
    series = parse_imu_joint_csv(text)
    assert series.unparseable_cells == 5
    arm, elbow, lumbar = (series.channels[ch] for ch in (
        JointChannel.arm_flex_r, JointChannel.elbow_flex_r, JointChannel.lumbar_flexion))
    assert np.isnan(arm[:2]).all() and np.isnan(lumbar[:2]).all()
    assert math.isnan(elbow[0]) and elbow[1] == 5.0
    assert list(arm[2:]) + list(elbow[2:]) + list(lumbar[2:]) == [7.0, 8.0, 9.0]


def test_parse_imu_csv_300_rows_duration():
    rows = "\n".join("0.0,0.0,0.0" for _ in range(300))
    text = "arm_flex_r,elbow_flex_r,lumbar_flexion\n" + rows + "\n"
    series = parse_imu_joint_csv(text.encode())
    assert series.length == 300
    assert series.duration == 2.99  # 299 intervals at 0.01 s


def test_parse_imu_csv_unparseable_cells_become_missing():
    text = b"arm_flex_r,elbow_flex_r,lumbar_flexion\n1.0,oops,3.0\n4.0,5.0,6.0\n"
    series = parse_imu_joint_csv(text)
    assert series.unparseable_cells == 1
    assert math.isnan(series.channels[JointChannel.elbow_flex_r][0])
    assert series.channels[JointChannel.elbow_flex_r][1] == 5.0


def test_parse_imu_csv_time_column_wins():
    text = "time,arm_flex_r,elbow_flex_r,lumbar_flexion\n" + "\n".join(
        f"{i * 0.02},{i},{i},{i}" for i in range(50)
    ) + "\n"
    series = parse_imu_joint_csv(text.encode())
    assert math.isclose(series.sample_rate, 50.0, rel_tol=1e-9)


# Excel's "CSV UTF-8" export starts the file with a byte-order mark.
BOM = "\ufeff"


@pytest.mark.parametrize("time_first", [True, False], ids=["time-first", "channel-first"])
def test_parse_imu_csv_skips_byte_order_mark(time_first):
    """The 50 Hz time column wins over the declared 100 Hz after a BOM too."""
    rows = [["time", "arm_flex_r", "elbow_flex_r", "lumbar_flexion"]]
    rows += [[f"{i * 0.02}", f"{i}", "x", f"{i}"] for i in range(50)]
    text = "".join(",".join(row if time_first else row[1:] + row[:1]) + "\n" for row in rows)
    plain = parse_imu_joint_csv(text.encode())
    marked = parse_imu_joint_csv((BOM + text).encode())
    assert math.isclose(marked.sample_rate, 50.0, rel_tol=1e-9)
    assert (marked.sample_rate, marked.start_time, marked.unparseable_cells) == (
        plain.sample_rate, plain.start_time, plain.unparseable_cells)
    assert marked.channels.keys() == plain.channels.keys()
    for ch, x in plain.channels.items():
        assert np.array_equal(marked.channels[ch], x, equal_nan=True)


@pytest.mark.filterwarnings("error")  # an infinite time is refused without a warning
@pytest.mark.parametrize("times, needle", [
    (["0", "0.01", "5.0", "5.01"], "sample 2: time 5.0"),
    (["0", "0.01", "", "0.03"], "sample 2: time nan"),
    (["0", "inf", "-inf"], "sample 1: time inf"),
])
def test_parse_imu_csv_irregular_time_column_rejected(times, needle):
    text = "time,arm_flex_r,elbow_flex_r,lumbar_flexion\n" + "\n".join(
        f"{t},1,2,3" for t in times
    ) + "\n"
    with pytest.raises(IrregularTimestamps) as err:
        parse_imu_joint_csv(text.encode())
    assert needle in str(err.value)


def test_imu_csv_round_trip(rng):
    channels = {}
    for ch in JointChannel:
        values = rng.normal(scale=30.0, size=40)
        values[rng.integers(0, 40)] = np.nan
        channels[ch] = values
    series = JointAngleSeries(sample_rate=100.0, start_time=0.0, channels=channels)
    parsed = parse_imu_joint_csv(format_imu_joint_csv(series).encode())
    assert parsed.length == series.length
    for ch in JointChannel:
        a, b = series.channels[ch], parsed.channels[ch]
        assert np.array_equal(a, b, equal_nan=True)
    reparsed = parse_imu_joint_csv(format_imu_joint_csv(parsed).encode())
    for ch in JointChannel:
        assert np.array_equal(parsed.channels[ch], reparsed.channels[ch], equal_nan=True)


def test_imu_csv_export_refuses_a_shortened_channel():
    """A channel replaced after the series checked its lengths writes no
    short file: every sample has its row, or the export fails."""
    series = JointAngleSeries(sample_rate=100.0, start_time=0.0, channels={
        JointChannel.arm_flex_r: np.zeros(5), JointChannel.elbow_flex_r: np.ones(5)})
    series.channels[JointChannel.elbow_flex_r] = np.ones(3)
    with pytest.raises(ValueError, match="shorter"):
        format_imu_joint_csv(series)


@pytest.mark.parametrize("parse, text", [
    (parse_imu_joint_csv, "arm_flex_r\n1.0\n"),
    (parse_keypoint_stream, '{"frame": 0, "points": {}}\n'),
    (parse_annotations, "t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n0,5,0,1,0,0,1\n"),
], ids=["imu-csv", "keypoints", "annotations"])
def test_parsers_take_bytes_only(parse, text):
    """The parsers read a file's bytes. A str is a TypeError, whatever it
    holds: a lone surrogate once escaped the IMU parse as UnicodeEncodeError."""
    parse(text.encode())
    for bad in (text, BOM + text, text + "\ud800\n", ""):
        with pytest.raises(TypeError, match="a bytes-like object is required, not 'str'"):
            parse(bad)


# --- keypoint stream -----------------------------------------------------------


def _full_points() -> dict:
    return {lm.value: p.tolist() for lm, p in NEUTRAL_POSITIONS.items()}


def _record(frame, points, time=None):
    doc = {"frame": frame, "points": points}
    if time is not None:
        doc["time"] = time
    return json.dumps(doc)


def test_parse_keypoint_stream_timestamps():
    full = _full_points()
    text = "\n".join(_record(i, full) for i in range(3))
    rec = parse_keypoint_stream(text.encode())
    assert len(rec) == 3
    assert rec.times[0] == 0.0
    assert math.isclose(rec.times[1], 1 / 30)
    assert math.isclose(rec.times[2], 2 / 30)
    assert np.isfinite(rec.positions[0]).all()


def test_parse_keypoint_stream_incomplete_frame():
    full = _full_points()
    partial = dict(full)
    del partial["nose"]
    text = "\n".join([_record(0, full), _record(1, partial)])
    rec = parse_keypoint_stream(text.encode())
    nose = LANDMARK_INDEX[Landmark.nose]
    assert np.isfinite(rec.positions[0]).all()
    assert np.isnan(rec.positions[1, nose]).all()
    assert np.isfinite(np.delete(rec.positions[1], nose, axis=0)).all()


def test_parse_keypoint_stream_non_monotonic():
    full = _full_points()
    text = "\n".join([
        _record(0, full, time=0.0),
        _record(1, full, time=0.5),
        _record(2, full, time=0.4),
    ])
    with pytest.raises(NonMonotonicTimestamps):
        parse_keypoint_stream(text.encode())


def test_parse_keypoint_stream_malformed_record_has_line_number():
    full = _full_points()
    text = "\n".join([_record(0, full), "not json"])
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream(text.encode())
    assert "line 2" in str(err.value)


def test_parse_keypoint_stream_points_must_be_an_object():
    full = _full_points()
    bad = json.dumps({"frame": 1, "points": list(full.values())})
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream("\n".join([_record(0, full), bad]).encode())
    assert str(err.value) == "line 2: 'points' must be a label -> [x, y, z] object"


HUGE = "1" + "0" * 400  # a JSON integer beyond float's range


@pytest.mark.parametrize("record", [
    '{"frame": "abc", "points": {}}',
    '{"frame": [1], "points": {}}',
    f'{{"frame": {HUGE}, "points": {{}}}}',
    f'{{"time": {HUGE}, "points": {{}}}}',
    f'{{"frame": 1, "points": {{"nose": [0, {HUGE}, 1]}}}}',
    f'{{"frame": 1, "points": {{}}, "confidence": {{"nose": {HUGE}}}}}',
    '{"frame": ' + "1" * 5000 + ', "points": {}}',  # past int's digit limit
], ids=["frame-text", "frame-list", "huge-frame", "huge-time", "huge-coordinate",
        "huge-confidence", "over-4300-digits"])
def test_parse_keypoint_stream_bad_number_has_line_number(record):
    full = _full_points()
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream("\n".join([_record(0, full), record]).encode())
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("value", ["x", None, "nan"])
def test_parse_keypoint_stream_bad_confidence(value):
    full = _full_points()
    bad = json.dumps({"frame": 1, "points": full, "confidence": {"nose": value}})
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream("\n".join([_record(0, full), bad]).encode())
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("confidence", [5, "x", [2, 3], None])
def test_parse_keypoint_stream_confidence_not_an_object(confidence):
    full = _full_points()
    bad = json.dumps({"frame": 1, "points": full, "confidence": confidence})
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream("\n".join([_record(0, full), bad]).encode())
    assert "line 2" in str(err.value) and "confidence" in str(err.value)


BAD_RATES = [0.0, -30.0, math.nan]


@pytest.mark.parametrize("kind, rate", [("keypoints", r) for r in BAD_RATES]
                         + [("imu-csv", r) for r in BAD_RATES],
                         ids=[str(r) for r in BAD_RATES] + [f"imu-csv-{r}" for r in BAD_RATES])
def test_parse_keypoint_stream_rejects_bad_frame_rate(kind, rate):
    """Also the declared rate of an IMU CSV."""
    with pytest.raises(ValueError):
        if kind == "keypoints":
            parse_keypoint_stream(_record(0, _full_points()).encode(), frame_rate=rate)
        else:
            parse_imu_joint_csv(b"time,arm_flex_r\n0.0,1.0\n", declared_rate=rate)


@pytest.mark.parametrize("record, message", [
    ('{"frame": true, "points": {}}', "'frame' must be a number"),
    ('{"frame": 1, "time": false, "points": {}}', "'time' must be a number"),
    ('{"frame": 1, "points": {"nose": [true, false, 1]}}',
     "point 'nose' has non-numeric coordinates"),
    ('{"frame": 1, "points": {}, "confidence": {"nose": true}}',
     "confidence True for 'nose' is not a number in [0, 1]"),
    ('{"frame": "3", "points": {}}', "'frame' must be a number"),
    ('{"frame": 1, "time": "0.1", "points": {}}', "'time' must be a number"),
    ('{"frame": 1, "points": {"nose": ["1", 2, " 3 "]}}',
     "point 'nose' has non-numeric coordinates"),
    ('{"frame": 1, "points": {"nose": [1, 2, "nan"]}}',
     "point 'nose' has non-numeric coordinates"),
    ('{"frame": 1, "points": {}, "confidence": {"nose": "0.5"}}',
     "confidence '0.5' for 'nose' is not a number in [0, 1]"),
], ids=["frame", "time", "coordinate", "confidence", "frame-string", "time-string",
        "coordinate-string", "coordinate-nan-string", "confidence-string"])
def test_parse_keypoint_stream_rejects_booleans(record, message):
    """float(True) is 1.0 and float("3") is 3.0, but a JSON boolean or
    string read as a number is malformed. Line 1 holds booleans where no
    number is read, and parses."""
    tracked = json.dumps({"frame": 0, "tracked": True, "points": _full_points(),
                          "confidence": {"left_ear": False}})
    assert parse_keypoint_stream(tracked.encode()).times.tolist() == [0.0]
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream((tracked + "\n" + record).encode())
    assert str(err.value) == f"line 2: {message}"


def test_parse_keypoint_stream_skips_byte_order_mark():
    text = format_keypoint_stream(posed_recording([0.0, 1 / 30, 2 / 30], elbow_r=[0, 10, 20]))
    plain = parse_keypoint_stream(text.encode())
    marked = parse_keypoint_stream((BOM + text).encode())
    assert np.array_equal(marked.times, plain.times)
    assert np.array_equal(marked.positions, plain.positions, equal_nan=True)


def test_parse_keypoint_stream_ignores_unknown_labels():
    full = _full_points()
    full["left_ear"] = [0.0, 0.1, 1.7]
    rec = parse_keypoint_stream(_record(0, full).encode())
    assert rec.positions.shape == (1, len(Landmark), 3)
    assert np.isfinite(rec.positions).all()


def test_keypoint_stream_round_trip():
    original = posed_recording([0.0, 1 / 30], elbow_r=[10.0, 20.0])
    original.positions[1, LANDMARK_INDEX[Landmark.nose]] = np.nan
    text = format_keypoint_stream(original)
    assert "nose" in text.splitlines()[0] and "nose" not in text.splitlines()[1]
    parsed = parse_keypoint_stream(text.encode())
    assert np.array_equal(parsed.times, original.times)
    assert np.array_equal(parsed.positions, original.positions, equal_nan=True)


# --- annotations ----------------------------------------------------------------


def test_parse_annotations():
    text = (
        b"t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
        b"0,10,0,2,0,0,1\n"
    )
    track = parse_annotations(text)
    assert len(track.intervals) == 1
    assert track.flags_for([5.0]).arm_force.tolist() == [2]


def test_parse_annotations_skips_blank_rows():
    text = (b"t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
            b"0,5,0,1,0,0,1\n\n , ,\t\n6,9,1,3,1,2,2\n")
    assert [iv.t0 for iv in parse_annotations(text).intervals] == [0.0, 6.0]


def test_parse_annotations_overlap():
    text = (
        b"t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
        b"0,5,0,1,0,0,1\n"
        b"4,8,0,1,0,0,1\n"
    )
    with pytest.raises(OverlappingIntervals):
        parse_annotations(text)


def test_parse_annotations_bad_force():
    text = (
        b"t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
        b"0,5,0,5,0,0,1\n"
    )
    with pytest.raises(InvalidForceValue):
        parse_annotations(text)


def test_parse_annotations_skips_byte_order_mark():
    text = ("t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
            "0,5,0,1,0,0,1\n6,9,1,3,1,2,2\n")
    assert parse_annotations((BOM + text).encode()) == parse_annotations(text.encode())


def test_annotations_round_trip():
    track = AnnotationTrack.from_intervals([
        AnnotationInterval(t0=0.0, t1=5.0, arm_force=1, legs=2),
        AnnotationInterval(t0=6.0, t1=9.0, neck_muscle=1),
    ])
    assert parse_annotations(format_annotations(track).encode()) == track


# --- resampling -----------------------------------------------------------------


def _one_channel(values, rate):
    return JointAngleSeries(
        sample_rate=rate, start_time=0.0,
        channels={JointChannel.arm_flex_r: np.asarray(values, dtype=float)},
    )


def test_resample_constant():
    series = _one_channel(np.full(101, 42.0), 100.0)
    out = resample(series, 30.0)
    assert np.all(out.channels[JointChannel.arm_flex_r] == 42.0)
    assert out.sample_rate == 30.0


def test_resample_linear_ramp_exact():
    t = np.arange(101) / 100.0
    out = resample(_one_channel(t, 100.0), 30.0)
    assert np.max(np.abs(out.channels[JointChannel.arm_flex_r] - out.times)) < 1e-12


def test_resample_sine_oracle():
    t = np.arange(301) / 100.0
    out = resample(_one_channel(np.sin(2 * np.pi * t), 100.0), 30.0)
    expected = np.sin(2 * np.pi * out.times)
    assert np.max(np.abs(out.channels[JointChannel.arm_flex_r] - expected)) < 1e-3


def test_resample_identity_at_source_rate():
    values = np.sin(np.arange(300) * 0.37) * 25.0
    values[17] = np.nan
    series = _one_channel(values, 100.0)
    out = resample(series, 100.0)
    assert out.length == 300
    a, b = series.channels[JointChannel.arm_flex_r], out.channels[JointChannel.arm_flex_r]
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.isnan(a), np.isnan(b))


def test_resample_preserves_extrema(rng):
    values = rng.normal(scale=50.0, size=200)
    series = _one_channel(values, 100.0)
    out = resample(series, 73.0).channels[JointChannel.arm_flex_r]
    assert np.min(out) >= np.min(values) - 1e-12
    assert np.max(out) <= np.max(values) + 1e-12


def test_resample_nan_propagates_to_touching_stencils():
    values = np.arange(10, dtype=float)
    values[5] = np.nan
    out = resample(_one_channel(values, 10.0), 20.0)
    x = out.channels[JointChannel.arm_flex_r]
    # Outputs interpolating across sample 5 are missing; exact hits on
    # neighbouring samples are not.
    assert np.isnan(x[9])   # t=0.45 uses samples 4 and 5
    assert np.isnan(x[10])  # t=0.50 is exactly sample 5
    assert np.isnan(x[11])  # t=0.55 uses samples 5 and 6
    assert x[8] == 4.0
    assert x[12] == 6.0


def test_resample_too_short():
    with pytest.raises(TooShort):
        resample(_one_channel([1.0], 100.0), 30.0)


def test_resample_output_length():
    series = _one_channel(np.zeros(300), 100.0)
    out = resample(series, 30.0)
    assert out.length == math.floor(2.99 * 30.0) + 1


# --- keypoint stream error contract on arbitrary bytes -------------------------

_VALID_STREAM = format_keypoint_stream(posed_recording([0.0, 1 / 30, 2 / 30])).encode()
_JSON_TOKENS = [b"[", b"]", b"{", b"}", b'"', b",", b":", b"\n", b" ", b"null", b"true",
                b"1e999", b"-", b"NaN", b"1" * 400, b"\xff", b"\x00", b'"x"', b"[1, 2]"]


@st.composite
def _mutated_stream(draw, base=_VALID_STREAM, min_edits=1):
    data = bytearray(base)
    for _ in range(draw(st.integers(min_edits, 6))):
        at = draw(st.integers(0, len(data)))
        if draw(st.booleans()) and at < len(data):
            del data[at:at + draw(st.integers(1, 8))]
        else:
            data[at:at] = draw(st.sampled_from(_JSON_TOKENS))
    return bytes(data)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.one_of(st.binary(max_size=200), _mutated_stream()))
@example(data=b"[" * 200_000)
def test_keypoint_stream_raises_only_ergokit_errors(data):
    try:
        parse_keypoint_stream(data)
    except ErgokitError:
        pass


# --- keypoint stream against the whole-text oracle ------------------------------

# Frame 2 lacks its nose; every line is longer than the chunks patched in below.
_FRAMES = posed_recording(np.arange(5) / 30, elbow_r=[0, 10, 20, 30, 40])
_FRAMES.positions[2, LANDMARK_INDEX[Landmark.nose]] = np.nan
_FRAME_LINES = format_keypoint_stream(_FRAMES).splitlines()
# LF, CRLF, CR, NEL and LINE SEPARATOR all end a line for str.splitlines.
_BREAKS = ["\n", "\n", "\r\n", "\r", "\x85", "\u2028"]
_BLANKS = ["", " ", "\t", "\x0c"]


@st.composite
def _broken_lines(draw):
    """The frame lines, each ended by one of ``_BREAKS``, with blank lines
    between, behind a byte-order mark or not, maybe a last line that is not
    UTF-8, and then up to six byte edits of ``_mutated_stream``."""
    text = BOM if draw(st.booleans()) else ""
    for line in _FRAME_LINES[:draw(st.integers(0, len(_FRAME_LINES)))]:
        if draw(st.integers(0, 3)) == 0:
            text += draw(st.sampled_from(_BLANKS)) + draw(st.sampled_from(_BREAKS))
        text += line + draw(st.sampled_from(_BREAKS))
    tail = draw(st.sampled_from([b"", b"", b"\xff\n", b"{\xe2\x82"]))
    return draw(_mutated_stream(text.encode() + tail, min_edits=0))


def _keypoint_outcome(parse, data):
    try:
        recording = parse(data)
    except ErgokitError as exc:
        return type(exc).__name__, str(exc)
    return recording.times.view(np.uint64).tolist(), recording.positions.view(np.uint64).tolist()


def test_keypoint_stream_equals_oracle():
    """Bit for bit (NaN included) the same recording as the whole-text
    oracle, or an error of the same type and message, with chunks of 1, 7
    and 64 bytes. Recordings, encoding errors and
    record errors are all reached."""
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.one_of(_mutated_stream(), _broken_lines()),
           chunk=st.sampled_from([1, 7, 64]))
    def check(data, chunk):
        with mock.patch.object(ingest, "_LINE_CHUNK", chunk):
            outcome = _keypoint_outcome(parse_keypoint_stream, data)
        assert outcome == _keypoint_outcome(parse_keypoint_stream_oracle, data)
        seen[outcome[0] if isinstance(outcome[0], str) else "recording"] += 1

    check()
    assert seen["recording"] > 0 and seen["EncodingError"] > 0 and seen["MalformedRecord"] > 0


@pytest.mark.parametrize("chunk", [1, 64, ingest._LINE_CHUNK])
def test_keypoint_lines_are_numbered_across_chunks(chunk):
    """Every break str.splitlines knows ends a line, wherever a chunk ends."""
    data = (BOM + _FRAME_LINES[0] + "\u2028\r\n" + _FRAME_LINES[1] + "\x85 \r"
            + _FRAME_LINES[2] + "\n{\n").encode()
    with mock.patch.object(ingest, "_LINE_CHUNK", chunk):
        with pytest.raises(MalformedRecord, match="^line 6: invalid JSON"):
            parse_keypoint_stream(data)
        assert len(parse_keypoint_stream(data[:-2])) == 3


def test_invalid_utf8_anywhere_fails_before_any_record():
    data = b"not json\n" + _VALID_STREAM + b"\xe2\x82"
    for chunk in (1, 64, ingest._LINE_CHUNK):
        with mock.patch.object(ingest, "_LINE_CHUNK", chunk):
            with pytest.raises(EncodingError, match="unexpected end of data"):
                parse_keypoint_stream(data)


def test_keypoint_parse_holds_its_input_plus_the_values():
    """A tracker's stream in a camera frame: about 1.6 kB a line against
    480 bytes of values. The parse holds the values and a few chunks of text
    beside its input; the whole-text parse held about three times the input."""
    camera = transform_recording(work_cycle_recording(n_frames=3000),
                                 random_rotation(np.random.default_rng(18)), [0.4, -0.2, 3.0])
    data = format_keypoint_stream(camera).encode()
    tracemalloc.start()
    try:
        parsed = parse_keypoint_stream(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == 3000
    assert peak <= 0.4 * len(data) + 4 * ingest._LINE_CHUNK
