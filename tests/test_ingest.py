import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergokit.errors import (
    EmptyFile,
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
    format_annotations,
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
from ergokit.synthetic import NEUTRAL_POSITIONS, posed_recording


def test_parse_imu_csv_direct():
    text = "arm_flex_r,elbow_flex_r,lumbar_flexion\n1.0,2.0,3.0\n4.0,5.0,6.0\n"
    series = parse_imu_joint_csv(text)
    assert series.length == 2
    assert set(series.channels) == {
        JointChannel.arm_flex_r, JointChannel.elbow_flex_r, JointChannel.lumbar_flexion,
    }
    assert series.sample_rate == 100.0
    assert series.channels[JointChannel.arm_flex_r].tolist() == [1.0, 4.0]


def test_parse_imu_csv_missing_column():
    """The header names the channels read; a header naming none is refused."""
    series = parse_imu_joint_csv("elbow_flex_r,note,arm_flex_r\n1.0,x,2.0\n")
    assert list(series.channels) == [JointChannel.arm_flex_r, JointChannel.elbow_flex_r]
    assert series.unparseable_cells == 0
    with pytest.raises(MissingColumn, match="no channel column"):
        parse_imu_joint_csv("foo,bar\n1.0,2.0\n")


def test_parse_imu_csv_empty_file():
    with pytest.raises(EmptyFile):
        parse_imu_joint_csv("")


def test_parse_imu_csv_non_finite_cells_become_missing():
    text = ("arm_flex_r,elbow_flex_r,lumbar_flexion\n"
            "inf,nan,-inf\n1e999,5.0,-1e999\n7.0,8.0,9.0\n")
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
    series = parse_imu_joint_csv(text)
    assert series.length == 300
    assert series.duration == 2.99  # 299 intervals at 0.01 s


def test_parse_imu_csv_unparseable_cells_become_missing():
    text = "arm_flex_r,elbow_flex_r,lumbar_flexion\n1.0,oops,3.0\n4.0,5.0,6.0\n"
    series = parse_imu_joint_csv(text)
    assert series.unparseable_cells == 1
    assert math.isnan(series.channels[JointChannel.elbow_flex_r][0])
    assert series.channels[JointChannel.elbow_flex_r][1] == 5.0


def test_parse_imu_csv_time_column_wins():
    text = "time,arm_flex_r,elbow_flex_r,lumbar_flexion\n" + "\n".join(
        f"{i * 0.02},{i},{i},{i}" for i in range(50)
    ) + "\n"
    series = parse_imu_joint_csv(text)
    assert math.isclose(series.sample_rate, 50.0, rel_tol=1e-9)


# Excel's "CSV UTF-8" export starts the file with a byte-order mark.
BOM = "\ufeff"


@pytest.mark.parametrize("time_first", [True, False], ids=["time-first", "channel-first"])
@pytest.mark.parametrize("encode", [str.encode, str], ids=["bytes", "str"])
def test_parse_imu_csv_skips_byte_order_mark(time_first, encode):
    """The 50 Hz time column wins over the declared 100 Hz after a BOM too."""
    rows = [["time", "arm_flex_r", "elbow_flex_r", "lumbar_flexion"]]
    rows += [[f"{i * 0.02}", f"{i}", "x", f"{i}"] for i in range(50)]
    text = "".join(",".join(row if time_first else row[1:] + row[:1]) + "\n" for row in rows)
    plain = parse_imu_joint_csv(encode(text))
    marked = parse_imu_joint_csv(encode(BOM + text))
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
        parse_imu_joint_csv(text)
    assert needle in str(err.value)


def test_imu_csv_round_trip(rng):
    channels = {}
    for ch in JointChannel:
        values = rng.normal(scale=30.0, size=40)
        values[rng.integers(0, 40)] = np.nan
        channels[ch] = values
    series = JointAngleSeries(sample_rate=100.0, start_time=0.0, channels=channels)
    text = format_imu_joint_csv(series)
    parsed = parse_imu_joint_csv(text)
    assert parsed.length == series.length
    for ch in JointChannel:
        a, b = series.channels[ch], parsed.channels[ch]
        assert np.array_equal(a, b, equal_nan=True)
    reparsed = parse_imu_joint_csv(format_imu_joint_csv(parsed))
    for ch in JointChannel:
        assert np.array_equal(parsed.channels[ch], reparsed.channels[ch], equal_nan=True)


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
    rec = parse_keypoint_stream(text)
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
    rec = parse_keypoint_stream(text)
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
        parse_keypoint_stream(text)


def test_parse_keypoint_stream_malformed_record_has_line_number():
    full = _full_points()
    text = "\n".join([_record(0, full), "not json"])
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream(text)
    assert "line 2" in str(err.value)


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
        parse_keypoint_stream("\n".join([_record(0, full), record]))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("value", ["x", None, "nan"])
def test_parse_keypoint_stream_bad_confidence(value):
    full = _full_points()
    bad = json.dumps({"frame": 1, "points": full, "confidence": {"nose": value}})
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream("\n".join([_record(0, full), bad]))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("confidence", [5, "x", [2, 3], None])
def test_parse_keypoint_stream_confidence_not_an_object(confidence):
    full = _full_points()
    bad = json.dumps({"frame": 1, "points": full, "confidence": confidence})
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream("\n".join([_record(0, full), bad]))
    assert "line 2" in str(err.value) and "confidence" in str(err.value)


BAD_RATES = [0.0, -30.0, math.nan]


@pytest.mark.parametrize("kind, rate", [("keypoints", r) for r in BAD_RATES]
                         + [("imu-csv", r) for r in BAD_RATES],
                         ids=[str(r) for r in BAD_RATES] + [f"imu-csv-{r}" for r in BAD_RATES])
def test_parse_keypoint_stream_rejects_bad_frame_rate(kind, rate):
    """Also the declared rate of an IMU CSV."""
    with pytest.raises(ValueError):
        if kind == "keypoints":
            parse_keypoint_stream(_record(0, _full_points()), frame_rate=rate)
        else:
            parse_imu_joint_csv("time,arm_flex_r\n0.0,1.0\n", declared_rate=rate)


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
    assert parse_keypoint_stream(tracked).times.tolist() == [0.0]
    with pytest.raises(MalformedRecord) as err:
        parse_keypoint_stream(tracked + "\n" + record)
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
    rec = parse_keypoint_stream(_record(0, full))
    assert rec.positions.shape == (1, len(Landmark), 3)
    assert np.isfinite(rec.positions).all()


def test_keypoint_stream_round_trip():
    original = posed_recording([0.0, 1 / 30], elbow_r=[10.0, 20.0])
    original.positions[1, LANDMARK_INDEX[Landmark.nose]] = np.nan
    text = format_keypoint_stream(original)
    assert "nose" in text.splitlines()[0] and "nose" not in text.splitlines()[1]
    parsed = parse_keypoint_stream(text)
    assert np.array_equal(parsed.times, original.times)
    assert np.array_equal(parsed.positions, original.positions, equal_nan=True)


# --- annotations ----------------------------------------------------------------


def test_parse_annotations():
    text = (
        "t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
        "0,10,0,2,0,0,1\n"
    )
    track = parse_annotations(text)
    assert len(track.intervals) == 1
    assert track.flags_at(5.0).arm_force == 2


def test_parse_annotations_overlap():
    text = (
        "t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
        "0,5,0,1,0,0,1\n"
        "4,8,0,1,0,0,1\n"
    )
    with pytest.raises(OverlappingIntervals):
        parse_annotations(text)


def test_parse_annotations_bad_force():
    text = (
        "t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
        "0,5,0,5,0,0,1\n"
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
    assert parse_annotations(format_annotations(track)) == track


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
def _mutated_stream(draw):
    data = bytearray(_VALID_STREAM)
    for _ in range(draw(st.integers(1, 6))):
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
