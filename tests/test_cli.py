import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ergokit
from ergokit.cli import main
from ergokit.compare import compare_recordings
from ergokit.ingest import (
    MAX_JSON_DEPTH,
    format_imu_joint_csv,
    format_keypoint_stream,
    read_config_json,
)
from ergokit.motion import JointAngleSeries, JointChannel, KeypointRecording
from ergokit.synthetic import work_cycle_recording

from recordings import config_problems, elbow_flexion_recording, neutral_angle_series


@pytest.fixture
def neutral_csv(tmp_path):
    path = tmp_path / "neutral.csv"
    path.write_text(format_imu_joint_csv(neutral_angle_series(400, 100.0)))
    return path


@pytest.fixture
def keypoints_file(tmp_path):
    recording, _ = elbow_flexion_recording(n_frames=90)
    path = tmp_path / "task.jsonl"
    path.write_text(format_keypoint_stream(recording))
    return path


def test_score_neutral_fixture(tmp_path, neutral_csv, capsys):
    out = tmp_path / "out"
    code = main(["score", str(neutral_csv), "--kind", "imu-csv", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "session.json").read_text())
    assert doc["band_percentages"]["negligible"] == 100.0
    assert doc["band_shares"] == "100.0 % / 0.0 % / 0.0 % / 0.0 %"
    for name in ("session.json", "session.csv", "rula_scores.csv", "rula_bands.csv"):
        assert (out / name).is_file()
    assert "100.0 %" in capsys.readouterr().out


def test_score_with_annotations(tmp_path, neutral_csv):
    ann = tmp_path / "ann.csv"
    ann.write_text(
        "t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
        "0,2,0,3,0,3,1\n"
    )
    out = tmp_path / "out"
    code = main(["score", str(neutral_csv), "--annotations", str(ann),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "session.json").read_text())
    # First 2 s of 4 s annotated: half low, half negligible.
    assert doc["band_percentages"]["low"] == 50.0


def test_score_missing_column_names_it(tmp_path, capsys):
    """A channel without a column is missing: every sample is degraded, and
    --strict names the first absent channel. A header naming no channel is
    a MissingColumn."""
    partial = tmp_path / "partial.csv"
    partial.write_text("arm_flex_l,elbow_flex_l\n1.0,2.0\n3.0,4.0\n")
    out = tmp_path / "out"
    assert main(["score", str(partial), "--out", str(out)]) == 0
    doc = json.loads((out / "session.json").read_text())
    assert doc["degraded_frames"] == doc["samples"] == 2
    capsys.readouterr()
    assert main(["score", str(partial), "--strict", "--out", str(out)]) == 1
    assert _error_lines(capsys) == ["ergokit: error: IncompleteFrame: channel "
                                    "T1_head_neck_FE required for neck is missing at sample 0"]
    none = tmp_path / "none.csv"
    none.write_text("foo,bar\n1.0,2.0\n")
    assert main(["score", str(none), "--out", str(out)]) == 1
    assert _error_lines(capsys) == ["ergokit: error: MissingColumn: no channel column in header"]


def test_convert_then_score_a_channel_subset(tmp_path, capsys):
    """A CSV that convert writes from fewer angle definitions scores as the
    keypoint stream does with them, and compares against itself. The
    channel left out feeds only a position rule: every sample is degraded,
    and --strict names it on both paths."""
    stream = tmp_path / "stream.jsonl"
    stream.write_text(format_keypoint_stream(work_cycle_recording()))
    defs = read_config_json(None, "angle_definitions.json")
    defs["definitions"] = [d for d in defs["definitions"] if d["channel"] != "wrist_dev_l"]
    defs_path = tmp_path / "defs.json"
    defs_path.write_text(json.dumps(defs))
    conv, direct, indirect = tmp_path / "conv", tmp_path / "direct", tmp_path / "indirect"
    assert main(["convert", str(stream), "--angle-defs", str(defs_path), "--out", str(conv)]) == 0
    csv_path = conv / "joint_angles.csv"
    assert "wrist_dev_l" not in csv_path.read_text().splitlines()[0].split(",")
    assert main(["score", str(csv_path), "--out", str(indirect)]) == 0
    assert main(["score", str(stream), "--kind", "keypoints", "--angle-defs", str(defs_path),
                 "--out", str(direct)]) == 0
    a, b = (json.loads((out / "session.json").read_text()) for out in (direct, indirect))
    for key in ("scores", "band_percentages", "degraded_frames", "channel_summaries"):
        assert a[key] == b[key], key
    assert b["degraded_frames"] == b["samples"] > 0
    assert main(["compare", str(csv_path), str(csv_path), "--out", str(tmp_path / "cmp")]) == 0
    assert capsys.readouterr().err == ""
    for argv in ([str(csv_path)],
                 [str(stream), "--kind", "keypoints", "--angle-defs", str(defs_path)]):
        assert main(["score", *argv, "--strict", "--out", str(tmp_path / "strict")]) == 1
        assert _error_lines(capsys) == ["ergokit: error: IncompleteFrame: channel "
                                        "wrist_dev_l required for wrist is missing at sample 0"]


@pytest.mark.parametrize("command, definitions", [
    (["score", "{stream}", "--kind", "keypoints"], "duplicate"),
    (["convert", "{stream}"], "empty"),
])
def test_refused_angle_definitions_write_nothing(tmp_path, capsys, command, definitions):
    """A file that defines a channel twice, or nothing, is one ConfigError
    before any output: the later entry does not silently win, and convert
    writes no CSV holding only the time column."""
    stream = tmp_path / "stream.jsonl"
    stream.write_text(format_keypoint_stream(work_cycle_recording(n_frames=60)))
    defs = read_config_json(None, "angle_definitions.json")
    if definitions == "duplicate":
        arm = next(d for d in defs["definitions"] if d["channel"] == "arm_flex_r")
        defs["definitions"].append({**arm, "b": ["shoulder_r", "wrist_r"]})
    else:
        defs["definitions"] = []
    defs_path = tmp_path / "defs.json"
    defs_path.write_text(json.dumps(defs))
    out = tmp_path / "out"
    argv = [arg.format(stream=stream) for arg in command]
    assert main(argv + ["--angle-defs", str(defs_path), "--out", str(out)]) == 1
    err = _error_lines(capsys)
    assert len(err) == 1 and err[0].startswith("ergokit: error: ConfigError: "), err
    assert ("arm_flex_r" in err[0]) == (definitions == "duplicate")
    assert not out.exists()


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` with the package importable, in a new interpreter:
    outside pytest, whose handlers on the root logger would hide a log line."""
    env = {**os.environ, "PYTHONPATH": str(Path(ergokit.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_successful_runs_write_nothing_to_stderr(tmp_path):
    """Unparseable cells are counted in the series; no run reports them on
    stderr. Each run prints one line and nothing else."""
    t = np.arange(1200) / 100.0
    series = JointAngleSeries(sample_rate=100.0, start_time=0.0, channels={
        ch: 20.0 * np.sin(2 * np.pi * 0.13 * (i + 1) * t + i)
        for i, ch in enumerate(JointChannel)})
    lines = format_imu_joint_csv(series).splitlines()
    cells = lines[5].split(",")
    lines[5] = ",".join(cells[:3] + ["x"] + cells[4:])
    path = tmp_path / "x.csv"
    path.write_text("\n".join(lines) + "\n")
    run_main = "import sys; from ergokit.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (["score", str(path)], ["compare", str(path), str(path)]):
        run = _fresh_python("-c", run_main, *argv, "--out", str(tmp_path / argv[0]))
        assert run.returncode == 0
        assert len(run.stdout.splitlines()) == 1
        assert run.stderr == ""


def test_import_leaves_logging_out():
    run = _fresh_python("-c", "import sys, ergokit, ergokit.cli; print('logging' in sys.modules)")
    assert run.stdout == "False\n"


def test_score_keypoints_kind(tmp_path, keypoints_file):
    out = tmp_path / "out"
    code = main(["score", str(keypoints_file), "--kind", "keypoints",
                 "--out", str(out)])
    assert code == 0
    assert (out / "session.json").is_file()


def test_score_one_frame_stream_is_too_short(tmp_path, keypoints_file, capsys):
    """One frame has no sample rate: exit 1, one error line, no output files."""
    one = tmp_path / "one.jsonl"
    one.write_bytes(keypoints_file.read_bytes().splitlines(keepends=True)[0])
    out = tmp_path / "out"
    assert main(["score", str(one), "--kind", "keypoints", "--out", str(out)]) == 1
    assert _error_lines(capsys) == [
        "ergokit: error: TooShort: cannot infer a sample rate from 1 timestamp(s)"]
    assert not out.exists()


def test_score_one_row_timed_csv_is_too_short(tmp_path, capsys):
    """Nor has one timed CSV row, annotated or not: exit 1, one error line,
    no output files. Without a time column the row is at --imu-rate."""
    one, ann, out = tmp_path / "one.csv", tmp_path / "ann.csv", tmp_path / "out"
    one.write_text("time,arm_flex_r\n5.0,10.0\n")
    ann.write_text("t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n4,6,0,3,0,0,1\n")
    assert main(["score", str(one), "--annotations", str(ann), "--out", str(out)]) == 1
    assert _error_lines(capsys) == [
        "ergokit: error: TooShort: cannot infer a sample rate from 1 timestamp(s)"]
    assert not out.exists()
    one.write_text("arm_flex_r\n10.0\n")
    assert main(["score", str(one), "--imu-rate", "50", "--out", str(out)]) == 0
    doc = json.loads((out / "session.json").read_text())
    assert (doc["sample_rate"], doc["samples"]) == (50.0, 1)


def test_score_annotation_value_error_names_its_line(tmp_path, neutral_csv, capsys):
    ann, out = tmp_path / "ann.csv", tmp_path / "out"
    ann.write_text("t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
                   "0,1,0,1,0,0,1\n1,2,0,2,0,0,1\n2,3,0,9,0,0,1\n")
    assert main(["score", str(neutral_csv), "--annotations", str(ann), "--out", str(out)]) == 1
    lines = _error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith("ergokit: error: InvalidForceValue: ")
    assert "line 4" in lines[0]
    assert not out.exists()


def test_score_annotation_error_names_the_line_its_row_starts_on(tmp_path, neutral_csv,
                                                                capsys):
    """A quoted cell that holds a line break (lines 2-3) does not shift the
    line that a later row's error names."""
    ann, out = tmp_path / "ann.csv", tmp_path / "out"
    ann.write_bytes(b"t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
                    b'"0\n",1,0,1,0,0,1\n2,3,0,9,0,0,1\n')
    assert main(["score", str(neutral_csv), "--annotations", str(ann), "--out", str(out)]) == 1
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "line 4" in lines[0]


def test_score_keypoint_line_ends_at_line_feed_only(tmp_path, capsys):
    """A raw U+2028 inside a JSON string, as ``json.dumps(...,
    ensure_ascii=False)`` writes it, ends no line: the two-frame stream
    scores, and an error on its second line names line 2."""
    lines = format_keypoint_stream(elbow_flexion_recording(n_frames=2)[0]).splitlines()
    first = json.loads(lines[0])
    first["points"]["nose\u2028x"] = [0.0, 0.0, 0.0]
    stream, out = tmp_path / "task.jsonl", tmp_path / "out"
    stream.write_bytes(f"{json.dumps(first, ensure_ascii=False)}\n{lines[1]}\n".encode())
    assert main(["score", str(stream), "--kind", "keypoints", "--out", str(out)]) == 0
    stream.write_bytes(f"{json.dumps(first, ensure_ascii=False)}\n{{\n".encode())
    capsys.readouterr()
    assert main(["score", str(stream), "--kind", "keypoints", "--out", str(out)]) == 1
    lines = _error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith("ergokit: error: MalformedRecord: line 2: ")


def test_convert_writes_imu_layout(tmp_path, keypoints_file):
    out = tmp_path / "conv"
    code = main(["convert", str(keypoints_file), "--out", str(out)])
    assert code == 0
    header = (out / "joint_angles.csv").read_text().splitlines()[0].split(",")
    assert header[0] == "time"
    assert len(header) == 1 + len(JointChannel)


def test_convert_then_score_equals_score_keypoints(tmp_path, keypoints_file):
    out_direct = tmp_path / "direct"
    assert main(["score", str(keypoints_file), "--kind", "keypoints",
                 "--out", str(out_direct)]) == 0

    conv = tmp_path / "conv"
    assert main(["convert", str(keypoints_file), "--out", str(conv)]) == 0
    out_indirect = tmp_path / "indirect"
    assert main(["score", str(conv / "joint_angles.csv"), "--kind", "imu-csv",
                 "--out", str(out_indirect)]) == 0

    direct = json.loads((out_direct / "session.json").read_text())
    indirect = json.loads((out_indirect / "session.json").read_text())
    for doc in (direct, indirect):
        doc["source_kind"] = "either"
        doc["flags"]["kind"] = "either"
    assert direct == indirect


def test_convert_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["convert", str(empty), "--out", str(tmp_path / "out")])
    assert code != 0
    assert "ergokit: error: EmptyFile" in capsys.readouterr().err


def test_score_header_only_csv_is_an_empty_timeline(tmp_path, capsys):
    """A CSV of no rows scores no samples: the timeline refuses to be built."""
    path = tmp_path / "header.csv"
    path.write_text("arm_flex_r,elbow_flex_r\n")
    out = tmp_path / "out"
    assert main(["score", str(path), "--imu-rate", "100", "--out", str(out)]) == 1
    assert _error_lines(capsys) == ["ergokit: error: EmptyTimeline: series has no samples"]
    assert not out.exists()


def test_compare_self_all_zero(tmp_path, capsys):
    path = tmp_path / "cycle.jsonl"
    path.write_text(format_keypoint_stream(work_cycle_recording(450)))
    out = tmp_path / "cmp"
    code = main(["compare", str(path), str(path),
                 "--kind-a", "keypoints", "--kind-b", "keypoints",
                 "--max-lag", "1", "--min-overlap", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["lag_samples"] == [0]
    assert doc["channels"]["arm_flex_r"]["rmse"]["mean"] == 0.0
    assert doc["channels"]["arm_flex_r"]["correlation"]["mean"] == 1.0
    assert (out / "comparison_rmse.csv").is_file()
    assert (out / "comparison_correlation.csv").is_file()


def test_compare_batch_two_runs(tmp_path):
    path = tmp_path / "cycle.jsonl"
    path.write_text(format_keypoint_stream(work_cycle_recording(450)))
    out = tmp_path / "cmp"
    code = main(["compare", str(path), str(path), str(path), str(path),
                 "--kind-a", "keypoints", "--kind-b", "keypoints",
                 "--max-lag", "1", "--min-overlap", "2", "--out", str(out)])
    assert code == 0
    header = (out / "comparison_rmse.csv").read_text().splitlines()[0]
    assert header == "rmse,record_1,record_2,mean"


def test_compare_session_reports_equal_score_of_the_same_csv(tmp_path):
    """compare A A --session-reports scores each input as score A does:
    session_run1_a.json and session_run1_b.json are score's session.json
    byte for byte, but for the flags, which compare leaves empty."""
    stream = tmp_path / "cycle.jsonl"
    stream.write_text(format_keypoint_stream(work_cycle_recording(450)))
    assert main(["convert", str(stream), "--out", str(tmp_path)]) == 0
    csv = str(tmp_path / "joint_angles.csv")
    assert main(["score", csv, "--out", str(tmp_path / "scored")]) == 0
    assert main(["compare", csv, csv, "--session-reports", "--max-lag", "1",
                 "--min-overlap", "2", "--out", str(tmp_path / "cmp")]) == 0
    scored = (tmp_path / "scored" / "session.json").read_text()
    flags = '"flags": {\n    "kind": "imu-csv",\n    "rate": null,\n    "strict": false\n  }'
    assert scored.count(flags) == 1
    for label in "ab":
        assert (tmp_path / "cmp" / f"session_run1_{label}.json").read_text() == \
            scored.replace(flags, '"flags": {}')


def test_compare_odd_inputs_usage_error(tmp_path, neutral_csv, capsys):
    code = main(["compare", str(neutral_csv), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "pairs" in capsys.readouterr().err


def test_compare_reference_channel_missing(tmp_path, keypoints_file, capsys):
    # Angle definitions without arm_flex_r make the reference unavailable.
    defs = {
        "definitions": [
            {"channel": "elbow_flex_r",
             "a": ["shoulder_r", "elbow_r"], "b": ["elbow_r", "wrist_r"],
             "plane": "none", "signed": False, "sign_axis": None,
             "baseline": "none"},
        ]
    }
    defs_path = tmp_path / "defs.json"
    defs_path.write_text(json.dumps(defs))
    code = main(["compare", str(keypoints_file), str(keypoints_file),
                 "--kind-a", "keypoints", "--kind-b", "keypoints",
                 "--angle-defs", str(defs_path),
                 "--max-lag", "1", "--min-overlap", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "ReferenceChannelMissing" in capsys.readouterr().err


def test_compare_imu_vs_keypoints_downsamples(tmp_path, capsys):
    kp = tmp_path / "cycle.jsonl"
    kp.write_text(format_keypoint_stream(work_cycle_recording(360)))
    # Build a 100 Hz CSV of the same motion by scoring the keypoints route.
    conv = tmp_path / "conv"
    assert main(["convert", str(kp), "--out", str(conv), "--rate", "100"]) == 0
    out = tmp_path / "cmp"
    code = main(["compare", str(conv / "joint_angles.csv"), str(kp),
                 "--kind-a", "imu-csv", "--kind-b", "keypoints",
                 "--max-lag", "1", "--min-overlap", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "comparison.json").read_text())
    assert abs(doc["sample_rate"] - 30.0) < 0.01  # lower of the two rates


def test_compare_runs_at_different_rates_rejected(tmp_path, capsys):
    """Without --rate each run is compared at its own pair's lower rate; runs
    that end up at different rates cannot share one report's lags."""
    paths = []
    for name, rate, skip in (("a100", 100.0, 0), ("b100", 100.0, 0),
                             ("a50", 50.0, 0), ("b50", 50.0, 20)):
        t = np.arange(int(20 * rate)) / rate
        channels = {ch: 20.0 * np.sin(2 * np.pi * 0.13 * (i + 1) * t + i)[skip:]
                    for i, ch in enumerate(JointChannel)}
        path = tmp_path / f"{name}.csv"
        path.write_text(format_imu_joint_csv(
            JointAngleSeries(sample_rate=rate, start_time=0.0, channels=channels)))
        paths.append(str(path))
    out = tmp_path / "cmp"
    assert main(["compare", *paths, "--max-lag", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ergokit: error: SampleRateMismatch:")
    assert "run 2" in lines[0] and "--rate" in lines[0]
    assert not (out / "comparison.json").exists()
    assert main(["compare", *paths, "--max-lag", "2", "--rate", "50", "--out", str(out)]) == 0
    assert _strict_json((out / "comparison.json").read_text())["lag_samples"] == [0, -20]


@pytest.mark.parametrize("max_lag", ["0", "0.004"])
def test_max_lag_under_half_a_sample_aligns_at_lag_zero(tmp_path, max_lag):
    """The second recording is one sample ahead, which a window of one
    sample finds; a window under half a sample searches lag 0 alone."""
    t = np.arange(401) / 100.0
    z = {ch: 20.0 * np.sin(2 * np.pi * 0.37 * (i + 1) * t) for i, ch in enumerate(JointChannel)}
    a, b = (JointAngleSeries(sample_rate=100.0, start_time=0.0,
                             channels={ch: x[cut] for ch, x in z.items()})
            for cut in (slice(0, 400), slice(1, 401)))
    assert compare_recordings(a, b, max_lag_seconds=0.01, min_overlap_seconds=1.0).lags == (-1,)
    assert compare_recordings(a, b, max_lag_seconds=float(max_lag),
                              min_overlap_seconds=1.0).lags == (0,)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, series in zip(paths, (a, b)):
        path.write_text(format_imu_joint_csv(series))
    out = tmp_path / "cmp"
    assert main(["compare", *map(str, paths), "--max-lag", max_lag, "--min-overlap", "1",
                 "--out", str(out)]) == 0
    assert _strict_json((out / "comparison.json").read_text())["lag_samples"] == [0]


def test_check_config_default_ok(capsys):
    from importlib import resources

    default_path = resources.files("ergokit.data") / "rula_default.json"
    code = main(["check-config", str(default_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "config checksum:" in out
    assert "table_a checksum:" in out


@pytest.mark.parametrize("mutate,needle", [
    (lambda raw: raw["table_a"][0].__setitem__(2, raw["table_a"][0][2][:3]),
     "table_a"),
    (lambda raw: raw["range"]["arm"]["intervals"].__setitem__(2, [15, 45, 2]),
     "overlap"),
    (lambda raw: raw["table_c"][0].__setitem__(0, 12), "table_c"),
])
def test_check_config_rejects_mutations(tmp_path, capsys, mutate, needle):
    raw = read_config_json(None)
    mutate(raw)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(raw))
    code = main(["check-config", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "invalid:" in out
    assert needle in out


def test_check_config_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_strict_mode_fails_on_missing_channel(tmp_path, capsys):
    series = neutral_angle_series(50, 100.0)
    gappy = JointAngleSeries(
        sample_rate=100.0, start_time=0.0,
        channels={ch: (np.full(50, np.nan) if ch == JointChannel.elbow_flex_r
                       else np.zeros(50))
                  for ch in JointChannel},
    )
    path = tmp_path / "gappy.csv"
    path.write_text(format_imu_joint_csv(gappy))
    assert main(["score", str(path), "--out", str(tmp_path / "o1")]) == 0
    code = main(["score", str(path), "--strict", "--out", str(tmp_path / "o2")])
    assert code == 1
    assert "IncompleteFrame" in capsys.readouterr().err


def _error_lines(capsys) -> list[str]:
    return capsys.readouterr().err.splitlines()


def _imu_csv(times) -> str:
    header = ",".join(["time"] + [ch.value for ch in JointChannel])
    zeros = ",".join("0.0" for _ in JointChannel)
    return "\n".join([header] + [f"{t!r},{zeros}" for t in times]) + "\n"


def _skipped_frame_stream() -> str:
    recording, _ = elbow_flexion_recording(n_frames=40)
    return format_keypoint_stream(KeypointRecording(
        times=np.delete(recording.times, 25), positions=np.delete(recording.positions, 25, 0)))


@pytest.mark.parametrize("kind, content, error", [
    ("keypoints", json.dumps({"frame": 0, "points": {"nose": [0.0, 0.0, 1.7]},
                              "confidence": {"nose": "x"}}) + "\n", "MalformedRecord"),
    ("keypoints", '{"frame": "abc", "points": {}}\n', "MalformedRecord"),
    ("keypoints", '{"frame": 1' + "0" * 400 + ', "points": {}}\n', "MalformedRecord"),
    ("keypoints", '{"time": 1' + "0" * 400 + ', "points": {}}\n', "MalformedRecord"),
    ("imu-csv", _imu_csv([0.0, 0.01, 5.0, 5.01]), "IrregularTimestamps"),
    ("keypoints", _skipped_frame_stream(), "IrregularTimestamps"),
    ("imu-csv", _imu_csv([0.0, 1e-320, 2e-320]), "NonFiniteTimes"),  # an infinite rate
], ids=["confidence-not-a-number", "frame-not-a-number", "huge-frame", "huge-time",
        "imu-time-gap", "skipped-frame", "imu-time-step-1e-320"])
def test_score_bad_input_is_one_error_line(tmp_path, capsys, kind, content, error):
    path = tmp_path / "input"
    path.write_text(content)
    code = main(["score", str(path), "--kind", kind, "--out", str(tmp_path / "out")])
    assert code == 1
    err = _error_lines(capsys)
    assert len(err) == 1
    assert err[0].startswith(f"ergokit: error: {error}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--rate", "0"), ("--imu-rate", "0"), ("--fps", "0"), ("--rate", "nan"),
    ("--rate", "abc"),
])
def test_bad_rate_rejected_before_any_work(tmp_path, neutral_csv, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["score", str(neutral_csv), flag, value, "--out", str(out)]) == 2
    err = _error_lines(capsys)
    assert len(err) == 1
    assert err[0].startswith("ergokit: error:") and flag in err[0]
    assert not out.exists()


@pytest.mark.parametrize("rate, error", [("1e15", "MemoryError"), ("1e300", "TooLong")])
@pytest.mark.parametrize("command", ["score", "compare"])
def test_rate_too_large_for_memory_is_one_error_line(tmp_path, capsys, command, rate, error):
    """At 1e15 Hz three rows at 100 Hz resample to 2e13 samples, which numpy
    can index but not allocate: 160 TB is past any process's address space,
    so the allocation fails whatever the host's overcommit policy (at 1e12 Hz,
    149 GiB, a host that always overcommits would start filling it). At
    1e300 Hz numpy cannot index them, and resample refuses before allocating."""
    path = tmp_path / "tiny.csv"
    path.write_text(_imu_csv([0.0, 0.01, 0.02]))
    inputs = [str(path)] * (1 if command == "score" else 2)
    code = main([command, *inputs, "--rate", rate, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"ergokit: error: {error}: ")


@pytest.mark.parametrize("argv", [["bogus"], [], ["score"], ["score", "x.csv", "--bogus"],
                                  ["convert", "x.jsonl", "--config", "c.json"],
                                  ["convert", "x.jsonl", "--imu-rate", "5"]],
                         ids=["unknown-subcommand", "no-subcommand", "no-input",
                              "unknown-option", "convert-config", "convert-imu-rate"])
def test_usage_error_is_one_line(capsys, argv):
    assert main(argv) == 2  # returns instead of raising SystemExit
    captured = capsys.readouterr()
    err = [line for line in captured.err.splitlines() if line.strip()]
    assert len(err) == 1 and err[0].startswith("ergokit: error:")
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--max-lag", "--min-overlap"])
@pytest.mark.parametrize("value", ["nan", "inf", "-3", "abc"])
def test_bad_seconds_rejected_before_any_work(tmp_path, neutral_csv, capsys, flag, value):
    out = tmp_path / "out"
    argv = ["compare", str(neutral_csv), str(neutral_csv), flag, value, "--out", str(out)]
    assert main(argv) == 2
    err = _error_lines(capsys)
    assert len(err) == 1
    assert err[0].startswith("ergokit: error:") and flag in err[0]
    assert not out.exists()


def _strict_json(text: str):
    """Parse JSON, refusing the NaN and Infinity that json.dumps may emit."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_cells_never_reach_the_reports(tmp_path):
    series = neutral_angle_series(400, 100.0)
    series = replace(series, channels={
        **series.channels, JointChannel.arm_flex_r: np.sin(np.arange(400) * 0.05) * 30.0})
    text = format_imu_joint_csv(series).splitlines()
    header = text[0].split(",")
    for row, cell in ((5, "inf"), (9, "-inf"), (12, "nan"), (20, "1e999")):
        cells = text[row].split(",")
        cells[header.index("arm_flex_r")] = cell
        text[row] = ",".join(cells)
    path = tmp_path / "rec.csv"
    path.write_text("\n".join(text) + "\n")
    assert main(["score", str(path), "--out", str(tmp_path / "s")]) == 0
    doc = _strict_json((tmp_path / "s" / "session.json").read_text())
    assert doc["channel_summaries"]["arm_flex_r"]["max"] <= 30.0
    assert main(["compare", str(path), str(path),
                 "--max-lag", "0.5", "--min-overlap", "1", "--out", str(tmp_path / "c")]) == 0
    doc = _strict_json((tmp_path / "c" / "comparison.json").read_text())
    assert doc["channels"]["arm_flex_r"]["rmse"]["mean"] == 0.0


@pytest.mark.parametrize("cell", ["1e200", "1e60", "-2e6"])
def test_huge_cells_are_missing_samples(tmp_path, cell):
    """A channel cell beyond 1e6 degrees is a missing sample: the summaries
    stay finite, and a recording holding a row of them aligns with its clean
    copy at lag 0."""
    t = np.arange(400) / 100.0
    series = JointAngleSeries(sample_rate=100.0, start_time=0.0, channels={
        ch: 30.0 * np.sin(2 * np.pi * t / (1.0 + 0.1 * i)) for i, ch in enumerate(JointChannel)})
    text = format_imu_joint_csv(series).splitlines()
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join(text) + "\n")
    text[200] = text[200].split(",")[0] + f",{cell}" * len(JointChannel)
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(text) + "\n")
    assert main(["score", str(huge), "--out", str(tmp_path / "s")]) == 0
    doc = _strict_json((tmp_path / "s" / "session.json").read_text())
    assert all(-30.0 <= s["min"] and s["max"] <= 30.0 for s in doc["channel_summaries"].values())
    assert main(["compare", str(huge), str(clean), "--max-lag", "1", "--min-overlap", "1",
                 "--out", str(tmp_path / "c")]) == 0
    assert _strict_json((tmp_path / "c" / "comparison.json").read_text())["lag_samples"] == [0]


@pytest.mark.parametrize("argv, name, content, error", [
    (["score", "{}"], "rec.csv", b"time,arm_flex_r\n0.0,\xff\n", "EncodingError"),
    (["score", "{}", "--kind", "keypoints"], "task.jsonl", b'{"frame": 0, "points": {}}\xff\n',
     "EncodingError"),
    (["score", "{kp}", "--kind", "keypoints", "--angle-defs", "{}"], "defs.json", b'{"a": 1}',
     "ConfigError"),
    (["score", "{kp}", "--kind", "keypoints", "--angle-defs", "{}"], "defs.json", b"[1, 2]",
     "ConfigError"),
    (["score", "{kp}", "--kind", "keypoints", "--angle-defs", "{}"], "defs.json", b"{not json",
     "ConfigError"),
    (["score", "{kp}", "--kind", "keypoints", "--angle-defs", "{}"], "defs.json", b"\xff",
     "EncodingError"),
    (["score", "{kp}", "--kind", "keypoints", "--config", "{}"], "config.json", b"[1, 2]",
     "ConfigError"),
    (["score", "{kp}", "--kind", "keypoints", "--config", "{}"], "config.json", b'"\xe9"',
     "EncodingError"),
    (["check-config", "{}"], "config.json", b"\xff", "EncodingError"),
], ids=["imu-csv-not-utf8", "stream-not-utf8", "defs-no-definitions", "defs-a-list",
        "defs-not-json", "defs-not-utf8", "config-a-list", "config-not-utf8",
        "check-config-not-utf8"])
def test_bad_input_file_is_one_error_line(tmp_path, capsys, keypoints_file, argv, name, content,
                                          error):
    """Every input, configs included, is decoded alike: bytes that are not
    UTF-8 are an EncodingError."""
    path = tmp_path / name
    path.write_bytes(content)
    argv = [arg.format(path, kp=keypoints_file) for arg in argv]
    assert main(argv + (["--out", str(tmp_path / "out")] if argv[0] == "score" else [])) == 1
    err = _error_lines(capsys)
    assert len(err) == 1 and err[0].startswith(f"ergokit: error: {error}: ")


@pytest.mark.parametrize("section, key, problem", [
    ("position", 0, "position[0]: rule must be an object"),
    ("range", "arm", "range[arm]: rule must be an object"),
])
def test_config_entry_not_an_object(tmp_path, capsys, keypoints_file, section, key, problem):
    raw = read_config_json(None)
    raw[section][key] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["check-config", str(path)]) == 1
    assert problem in capsys.readouterr().out
    assert main(["score", str(keypoints_file), "--kind", "keypoints", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = _error_lines(capsys)
    assert len(err) == 1 and err[0].startswith("ergokit: error:") and problem in err[0]


def test_check_config_on_a_list_lists_the_problem(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main(["check-config", str(path)]) == 1
    assert "invalid: config must be a JSON object" in capsys.readouterr().out


def _set(path, value):
    def mutate(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate, problem", [
    (_set(("bands", "low", 1), 10**9), "bands[low]: scores outside 1..7"),
    (_set(("bands", "low", 1), 10**400), "bands[low]: scores outside 1..7"),
    (_set(("range", "arm", "channels"), ["left", "right"]),
     "range[arm]: channels must be exactly"),
    (_set(("range", "neck", "channels"), 3), "range[neck]: channels must be exactly"),
    (_set(("range", "arm", "intervals", 1, 0), "-20"), "range[arm]: bad interval"),
    (_set(("range", "arm", "intervals", 1, 0), 10**400), "range[arm]: bad interval"),
    (_set(("position", 0, "joint"), ["arm"]), "position[0]: unknown joint"),
    (_set(("position", 0, "threshold"), 10**400), "position[0]: threshold must be finite"),
], ids=["band-1e9", "band-400-digits", "channels-a-list", "channels-a-number",
        "bound-a-string", "bound-400-digits", "joint-a-list", "threshold-400-digits"])
def test_config_of_wrong_type_or_size_is_one_problem(tmp_path, capsys, keypoints_file,
                                                     mutate, problem):
    raw = read_config_json(None)
    mutate(raw)
    started = time.perf_counter()
    assert any(problem in p for p in config_problems(raw))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["check-config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert problem in out
    assert len(err.splitlines()) == 1 and err.startswith("ergokit: error:")
    assert main(["score", str(keypoints_file), "--kind", "keypoints", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = _error_lines(capsys)
    assert len(err) == 1 and err[0].startswith("ergokit: error:") and problem in err[0]
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("argv", [
    ["check-config", "{deep}"],
    ["score", "{csv}", "--config", "{deep}"],
    ["score", "{kp}", "--kind", "keypoints", "--angle-defs", "{deep}"],
    ["score", "{deep}", "--kind", "keypoints"],
], ids=["check-config", "score-config", "angle-defs", "keypoint-stream"])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, neutral_csv, keypoints_file,
                                              argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    argv = [arg.format(deep=deep, csv=neutral_csv, kp=keypoints_file) for arg in argv]
    assert main(argv + (["--out", str(tmp_path / "out")] if argv[0] == "score" else [])) == 1
    err = _error_lines(capsys)
    assert len(err) == 1 and err[0].startswith("ergokit: error:")


def _nested_config_runs(tmp_path):
    """Write the shipped config with an extra key under ``depth`` nested
    objects (``depth + 1`` levels in all), and the argv of each command
    that reads it."""
    from importlib import resources

    shipped = resources.files("ergokit.data").joinpath("rula_default.json").read_text()
    head = shipped.rstrip().removesuffix("}") + ', "note": '
    csv = tmp_path / "short.csv"
    csv.write_text(_imu_csv([i / 100 for i in range(5)]))
    config = tmp_path / "deep.json"

    def write(depth):
        config.write_text(head + '{"a": ' * depth + "0" + "}" * depth + "}")

    return write, {"check-config": ["check-config", str(config)],
                   "score": ["score", str(csv), "--config", str(config),
                             "--out", str(tmp_path / "out")]}


#: Extra-key depths across the JSON nesting limit, and near the recursion limit.
NESTED_DEPTHS = [*range(MAX_JSON_DEPTH - 8, MAX_JSON_DEPTH + 8), *range(900, 1001, 5)]


@pytest.mark.parametrize("command", ["check-config", "score"])
def test_config_nested_near_the_recursion_limit_is_one_error_line(tmp_path, capsys, command):
    """The shipped config with an extra key nested across the JSON nesting
    limit and 900 to 1000 levels deep, around the recursion limit. Every
    depth must exit 0, or 1 with one error line."""
    write, argv = _nested_config_runs(tmp_path)
    codes = set()
    for depth in NESTED_DEPTHS:
        write(depth)
        code = main(argv[command])
        err = _error_lines(capsys)
        assert (code, len(err)) in ((0, 0), (1, 1)), depth
        assert not err or err[0].startswith("ergokit: error:"), depth
        codes.add(code)
    assert codes == {0, 1}  # the sweep crosses the limit


def test_config_nesting_limit_is_the_same_for_every_command(tmp_path, capsys):
    """check-config and score --config agree at every depth: a config
    nested MAX_JSON_DEPTH levels deep is read, one level more is not."""
    write, argv = _nested_config_runs(tmp_path)
    for depth in NESTED_DEPTHS:
        write(depth)
        codes = {command: main(args) for command, args in argv.items()}
        capsys.readouterr()
        assert codes["check-config"] == codes["score"] == int(depth >= MAX_JSON_DEPTH), depth


def test_angle_defs_and_keypoint_lines_share_the_nesting_limit(tmp_path, capsys,
                                                               keypoints_file):
    from importlib import resources

    defs = json.loads(resources.files("ergokit.data").joinpath("angle_definitions.json")
                      .read_text())
    line = json.loads(keypoints_file.read_text().splitlines()[0])
    for levels in (MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1):
        # The extra key adds ``levels - 1`` lists under the top-level object.
        extra = "[" * (levels - 1) + "]" * (levels - 1)
        defs_file = tmp_path / "defs.json"
        defs_file.write_text(json.dumps(defs)[:-1] + f', "note": {extra}}}')
        stream = tmp_path / "stream.jsonl"
        stream.write_text(json.dumps(line)[:-1] + f', "note": {extra}}}\n'
                          + keypoints_file.read_text().split("\n", 1)[1])
        for argv in (["score", str(keypoints_file), "--kind", "keypoints",
                      "--angle-defs", str(defs_file)],
                     ["score", str(stream), "--kind", "keypoints"]):
            code = main(argv + ["--out", str(tmp_path / "out")])
            err = _error_lines(capsys)
            if levels == MAX_JSON_DEPTH:
                assert (code, err) == (0, []), argv
            else:
                assert code == 1 and len(err) == 1, argv
                assert f"nested deeper than {MAX_JSON_DEPTH} levels" in err[0], argv


@pytest.mark.parametrize("channel, entry, message", [
    ("T1_head_neck_FE", {"a": {"axis": "bogus"}}, "unknown body axis"),
    ("T1_head_neck_FE", {"a": {"axis": ["x"]}}, "unknown body axis"),
    ("elbow_flex_r", {"a": None}, "needs a point pair"),
    ("elbow_flex_r", {"a": {"axis": "up"}}, "needs a point pair"),
    ("arm_flex_r", {"a": None}, "null exactly when the baseline is initial_self"),
    ("pro_sup_r", {"a": {"axis": "up"}}, "needs a point pair"),
    ("lumbar_rotation", {"a": ["hip_l", "hip_r"]},
     "null exactly when the baseline is initial_self"),
    ("arm_flex_r", {"signed": "false"}, "signed must be true or false"),
    ("elbow_flex_r", {"sign_axis": "left"}, "unprojected angles take no sign"),
    ("elbow_flex_r", {"baseline": "initial_axes"}, "unprojected angles take no sign"),
], ids=["unknown-name", "a-list", "none-null", "none-axis", "sagittal-null-not-initial-self",
        "axis-a-axis", "initial-self-with-a", "signed-string", "none-sign-axis",
        "none-initial-axes"])
def test_unknown_body_axis_in_angle_defs_is_one_error_line(tmp_path, capsys, keypoints_file,
                                                           channel, entry, message):
    """An angle-definition entry that no frame could compute is refused at
    load with one ConfigError line naming its channel."""
    from importlib import resources

    raw = json.loads(resources.files("ergokit.data").joinpath("angle_definitions.json")
                     .read_text())
    [definition] = [d for d in raw["definitions"] if d["channel"] == channel]
    definition.update(entry)
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps(raw))
    assert main(["score", str(keypoints_file), "--kind", "keypoints", "--angle-defs", str(defs),
                 "--out", str(tmp_path / "out")]) == 1
    err = _error_lines(capsys)
    assert len(err) == 1 and err[0].startswith("ergokit: error: ConfigError")
    assert f"{channel}: " in err[0] and message in err[0]
