import csv
import io
import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from ergokit.compare import (
    ChannelComparison,
    ComparisonReport,
    compare_recordings,
    summarize_runs,
)
from ergokit.errors import EmptyInput, EmptyTimeline
from ergokit.ingest import read_config_json
from ergokit.motion import (
    AnnotationFlags,
    AnnotationInterval,
    AnnotationTrack,
    JointAngleSeries,
    JointChannel,
)
from ergokit.reporting import (
    build_session_report,
    emit_comparison_report,
    emit_plot_series,
    emit_session_report,
    format_band_shares,
    format_percent,
)
from ergokit.rula import (
    RiskBand,
    RulaTimeline,
    band_percentages,
    config_from_dict,
    default_config,
    score_timeline,
)


def _neutral_series(n, rate=10.0):
    return JointAngleSeries(
        sample_rate=rate, start_time=0.0,
        channels={ch: np.zeros(n) for ch in JointChannel},
    )


def _timeline_with_finals(finals, rate=10.0) -> RulaTimeline:
    """A timeline whose combined finals take the requested values, built by
    scoring a series of preset postures under one annotation interval per
    sample."""
    zero = {ch: 0.0 for ch in JointChannel}
    contorted = dict(zero)
    contorted[JointChannel.arm_flex_r] = 100.0
    contorted[JointChannel.arm_add_r] = 60.0
    contorted[JointChannel.wrist_flex_r] = 20.0
    contorted[JointChannel.wrist_dev_r] = 20.0
    contorted[JointChannel.pro_sup_r] = 90.0
    contorted[JointChannel.lumbar_flexion] = 70.0
    contorted[JointChannel.T1_head_neck_FE] = -10.0
    presets = {
        1: (zero, AnnotationFlags()),
        3: (zero, AnnotationFlags(arm_force=2, neck_force=2)),
        6: (zero, AnnotationFlags(arm_muscle=1, arm_force=3,
                                  neck_muscle=1, neck_force=3)),
        7: (contorted, AnnotationFlags(arm_muscle=1, arm_force=3,
                                       neck_muscle=1, neck_force=3, legs=2)),
    }
    series = JointAngleSeries(
        sample_rate=rate, start_time=0.0,
        channels={ch: [presets[final][0][ch] for final in finals] for ch in JointChannel},
    )
    track = AnnotationTrack(
        AnnotationInterval(t0=(i - 0.5) / rate, t1=(i + 0.5) / rate,
                           **vars(presets[final][1]))
        for i, final in enumerate(finals)
    )
    timeline = score_timeline(series, track)
    assert timeline.final.tolist() == list(finals)
    return timeline


def test_format_percent():
    assert format_percent(78.7) == "78.7 %"
    assert format_percent(0.0) == "0.0 %"
    assert format_percent(100.0) == "100.0 %"


def test_neutral_fixture_reports_negligible_100():
    series = _neutral_series(40)
    timeline = score_timeline(series)
    report = build_session_report(timeline, series, "imu-csv")
    assert format_band_shares(report.band_percentages) == \
        "100.0 % / 0.0 % / 0.0 % / 0.0 %"
    doc = json.loads(emit_session_report(report, "structured"))
    assert doc["band_percentages"]["negligible"] == 100.0
    assert doc["config_checksum"] == default_config().checksum


def test_report_checksum_comes_from_the_scoring_config():
    """The timeline carries the checksum of the config that scored it, and
    the report takes it from there: the shipped config's by default, and a
    custom config's when it scored."""
    series = _neutral_series(4)
    assert build_session_report(score_timeline(series)).timeline.config_checksum == \
        default_config().checksum
    raw = read_config_json(None)
    raw["table_c"][0][0] = 2
    custom = config_from_dict(raw)
    assert custom.checksum != default_config().checksum
    timeline = score_timeline(series, config=custom)
    assert timeline.config_checksum == custom.checksum
    report = build_session_report(timeline, series, "imu-csv")
    assert json.loads(emit_session_report(report, "structured"))["config_checksum"] == \
        custom.checksum
    assert f"config_checksum,{custom.checksum}" in emit_session_report(report, "delimited")


def test_a_scored_timeline_and_its_report_cannot_be_rewritten():
    """Every array of a timeline is read-only, so neither it nor a report
    that holds it can be written; after such a write has failed, a report
    built before it and a new count of the bands read the scored shares."""
    series = _neutral_series(4)
    timeline = score_timeline(series)
    report = build_session_report(timeline, series, "imu-csv")
    with pytest.raises(ValueError, match="read-only"):
        timeline.band[:] = 3
    with pytest.raises(ValueError, match="read-only"):
        report.timeline.final[0] = 9
    scored = {RiskBand.negligible: 100.0, RiskBand.low: 0.0, RiskBand.medium: 0.0,
              RiskBand.very_high: 0.0}
    assert band_percentages(timeline) == report.band_percentages == scored
    doc = json.loads(emit_session_report(report, "structured"))
    assert doc["scores"]["combined"] == [1, 1, 1, 1]
    assert doc["band_percentages"]["negligible"] == 100.0


def test_band_split_fixture_formatting():
    # finals [3, 3, 5-band, 7] -> 0 / 50 / 25 / 25.
    timeline = _timeline_with_finals([3, 3, 6, 7])
    pcts = band_percentages(timeline)
    assert pcts == {RiskBand.negligible: 0.0, RiskBand.low: 50.0,
                    RiskBand.medium: 25.0, RiskBand.very_high: 25.0}
    assert format_band_shares(pcts) == "0.0 % / 50.0 % / 25.0 % / 25.0 %"


def test_session_emissions_deterministic():
    series = _neutral_series(25)
    timeline = score_timeline(series)
    report = build_session_report(timeline, series, "imu-csv")
    for fmt in ("structured", "delimited"):
        assert emit_session_report(report, fmt) == emit_session_report(report, fmt)


def test_session_csv_sections():
    series = _neutral_series(5)
    timeline = score_timeline(series)
    report = build_session_report(timeline, series, "imu-csv")
    doc = emit_session_report(report, "delimited")
    lines = doc.splitlines()
    assert lines[0] == "key,value"
    assert "band,percent" in lines
    assert "time,left,right,combined" in lines
    assert "negligible,100.0 %" in lines
    # score rows: one per sample
    start = lines.index("time,left,right,combined") + 1
    rows = [ln for ln in lines[start:] if ln and "," in ln and not ln.startswith("channel")]
    assert rows[0] == "0.000,1,1,1"


def test_structured_and_delimited_values_agree():
    timeline = _timeline_with_finals([3, 3, 6, 7])
    report = build_session_report(timeline, None, "imu-csv")
    doc = json.loads(emit_session_report(report, "structured"))
    csv_doc = emit_session_report(report, "delimited")
    for band in RiskBand:
        value = doc["band_percentages"][band.value]
        assert f"{band.value},{value:.1f} %" in csv_doc


def test_empty_timeline_rejected():
    """An empty timeline cannot be built, so no report or band share is
    ever taken of one: a one-sample timeline with every score array cut to
    length 0 is refused."""
    def cut(obj):
        return {f.name: getattr(obj, f.name)[:0] for f in fields(obj)
                if isinstance(getattr(obj, f.name), np.ndarray)}

    timeline = score_timeline(_neutral_series(1))
    left, right = (replace(side, **cut(side)) for side in (timeline.left, timeline.right))
    with pytest.raises(EmptyTimeline, match="^series has no samples$"):
        replace(timeline, left=left, right=right, **cut(timeline))


def test_source_kind_is_one_csv_cell():
    """A source kind holding a comma or a quote stays one quoted cell of
    session.csv; the CLI's kinds need no quotes."""
    timeline = _timeline_with_finals([1, 3])
    for kind in ('imu, "camera"', "imu-csv", "keypoints"):
        doc = emit_session_report(build_session_report(timeline, source_kind=kind), "delimited")
        assert next(csv.reader(io.StringIO(doc.splitlines()[2]))) == ["source_kind", kind]
    assert 'source_kind,"imu, ""camera"""\n' in emit_session_report(
        build_session_report(timeline, source_kind='imu, "camera"'), "delimited")


def test_unknown_format_rejected(rng):
    session = build_session_report(_timeline_with_finals([1, 3]))
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_session_report(session, "xml")
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_comparison_report(_self_comparison(rng), "xml")


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_channel_summaries_leave_out_infinite_samples():
    """+/-inf is left out of a channel's summary like a missing sample, so
    session.json holds no Infinity or NaN and building it warns nothing (the
    RuntimeWarning gate fails the test otherwise). A channel with no finite
    sample is skipped."""
    series = _neutral_series(6)
    series = replace(series, channels={
        **series.channels,
        JointChannel.arm_flex_r: [10.0, np.inf, 20.0, math.nan, -np.inf, 30.0],
        JointChannel.elbow_flex_l: [np.inf, math.nan, -np.inf] * 2})
    report = build_session_report(score_timeline(series), series, "imu-csv")
    doc = json.loads(emit_session_report(report, "structured"), parse_constant=_not_json)
    assert doc["channel_summaries"]["arm_flex_r"] == {
        "mean": 20.0, "std_dev": 8.165, "min": 10.0, "max": 30.0}
    assert "elbow_flex_l" not in doc["channel_summaries"]
    assert len(doc["channel_summaries"]) == len(JointChannel) - 1
    rows = emit_session_report(report, "delimited").splitlines()
    assert "arm_flex_r,20.000,8.165,10.000,30.000" in rows
    assert not any(cell in ("inf", "-inf", "nan") for row in rows for cell in row.split(","))


def test_channel_summaries_leave_out_samples_beyond_max_abs_angle():
    """A library series holding 1e200 squares to inf in a standard
    deviation: such samples are left out, so session.json holds no Infinity
    and building it warns nothing."""
    series = _neutral_series(6)
    series = replace(series, channels={
        **series.channels, JointChannel.arm_flex_r: [1e200, -1e200, 0.0, 10.0, 1e7, -1e7]})
    report = build_session_report(score_timeline(series), series, "imu-csv")
    doc = json.loads(emit_session_report(report, "structured"), parse_constant=_not_json)
    assert doc["channel_summaries"]["arm_flex_r"] == {
        "mean": 5.0, "std_dev": 5.0, "min": 0.0, "max": 10.0}


# --- plot data ------------------------------------------------------------------


def test_plot_series_from_timeline_shape():
    timeline = _timeline_with_finals([1, 1, 3, 7, 6])
    files = emit_plot_series(build_session_report(timeline))
    scores = files["rula_scores.csv"].splitlines()
    assert scores[0] == "time,left,right,combined"
    assert len(scores) == 6
    bands = files["rula_bands.csv"].splitlines()
    assert bands[0] == "band,percent"
    assert len(bands) == 5


def _self_comparison(rng, n=400):
    t = np.arange(n) / 30.0
    channels = {
        ch: 15.0 * np.sin(2 * np.pi * 0.3 * t + 0.2 * i)
        for i, ch in enumerate(JointChannel)
    }
    series = JointAngleSeries(sample_rate=30.0, start_time=0.0, channels=channels)
    return compare_recordings(series, series,
                              max_lag_seconds=1.0, min_overlap_seconds=2.0)


def test_plot_series_from_self_comparison(rng):
    report = _self_comparison(rng)
    files = emit_plot_series(report)
    corr = files["comparison_correlation.csv"].splitlines()
    assert corr[0] == "correlation,record_1,mean"
    for line in corr[1:]:
        channel, run, mean = line.split(",")
        assert run == "1.000" and mean == "1.000", channel


def test_plot_series_bar_table_matches_summary(rng):
    r = _self_comparison(rng)
    summary = summarize_runs([r, r, r])
    files = emit_plot_series(summary)
    rows = files["comparison_rmse.csv"].splitlines()
    assert rows[0] == "rmse,record_1,record_2,record_3,mean"
    assert all(row.endswith("0.000,0.000,0.000,0.000") for row in rows[1:])


# --- comparison documents ----------------------------------------------------------


def _report_with_rmse(values: dict[JointChannel, float]) -> ComparisonReport:
    channels = {
        ch: ChannelComparison(rmse=(v,), correlation=(0.9,), valid_fraction=(1.0,),
                              notes=("",))
        for ch, v in values.items()
    }
    return ComparisonReport(lags=(0,), sample_rate=30.0,
                           reference_channel=JointChannel.arm_flex_r,
                           channels=channels)


def test_three_run_mean_column():
    runs = [6.872, 5.483, 5.529]
    reports = [_report_with_rmse({JointChannel.lumbar_flexion: v,
                                  JointChannel.arm_flex_r: 1.0}) for v in runs]
    summary = summarize_runs(reports)
    stats = summary.channels[JointChannel.lumbar_flexion]
    assert math.isclose(stats.rmse_mean, sum(runs) / 3.0, abs_tol=1e-9)
    doc = emit_comparison_report(summary, "delimited")
    assert "lumbar_flexion,6.872,5.483,5.529,5.961," in doc


def test_single_run_self_comparison_rows_zero(rng):
    doc = emit_comparison_report(_self_comparison(rng), "delimited")
    rmse_section = doc.split("\n\n")[0].splitlines()
    assert rmse_section[0] == "rmse,record_1,mean,note"
    for line in rmse_section[1:]:
        assert ",0.000,0.000," in line


def test_unavailable_channels_flagged_not_dropped():
    channels = {
        JointChannel.arm_flex_r: ChannelComparison(
            rmse=(1.0,), correlation=(0.8,), valid_fraction=(1.0,), notes=("",)),
        JointChannel.wrist_flex_l: ChannelComparison(
            rmse=(None,), correlation=(None,), valid_fraction=(0.2,),
            notes=("only 0.20 of the overlap valid",)),
    }
    report = ComparisonReport(lags=(0,), sample_rate=30.0,
                              reference_channel=JointChannel.arm_flex_r,
                              channels=channels)
    doc = emit_comparison_report(report, "delimited")
    assert "wrist_flex_l,,,only 0.20 of the overlap valid" in doc
    structured = json.loads(emit_comparison_report(report, "structured"))
    assert structured["channels"]["wrist_flex_l"]["rmse"]["mean"] is None
    assert structured["channels"]["wrist_flex_l"]["notes"]


def test_comparison_emissions_deterministic(rng):
    report = _self_comparison(rng)
    for fmt in ("structured", "delimited"):
        assert emit_comparison_report(report, fmt) == emit_comparison_report(report, fmt)


def test_empty_input_rejected():
    report = ComparisonReport(lags=(0,), sample_rate=30.0,
                              reference_channel=JointChannel.arm_flex_r,
                              channels={})
    with pytest.raises(EmptyInput):
        emit_comparison_report(report)
    with pytest.raises(EmptyInput):
        emit_plot_series(report)


def _session_doc(report) -> dict:
    """The structured session report as a plain dict, built element by
    element; ``json.dumps(doc, indent=2)`` of it is the reference text."""
    return {
        "kind": "session",
        "source_kind": report.source_kind,
        "sample_rate": round(report.timeline.sample_rate, 3),
        "duration": round(report.timeline.duration, 3),
        "samples": report.timeline.length,
        "config_checksum": report.timeline.config_checksum,
        "degraded_frames": int(np.count_nonzero(report.timeline.degraded)),
        "flags": report.flags,
        "band_percentages": {
            band.value: round(report.band_percentages[band], 1) for band in RiskBand
        },
        "band_shares": format_band_shares(report.band_percentages),
        "scores": {
            "time": [round(float(t), 3) for t in report.timeline.times],
            "left": [int(v) for v in report.timeline.left.final],
            "right": [int(v) for v in report.timeline.right.final],
            "combined": [int(v) for v in report.timeline.final],
        },
        "channel_summaries": {
            ch.value: {key: round(getattr(s, key), 3)
                       for key in ("mean", "std_dev", "min", "max")}
            for ch, s in report.channel_summaries.items()
        },
    }


@pytest.mark.parametrize("finals", [[6], [1, 3, 6, 7, 7, 3, 1]], ids=["one", "seven"])
@pytest.mark.parametrize("flags", [{}, {"kind": "imu-csv", "rate": None, "strict": False,
                                        "scores": [1, "a, b"], "\xe9": {"x": [0.5]},
                                        'say "a,b"': 'two\nlines, "quoted"'}],
                         ids=["no-flags", "odd-flags"])
def test_session_json_is_json_dumps_indent_2(finals, flags):
    timeline = _timeline_with_finals(finals, rate=30.0)
    series = _neutral_series(len(finals), rate=30.0)
    series = replace(series, channels={
        **series.channels, JointChannel.arm_flex_r: np.linspace(-1.0 / 3, 7.0, len(finals))})
    report = build_session_report(timeline, series, source_kind="imu-csv", flags=flags)
    assert emit_session_report(report, "structured") == \
        json.dumps(_session_doc(report), indent=2) + "\n"
    # session.csv holds each flag as two cells: a string as itself, any
    # other value as its JSON text, as session.json has it.
    rows = csv.reader(io.StringIO(emit_session_report(report, "delimited")))
    assert [row for row in rows if row and row[0].startswith("flag:")] == [
        [f"flag:{key}", value if isinstance(value, str) else json.dumps(value)]
        for key, value in sorted(flags.items())]


def test_score_rows_are_formatted_per_sample():
    timeline = _timeline_with_finals([1, 3, 6, 7], rate=3.0)
    expected = ["time,left,right,combined"] + [
        f"{t:.3f},{l},{r},{c}" for t, l, r, c in zip(
            timeline.times.tolist(), timeline.left.final.tolist(),
            timeline.right.final.tolist(), timeline.final.tolist())]
    report = build_session_report(timeline)
    assert emit_plot_series(report)["rula_scores.csv"] == "\n".join(expected) + "\n"
    report = emit_session_report(report, "delimited")
    assert "\n".join(expected) in report


def test_score_rows_peak_under_140_bytes_a_sample(rng):
    """On 100 000 samples, the rows are joined a block at a time: rendering
    them from the cached cells peaks under 140 bytes a sample (172 when
    every row's string was built at once), and gives every row across the
    block boundaries."""
    n = 100_000
    series = JointAngleSeries(sample_rate=100.0, start_time=0.0, channels={
        ch: rng.uniform(-180, 180, size=n) for ch in JointChannel})
    report = build_session_report(score_timeline(series))
    report._cells  # rendered once and shared with the other emitters
    tracemalloc.start()
    try:
        rows = report._rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 140 * n
    assert rows.split("\n") == ["time,left,right,combined"] + [
        f"{t:.3f},{l},{r},{c}" for t, l, r, c in zip(
            report.timeline.times.tolist(), report.timeline.left.final.tolist(),
            report.timeline.right.final.tolist(), report.timeline.final.tolist())]
