"""The session and comparison emitters against the oracle in ``emit_oracle``.

A ``SessionReport`` renders its per-sample text once and every emitter
reuses it; the oracle formats every sample on every call. ``session.json``,
``session.csv``, ``rula_scores.csv`` and ``rula_bands.csv`` must equal the
oracle's byte for byte over random timelines: lengths from one sample,
irrational and extreme rates, start times that are negative, just below
zero, large, and at or past 1e12 s (where the JSON times take json's own
rendering), odd flags, and score arrays of any integers.

One ``ComparisonReport`` holds any number of runs; the oracle kept a one-run
report and a multi-run summary. ``comparison.json``, ``comparison.csv`` and
both bar tables must equal the oracle's byte for byte over 1-4 random runs
built from the same primitives, and ``ChannelSetMismatch`` and
``EmptyInput`` must be raised exactly where the oracle raises them.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import emit_oracle
from ergokit.compare import ChannelComparison, ComparisonReport, summarize_runs
from ergokit.errors import ChannelSetMismatch, EmptyInput, EmptyTimeline
from ergokit.motion import JointAngleSeries, JointChannel
from ergokit.reporting import (
    build_session_report,
    emit_comparison_report,
    emit_plot_series,
    emit_session_report,
)
from ergokit.rula import RulaTimeline, SideTimeline, default_config

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

ODD_FLAGS = {"kind": "imu-csv", "rate": None, "strict": False,
             "scores": [1, "a, b"], "\xe9": {"x": [0.5]}, 'say "a,b"': 'two\nlines, "quoted"'}
RATES = (st.sampled_from([math.pi * 7, 29.97, 1 / 3, 1000.0, 100.0, 30.0])
         | st.floats(1 / 3, 1000.0))
STARTS = st.sampled_from([0.0, -0.0, -0.0004, -37.2565, 1.2e6, 9.99e11, -9.99e11,
                          1e12, -1e12, 3.7e15, 1e16, 2.5e17]) | st.floats(-1e12, 1e12)
SCORES = st.sampled_from([(1, 7), (1, 7), (-2, 12), (-(10**12), 10**12)])


def _timeline(n, rate, start, lo, hi, seed) -> RulaTimeline:
    """A timeline of random scores; only the fields a report reads matter."""
    rng = np.random.default_rng(seed)
    left, right = rng.integers(lo, hi, size=(2, n), endpoint=True)
    sides = [SideTimeline(*[final] * 7) for final in (left, right)]
    combined = np.maximum(left, right)
    return RulaTimeline(sample_rate=rate, start_time=start, left=sides[0], right=sides[1],
                        neck=combined, trunk=combined, legs=combined, table_b_score=combined,
                        score_d=combined, final=combined, band=rng.integers(0, 4, n),
                        degraded=rng.random(n) < 0.3)


def _series(n, rate, start, seed) -> JointAngleSeries:
    rng = np.random.default_rng(seed)
    values = rng.normal(20.0, 30.0, n)
    values[rng.random(n) < 0.2] = np.nan
    return JointAngleSeries(sample_rate=rate, start_time=start,
                            channels={JointChannel.arm_flex_r: values,
                                      JointChannel.lumbar_flexion: -values / 3})


def _assert_same(actual: str, expected: str) -> None:
    """Byte identity, naming the first differing line on failure. (pytest's
    own diff of two long texts is slow, and hypothesis shrinks through it.)"""
    if actual != expected:
        pairs = zip(actual.split("\n"), expected.split("\n"))
        first = next(((i, a, e) for i, (a, e) in enumerate(pairs) if a != e), "a prefix")
        pytest.fail(f"first difference (line, actual, expected): {first!r}")


def _assert_equals_oracle(timeline, series, flags):
    report = build_session_report(timeline, series, source_kind="imu-csv",
                                  config=default_config(), flags=flags)
    expected_plots = emit_oracle.emit_plot_series_oracle(timeline)
    # Plot files first, then both documents: the shared text may be
    # rendered by any emitter.
    for plots in (emit_plot_series(report), emit_plot_series(timeline)):
        assert list(plots) == list(expected_plots)
        for name, text in plots.items():
            _assert_same(text, expected_plots[name])
    _assert_same(emit_session_report(report, "delimited"), emit_oracle._session_csv(report))
    _assert_same(emit_session_report(report, "structured"), emit_oracle._session_json(report))


@PROPERTY
@given(n=st.integers(1, 400), rate=RATES, start=STARTS, scores=SCORES,
       seed=st.integers(0, 2**32 - 1), with_series=st.booleans(),
       flags=st.sampled_from([{}, ODD_FLAGS]))
@example(n=1, rate=1.0, start=1e12, scores=(1, 7), seed=0, with_series=False, flags={})
@example(n=5, rate=1 / 3, start=-0.0004, scores=(1, 7), seed=1, with_series=True,
         flags=ODD_FLAGS)
def test_session_emitters_equal_oracle(n, rate, start, scores, seed, with_series, flags):
    timeline = _timeline(n, rate, start, *scores, seed)
    series = _series(n, rate, start, seed) if with_series else None
    _assert_equals_oracle(timeline, series, flags)


@pytest.mark.parametrize("start", [1e12 - 0.0004, 1e12, 1e16, -1e16, math.nan, math.inf],
                         ids=["below-1e12", "1e12", "1e16", "-1e16", "nan", "inf"])
def test_times_at_and_past_1e12_equal_oracle(start):
    """At and past 1e12 s, and for non-finite times, the JSON times are
    json's rendering of round(t, 3), as the oracle's."""
    _assert_equals_oracle(_timeline(7, 1000.0, start, 1, 7, 3), None, ODD_FLAGS)


def test_hour_long_session_equals_oracle():
    """360 000 samples at 100 Hz, as a one-hour IMU recording gives."""
    _assert_equals_oracle(_timeline(360_000, 100.0, 0.0, 1, 7, 4), None, {})


def test_shared_text_is_rendered_once():
    report = build_session_report(_timeline(50, 30.0, 0.0, 1, 7, 5))
    emit_session_report(report, "structured")
    rows = report._rows
    emit_session_report(report, "delimited")
    assert emit_plot_series(report)["rula_scores.csv"] == rows + "\n"
    assert report._rows is rows


def test_plot_series_of_an_empty_timeline_is_rejected():
    with pytest.raises(EmptyTimeline):
        emit_plot_series(_timeline(0, 30.0, 0.0, 1, 7, 6))


# --- comparison reports -------------------------------------------------------------

NOTES = ["", "", "", "zero variance", "only 0.20 of the overlap valid",
         "missing in second recording", 'odd, "note"']
SPECIAL_RMSES = [0.0, 0.0005, 0.0015, 2.675, 6.872]
SPECIAL_CORRELATIONS = [-1.0, -0.0, 0.0005, 0.9995, 1.0]


def _metric(rng, special, lo, hi):
    """None, a value where rounding to 3 decimals is delicate, or a random
    value in [lo, hi] at a random scale."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return None
    if kind == 1:
        return special[rng.integers(0, len(special))]
    return float(rng.uniform(lo, hi) * 10.0 ** rng.uniform(-5.0, 0.0))


@st.composite
def comparison_runs(draw):
    """1-4 runs of ``(lag, [(channel, rmse, r, valid fraction, note), ...])``,
    each run's channels in its own shuffled order. A later run may cover
    another channel set, and a run may cover none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    every = list(JointChannel)
    channels = [every[k] for k in rng.permutation(len(every))[:draw(st.integers(0, 20))]]
    runs = []
    for i in range(draw(st.integers(1, 4))):
        covered = list(channels)
        if i and rng.integers(0, 6) == 0:
            others = [ch for ch in every if ch not in covered]
            if covered and (not others or rng.integers(0, 2)):
                covered.pop(rng.integers(0, len(covered)))
            else:
                covered.append(others[rng.integers(0, len(others))])
        rows = [(covered[k], _metric(rng, SPECIAL_RMSES, 0.0, 1e7),
                 _metric(rng, SPECIAL_CORRELATIONS, -1.0, 1.0), float(rng.random()),
                 NOTES[rng.integers(0, len(NOTES))])
                for k in rng.permutation(len(covered))]
        runs.append((int(rng.integers(-10**6, 10**6, endpoint=True)), rows))
    return runs


def _comparison_outputs(runs, rate, reference, old):
    """Every comparison output of ``runs``, through the old types and
    emitters or the new ones; for one run, of the unjoined report too. No
    runs at all, like runs over different channel sets, are an error."""
    if old:
        reports = [emit_oracle.OldComparisonReport(
            lag=lag, sample_rate=rate, reference_channel=reference,
            channels={ch: emit_oracle.OldChannelComparison(v, r, f, n)
                      for ch, v, r, f, n in rows}) for lag, rows in runs]
        summarize, emit = emit_oracle.summarize_runs, emit_oracle.emit_comparison_report
        plots = emit_oracle.emit_plot_series_oracle
    else:
        reports = [ComparisonReport(
            lags=(lag,), sample_rate=rate, reference_channel=reference,
            channels={ch: ChannelComparison((v,), (r,), (f,), (n,)) for ch, v, r, f, n in rows})
            for lag, rows in runs]
        summarize, emit, plots = summarize_runs, emit_comparison_report, emit_plot_series
    texts = []
    try:
        for report in [summarize(reports)] + (reports if len(reports) == 1 else []):
            texts += [emit(report, "structured"), emit(report, "delimited")]
            texts += list(plots(report).items())
    except (ChannelSetMismatch, EmptyInput) as exc:
        return type(exc)
    return texts


@PROPERTY
@given(runs=comparison_runs(), rate=st.sampled_from([30.0, 29.97, 100.0, 1 / 3, math.pi * 7]),
       reference=st.sampled_from(list(JointChannel)))
@example(runs=[(12, [(JointChannel.wrist_flex_l, None, None, 0.2, ""),
                     (JointChannel.arm_flex_r, 1.5, 0.9, 1.0, "")]),
               (-7, [(JointChannel.arm_flex_r, 2.25, None, 1.0, "zero variance"),
                     (JointChannel.wrist_flex_l, None, None, 0.1, "only 0.10 of the overlap valid")])],
         rate=30.0, reference=JointChannel.arm_flex_r)
@example(runs=[(-3, [(JointChannel.lumbar_flexion, 6.872, -0.5, 1.0, ""),
                     (JointChannel.T1_head_neck_FE, 5.483, 0.25, 1.0, "")])],
         rate=100.0, reference=JointChannel.elbow_flex_r)
@example(runs=[(1, []), (-2, [])], rate=30.0, reference=JointChannel.arm_flex_r)
@example(runs=[], rate=30.0, reference=JointChannel.arm_flex_r)
def test_comparison_emitters_equal_oracle(runs, rate, reference):
    expected = _comparison_outputs(runs, rate, reference, old=True)
    actual = _comparison_outputs(runs, rate, reference, old=False)
    if isinstance(expected, type):
        assert actual is expected
        return
    assert isinstance(actual, list) and len(actual) == len(expected)
    for got, want in zip(actual, expected):
        if isinstance(want, tuple):  # a (file name, text) pair of the plot files
            assert got[0] == want[0]
            got, want = got[1], want[1]
        _assert_same(got, want)
