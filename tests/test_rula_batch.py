"""The batch RULA scorer against the per-frame oracle in ``rula_oracle``.

Inputs are drawn to hit the edges of the batch path: angles exactly on
interval starts and position thresholds, NaN and +/-inf, absent channels,
annotation tracks with touching intervals and samples exactly at t0/t1,
and random configs that pass ``validate_rula_config`` (moved interval
starts and scores, thresholds, predicates, adjusts, table cells and band
cut points).
"""
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rula_oracle
from ergokit.errors import IncompleteFrame
from ergokit.ingest import read_config_json
from ergokit.motion import (
    AnnotationFlags,
    AnnotationInterval,
    AnnotationTrack,
    JointAngleSeries,
    JointChannel,
)
from ergokit.rula import (
    RiskBand,
    SideTimeline,
    config_from_dict,
    score_frame,
    score_timeline,
    validate_rula_config,
)

RATE = 10.0
SHARED_FIELDS = ("neck", "trunk", "legs", "table_b_score", "score_d", "final", "degraded")
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def configs(draw):
    raw = read_config_json(None)
    half_degrees = st.integers(-360, 360).map(lambda x: x / 2)
    for rule in raw["range"].values():
        starts = sorted(draw(st.sets(half_degrees, max_size=4)))
        bounds = [None] + starts + [None]
        rule["intervals"] = [[lo, hi, draw(st.integers(1, 7))]
                             for lo, hi in zip(bounds, bounds[1:])]
    for rule in raw["position"]:
        rule["threshold"] = draw(half_degrees)
        rule["predicate"] = draw(st.sampled_from(["above", "below", "outside"]))
        rule["adjust"] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    for name, top in (("table_a", 9), ("table_b", 9), ("table_c", 7)):
        cells = np.array(raw[name])
        flat = cells.reshape(-1)
        for i, value in draw(st.lists(st.tuples(st.integers(0, flat.size - 1),
                                                st.integers(1, top)), max_size=10)):
            flat[i] = value
        raw[name] = cells.tolist()
    cuts = sorted(draw(st.sets(st.integers(2, 7), min_size=3, max_size=3)))
    raw["bands"] = {band.value: [lo, hi] for band, lo, hi
                    in zip(RiskBand, [1] + cuts, [c - 1 for c in cuts] + [7])}
    assert validate_rula_config(raw) == []
    return config_from_dict(raw)


def _special_angles(config) -> list[float]:
    """Interval starts, thresholds and their negatives, zero, NaN and +/-inf."""
    values = {0.0, math.nan, math.inf, -math.inf}
    for rule in config.range_rules.values():
        values.update(lo for lo, _, _ in rule.intervals[1:])
    for rule in config.position_rules:
        values.update((rule.threshold, -rule.threshold))
    return sorted(values, key=repr)


def _angles(config):
    return st.one_of(st.sampled_from(_special_angles(config)),
                     st.floats(-400.0, 400.0))


@st.composite
def tracks(draw, n: int, start: float):
    """Intervals on half-sample bounds, some touching, some at sample times."""
    bounds = sorted(draw(st.sets(st.integers(-2, 2 * n + 2), min_size=2, max_size=8)))
    intervals = []
    for lo, hi in zip(bounds, bounds[1:]):
        if draw(st.booleans()):
            intervals.append(AnnotationInterval(
                t0=start + lo / (2 * RATE), t1=start + hi / (2 * RATE),
                arm_muscle=draw(st.integers(0, 1)), arm_force=draw(st.integers(0, 3)),
                neck_muscle=draw(st.integers(0, 1)), neck_force=draw(st.integers(0, 3)),
                legs=draw(st.integers(1, 2)),
            ))
    return AnnotationTrack.from_intervals(intervals)


@st.composite
def cases(draw):
    config = draw(configs())
    n = draw(st.integers(1, 25))
    start = draw(st.sampled_from([0.0, 2.5, 1000.0 / 3]))
    absent = draw(st.sets(st.sampled_from(list(JointChannel)), max_size=4))
    # Half the angles are special values, half uniform; drawn from a seeded
    # generator because 500 separate draws make each example slow.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = np.array(_special_angles(config))
    channels = {ch: np.where(rng.random(n) < 0.5, rng.choice(special, n),
                             rng.uniform(-400.0, 400.0, n))
                for ch in JointChannel if ch not in absent}
    series = JointAngleSeries(sample_rate=RATE, start_time=start, channels=channels)
    return config, series, draw(tracks(n, start))


def _assert_equals_oracle(timeline, frames):
    """Every per-side, per-joint and shared score, the band and the degraded
    mask of ``timeline`` equal those of the oracle's ``frames``, sample by
    sample."""
    assert timeline.length == len(frames)
    for name in SHARED_FIELDS:
        assert getattr(timeline, name).tolist() == [getattr(f, name) for f in frames], name
    assert timeline.band.tolist() == [list(RiskBand).index(f.band) for f in frames]
    for side in ("left", "right"):
        for f in fields(SideTimeline):
            got = getattr(getattr(timeline, side), f.name).tolist()
            assert got == [getattr(getattr(fr, side), f.name) for fr in frames], (side, f.name)


@PROPERTY
@given(cases())
def test_timeline_equals_oracle(case):
    """Every per-side, per-joint and shared score, the band and the degraded
    mask equal the oracle's for every sample, and so do the annotation
    flags at every sample time, interval bound and NaN."""
    config, series, track = case
    _assert_equals_oracle(score_timeline(series, track, config),
                          rula_oracle.score_timeline(series, track, config))
    times = list(series.times) + [iv.t0 for iv in track.intervals] + \
        [iv.t1 for iv in track.intervals] + [math.nan]
    for t in times:
        assert track.flags_at(t) == rula_oracle.flags_at(track, t), t


@PROPERTY
@given(cases())
def test_strict_raises_like_oracle(case):
    """Strict mode raises exactly when the oracle does, naming the same
    channel and joint and the first sample that lacks it."""
    config, series, track = case
    expected = None
    for i, t in enumerate(series.times):
        angles = {ch: float(values[i]) for ch, values in series.channels.items()}
        try:
            rula_oracle.score_frame(angles, rula_oracle.flags_at(track, float(t)),
                                    config, strict=True)
        except IncompleteFrame as exc:
            expected = f"{exc} at sample {i}"
            break
    if expected is None:
        score_timeline(series, track, config, strict=True)
    else:
        with pytest.raises(IncompleteFrame) as raised:
            score_timeline(series, track, config, strict=True)
        assert str(raised.value) == expected


@PROPERTY
@given(st.data())
def test_score_frame_equals_oracle(data):
    """score_frame, the N=1 case, is a one-sample timeline equal to the
    oracle's frame, on one frame with flags outside the annotation ranges
    (score C and D then leave 1..9) and None angles."""
    config = data.draw(configs())
    angle = st.one_of(_angles(config), st.none())
    absent = data.draw(st.sets(st.sampled_from(list(JointChannel)), max_size=4))
    angles = {ch: data.draw(angle) for ch in JointChannel if ch not in absent}
    flags = AnnotationFlags(**{f: data.draw(st.integers(-3, 8))
                               for f in ("arm_muscle", "arm_force", "neck_muscle",
                                         "neck_force", "legs")})
    timeline = score_frame(angles, flags, config)
    assert (timeline.sample_rate, timeline.start_time) == (1.0, 0.0)
    _assert_equals_oracle(timeline, [rula_oracle.score_frame(angles, flags, config)])
    try:
        rula_oracle.score_frame(angles, flags, config, strict=True)
    except IncompleteFrame as exc:
        with pytest.raises(IncompleteFrame, match=f"^{re.escape(str(exc))} at sample 0$"):
            score_frame(angles, flags, config, strict=True)
    else:
        score_frame(angles, flags, config, strict=True)


@pytest.mark.parametrize("value", [-6, 12])
def test_score_frame_flags_beyond_table_c(value):
    """Scores C and D below 1 or above 9 are clamped for the Table C lookup
    only, and legs outside 1..2 for Table B."""
    angles = {ch: 0.0 for ch in JointChannel}
    flags = AnnotationFlags(value, value, value, value, value)
    _assert_equals_oracle(score_frame(angles, flags), [rula_oracle.score_frame(angles, flags)])
