import math
import warnings

import numpy as np
import pytest

from ergokit.errors import (
    EmptyChannel,
    InvalidForceValue,
    InvertedInterval,
    OverlappingIntervals,
    UnknownChannel,
)
from ergokit.motion import (
    AnnotationInterval,
    AnnotationTrack,
    JointAngleSeries,
    JointChannel,
    MAX_ABS_ANGLE,
    Side,
    channel_side,
    channel_summary,
)

# Channel labels as exported in the comparison statistics tables.
EXPECTED_CHANNELS = [
    "T1_head_neck_FE", "T1_head_neck_AR", "T1_head_neck_LB",
    "lumbar_flexion", "lumbar_rotation", "lumbar_bending",
    "arm_flex_l", "arm_flex_r", "arm_add_l", "arm_add_r",
    "arm_rot_l", "arm_rot_r", "elbow_flex_l", "elbow_flex_r",
    "pro_sup_l", "pro_sup_r", "wrist_flex_l", "wrist_flex_r",
    "wrist_dev_l", "wrist_dev_r",
]


def test_channel_set_is_closed_and_exhaustive():
    assert sorted(ch.value for ch in JointChannel) == sorted(EXPECTED_CHANNELS)
    assert len(JointChannel) == 20


def test_channel_side():
    assert channel_side(JointChannel.arm_flex_r) == Side.right
    assert channel_side(JointChannel.pro_sup_l) == Side.left
    assert channel_side(JointChannel.lumbar_flexion) is None


def test_every_channel_is_sided_or_axial():
    sided = [ch for ch in JointChannel if channel_side(ch) is not None]
    axial = [ch for ch in JointChannel if channel_side(ch) is None]
    assert len(sided) == 14
    assert {ch.value for ch in axial} == {
        "T1_head_neck_FE", "T1_head_neck_AR", "T1_head_neck_LB",
        "lumbar_flexion", "lumbar_rotation", "lumbar_bending",
    }


def _series(values, rate=100.0):
    return JointAngleSeries(
        sample_rate=rate, start_time=0.0,
        channels={JointChannel.arm_flex_r: np.asarray(values, dtype=float)},
    )


def test_channel_summary_constant():
    s = channel_summary(_series([30.0] * 5), JointChannel.arm_flex_r)
    assert (s.mean, s.std_dev, s.min, s.max) == (30.0, 0.0, 30.0, 30.0)


def test_channel_summary_two_point_population_std():
    s = channel_summary(_series([0.0, 10.0]), JointChannel.arm_flex_r)
    assert s.mean == 5.0
    assert s.std_dev == 5.0  # population, not sample
    assert (s.min, s.max) == (0.0, 10.0)


def test_channel_summary_sine_oracle():
    # 1 Hz sine, 20 deg amplitude, 10 s at 100 Hz.
    t = np.arange(1000) / 100.0
    s = channel_summary(_series(20.0 * np.sin(2 * np.pi * t)), JointChannel.arm_flex_r)
    assert abs(s.mean) < 0.01
    assert abs(s.max - 20.0) < 0.01
    assert abs(s.min + 20.0) < 0.01


def test_channel_summary_ignores_missing():
    s = channel_summary(_series([1.0, math.nan, 3.0]), JointChannel.arm_flex_r)
    assert s.mean == 2.0


def test_channel_summary_ignores_infinite():
    s = channel_summary(_series([1.0, math.inf, 3.0, -math.inf]), JointChannel.arm_flex_r)
    assert (s.mean, s.std_dev, s.min, s.max) == (2.0, 1.0, 1.0, 3.0)


def test_channel_summary_leaves_out_samples_beyond_max_abs_angle():
    """Squares of samples near 1e200 overflow; like the CSV reader, the
    summary takes them for missing. +/-MAX_ABS_ANGLE itself is a sample."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = channel_summary(_series([1e200, -1e200, 0.0]), JointChannel.arm_flex_r)
        edge = channel_summary(_series([-MAX_ABS_ANGLE, 1e7, MAX_ABS_ANGLE]),
                               JointChannel.arm_flex_r)
    assert (s.mean, s.std_dev, s.min, s.max) == (0.0, 0.0, 0.0, 0.0)
    assert (edge.mean, edge.std_dev, edge.min, edge.max) == (0.0, 1e6, -1e6, 1e6)
    with pytest.raises(EmptyChannel):
        channel_summary(_series([1e200, -1e7]), JointChannel.arm_flex_r)


def test_channel_summary_errors():
    with pytest.raises(UnknownChannel):
        channel_summary(_series([1.0]), JointChannel.arm_flex_l)
    with pytest.raises(EmptyChannel):
        channel_summary(_series([math.nan, math.nan]), JointChannel.arm_flex_r)
    with pytest.raises(EmptyChannel):
        channel_summary(_series([math.inf, math.nan, -math.inf]), JointChannel.arm_flex_r)


def test_channel_summary_mean_within_extrema(rng):
    for _ in range(50):
        values = rng.normal(scale=40.0, size=rng.integers(1, 200))
        s = channel_summary(_series(values), JointChannel.arm_flex_r)
        assert s.min <= s.mean <= s.max


def test_series_validation():
    with pytest.raises(ValueError):
        JointAngleSeries(sample_rate=0.0, start_time=0.0, channels={})
    with pytest.raises(ValueError):
        JointAngleSeries(
            sample_rate=100.0, start_time=0.0,
            channels={
                JointChannel.arm_flex_r: np.zeros(3),
                JointChannel.arm_flex_l: np.zeros(4),
            },
        )


def test_series_duration():
    series = _series(np.zeros(300))
    assert series.duration == 2.99


def test_annotation_track_validation():
    track = AnnotationTrack.from_intervals(
        [AnnotationInterval(t0=0.0, t1=10.0, arm_force=2)]
    )
    assert len(track.intervals) == 1
    with pytest.raises(OverlappingIntervals):
        AnnotationTrack.from_intervals([
            AnnotationInterval(t0=0.0, t1=5.0),
            AnnotationInterval(t0=4.0, t1=8.0),
        ])
    with pytest.raises(InvalidForceValue):
        AnnotationInterval(t0=0.0, t1=1.0, arm_force=5)
    with pytest.raises(InvalidForceValue):
        AnnotationInterval(t0=0.0, t1=1.0, legs=3)
    with pytest.raises(InvertedInterval):
        AnnotationInterval(t0=2.0, t1=1.0)


def test_annotation_flags_lookup():
    track = AnnotationTrack.from_intervals([
        AnnotationInterval(t0=1.0, t1=2.0, arm_force=3, legs=2),
    ])
    assert track.flags_for([1.5]).arm_force.tolist() == [3]
    assert track.flags_for([1.5]).legs.tolist() == [2]
    assert track.flags_for([2.0]).arm_force.tolist() == [0]  # intervals are [t0, t1)
    assert track.flags_for([0.0]).legs.tolist() == [1]


def test_touching_intervals_allowed():
    track = AnnotationTrack.from_intervals([
        AnnotationInterval(t0=5.0, t1=8.0, neck_force=1),
        AnnotationInterval(t0=0.0, t1=5.0, arm_force=1),
    ])
    assert [iv.t0 for iv in track.intervals] == [0.0, 5.0]
    assert track.flags_for([5.0]).neck_force.tolist() == [1]


def test_track_constructor_rejects_unsorted_or_overlapping():
    # The lookup searches the interval starts, so every track must hold
    # sorted, disjoint intervals, not just those built by from_intervals.
    early = AnnotationInterval(t0=0.0, t1=5.0, arm_force=1)
    late = AnnotationInterval(t0=5.0, t1=8.0, neck_force=1)
    assert AnnotationTrack((early, late)).flags_for([5.0]).neck_force.tolist() == [1]
    with pytest.raises(OverlappingIntervals):
        AnnotationTrack((late, early))
    with pytest.raises(OverlappingIntervals):
        AnnotationTrack((early, AnnotationInterval(t0=4.0, t1=6.0)))
