"""The batched geometry against the per-frame oracle in angle_oracle.py.

Random postures (jittered neutral stance under a random rigid motion and
scale per frame) include dropped landmarks, coincident hips (no ``right``
axis), zero-length segments and segments along a plane normal (a vanishing
projection). Every channel must agree within 1e-9 degrees, NaN exactly
where the oracle has no value (a NaN sample, or no key in its per-frame
dict).
"""
import numpy as np
import pytest

import angle_oracle
from ergokit.errors import NoCompleteFrames
from ergokit.geometry import (
    DEFAULT_BASELINE_WINDOW,
    compute_angle_series,
    compute_joint_angles,
    default_angle_definitions,
    neck_baseline,
)
from ergokit.motion import LANDMARK_INDEX, JointChannel, KeypointRecording, Landmark
from ergokit.synthetic import NEUTRAL_POSITIONS, posed_recording

from recordings import random_rotation

TOL_DEG = 1e-9
FPS = 30.0
WINDOW = DEFAULT_BASELINE_WINDOW

# Segments some definition uses, collapsed to zero length.
_ZERO_SEGMENTS = (
    (Landmark.elbow_r, Landmark.wrist_r),
    (Landmark.shoulder_l, Landmark.elbow_l),
    (Landmark.neck, Landmark.nose),
    (Landmark.torso, Landmark.neck),
    (Landmark.pelvis, Landmark.torso),
    (Landmark.wrist_l, Landmark.pinky_knuckle_l),
)
# (moved landmark, anchor, body axis): the segment anchor -> moved is laid
# along the axis that is the normal of a plane some channel projects onto.
_ALONG_NORMAL = (
    (Landmark.elbow_r, Landmark.shoulder_r, "right", JointChannel.arm_flex_r),
    (Landmark.nose, Landmark.neck, "up", JointChannel.T1_head_neck_AR),
    (Landmark.elbow_l, Landmark.shoulder_l, "forward", JointChannel.arm_add_l),
)
_KINDS = ("clean", "drop", "hips", "zero", "normal")


def _tiny(rng) -> np.ndarray:
    """Zero, or a vector far below EPSILON even after scaling by 10: exact
    and near-degenerate lengths take different arithmetic to NaN."""
    v = rng.normal(size=3)
    return v * (rng.choice([0.0, 1e-11]) / np.linalg.norm(v))


def _posture(rng, kind: str, along: int | None = None) -> dict:
    positions = {lm: p + rng.uniform(-0.08, 0.08, size=3)
                 for lm, p in NEUTRAL_POSITIONS.items()}
    if kind == "drop":
        for k in rng.choice(len(Landmark), size=rng.integers(1, 4), replace=False):
            positions.pop(list(Landmark)[k], None)
    elif kind == "hips":
        positions[Landmark.hip_r] = positions[Landmark.hip_l] + _tiny(rng)
    elif kind == "zero":
        p0, p1 = _ZERO_SEGMENTS[rng.integers(len(_ZERO_SEGMENTS))]
        positions[p1] = positions[p0] + _tiny(rng)
    elif kind == "normal":
        if along is None:
            along = rng.integers(len(_ALONG_NORMAL))
        moved, anchor, axis, _ = _ALONG_NORMAL[along]
        axes = angle_oracle.body_axes(angle_oracle.Frame(timestamp=0.0, positions=positions))
        positions[moved] = positions[anchor] + 0.3 * axes.named(axis)
    return positions


def _moved(rng, positions: dict) -> dict:
    R = random_rotation(rng)
    t = rng.normal(scale=10.0, size=3)
    s = float(rng.uniform(0.1, 10.0))
    return {lm: s * (R @ p) + t for lm, p in positions.items()}


def _stacked(postures: list[dict]) -> KeypointRecording:
    """A recording at FPS of postures, each landmark it lacks a NaN row."""
    positions = np.full((len(postures), len(LANDMARK_INDEX), 3), np.nan)
    for i, posture in enumerate(postures):
        for lm, p in posture.items():
            positions[i, LANDMARK_INDEX[lm]] = p
    return KeypointRecording(times=np.arange(len(postures)) / FPS, positions=positions)


def _recording(rng, n_frames: int) -> KeypointRecording:
    """Degenerate geometry stays out of the baseline window, where the
    oracle raises; dropped landmarks and coincident hips only make a
    window frame incomplete."""
    postures = []
    for i in range(n_frames):
        kinds = _KINDS[:3] if i < WINDOW else _KINDS
        kind = kinds[rng.integers(len(kinds))]
        postures.append(_moved(rng, _posture(rng, kind)))
    return _stacked(postures)


def _frame(recording: KeypointRecording, i: int) -> KeypointRecording:
    return KeypointRecording(times=recording.times[i:i + 1],
                             positions=recording.positions[i:i + 1])


def _assert_same(ours: dict, oracle: dict):
    assert set(ours) == set(oracle)
    for ch in oracle:
        a, b = np.asarray(ours[ch]), np.asarray(oracle[ch])
        assert np.array_equal(np.isnan(a), np.isnan(b)), ch
        valid = ~np.isnan(b)
        if valid.any():
            assert np.max(np.abs(a[valid] - b[valid])) <= TOL_DEG, ch


def _assert_frame_same(ours: dict, oracle: dict):
    """One frame's (1,) columns against the oracle's dict: NaN exactly
    where the oracle has no key, within TOL_DEG elsewhere."""
    assert list(ours) == [d.channel for d in default_angle_definitions()]
    _assert_same(ours, {ch: [oracle.get(ch, np.nan)] for ch in ours})


@pytest.mark.parametrize("seed", range(5))
def test_batched_series_equals_per_frame_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    recording = _recording(rng, 120)
    expected = angle_oracle.compute_angle_series(angle_oracle.frames_of(recording))
    series = compute_angle_series(recording)
    assert series.sample_rate == expected.sample_rate
    assert series.start_time == expected.start_time
    _assert_same(series.channels, expected.channels)
    # Every kind of degenerate frame does occur, and blanks some channel.
    missing = np.stack([np.isnan(v) for v in expected.channels.values()])
    assert missing.any() and not missing.all()


@pytest.mark.parametrize("along", range(len(_ALONG_NORMAL)))
def test_vanishing_projection_is_missing_like_oracle(along):
    rng = np.random.default_rng(along)
    frame = _stacked([_moved(rng, _posture(rng, "normal", along))])
    ours = compute_joint_angles(frame)
    expected = angle_oracle.compute_joint_angles(angle_oracle.frames_of(frame)[0])
    channel = _ALONG_NORMAL[along][3]
    assert channel not in expected and np.isnan(ours[channel][0])
    _assert_frame_same(ours, expected)


def test_baseline_equals_oracle():
    rng = np.random.default_rng(7)
    recording = _recording(rng, WINDOW)
    ours = neck_baseline(recording)
    expected = angle_oracle.neck_baseline(angle_oracle.frames_of(recording), window=WINDOW)
    assert abs(ours.inclinations[JointChannel.T1_head_neck_FE] - expected.inclinations[JointChannel.T1_head_neck_FE]) <= TOL_DEG
    for name in ("up", "right", "forward"):
        assert np.max(np.abs(getattr(ours.axes, name) - getattr(expected.axes, name))) < 1e-12
    assert set(ours.directions) == set(expected.directions)
    for ch, direction in expected.directions.items():
        assert np.max(np.abs(ours.directions[ch] - direction)) < 1e-12


def test_single_frames_equal_oracle():
    rng = np.random.default_rng(8)
    recording = _recording(rng, 60)
    frames = angle_oracle.frames_of(recording)
    baseline = angle_oracle.neck_baseline(frames)
    for i, frame in enumerate(frames):
        for b in (None, baseline):
            ours = compute_joint_angles(_frame(recording, i), baseline=b)
            expected = angle_oracle.compute_joint_angles(frame, baseline=b)
            _assert_frame_same(ours, expected)


def _nose_on_neck(recording: KeypointRecording, frames) -> KeypointRecording:
    nose, neck = LANDMARK_INDEX[Landmark.nose], LANDMARK_INDEX[Landmark.neck]
    recording.positions[frames, nose] = recording.positions[frames, neck]
    return recording


def test_all_degenerate_baseline_window_raises():
    recording = _nose_on_neck(posed_recording(np.arange(20) / FPS), slice(0, WINDOW))
    with pytest.raises((angle_oracle.DegenerateVector, angle_oracle.DegenerateProjection)):
        angle_oracle.neck_baseline(angle_oracle.frames_of(recording))
    with pytest.raises(NoCompleteFrames):
        neck_baseline(recording)


def test_degenerate_baseline_frame_is_skipped():
    rng = np.random.default_rng(9)
    recording = _stacked([_moved(rng, _posture(rng, "clean")) for _ in range(WINDOW)])
    expected = neck_baseline(KeypointRecording(times=np.delete(recording.times, 4),
                                               positions=np.delete(recording.positions, 4, 0)))
    ours = neck_baseline(_nose_on_neck(recording, 4))
    assert ours.inclinations[JointChannel.T1_head_neck_FE] == expected.inclinations[JointChannel.T1_head_neck_FE]
    assert ours.inclinations == expected.inclinations
    for name in ("up", "right", "forward"):
        assert np.array_equal(getattr(ours.axes, name), getattr(expected.axes, name))
    assert set(ours.directions) == set(expected.directions)
    for ch, direction in expected.directions.items():
        assert np.array_equal(ours.directions[ch], direction)
