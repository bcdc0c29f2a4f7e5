import math
from importlib import resources

import numpy as np
import pytest

from ergokit.errors import IrregularTimestamps, NoCompleteFrames
from ergokit.geometry import (
    _plane_angles,
    _vector_angles,
    compute_angle_series,
    compute_joint_angles,
    default_angle_definitions,
    load_angle_definitions,
    neck_baseline,
)
from ergokit.motion import LANDMARK_INDEX, JointChannel, KeypointRecording, Landmark, vec3
from ergokit.synthetic import NEUTRAL_POSITIONS, posed_recording

from recordings import elbow_flexion_recording, random_rotation, transform_recording


def _neutral(n_frames: int = 1) -> KeypointRecording:
    return posed_recording(np.arange(n_frames) / 30)


def _with(points: dict, t: float = 0.0) -> KeypointRecording:
    """The neutral posture at time t, each given landmark moved to its
    point, or absent (a NaN row) for None."""
    recording = posed_recording([t])
    for lm, p in points.items():
        recording.positions[0, LANDMARK_INDEX[lm]] = np.nan if p is None else p
    return recording


def test_vector_angle_known_cases():
    assert _vector_angles(vec3(1, 0, 0), vec3(1, 0, 0)) == 0.0
    assert _vector_angles(vec3(1, 0, 0), vec3(0, 1, 0)) == 90.0
    assert _vector_angles(vec3(1, 0, 0), vec3(-1, 0, 0)) == 180.0
    assert abs(_vector_angles(vec3(1, 0, 0), vec3(1, 1, 0)) - 45.0) < 1e-9


def test_vector_angle_symmetry(rng):
    a, b = rng.normal(size=(2, 50, 3))
    assert np.array_equal(_vector_angles(a, b), _vector_angles(b, a))


def test_vector_angle_degenerate():
    assert np.isnan(_vector_angles(vec3(0, 0, 0), vec3(1, 0, 0)))
    assert np.isnan(_vector_angles(vec3(1, 0, 0), vec3(0, 0, 1e-10)))


def test_vector_angle_stable_near_parallel():
    # Parallel vectors must not pick up arccos-style rounding noise.
    a = vec3(0.1, 0.2, 0.3)
    assert _vector_angles(a, 7.0 * a) < 1e-9
    assert abs(_vector_angles(a, -3.0 * a) - 180.0) < 1e-9


def test_signed_plane_angle_known_cases():
    n = vec3(0, 0, 1)
    assert _plane_angles(vec3(1, 0, 0), vec3(0, 1, 0), n) == 90.0
    assert _plane_angles(vec3(1, 0, 0), vec3(0, -1, 0), n) == -90.0
    assert _plane_angles(vec3(1, 0, 0), vec3(1, 0, 0), n) == 0.0
    assert _plane_angles(vec3(1, 0, 0), vec3(-1, 0, 0), n) == 180.0


def test_signed_plane_angle_antisymmetry(rng):
    n = vec3(0, 0, 1)
    u, v = rng.normal(size=(2, 50, 3))
    forward, backward = _plane_angles(u, v, n), _plane_angles(v, u, n)
    assert not np.isnan(forward).any()
    keep = np.abs(forward) != 180.0
    assert np.allclose(forward[keep], -backward[keep], rtol=0.0, atol=1e-12)


def test_signed_plane_angle_degenerate_projection():
    # A projection onto the plane, and the plane normal itself, too short.
    assert np.isnan(_plane_angles(vec3(0, 0, 1), vec3(1, 0, 0), vec3(0, 0, 1)))
    assert np.isnan(_plane_angles(vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 0)))


def test_body_axes_neutral():
    axes = neck_baseline(_neutral()).axes
    assert np.allclose(axes.up, [0, 0, 1])
    assert np.allclose(axes.right, [0, -1, 0])
    assert np.allclose(axes.forward, [1, 0, 0])


# --- baseline ------------------------------------------------------------------


def test_neck_baseline_constant_posture():
    baseline = neck_baseline(_neutral(5), window=5)
    raw = math.degrees(math.atan2(0.10, 0.15))  # nose offset in the neutral pose
    assert math.isclose(baseline.inclinations[JointChannel.T1_head_neck_FE], raw, abs_tol=1e-9)


def test_neck_baseline_mean_of_inclinations():
    recording = _neutral(2)
    base = math.atan2(0.10, 0.15)
    r = math.hypot(0.10, 0.15)
    for i, extra_deg in enumerate((-2.0, 2.0)):
        a = base + math.radians(extra_deg)
        recording.positions[i, LANDMARK_INDEX[Landmark.nose]] = (
            NEUTRAL_POSITIONS[Landmark.neck] + vec3(r * math.sin(a), 0.0, r * math.cos(a)))
    baseline = neck_baseline(recording, window=2)
    raw = math.degrees(math.atan2(0.10, 0.15))
    assert math.isclose(baseline.inclinations[JointChannel.T1_head_neck_FE], raw, abs_tol=1e-6)


def test_neck_baseline_no_complete_frames():
    with pytest.raises(NoCompleteFrames):
        neck_baseline(_with({Landmark.nose: None}), window=5)


def test_empty_recording_has_no_complete_frames():
    empty = KeypointRecording(times=np.zeros(0), positions=np.zeros((0, len(LANDMARK_INDEX), 3)))
    with pytest.raises(NoCompleteFrames, match="empty recording"):
        compute_angle_series(empty)


def test_recording_positions_are_one_row_per_landmark():
    """positions must be (len(times), L, 3)."""
    for shape in ((2, len(LANDMARK_INDEX), 3), (3, len(LANDMARK_INDEX) - 1, 3),
                  (3, len(LANDMARK_INDEX), 2)):
        with pytest.raises(ValueError, match="positions"):
            KeypointRecording(times=np.zeros(3), positions=np.zeros(shape))


# --- per-frame angles -------------------------------------------------------------


def test_straight_arm_gives_zero_elbow_flexion():
    angles = compute_joint_angles(_neutral())
    assert abs(angles[JointChannel.elbow_flex_r]) < 1e-9
    assert abs(angles[JointChannel.elbow_flex_l]) < 1e-9


def test_constructed_right_angle_elbow():
    angles = compute_joint_angles(posed_recording([0.0], elbow_r=90.0))
    assert abs(angles[JointChannel.elbow_flex_r] - 90.0) < 1e-9


def test_first_frame_neck_flexion_zero_by_baseline():
    series = compute_angle_series(_neutral(20))
    assert abs(series.channels[JointChannel.T1_head_neck_FE][0]) < 1e-9


def test_joint_angles_take_one_frame():
    with pytest.raises(ValueError):
        compute_joint_angles(_neutral(2))


def test_collinear_same_direction_flexion_channels_zero():
    angles = compute_joint_angles(_neutral())
    for ch in (JointChannel.elbow_flex_l, JointChannel.elbow_flex_r,
               JointChannel.arm_flex_l, JointChannel.arm_flex_r,
               JointChannel.wrist_flex_l, JointChannel.wrist_flex_r,
               JointChannel.lumbar_flexion):
        assert abs(angles[ch]) < 1e-9, ch


def test_missing_landmarks_channel_absent_not_zeroed():
    angles = compute_joint_angles(_with({Landmark.wrist_r: None}))
    assert JointChannel.elbow_flex_r not in angles
    assert JointChannel.wrist_flex_r not in angles
    assert JointChannel.elbow_flex_l in angles


def test_sign_conventions():
    baseline = neck_baseline(_neutral(), window=1)
    neck, shoulder_r = NEUTRAL_POSITIONS[Landmark.neck], NEUTRAL_POSITIONS[Landmark.shoulder_r]

    # Forward head tilt -> positive neck flexion.
    tilted = _with({Landmark.nose: neck + vec3(0.16, 0.0, 0.05)}, t=1.0)
    assert compute_joint_angles(tilted, baseline=baseline)[JointChannel.T1_head_neck_FE] > 0

    # 60 degree forward arm raise -> arm_flex_r = +60.
    s, c = math.sin(math.radians(60)), math.cos(math.radians(60))
    elbow = shoulder_r + vec3(0.30 * s, 0, -0.30 * c)
    raised = _with({Landmark.elbow_r: elbow,
                    Landmark.wrist_r: elbow + vec3(0.25 * s, 0, -0.25 * c)}, t=1.0)
    assert math.isclose(
        compute_joint_angles(raised, baseline=baseline)[JointChannel.arm_flex_r],
        60.0, abs_tol=1e-9,
    )

    # 50 degree lateral abduction -> arm_add_r = +50.
    s, c = math.sin(math.radians(50)), math.cos(math.radians(50))
    abducted = _with({Landmark.elbow_r: shoulder_r + vec3(0, -0.30 * s, -0.30 * c)}, t=1.0)
    assert math.isclose(
        compute_joint_angles(abducted, baseline=baseline)[JointChannel.arm_add_r],
        50.0, abs_tol=1e-9,
    )

    # 30 degree head turn -> neck rotation magnitude 30.
    s, c = math.sin(math.radians(30)), math.cos(math.radians(30))
    turned = _with({Landmark.nose: neck + vec3(0.10 * c, 0.10 * s, 0.15)}, t=1.0)
    assert math.isclose(
        compute_joint_angles(turned, baseline=baseline)[JointChannel.T1_head_neck_AR],
        30.0, abs_tol=1e-9,
    )


# --- series computation -----------------------------------------------------------


def test_identical_frames_constant_channels():
    series = compute_angle_series(_neutral(10))
    for ch, values in series.channels.items():
        assert np.all(np.isfinite(values)), ch
        assert np.max(values) - np.min(values) < 1e-9, ch


def test_elbow_sinusoid_round_trip():
    recording, true_angles = elbow_flexion_recording(n_frames=150)
    series = compute_angle_series(recording)
    recovered = series.channels[JointChannel.elbow_flex_r]
    assert np.max(np.abs(recovered - true_angles)) < 1e-6


def test_series_sample_rate_from_frame_spacing():
    series = compute_angle_series(_neutral(20))
    assert math.isclose(series.sample_rate, 30.0, rel_tol=1e-9)


def test_series_jittered_frame_times_accepted(rng):
    steps = (1 / 30) * rng.uniform(0.8, 1.2, size=59)
    times = np.concatenate([[0.0], np.cumsum(steps)])
    series = compute_angle_series(posed_recording(times))
    assert math.isclose(series.sample_rate, 1 / np.median(steps), rel_tol=1e-12)


def test_series_skipped_frame_rejected():
    times = np.delete(np.arange(20) / 30, 12)
    with pytest.raises(IrregularTimestamps) as err:
        compute_angle_series(posed_recording(times))
    assert "sample 12" in str(err.value)


def test_missing_wrist_mid_series():
    recording = _neutral(10)
    recording.positions[5, LANDMARK_INDEX[Landmark.wrist_r]] = np.nan
    series = compute_angle_series(recording)
    wrist = series.channels[JointChannel.wrist_flex_r]
    elbow = series.channels[JointChannel.elbow_flex_r]
    assert np.isnan(wrist[5]) and np.isnan(elbow[5])
    assert np.sum(np.isnan(wrist)) == 1
    assert np.all(np.isfinite(series.channels[JointChannel.wrist_flex_l]))


def test_rigid_motion_and_scale_invariance(rng):
    recording, _ = elbow_flexion_recording(n_frames=40)
    series = compute_angle_series(recording)
    for _ in range(3):
        R = random_rotation(rng)
        t = rng.normal(scale=10.0, size=3)
        s = float(rng.uniform(0.2, 8.0))
        moved = transform_recording(recording, R, t, s)
        series2 = compute_angle_series(moved)
        for ch in series.channels:
            a, b = series.channels[ch], series2.channels[ch]
            assert np.array_equal(np.isnan(a), np.isnan(b))
            valid = ~np.isnan(a)
            assert np.max(np.abs(a[valid] - b[valid])) < 1e-9, ch


def test_default_required_landmarks_exclude_knees():
    required = frozenset().union(*(d.landmarks() for d in default_angle_definitions()))
    assert Landmark.knee_l not in required
    assert Landmark.pelvis in required
    assert Landmark.pinky_knuckle_r in required


def test_definitions_cover_all_channels():
    defs = default_angle_definitions()
    assert {d.channel for d in defs} == set(JointChannel)


def test_default_definitions_are_a_new_list_each_call():
    """One caller's edit of the list does not reach the next caller."""
    default_angle_definitions().pop()
    assert len(default_angle_definitions()) == len(JointChannel)


def test_angle_definitions_skip_byte_order_mark(tmp_path):
    path = tmp_path / "defs.json"
    shipped = resources.files("ergokit.data").joinpath("angle_definitions.json").read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + shipped)
    assert load_angle_definitions(str(path)) == default_angle_definitions()
