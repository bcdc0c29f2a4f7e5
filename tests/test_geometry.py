import copy
import json
import math
from importlib import resources

import numpy as np
import pytest

from ergokit.errors import ConfigError, IrregularTimestamps, NoCompleteFrames
from ergokit.geometry import (
    _plane_angles,
    _vector_angles,
    compute_angle_series,
    compute_joint_angles,
    default_angle_definitions,
    load_angle_definitions,
    neck_baseline,
    parse_angle_definitions,
)
from ergokit.motion import LANDMARK_INDEX, JointChannel, KeypointRecording, Landmark, vec3
from ergokit.synthetic import NEUTRAL_POSITIONS, posed_recording, work_cycle_recording

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
    baseline = neck_baseline(_neutral(5))
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
    baseline = neck_baseline(recording)
    raw = math.degrees(math.atan2(0.10, 0.15))
    assert math.isclose(baseline.inclinations[JointChannel.T1_head_neck_FE], raw, abs_tol=1e-6)


def test_neck_baseline_no_complete_frames():
    with pytest.raises(NoCompleteFrames):
        neck_baseline(_with({Landmark.nose: None}))


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
    assert abs(angles[JointChannel.elbow_flex_r][0]) < 1e-9
    assert abs(angles[JointChannel.elbow_flex_l][0]) < 1e-9


def test_constructed_right_angle_elbow():
    angles = compute_joint_angles(posed_recording([0.0], elbow_r=90.0))
    assert abs(angles[JointChannel.elbow_flex_r][0] - 90.0) < 1e-9


def test_first_frame_neck_flexion_zero_by_baseline():
    series = compute_angle_series(_neutral(20))
    assert abs(series.channels[JointChannel.T1_head_neck_FE][0]) < 1e-9


def test_joint_angles_take_one_frame():
    """A single frame is the N=1 case: one (1,) column per definition. Of
    a neutral frame, only the channels measured against the start of the
    task are NaN, and only without a baseline."""
    defs = default_angle_definitions()
    initial = {d.channel for d in defs if d.baseline in ("initial_self", "initial_axes")}
    for baseline, missing in ((None, initial), (neck_baseline(_neutral()), set())):
        angles = compute_joint_angles(_neutral(), baseline=baseline)
        assert list(angles) == [d.channel for d in defs]
        assert all(v.shape == (1,) for v in angles.values())
        assert {ch for ch, v in angles.items() if np.isnan(v[0])} == missing


def test_joint_angles_over_a_recording_equal_the_series():
    """Any length: with the series' baseline, the columns are the series'
    channels bit for bit, dropped landmarks included, and each frame's
    samples are those of that frame alone."""
    recording = work_cycle_recording(n_frames=60)
    rng = np.random.default_rng(5)
    for lm in (Landmark.wrist_r, Landmark.nose, Landmark.hip_l):
        recording.positions[rng.choice(60, size=6, replace=False), LANDMARK_INDEX[lm]] = np.nan
    defs = default_angle_definitions()
    baseline = neck_baseline(recording, defs)
    angles = compute_joint_angles(recording, defs, baseline)
    series = compute_angle_series(recording, defs)
    assert list(angles) == list(series.channels)
    for ch, values in series.channels.items():
        assert angles[ch].tobytes() == values.tobytes(), ch
    missing = np.isnan(np.stack(list(angles.values())))
    assert missing.any() and not missing.all()
    for i in (0, 17, 59):
        frame = KeypointRecording(times=recording.times[i:i + 1],
                                  positions=recording.positions[i:i + 1])
        single = compute_joint_angles(frame, defs, baseline)
        for ch, values in angles.items():
            assert single[ch].tobytes() == values[i:i + 1].tobytes(), (i, ch)


def test_collinear_same_direction_flexion_channels_zero():
    angles = compute_joint_angles(_neutral())
    for ch in (JointChannel.elbow_flex_l, JointChannel.elbow_flex_r,
               JointChannel.arm_flex_l, JointChannel.arm_flex_r,
               JointChannel.wrist_flex_l, JointChannel.wrist_flex_r,
               JointChannel.lumbar_flexion):
        assert abs(angles[ch][0]) < 1e-9, ch


def test_missing_landmarks_channel_nan_not_zeroed():
    angles = compute_joint_angles(_with({Landmark.wrist_r: None}))
    assert np.isnan(angles[JointChannel.elbow_flex_r][0])
    assert np.isnan(angles[JointChannel.wrist_flex_r][0])
    assert np.isfinite(angles[JointChannel.elbow_flex_l][0])


def test_sign_conventions():
    baseline = neck_baseline(_neutral())
    neck, shoulder_r = NEUTRAL_POSITIONS[Landmark.neck], NEUTRAL_POSITIONS[Landmark.shoulder_r]

    # Forward head tilt -> positive neck flexion.
    tilted = _with({Landmark.nose: neck + vec3(0.16, 0.0, 0.05)}, t=1.0)
    assert compute_joint_angles(tilted, baseline=baseline)[JointChannel.T1_head_neck_FE][0] > 0

    # 60 degree forward arm raise -> arm_flex_r = +60.
    s, c = math.sin(math.radians(60)), math.cos(math.radians(60))
    elbow = shoulder_r + vec3(0.30 * s, 0, -0.30 * c)
    raised = _with({Landmark.elbow_r: elbow,
                    Landmark.wrist_r: elbow + vec3(0.25 * s, 0, -0.25 * c)}, t=1.0)
    assert math.isclose(
        compute_joint_angles(raised, baseline=baseline)[JointChannel.arm_flex_r][0],
        60.0, abs_tol=1e-9,
    )

    # 50 degree lateral abduction -> arm_add_r = +50.
    s, c = math.sin(math.radians(50)), math.cos(math.radians(50))
    abducted = _with({Landmark.elbow_r: shoulder_r + vec3(0, -0.30 * s, -0.30 * c)}, t=1.0)
    assert math.isclose(
        compute_joint_angles(abducted, baseline=baseline)[JointChannel.arm_add_r][0],
        50.0, abs_tol=1e-9,
    )

    # 30 degree head turn -> neck rotation magnitude 30.
    s, c = math.sin(math.radians(30)), math.cos(math.radians(30))
    turned = _with({Landmark.nose: neck + vec3(0.10 * c, 0.10 * s, 0.15)}, t=1.0)
    assert math.isclose(
        compute_joint_angles(turned, baseline=baseline)[JointChannel.T1_head_neck_AR][0],
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


def test_default_definitions_are_one_cached_tuple():
    """One caller cannot edit the shipped definitions for the next."""
    defs = default_angle_definitions()
    assert defs is default_angle_definitions()
    assert isinstance(defs, tuple) and len(defs) == len(JointChannel)
    with pytest.raises(AttributeError):
        defs.pop()


def test_angle_definitions_skip_byte_order_mark(tmp_path):
    path = tmp_path / "defs.json"
    shipped = resources.files("ergokit.data").joinpath("angle_definitions.json").read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + shipped)
    assert tuple(load_angle_definitions(str(path))) == default_angle_definitions()


# --- definitions refused at load ---------------------------------------------------

SHIPPED = json.loads(resources.files("ergokit.data").joinpath("angle_definitions.json")
                     .read_text())


def _parse_with(**changes) -> list:
    """The shipped definitions with one arm_flex_r entry changed."""
    raw = copy.deepcopy(SHIPPED)
    entry = next(d for d in raw["definitions"] if d["channel"] == "arm_flex_r")
    entry.update(changes)
    return parse_angle_definitions(raw)


def test_channel_defined_twice_is_refused():
    raw = copy.deepcopy(SHIPPED)
    arm = next(d for d in raw["definitions"] if d["channel"] == "arm_flex_r")
    raw["definitions"].append({**arm, "b": ["shoulder_r", "wrist_r"]})
    with pytest.raises(ConfigError, match="channel arm_flex_r is defined twice"):
        parse_angle_definitions(raw)


def test_file_with_no_entries_is_refused():
    with pytest.raises(ConfigError, match="no entries"):
        parse_angle_definitions({"definitions": []})


@pytest.mark.parametrize("segment", [
    ["neck", "neck"],
    [["hip_l", "hip_r"], ["hip_r", "hip_l"]],
    [["elbow_r", "elbow_r"], "elbow_r"],
    [["hip_l", "hip_l", "hip_r"], ["hip_l", "hip_r", "hip_l"]],
], ids=["one-landmark", "midpoint-reversed", "landmark-repeated", "same-shares"])
@pytest.mark.parametrize("end", ["a", "b"])
def test_segment_from_a_point_to_itself_is_refused(segment, end):
    with pytest.raises(ConfigError, match="arm_flex_r: segment from a point to itself"):
        _parse_with(**{end: segment})


def test_segment_between_distinct_midpoints_loads():
    """Ends of the same landmarks in other shares are two points."""
    defs = _parse_with(a=[["hip_l", "hip_l", "hip_r"], ["hip_l", "hip_r"]])
    assert len(defs) == len(JointChannel)


@pytest.mark.parametrize("plane, axes", [
    ("sagittal", ("left", "right")),
    ("frontal", ("forward", "backward")),
    ("transverse", ("up", "down")),
], ids=["sagittal", "frontal", "transverse"])
def test_body_axis_along_the_plane_normal_is_refused(plane, axes):
    for axis in axes:
        for sign_axis in axes:
            with pytest.raises(ConfigError, match="is the plane's normal"):
                _parse_with(a={"axis": axis}, plane=plane, sign_axis=sign_axis)
    in_plane = next(a for a in ("up", "right", "forward") if a not in axes)
    _parse_with(a={"axis": in_plane}, plane=plane, sign_axis=axes[0])
