import itertools
import json
import math
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from ergokit.errors import (
    ConfigError,
    EmptyTimeline,
    IncompleteFrame,
    OutOfRangeIndex,
    UnknownJoint,
)
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
    RulaTimeline,
    band_percentages,
    config_checksum,
    config_from_dict,
    default_config,
    load_rula_config,
    risk_band,
    score_frame,
    score_range,
    score_timeline,
    table_a,
    table_b,
    table_c,
    validate_rula_config,
)

from worksheet_scorer import worksheet_score


def zero_angles():
    return {ch: 0.0 for ch in JointChannel}


# --- table lookups -----------------------------------------------------------


def test_table_a_cited_cells():
    assert table_a(1, 1, 1, 1) == 1
    assert table_a(3, 2, 2, 1) == 4
    assert table_a(6, 3, 4, 2) == 9
    assert table_a(1, 2, 1, 1) == 1


def test_table_b_cited_cells():
    assert table_b(1, 1, 1) == 1
    assert table_b(1, 1, 2) == 3
    assert table_b(6, 6, 2) == 9


def test_table_c_cited_cells():
    assert table_c(1, 1) == 1
    assert table_c(3, 7) == 6
    assert table_c(9, 9) == 7


def test_tables_total_and_bounded():
    for arm, forearm, wrist, twist in itertools.product(
            range(1, 7), range(1, 4), range(1, 5), range(1, 3)):
        assert 1 <= table_a(arm, forearm, wrist, twist) <= 9
    for neck, trunk, legs in itertools.product(range(1, 7), range(1, 7), range(1, 3)):
        assert 1 <= table_b(neck, trunk, legs) <= 9
    for c, d in itertools.product(range(1, 10), range(1, 10)):
        assert 1 <= table_c(c, d) <= 7


def test_table_index_errors():
    with pytest.raises(OutOfRangeIndex):
        table_a(0, 1, 1, 1)
    with pytest.raises(OutOfRangeIndex):
        table_a(1, 4, 1, 1)
    with pytest.raises(OutOfRangeIndex):
        table_b(7, 1, 1)


def test_table_c_clamps_out_of_range_inputs():
    assert table_c(15, 15) == table_c(9, 9)
    assert table_c(0, -3) == table_c(1, 1)


# --- range scoring -----------------------------------------------------------


def test_score_range_forearm_examples():
    assert score_range("forearm", 80.0) == 1
    assert score_range("forearm", 120.0) == 2
    assert score_range("forearm", 59.9) == 2


def test_score_range_boundary_semantics():
    # Half-open [lo, hi): 60 scores 1, 100 scores 2.
    assert score_range("forearm", 60.0) == 1
    assert score_range("forearm", 100.0) == 2


def test_score_range_unknown_joint():
    with pytest.raises(UnknownJoint):
        score_range("ankle", 10.0)


def test_score_range_every_finite_angle_scores_once(rng):
    config = default_config()
    for joint, rule in config.range_rules.items():
        for angle in rng.uniform(-720, 720, size=200):
            hits = [s for lo, hi, s in rule.intervals if lo <= angle < hi]
            assert len(hits) == 1, (joint, angle)
            assert score_range(joint, float(angle)) == hits[0]


# --- position adjustments -------------------------------------------------------


def test_adjustment_abduction_adds_one():
    angles = zero_angles()
    angles[JointChannel.arm_flex_r] = 30.0  # range score 2
    angles[JointChannel.arm_add_r] = 60.0
    assert score_frame(angles).right.arm == 3


def test_adjustment_untriggered_is_identity():
    angles = zero_angles()
    angles[JointChannel.arm_flex_r] = 30.0  # range score 2
    angles[JointChannel.elbow_flex_r] = 80.0  # range score 1
    fs = score_frame(angles)
    assert (fs.right.arm, fs.right.forearm) == (2, 1)


def test_adjustment_clamps_to_table_range():
    raw = read_config_json(None)
    for rule in raw["position"]:
        if rule["channel"] == "T1_head_neck_AR":
            rule["adjust"] = 3
    config = config_from_dict(raw)
    angles = zero_angles()
    angles[JointChannel.T1_head_neck_FE] = -5.0  # range score 4
    angles[JointChannel.T1_head_neck_AR] = 50.0
    angles[JointChannel.T1_head_neck_LB] = 50.0
    assert score_frame(angles, config=config).neck == 6  # 4 + 3 + 1 clamped to the table max


def test_adjustment_wrong_side_does_not_fire():
    angles = zero_angles()
    angles[JointChannel.arm_flex_l] = 30.0  # range score 2
    angles[JointChannel.arm_add_r] = 60.0
    assert score_frame(angles).left.arm == 2


# --- frame scoring ----------------------------------------------------------------


def _band(timeline) -> RiskBand:
    return list(RiskBand)[timeline.band[0]]


def test_neutral_posture_trace():
    fs = score_frame(zero_angles())
    left = fs.left
    assert (left.arm[0], left.forearm[0], left.wrist[0], left.wrist_twist[0]) == (1, 2, 1, 1)
    assert left.table_a_score[0] == 1  # table_a(1, 2, 1, 1)
    assert (fs.neck[0], fs.trunk[0], fs.legs[0]) == (1, 1, 1)
    assert fs.table_b_score[0] == 1
    assert fs.final[0] == 1
    assert _band(fs) == RiskBand.negligible
    assert not fs.degraded[0]


def test_neutral_with_forces_trace():
    fs = score_frame(zero_angles(), AnnotationFlags(arm_force=3, neck_force=3))
    assert fs.left.score_c[0] == 4
    assert fs.score_d[0] == 4
    assert fs.final[0] == 4
    assert _band(fs) == RiskBand.low


def test_combined_is_max_of_sides():
    angles = zero_angles()
    angles[JointChannel.arm_flex_r] = 100.0
    angles[JointChannel.arm_add_r] = 60.0
    angles[JointChannel.elbow_flex_r] = 0.0
    angles[JointChannel.wrist_flex_r] = 20.0
    angles[JointChannel.wrist_dev_r] = 20.0
    angles[JointChannel.pro_sup_r] = 90.0
    fs = score_frame(angles, AnnotationFlags(arm_muscle=1, arm_force=3,
                                             neck_force=3))
    assert fs.right.table_a_score[0] == 7  # table_a(5, 2, 4, 2)
    assert fs.score_d[0] == 4
    assert fs.right.final[0] == 7
    assert fs.left.final[0] == 5
    assert fs.final[0] == 7
    assert _band(fs) == RiskBand.very_high


def test_missing_channel_lenient_vs_strict():
    angles = zero_angles()
    del angles[JointChannel.elbow_flex_r]
    fs = score_frame(angles)
    assert fs.degraded
    assert fs.right.forearm == 1  # joint minimum substituted
    with pytest.raises(IncompleteFrame):
        score_frame(angles, strict=True)


def test_nan_channel_treated_as_missing():
    angles = zero_angles()
    angles[JointChannel.elbow_flex_r] = math.nan
    fs = score_frame(angles)
    assert fs.degraded
    assert fs.right.forearm == 1


def test_position_channel_absent_degrades_but_nan_does_not():
    """A channel that only a position rule reads is missing when absent; a
    NaN sample of it leaves the adjustment unapplied without degrading."""
    angles = zero_angles()
    angles[JointChannel.wrist_dev_l] = 30.0
    bent = score_frame(angles).left.wrist
    angles[JointChannel.wrist_dev_l] = math.nan
    fs = score_frame(angles)
    assert not fs.degraded
    assert fs.left.wrist == bent - 1
    del angles[JointChannel.wrist_dev_l]
    fs = score_frame(angles)
    assert fs.degraded
    assert fs.left.wrist == bent - 1
    with pytest.raises(IncompleteFrame, match="^channel wrist_dev_l required for wrist "
                                              "is missing at sample 0$"):
        score_frame(angles, strict=True)


def test_annotation_monotonicity(rng):
    for _ in range(300):
        angles = {ch: float(v) for ch, v in
                  zip(JointChannel, rng.uniform(-180, 180, size=20))}
        muscle = int(rng.integers(0, 2))
        force = int(rng.integers(0, 3))
        legs = int(rng.integers(1, 3))
        base = score_frame(angles, AnnotationFlags(
            arm_muscle=muscle, arm_force=force,
            neck_muscle=muscle, neck_force=force, legs=legs))
        bumped = score_frame(angles, AnnotationFlags(
            arm_muscle=muscle, arm_force=force + 1,
            neck_muscle=muscle, neck_force=force + 1, legs=legs))
        assert bumped.left.score_c >= base.left.score_c
        assert bumped.score_d >= base.score_d
        assert bumped.final >= base.final


def test_matches_worksheet_transcription_spot(rng):
    for _ in range(500):
        values = rng.uniform(-180, 180, size=20)
        angles = {ch: float(v) for ch, v in zip(JointChannel, values)}
        flags = AnnotationFlags(
            arm_muscle=int(rng.integers(0, 2)),
            arm_force=int(rng.integers(0, 4)),
            neck_muscle=int(rng.integers(0, 2)),
            neck_force=int(rng.integers(0, 4)),
            legs=int(rng.integers(1, 3)),
        )
        fs = score_frame(angles, flags)
        expected = worksheet_score(
            {ch.value: v for ch, v in angles.items()},
            arm_muscle=flags.arm_muscle, arm_force=flags.arm_force,
            neck_muscle=flags.neck_muscle, neck_force=flags.neck_force,
            legs=flags.legs,
        )
        assert fs.final == expected["final"]
        assert fs.left.arm == expected["l"]["arm"]
        assert fs.right.wrist == expected["r"]["wrist"]
        assert fs.neck == expected["neck"]
        assert fs.trunk == expected["trunk"]


# --- timeline scoring -----------------------------------------------------------


def _neutral_series(n, rate=10.0):
    return JointAngleSeries(
        sample_rate=rate, start_time=0.0,
        channels={ch: np.zeros(n) for ch in JointChannel},
    )


def test_constant_series_constant_scores():
    timeline = score_timeline(_neutral_series(25))
    assert timeline.length == 25
    assert (timeline.final == 1).all()


def test_annotation_applies_to_samples_in_interval():
    series = _neutral_series(10, rate=1.0)  # samples at t = 0..9
    track = AnnotationTrack.from_intervals(
        [AnnotationInterval(t0=0.0, t1=5.0, arm_force=3, neck_force=3)]
    )
    timeline = score_timeline(series, track)
    finals = timeline.final.tolist()
    assert finals == [4] * 5 + [1] * 5


def _assert_same_timeline(a: RulaTimeline, b: RulaTimeline) -> None:
    """Every field equal, every score array element for element."""
    for obj_a, obj_b in ((a, b), (a.left, b.left), (a.right, b.right)):
        for f in fields(obj_a):
            value_a, value_b = getattr(obj_a, f.name), getattr(obj_b, f.name)
            if isinstance(value_a, np.ndarray):
                np.testing.assert_array_equal(value_a, value_b, err_msg=f.name)
            elif f.name not in ("left", "right"):
                assert value_a == value_b, f.name


def test_empty_annotations_is_neutral_element():
    series = _neutral_series(8)
    a = score_timeline(series)
    b = score_timeline(series, AnnotationTrack())
    _assert_same_timeline(a, b)


def test_empty_series_rejected():
    with pytest.raises(EmptyTimeline):
        score_timeline(JointAngleSeries(
            sample_rate=10.0, start_time=0.0,
            channels={ch: np.zeros(0) for ch in JointChannel}))


def test_timeline_determinism():
    series = _neutral_series(20)
    track = AnnotationTrack.from_intervals(
        [AnnotationInterval(t0=0.5, t1=1.2, arm_force=2)])
    _assert_same_timeline(score_timeline(series, track), score_timeline(series, track))


# --- bands ---------------------------------------------------------------------


def test_risk_band_mapping():
    assert risk_band(1) == RiskBand.negligible
    assert risk_band(4) == RiskBand.low
    assert risk_band(7) == RiskBand.very_high


def test_band_percentages_constant():
    timeline = score_timeline(_neutral_series(10),
                              AnnotationTrack.from_intervals(
                                  [AnnotationInterval(t0=0.0, t1=99.0,
                                                      arm_force=3, neck_force=3)]))
    pcts = band_percentages(timeline)
    assert pcts[RiskBand.low] == 100.0
    assert pcts[RiskBand.negligible] == 0.0


def test_band_percentages_sum_to_100(rng):
    series = JointAngleSeries(
        sample_rate=10.0, start_time=0.0,
        channels={ch: rng.uniform(-90, 90, size=60) for ch in JointChannel},
    )
    pcts = band_percentages(score_timeline(series))
    assert abs(sum(pcts.values()) - 100.0) < 1e-9


# --- configuration --------------------------------------------------------------


def test_default_config_is_valid():
    assert validate_rula_config(read_config_json(None)) == []


def test_checksum_stability():
    raw = read_config_json(None)
    assert config_checksum(raw) == config_checksum(json.loads(json.dumps(raw)))


def test_config_table_hole_detected():
    raw = read_config_json(None)
    raw["table_a"][0][2] = raw["table_a"][0][2][:3]
    problems = validate_rula_config(raw)
    assert any("table_a" in p and "expected 4" in p for p in problems)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_config_overlapping_intervals_detected():
    raw = read_config_json(None)
    raw["range"]["arm"]["intervals"][2] = [15, 45, 2]
    problems = validate_rula_config(raw)
    assert any("range[arm]" in p and "overlap" in p for p in problems)


def test_config_out_of_bounds_score_detected():
    raw = read_config_json(None)
    raw["table_c"][0][0] = 12
    problems = validate_rula_config(raw)
    assert any("table_c" in p and "12" in p for p in problems)


@pytest.mark.parametrize("section, key, problem", [
    ("position", 0, "position[0]: rule must be an object"),
    ("range", "arm", "range[arm]: rule must be an object"),
])
@pytest.mark.parametrize("entry", [1, [1], "x", None])
def test_config_entry_not_an_object_is_a_problem(section, key, problem, entry):
    raw = read_config_json(None)
    raw[section][key] = entry
    assert problem in validate_rula_config(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_config_band_gap_detected():
    raw = read_config_json(None)
    raw["bands"]["low"] = [3, 3]
    problems = validate_rula_config(raw)
    assert any("bands" in p and "4" in p for p in problems)


def test_config_skips_byte_order_mark(tmp_path):
    path = tmp_path / "config.json"
    shipped = resources.files("ergokit.data").joinpath("rula_default.json").read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + shipped)
    assert read_config_json(str(path)) == read_config_json(None)
    assert load_rula_config(str(path)).checksum == default_config().checksum
