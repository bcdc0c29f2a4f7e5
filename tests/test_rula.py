import itertools
import json
import math
import tracemalloc
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from ergokit.errors import (
    ConfigError,
    EmptyTimeline,
    IncompleteFrame,
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
    _range_scores,
    RiskBand,
    RulaTimeline,
    SideTimeline,
    band_percentages,
    config_checksum,
    config_from_dict,
    default_config,
    load_rula_config,
    score_frame,
    score_timeline,
    validate_rula_config,
)

import worksheet_scorer
from worksheet_scorer import worksheet_score


def zero_angles():
    return {ch: 0.0 for ch in JointChannel}


# --- table lookups -----------------------------------------------------------


def _cell(table: str, *index: int) -> int:
    """The 1-based cell ``index`` of the default config's Table A, B or C, as
    ``_score`` indexes it."""
    return int(getattr(default_config(), f"table_{table}_values")[tuple(i - 1 for i in index)])


def test_table_a_cited_cells():
    assert _cell("a", 1, 1, 1, 1) == 1
    assert _cell("a", 3, 2, 2, 1) == 4
    assert _cell("a", 6, 3, 4, 2) == 9
    assert _cell("a", 1, 2, 1, 1) == 1


def test_table_b_cited_cells():
    assert _cell("b", 1, 1, 1) == 1
    assert _cell("b", 1, 1, 2) == 3
    assert _cell("b", 6, 6, 2) == 9


def test_table_c_cited_cells():
    assert _cell("c", 1, 1) == 1
    assert _cell("c", 3, 7) == 6
    assert _cell("c", 9, 9) == 7


def test_tables_total_and_bounded():
    for arm, forearm, wrist, twist in itertools.product(
            range(1, 7), range(1, 4), range(1, 5), range(1, 3)):
        assert 1 <= _cell("a", arm, forearm, wrist, twist) <= 9
    for neck, trunk, legs in itertools.product(range(1, 7), range(1, 7), range(1, 3)):
        assert 1 <= _cell("b", neck, trunk, legs) <= 9
    for c, d in itertools.product(range(1, 10), range(1, 10)):
        assert 1 <= _cell("c", c, d) <= 7


# --- range scoring -----------------------------------------------------------


def _forearm(angle):
    return _range_scores(default_config().range_rules["forearm"], angle)


def test_score_range_forearm_examples():
    assert _forearm(80.0) == 1
    assert _forearm(120.0) == 2
    assert _forearm(59.9) == 2


def test_score_range_boundary_semantics():
    # Half-open [lo, hi): 60 scores 1, 100 scores 2.
    assert _forearm(60.0) == 1
    assert _forearm(100.0) == 2


def test_score_range_every_finite_angle_scores_once(rng):
    config = default_config()
    for joint, rule in config.range_rules.items():
        angles = rng.uniform(-720, 720, size=200)
        scores = _range_scores(rule, angles)
        for angle, score in zip(angles, scores):
            hits = [s for lo, hi, s in rule.intervals if lo <= angle < hi]
            assert len(hits) == 1, (joint, angle)
            assert score == hits[0]


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
    bands = [tuple(RiskBand)[code] for code in default_config().band_codes[[1, 4, 7]]]
    assert bands == [RiskBand.negligible, RiskBand.low, RiskBand.very_high]


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


@pytest.mark.parametrize("edit, problem", [
    (lambda raw: raw["range"].pop("neck"), "range[neck]: rule missing"),
    (lambda raw: raw["range"].update(legs=raw["range"]["trunk"]), "range[legs]: unknown joint"),
    (lambda raw: raw["range"]["arm"].pop("intervals"), "range[arm]: intervals missing"),
    (lambda raw: raw["position"].append({**raw["position"][0], "joint": "elbow"}),
     "position[{last}]: unknown joint 'elbow'"),
    (lambda raw: raw["position"].append({**raw["position"][0], "joint": "neck"}),
     "position[{last}]: axial joint neck cannot take a side"),
], ids=["rule-missing", "range-unknown-joint", "intervals-missing", "position-unknown-joint",
        "axial-side"])
def test_config_rule_problem_is_reported(edit, problem):
    raw = read_config_json(None)
    edit(raw)
    assert problem.format(last=len(raw["position"]) - 1) in validate_rula_config(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_config_nested_too_deep_is_one_problem():
    """70 levels of nesting anywhere, here under ``notes``, which nothing
    else reads: the checksum's encoder would run out of stack."""
    raw = read_config_json(None)
    deep = []
    for _ in range(70):
        deep = [deep]
    raw["notes"] = deep
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.violations == ["config: nested deeper than 64 levels"]


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


# --- int8 scores ------------------------------------------------------------------


def _score_dtypes(timeline: RulaTimeline) -> dict[str, np.dtype]:
    """The dtype of every score array of ``timeline`` and of its two sides."""
    dtypes = {f.name: getattr(timeline, f.name).dtype for f in fields(RulaTimeline)
              if f.name not in ("sample_rate", "start_time", "left", "right", "degraded")}
    for side in ("left", "right"):
        dtypes |= {f"{side}.{f.name}": getattr(getattr(timeline, side), f.name).dtype
                   for f in fields(SideTimeline)}
    return dtypes


def _random_series(rng, n: int) -> tuple[np.ndarray, JointAngleSeries]:
    values = rng.uniform(-180, 180, size=(len(JointChannel), n))
    return values, JointAngleSeries(sample_rate=10.0, start_time=0.0,
                                    channels=dict(zip(JointChannel, values)))


def test_every_score_is_int8(rng):
    track = AnnotationTrack.from_intervals([AnnotationInterval(1.0, 3.0, 1, 3, 1, 3, 2)])
    _, series = _random_series(rng, 50)
    for timeline in (score_timeline(series, track), score_frame(zero_angles()),
                     score_frame(zero_angles(), AnnotationFlags(1, 3, 1, 3, 2))):
        assert set(_score_dtypes(timeline).values()) == {np.dtype(np.int8)}
        assert timeline.degraded.dtype == bool


@pytest.mark.parametrize("adjust, predicate", [(3, "above"), (-3, "below")])
def test_fifty_neck_rules_add_up_without_wrapping(rng, monkeypatch, adjust, predicate):
    """Fifty +3 (or -3) position rules on the neck add +150 (or -150) to its
    range score where neck flexion is above (or below) 15 degrees: past
    int8, so the sum is taken in int16 before the clamp to 1..6. The scores
    equal the worksheet's with that sum added to its neck score (an int8
    sum wraps and scores neck 1 for 6, or 6 for 1), and are all int8."""
    raw = read_config_json(None)
    raw["position"] += [{"joint": "neck", "channel": "T1_head_neck_FE", "predicate": predicate,
                         "threshold": 15, "adjust": adjust}] * 50
    config = config_from_dict(raw)
    base = worksheet_scorer.neck_score
    fires = (lambda f: f > 15) if adjust > 0 else (lambda f: f < 15)
    monkeypatch.setattr(worksheet_scorer, "neck_score",
                        lambda f: base(f) + 50 * adjust * fires(f))
    values, series = _random_series(rng, 400)
    timeline = score_timeline(series, config=config)
    labels = [ch.value for ch in JointChannel]
    expected = [worksheet_score(dict(zip(labels, frame))) for frame in values.T.tolist()]
    fired = [fires(f) for f in series.channels[JointChannel.T1_head_neck_FE].tolist()]
    assert 100 < sum(fired) < 300
    assert {e["neck"] for e, hit in zip(expected, fired) if hit} == {6 if adjust > 0 else 1}
    for name in ("neck", "trunk", "table_b_score", "score_d", "final"):
        assert getattr(timeline, name).tolist() == [e[name.replace("_score", "")]
                                                    for e in expected], name
    for side, key in (("left", "l"), ("right", "r")):
        for name in ("arm", "wrist", "table_a_score", "score_c", "final"):
            got = getattr(getattr(timeline, side), name).tolist()
            assert got == [e[key][name.replace("_score", "")] for e in expected], (side, name)
    assert set(_score_dtypes(timeline).values()) == {np.dtype(np.int8)}


def test_scoring_memory_per_sample(rng):
    """On 100 000 samples of all 20 channels, score_timeline peaks under 200
    bytes a sample and keeps under 40: the timeline's arrays are int8, 22
    bytes a sample. With int64 scores it peaked at 388 and kept 162."""
    n = 100_000
    _, series = _random_series(rng, n)
    score_timeline(series)  # compiles and imports what scoring uses
    tracemalloc.start()
    try:
        timeline = score_timeline(series)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert timeline.length == n
    assert peak < 200 * n
    assert kept < 40 * n
