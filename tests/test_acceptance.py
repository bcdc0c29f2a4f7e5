"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import copy
import itertools
import time

import numpy as np

import ergokit
from ergokit.compare import align_min_rmse, compare_recordings
from ergokit.geometry import (
    compute_angle_series,
    compute_joint_angles,
    default_angle_definitions,
    vector_angle,
)
from ergokit.ingest import read_config_json, resample
from ergokit.motion import (
    AnnotationFlags,
    AnnotationInterval,
    AnnotationTrack,
    JointAngleSeries,
    LANDMARK_INDEX,
    JointChannel,
    KeypointRecording,
    vec3,
)
from ergokit.reporting import (
    build_session_report,
    emit_session_report,
    format_band_shares,
)
from ergokit.rula import (
    RiskBand,
    band_percentages,
    default_config,
    score_frame,
    score_timeline,
    table_a,
    table_b,
    table_c,
    validate_rula_config,
)
from ergokit.synthetic import (
    NEUTRAL_POSITIONS,
    elbow_flexion_recording,
    random_rotation,
    transform_recording,
)

from worksheet_scorer import worksheet_score


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_table_fidelity():
    started = time.perf_counter()
    ok = True
    for arm, forearm, wrist, twist in itertools.product(
            range(1, 7), range(1, 4), range(1, 5), range(1, 3)):
        ok &= 1 <= table_a(arm, forearm, wrist, twist) <= 9
    for neck, trunk, legs in itertools.product(range(1, 7), range(1, 7), range(1, 3)):
        ok &= 1 <= table_b(neck, trunk, legs) <= 9
    for c, d in itertools.product(range(1, 10), range(1, 10)):
        ok &= 1 <= table_c(c, d) <= 7
    ok &= table_a(1, 1, 1, 1) == 1
    ok &= table_a(6, 3, 4, 2) == 9
    ok &= table_a(3, 2, 2, 1) == 4
    ok &= table_b(1, 1, 1) == 1
    ok &= table_b(1, 1, 2) == 3
    ok &= table_b(6, 6, 2) == 9
    ok &= table_c(1, 1) == 1
    ok &= table_c(3, 7) == 6
    ok &= table_c(9, 9) == 7
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _verdict(1, "table fidelity", ok)


def test_criterion_02_scoring_oracle():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        values = rng.uniform(-180.0, 180.0, size=20)
        angles = {ch: float(v) for ch, v in zip(JointChannel, values)}
        flags = AnnotationFlags(
            arm_muscle=int(rng.integers(0, 2)),
            arm_force=int(rng.integers(0, 4)),
            neck_muscle=int(rng.integers(0, 2)),
            neck_force=int(rng.integers(0, 4)),
            legs=int(rng.integers(1, 3)),
        )
        frame = score_frame(angles, flags)
        expected = worksheet_score(
            {ch.value: v for ch, v in angles.items()},
            arm_muscle=flags.arm_muscle, arm_force=flags.arm_force,
            neck_muscle=flags.neck_muscle, neck_force=flags.neck_force,
            legs=flags.legs,
        )
        same = (
            frame.final == expected["final"]
            and list(RiskBand)[frame.band[0]].value == expected["band"]
            and frame.neck == expected["neck"]
            and frame.trunk == expected["trunk"]
            and frame.legs == expected["legs"]
            and frame.table_b_score == expected["table_b"]
            and frame.score_d == expected["score_d"]
        )
        for side_key, side in (("l", frame.left), ("r", frame.right)):
            want = expected[side_key]
            same = same and (
                side.arm == want["arm"]
                and side.forearm == want["forearm"]
                and side.wrist == want["wrist"]
                and side.wrist_twist == want["wrist_twist"]
                and side.table_a_score == want["table_a"]
                and side.score_c == want["score_c"]
                and side.final == want["final"]
            )
        if not same:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(2, f"scoring oracle (10000 inputs, {elapsed:.1f} s)", ok)


def _jittered(rng, times) -> KeypointRecording:
    positions = np.empty((len(times), len(LANDMARK_INDEX), 3))
    for i in range(len(times)):
        for lm, p in NEUTRAL_POSITIONS.items():
            positions[i, LANDMARK_INDEX[lm]] = p + rng.uniform(-0.03, 0.03, size=3)
    return KeypointRecording(times=np.asarray(times, dtype=float), positions=positions)


def test_criterion_03_geometry_properties():
    rng = np.random.default_rng(11)
    ok = True

    # Known angles, exact to 1e-9.
    ok &= vector_angle(vec3(1, 0, 0), vec3(1, 0, 0)) == 0.0
    ok &= vector_angle(vec3(1, 0, 0), vec3(0, 1, 0)) == 90.0
    ok &= vector_angle(vec3(1, 0, 0), vec3(-1, 0, 0)) == 180.0
    ok &= abs(vector_angle(vec3(1, 0, 0), vec3(1, 1, 0)) - 45.0) < 1e-9

    # 1000 randomized frames, each under its own random rigid motion + scale.
    defs = [d for d in default_angle_definitions() if d.baseline == "none"]
    worst = 0.0
    for i in range(1000):
        frame = _jittered(rng, [i / 30.0])
        moved = transform_recording(
            frame, random_rotation(rng), rng.normal(scale=10.0, size=3),
            float(rng.uniform(0.1, 10.0)),
        )
        a = compute_joint_angles(frame, defs)
        b = compute_joint_angles(moved, defs)
        ok &= set(a) == set(b)
        for ch in a:
            worst = max(worst, abs(a[ch] - b[ch]))
    ok &= worst <= 1e-9

    # Whole-recording transforms cover the baseline-referenced channels.
    recording = _jittered(rng, np.arange(120) / 30.0)
    series = compute_angle_series(recording)
    worst_series = 0.0
    for _ in range(2):
        moved = transform_recording(
            recording, random_rotation(rng), rng.normal(scale=5.0, size=3),
            float(rng.uniform(0.2, 5.0)),
        )
        series2 = compute_angle_series(moved)
        for ch in series.channels:
            a, b = series.channels[ch], series2.channels[ch]
            ok &= bool(np.array_equal(np.isnan(a), np.isnan(b)))
            valid = ~np.isnan(a)
            if valid.any():
                worst_series = max(worst_series, float(np.max(np.abs(a[valid] - b[valid]))))
    ok &= worst_series <= 1e-9
    _verdict(3, f"geometry invariance (worst {max(worst, worst_series):.2e} deg)", ok)


def test_criterion_04_synthetic_round_trip():
    recording, true_angles = elbow_flexion_recording(n_frames=300)
    series = compute_angle_series(recording)
    recovered = series.channels[JointChannel.elbow_flex_r]
    worst = float(np.max(np.abs(recovered - true_angles)))
    first_fe = float(series.channels[JointChannel.T1_head_neck_FE][0])
    ok = worst < 1e-6 and abs(first_fe) < 1e-9
    _verdict(4, f"synthetic round-trip (worst {worst:.2e} deg)", ok)


def test_criterion_05_alignment_recovery():
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(100):
        k = int(rng.integers(-300, 301))
        z = rng.normal(size=1600)
        reference = z[300:1300]
        other = z[300 - k:300 - k + 1000]
        result = align_min_rmse(reference, other, max_lag=300, min_overlap=100)
        ok &= result.lag == k and result.rmse < 1e-12
    _verdict(5, "alignment recovery", ok)


def _sinusoid_series(rng, n=2000, rate=100.0, noise=0.0):
    t = np.arange(n) / rate
    channels = {}
    for i, ch in enumerate(JointChannel):
        values = (
            25.0 * np.sin(2 * np.pi * 0.4 * t + 0.37 * i)
            + 8.0 * np.sin(2 * np.pi * 1.1 * t + 0.11 * i)
        )
        if noise:
            values = values + rng.normal(scale=noise, size=n)
        channels[ch] = values
    return JointAngleSeries(sample_rate=rate, start_time=0.0, channels=channels)


def test_criterion_06_self_comparison():
    rng = np.random.default_rng(31)
    series = _sinusoid_series(rng)
    report = compare_recordings(series, series,
                                max_lag_seconds=1.0, min_overlap_seconds=5.0)
    ok = report.lags == (0,)
    for ch, result in report.channels.items():
        ok &= result.rmse[0] is not None and result.rmse[0] < 1e-12
        ok &= result.correlation[0] is not None and result.correlation[0] > 1.0 - 1e-12
    _verdict(6, "self-comparison", ok)


def test_criterion_07_noise_oracle():
    rng = np.random.default_rng(43)
    sigma = 5.0
    flipped = JointChannel.lumbar_bending
    a = _sinusoid_series(rng, n=10_000, rate=100.0)
    channels = {}
    for ch, values in a.channels.items():
        if ch == flipped:
            channels[ch] = -values
        else:
            channels[ch] = values + rng.normal(scale=sigma, size=values.size)
    b = JointAngleSeries(sample_rate=100.0, start_time=0.0, channels=channels)
    report = compare_recordings(a, b, max_lag_seconds=1.0, min_overlap_seconds=5.0)
    ok = report.lags == (0,)
    for ch, result in report.channels.items():
        if ch == flipped:
            ok &= abs(result.correlation[0] - (-1.0)) < 1e-9
        else:
            ok &= abs(result.rmse[0] - sigma) / sigma < 0.05
    _verdict(7, "noise oracle", ok)


def test_criterion_08_reporting_formatting():
    # A timeline constructed to band shares 0 / 78.7 / 13.4 / 7.9.
    zero = {ch: 0.0 for ch in JointChannel}
    contorted = dict(zero)
    contorted[JointChannel.arm_flex_r] = 100.0
    contorted[JointChannel.arm_add_r] = 60.0
    contorted[JointChannel.wrist_flex_r] = 20.0
    contorted[JointChannel.wrist_dev_r] = 20.0
    contorted[JointChannel.pro_sup_r] = 90.0
    contorted[JointChannel.lumbar_flexion] = 70.0
    low_flags = AnnotationFlags(arm_force=2, neck_force=2)
    medium_flags = AnnotationFlags(arm_muscle=1, arm_force=3, neck_muscle=1, neck_force=3)
    very_high_flags = AnnotationFlags(arm_muscle=1, arm_force=3, neck_muscle=1,
                                      neck_force=3, legs=2)
    low = score_frame(zero, low_flags)
    medium = score_frame(zero, medium_flags)
    very_high = score_frame(contorted, very_high_flags)
    bands = list(RiskBand)
    ok = (bands[low.band[0]] == RiskBand.low and bands[medium.band[0]] == RiskBand.medium
          and bands[very_high.band[0]] == RiskBand.very_high)
    # 787 low, 134 medium and 79 very high samples at 30 Hz; the interval
    # bounds fall halfway between samples.
    postures = [zero] * 921 + [contorted] * 79
    series = JointAngleSeries(
        sample_rate=30.0, start_time=0.0,
        channels={ch: [p[ch] for p in postures] for ch in JointChannel},
    )
    track = AnnotationTrack.from_intervals([
        AnnotationInterval(t0=-0.5 / 30, t1=786.5 / 30, **vars(low_flags)),
        AnnotationInterval(t0=786.5 / 30, t1=920.5 / 30, **vars(medium_flags)),
        AnnotationInterval(t0=920.5 / 30, t1=999.5 / 30, **vars(very_high_flags)),
    ])
    timeline = score_timeline(series, track)
    ok &= timeline.length == 1000

    percentages = band_percentages(timeline)
    ok &= abs(sum(percentages.values()) - 100.0) < 1e-9
    ok &= format_band_shares(percentages) == "0.0 % / 78.7 % / 13.4 % / 7.9 %"

    report = build_session_report(timeline, None, "imu-csv", default_config())
    for fmt in ("structured", "delimited"):
        first = emit_session_report(report, fmt)
        second = emit_session_report(report, fmt)
        ok &= first == second
    _verdict(8, "reporting determinism and formatting", ok)


def test_criterion_09_config_robustness():
    raw = read_config_json(None)
    ok = validate_rula_config(raw) == []

    hole = copy.deepcopy(raw)
    hole["table_a"][3][1] = hole["table_a"][3][1][:2]
    problems = validate_rula_config(hole)
    ok &= any("table_a" in p and "arm=4" in p for p in problems)

    overlapping = copy.deepcopy(raw)
    overlapping["range"]["trunk"]["intervals"][2] = [0, 20, 2]
    problems = validate_rula_config(overlapping)
    ok &= any("range[trunk]" in p and "overlap" in p for p in problems)

    out_of_bounds = copy.deepcopy(raw)
    out_of_bounds["table_b"][2][2][1] = 42
    problems = validate_rula_config(out_of_bounds)
    ok &= any("table_b" in p and "42" in p for p in problems)
    _verdict(9, "config robustness", ok)


def test_criterion_10_resampling():
    t = np.arange(101) / 100.0
    ramp = JointAngleSeries(sample_rate=100.0, start_time=0.0,
                            channels={JointChannel.arm_flex_r: t.copy()})
    out = resample(ramp, 30.0)
    ramp_err = float(np.max(np.abs(out.channels[JointChannel.arm_flex_r] - out.times)))

    t3 = np.arange(301) / 100.0
    sine = JointAngleSeries(sample_rate=100.0, start_time=0.0,
                            channels={JointChannel.arm_flex_r: np.sin(2 * np.pi * t3)})
    out = resample(sine, 30.0)
    sine_err = float(np.max(np.abs(
        out.channels[JointChannel.arm_flex_r] - np.sin(2 * np.pi * out.times))))

    ok = ramp_err < 1e-12 and sine_err < 1e-3
    _verdict(10, f"resampling (ramp {ramp_err:.1e}, sine {sine_err:.1e})", ok)
