"""The three workloads: the operation each one times, the results it must
produce (computed apart from the program), and the check of its output.

A checker returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

#: Float statistics are printed with 3 decimals; a recomputed value matches
#: when it is within half a unit of that place (plus rounding noise).
PRINTED_TOL = 0.0005 + 1e-9
#: The RMSE of a noisy channel may differ from the injected noise by this
#: share (sampling error over ~10^5 pairs is ~0.2 %).
NOISE_TOL = 0.03
VALIDATE_MAX_LAG_S = 10.0
VALIDATE_MIN_OVERLAP_S = 5.0


class MissingProgram(RuntimeError):
    pass


def import_program():
    """Import ``ergokit`` from this checkout's ``src`` and return its cli
    module; refuse any other installation."""
    if not (SRC / "ergokit" / "__init__.py").is_file():
        raise MissingProgram(f"no ergokit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ergokit
    from ergokit import cli

    if Path(ergokit.__file__).resolve().parent != SRC / "ergokit":
        raise MissingProgram(f"ergokit imported from {ergokit.__file__}, not {SRC}")
    return cli


def import_worksheet():
    if not (TESTS / "worksheet_scorer.py").is_file():
        raise MissingProgram(f"no worksheet oracle under {TESTS}")
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    import worksheet_scorer

    return worksheet_scorer


# --- operations --------------------------------------------------------------


def _cli(argv: list[str]) -> None:
    from ergokit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"ergokit {' '.join(argv)} exited {status}")


def load(workload: str, inputs: Path):
    """What an operation reads before its timer starts: file paths for the
    CLI workloads, the recordings in memory for ``validate``."""
    if workload != "validate":
        return inputs
    return [(np.load(inputs / f"imu_run{r}.npy"), np.load(inputs / f"camera_run{r}.npy"))
            for r in range(1, gen.VAL_RUNS + 1)]


def run_op(workload: str, state, out: Path):
    """One operation; returns what the checker reads. Call
    ``import_program`` first."""
    if workload == "score-imu":
        (out / "session.json").unlink(missing_ok=True)
        _cli(["score", str(state / "recording.csv"), "--kind", "imu-csv",
              "--annotations", str(state / "annotations.csv"), "--out", str(out)])
        return (out / "session.json").read_text()
    if workload == "score-keypoints":
        (out / "session.json").unlink(missing_ok=True)
        _cli(["score", str(state / "stream.jsonl"), "--kind", "keypoints",
              "--out", str(out)])
        return (out / "session.json").read_text()
    return validate_study(state)


def validate_study(runs) -> dict[str, str]:
    """The two-system study through the library, as
    demos/03_two_system_validation.py runs it."""
    from ergokit import compare, ingest, reporting
    from ergokit.motion import JointAngleSeries, JointChannel

    channels = [JointChannel(name) for name in gen.CHANNELS]
    reports = []
    for imu, camera in runs:
        a = JointAngleSeries(sample_rate=gen.VAL_IMU_RATE, start_time=0.0,
                             channels=dict(zip(channels, imu)))
        b = JointAngleSeries(sample_rate=gen.VAL_CAM_RATE, start_time=0.0,
                             channels=dict(zip(channels, camera)))
        a = ingest.resample(a, gen.VAL_CAM_RATE)
        b = ingest.resample(b, gen.VAL_CAM_RATE)
        reports.append(compare.compare_recordings(
            a, b, reference_channel=JointChannel.arm_flex_r,
            max_lag_seconds=VALIDATE_MAX_LAG_S,
            min_overlap_seconds=VALIDATE_MIN_OVERLAP_S,
        ))
    summary = compare.summarize_runs(reports)
    return {fmt: reporting.emit_comparison_report(summary, fmt)
            for fmt in ("structured", "delimited")}


# --- score-imu: the worksheet oracle ---------------------------------------------

#: Channels with a range score, and a value inside the joint's
#: minimum-score interval: the lenient policy scores a missing one so.
RANGE_CHANNEL_FILL = {
    "arm_flex_l": 0.0, "arm_flex_r": 0.0,
    "elbow_flex_l": 80.0, "elbow_flex_r": 80.0,
    "wrist_flex_l": 0.0, "wrist_flex_r": 0.0,
    "pro_sup_l": 0.0, "pro_sup_r": 0.0,
    "T1_head_neck_FE": 5.0, "lumbar_flexion": 0.0,
}
#: A missing adjustment channel never triggers its adjustment; 0 is inside
#: every adjustment's untriggered range.
ADJUST_FILL = 0.0
BANDS = ("negligible", "low", "medium", "very_high")
FLAG_NAMES = ("arm_muscle", "arm_force", "neck_muscle", "neck_force", "legs")


def expected_score_imu(inputs: Path) -> dict:
    worksheet = import_worksheet()
    angles = np.load(inputs / "truth" / "angles.npy")
    intervals = np.load(inputs / "truth" / "intervals.npy")
    n = len(angles)
    times = np.arange(n) / gen.IMU_RATE
    # Each interval covers [t0, t1); edges lie between samples.
    which = np.searchsorted(intervals[:, 0], times, side="right") - 1
    inside = (which >= 0) & (times < intervals[np.maximum(which, 0), 1])

    left, right, combined = (np.empty(n, dtype=int) for _ in range(3))
    for i in range(n):
        row = {}
        for name, value in zip(gen.CHANNELS, angles[i]):
            if math.isnan(value):
                value = RANGE_CHANNEL_FILL.get(name, ADJUST_FILL)
            row[name] = float(value)
        flags = {}
        if inside[i]:
            flags = dict(zip(FLAG_NAMES, (int(v) for v in intervals[which[i], 2:])))
        res = worksheet.worksheet_score(row, **flags)
        left[i], right[i], combined[i] = res["l"]["final"], res["r"]["final"], res["final"]

    bands = {name: 0 for name in BANDS}
    for value in combined:
        bands[worksheet.BANDS[int(value)]] += 1
    if min(bands.values()) == 0:
        raise ValueError(f"inputs do not reach every risk band: {bands}")
    range_cols = [gen.CHANNELS.index(name) for name in RANGE_CHANNEL_FILL]
    return {
        "samples": n,
        "times": np.round(times, 3),
        "left": left, "right": right, "combined": combined,
        "band_percentages": {b: round(100.0 * c / n, 1) for b, c in bands.items()},
        "degraded_frames": int(np.isnan(angles[:, range_cols]).any(axis=1).sum()),
    }


def check_score_imu(output: str, expected: dict) -> list[str]:
    doc = json.loads(output)
    problems = []
    if doc["samples"] != expected["samples"]:
        problems.append(f"samples {doc['samples']} != {expected['samples']}")
        return problems
    scores = doc["scores"]
    if not np.allclose(scores["time"], expected["times"], rtol=0, atol=1e-9):
        problems.append("sample times differ from the recording's time column")
    for key in ("left", "right", "combined"):
        got = np.asarray(scores[key])
        bad = np.flatnonzero(got != expected[key])
        if bad.size:
            i = int(bad[0])
            problems.append(f"{key} score differs from the worksheet at {bad.size} "
                            f"samples, first at {i}: {got[i]} != {expected[key][i]}")
    for band, share in expected["band_percentages"].items():
        if abs(doc["band_percentages"][band] - share) > 1e-9:
            problems.append(f"band {band}: {doc['band_percentages'][band]} != {share}")
    if doc["degraded_frames"] != expected["degraded_frames"]:
        problems.append(f"degraded_frames {doc['degraded_frames']} != "
                        f"{expected['degraded_frames']}")
    return problems


# --- score-keypoints: summaries of the generating parameters ---------------------


def lumbar_rotation_truth(params: dict) -> np.ndarray:
    """Pelvis rotation as the package defines it, in closed form from the
    generating parameters.

    The channel is the angle, in the start-of-task transverse plane,
    between the hip line and its start-of-task direction. The hip line is
    horizontal, turned by ``hip_twist`` about the vertical. The plane's
    normal is the mean trunk direction over the baseline window, tilted
    forward by the mean trunk bend ``beta``; projecting a horizontal line
    at angle ``theta`` onto it gives the in-plane angle
    ``atan2(sin(theta) * cos(beta), cos(theta))``.
    """
    window = slice(0, gen.BASELINE_WINDOW)
    bend = np.radians(params["trunk_bend"][window])
    beta = math.atan2(np.sin(bend).mean(), np.cos(bend).mean())
    twist = np.radians(params["hip_twist"])
    start = math.atan2(np.sin(twist[window]).mean(), np.cos(twist[window]).mean())

    def in_plane(theta):
        return np.arctan2(np.sin(theta) * math.cos(beta), np.cos(theta))

    diff = in_plane(twist) - in_plane(start)
    return np.abs(np.degrees(np.arctan2(np.sin(diff), np.cos(diff))))


def _summary(values: np.ndarray) -> dict[str, float]:
    return {"mean": float(np.mean(values)), "std_dev": float(np.std(values)),
            "min": float(np.min(values)), "max": float(np.max(values))}


def expected_score_keypoints(inputs: Path) -> dict:
    params = dict(np.load(inputs / "truth" / "params.npz"))
    dropped = np.load(inputs / "truth" / "dropped.npz")
    n = len(params["elbow_r"])
    summaries = {"lumbar_rotation": _summary(lumbar_rotation_truth(params))}
    for side, is_side in (("r", dropped["right"]), ("l", ~dropped["right"])):
        keep = np.ones(n, dtype=bool)
        keep[dropped["frames"][is_side]] = False
        summaries[f"elbow_flex_{side}"] = _summary(params[f"elbow_{side}"][keep])
    return {"samples": n, "degraded_frames": len(dropped["frames"]),
            "summaries": summaries}


def check_score_keypoints(output: str, expected: dict) -> list[str]:
    doc = json.loads(output)
    problems = []
    for key in ("samples", "degraded_frames"):
        if doc[key] != expected[key]:
            problems.append(f"{key} {doc[key]} != {expected[key]}")
    for channel, want in expected["summaries"].items():
        got = doc["channel_summaries"].get(channel)
        if got is None:
            problems.append(f"no summary for {channel}")
            continue
        for stat, value in want.items():
            if got[stat] is None or abs(got[stat] - value) > PRINTED_TOL:
                problems.append(f"{channel} {stat} {got[stat]} != {value:.6f}")
    return problems


# --- validate: lags and statistics recomputed with plain numpy -------------------


def resampled_length(n: int, rate: float, target_rate: float) -> int:
    """Samples on the target grid covering the span of ``n`` samples."""
    return int(math.floor((n - 1) / rate * target_rate + 1e-9)) + 1


def expected_validate(inputs: Path, runs) -> dict:
    head_start = np.load(inputs / "truth" / "head_start.npy")
    sigmas = np.load(inputs / "truth" / "sigmas.npy")
    rmse = np.empty((len(runs), len(gen.CHANNELS)))
    corr = np.empty_like(rmse)
    for r, ((imu, camera), skip) in enumerate(zip(runs, head_start)):
        t_imu = np.arange(imu.shape[1]) / gen.VAL_IMU_RATE
        n_out = resampled_length(imu.shape[1], gen.VAL_IMU_RATE, gen.VAL_CAM_RATE)
        t_out = np.arange(n_out) / gen.VAL_CAM_RATE
        # Camera sample j shows the moment of IMU-grid sample j + skip.
        overlap = min(n_out - skip, camera.shape[1])
        for c in range(len(gen.CHANNELS)):
            a = np.interp(t_out, t_imu, imu[c])[skip:skip + overlap]
            b = camera[c, :overlap]
            rmse[r, c] = math.sqrt(np.mean((a - b) ** 2))
            corr[r, c] = np.corrcoef(a, b)[0, 1]
    return {"lags": [-int(s) for s in head_start], "rmse": rmse, "corr": corr,
            "sigmas": sigmas}


def _csv_tables(text: str) -> dict[str, dict[str, list[str]]]:
    tables = {}
    for block in text.strip().split("\n\n"):
        rows = list(csv.reader(block.splitlines()))
        tables[rows[0][0]] = {row[0]: row[1:] for row in rows[1:]}
    return tables


def check_validate(output: dict[str, str], expected: dict) -> list[str]:
    doc = json.loads(output["structured"])
    problems = []
    if doc["lag_samples"] != expected["lags"]:
        problems.append(f"lags {doc['lag_samples']} != injected {expected['lags']}")
    tables = _csv_tables(output["delimited"])
    for c, name in enumerate(gen.CHANNELS):
        for metric, want in (("rmse", expected["rmse"][:, c]),
                             ("correlation", expected["corr"][:, c])):
            got = doc["channels"][name][metric]
            values = list(got["runs"]) + [got["mean"]]
            wants = list(want) + [float(np.mean(want))]
            labels = [f"run {r + 1}" for r in range(len(want))] + ["mean"]
            for label, g, w in zip(labels, values, wants):
                if g is None or abs(g - w) > PRINTED_TOL:
                    problems.append(f"{name} {metric} {label}: {g} != {w:.6f}")
            if tables[metric][name][:len(values)] != [f"{v:.3f}" for v in values]:
                problems.append(f"{name} {metric}: delimited table differs from JSON")
        sigma = expected["sigmas"][c]
        for r, value in enumerate(doc["channels"][name]["rmse"]["runs"]):
            if value is None or abs(value / sigma - 1.0) > NOISE_TOL:
                problems.append(f"{name} run {r + 1}: rmse {value} vs noise {sigma}")
    return problems


def expected(workload: str, inputs: Path, state) -> dict:
    """What every output of the workload must show, from the truth the
    generator wrote and (for ``validate``) the recordings in memory."""
    if workload == "score-imu":
        return expected_score_imu(inputs)
    if workload == "score-keypoints":
        return expected_score_keypoints(inputs)
    return expected_validate(inputs, state)


CHECKS = {
    "score-imu": check_score_imu,
    "score-keypoints": check_score_keypoints,
    "validate": check_validate,
}
