"""Seeded input generators for the three benchmark workloads.

Run as a script, this writes one workload's inputs into a directory:

    python3 perfbench/gen.py --workload score-imu --seed 1 --out DIR

The program under test only ever receives the files in ``DIR`` (or, for
``validate``, the arrays in them). Everything the output checks need to
know about how the inputs were made goes to ``DIR/truth``, which no
operation reads.

The generators use numpy only, not the package: the inputs stay the same
when the package's own synthetic helpers change, so a change of program
never shows up as a change of input.
"""
from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

#: The twenty channel labels, in the package's declared channel order
#: (the column order of an IMU joint-angle CSV).
CHANNELS = (
    "T1_head_neck_FE", "T1_head_neck_AR", "T1_head_neck_LB",
    "lumbar_flexion", "lumbar_rotation", "lumbar_bending",
    "arm_flex_l", "arm_flex_r", "arm_add_l", "arm_add_r",
    "arm_rot_l", "arm_rot_r", "elbow_flex_l", "elbow_flex_r",
    "pro_sup_l", "pro_sup_r", "wrist_flex_l", "wrist_flex_r",
    "wrist_dev_l", "wrist_dev_r",
)

WORKLOADS = ("score-imu", "score-keypoints", "validate")

# --- sizes -----------------------------------------------------------------

IMU_RATE = 100.0
IMU_SECONDS = 120
IMU_ANNOTATIONS = 200
IMU_GAPS = 120              # packet-loss gaps, 1..8 samples of one channel each

KP_FPS = 30.0
KP_FRAMES = 900
KP_DROPPED = 27             # frames missing one wrist landmark
BASELINE_WINDOW = 15        # the package's start-of-task window, in frames

VAL_RUNS = 3
VAL_SECONDS = 3600
VAL_IMU_RATE = 100.0
VAL_CAM_RATE = 30.0
VAL_LAG_RANGE = (10, 60)    # camera head start, in 30 Hz samples
VAL_SIGMA_LEFT = 8.0        # camera noise on left-side channels, degrees
VAL_SIGMA_OTHER = 2.5       # camera noise on every other channel, degrees


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# --- score-imu -------------------------------------------------------------

# Per risk level (0 = negligible .. 3 = very high), the range each channel's
# phase target is drawn from. Transitions between phases pass through the
# ranges in between, so every score interval is visited.
_LEVEL_RANGES = {
    "T1_head_neck_FE": [(2, 8), (12, 18), (22, 35), (-15, -5)],
    "T1_head_neck_AR": [(-5, 5), (-8, 8), (-8, 8), (12, 25)],
    "T1_head_neck_LB": [(-5, 5), (-8, 8), (-8, 8), (12, 20)],
    "lumbar_flexion": [(-3, 3), (8, 18), (25, 50), (65, 80)],
    "lumbar_rotation": [(0, 5), (0, 8), (12, 20), (12, 25)],
    "lumbar_bending": [(-5, 5), (-8, 8), (-8, 8), (12, 20)],
    "arm_flex": [(-10, 15), (22, 40), (50, 85), (95, 130)],
    "arm_add": [(0, 20), (0, 30), (20, 40), (50, 70)],
    "arm_rot": [(0, 20), (0, 30), (10, 40), (20, 60)],
    "elbow_flex": [(65, 95), (40, 55), (105, 130), (110, 140)],
    "pro_sup": [(-30, 30), (-40, 40), (-40, 40), (50, 70)],
    "wrist_flex": [(-0.8, 0.8), (2, 12), (16, 30), (-40, -20)],
    "wrist_dev": [(-5, 5), (-8, 8), (-8, 8), (12, 20)],
}


def _joint_key(channel: str) -> str:
    return channel[:-2] if channel.endswith(("_l", "_r")) else channel


def imu_angles(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """(n, 20) angles: task phases of 1..4 s at random risk levels with
    0.3 s cosine transitions and a small tremor, rounded to 0.001 degree."""
    boundaries = [0]
    levels = []
    while boundaries[-1] < n:
        for level in rng.permutation(4):  # every level in each block of four
            levels.append(int(level))
            boundaries.append(boundaries[-1] + int(rng.uniform(1.0, 4.0) * rate))
    targets = np.empty((len(levels), len(CHANNELS)))
    for p, level in enumerate(levels):
        for c, ch in enumerate(CHANNELS):
            lo, hi = _LEVEL_RANGES[_joint_key(ch)][level]
            targets[p, c] = rng.uniform(lo, hi)

    idx = np.arange(n)
    phase = np.searchsorted(boundaries, idx, side="right") - 1
    ramp = int(0.3 * rate)
    since = idx - np.asarray(boundaries)[phase]
    w = 0.5 - 0.5 * np.cos(np.pi * np.clip(since / ramp, 0.0, 1.0))
    prev = targets[np.maximum(phase - 1, 0)]
    angles = prev + w[:, None] * (targets[phase] - prev)
    t = idx / rate
    freqs = rng.uniform(0.5, 2.0, len(CHANNELS))
    angles += 0.3 * np.sin(2 * np.pi * freqs[None, :] * t[:, None])
    return np.round(angles, 3)


def imu_gaps(rng: np.random.Generator, n: int, count: int) -> list[tuple[int, int, int]]:
    """(channel index, first sample, length) of each packet-loss gap."""
    return [
        (int(rng.integers(len(CHANNELS))), int(rng.integers(0, n - 8)),
         int(rng.integers(1, 9)))
        for _ in range(count)
    ]


def annotation_intervals(rng: np.random.Generator, n: int, count: int,
                         rate: float) -> np.ndarray:
    """(count, 7) rows t0, t1, arm_muscle, arm_force, neck_muscle,
    neck_force, legs; disjoint, 0.1..0.5 s long, with edges half-way
    between samples so no sample time sits on an edge."""
    slot = n // count
    rows = []
    for k in range(count):
        length = int(rng.integers(10, 51))
        start = k * slot + int(rng.integers(0, slot - length - 1))
        rows.append([
            (start + 0.5) / rate, (start + length + 0.5) / rate,
            rng.integers(0, 2), rng.integers(0, 4),
            rng.integers(0, 2), rng.integers(0, 4), rng.integers(1, 3),
        ])
    return np.asarray(rows, dtype=float)


def write_score_imu(out: Path, seed: int) -> dict:
    rng = rng_for("score-imu", seed)
    n = int(IMU_SECONDS * IMU_RATE)
    angles = imu_angles(rng, n, IMU_RATE)
    for c, first, length in imu_gaps(rng, n, IMU_GAPS):
        angles[first:first + length, c] = np.nan
    intervals = annotation_intervals(rng, n, IMU_ANNOTATIONS, IMU_RATE)

    lines = [",".join(("time",) + CHANNELS)]
    for i in range(n):
        cells = [f"{i / IMU_RATE:.2f}"]
        cells.extend("" if math.isnan(v) else repr(float(v)) for v in angles[i])
        lines.append(",".join(cells))
    (out / "recording.csv").write_text("\n".join(lines) + "\n")

    ann = ["t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs"]
    for row in intervals:
        ann.append(f"{row[0]:.3f},{row[1]:.3f}," + ",".join(str(int(v)) for v in row[2:]))
    (out / "annotations.csv").write_text("\n".join(ann) + "\n")

    np.save(out / "truth" / "angles.npy", angles)
    np.save(out / "truth" / "intervals.npy", intervals)
    annotated = sum(int(round((t1 - t0) * IMU_RATE)) for t0, t1 in intervals[:, :2])
    return {
        "samples": n, "rate_hz": IMU_RATE, "duration_s": n / IMU_RATE,
        "annotations": len(intervals),
        "annotated_sample_share": annotated / n,
        "missing_cell_share": float(np.isnan(angles).mean()),
    }


# --- score-keypoints -----------------------------------------------------------

# Canonical standing skeleton: up = +Z, forward = +X, subject's left = +Y.
NEUTRAL = {
    "pelvis": (0.0, 0.0, 1.00), "torso": (0.0, 0.0, 1.30),
    "neck": (0.0, 0.0, 1.55), "nose": (0.10, 0.0, 1.70),
    "hip_l": (0.0, 0.10, 1.00), "hip_r": (0.0, -0.10, 1.00),
    "knee_l": (0.0, 0.10, 0.55), "knee_r": (0.0, -0.10, 0.55),
    "ankle_l": (0.0, 0.10, 0.10), "ankle_r": (0.0, -0.10, 0.10),
    "shoulder_l": (0.0, 0.20, 1.45), "shoulder_r": (0.0, -0.20, 1.45),
    "elbow_l": (0.0, 0.20, 1.15), "elbow_r": (0.0, -0.20, 1.15),
    "wrist_l": (0.0, 0.20, 0.90), "wrist_r": (0.0, -0.20, 0.90),
    "middle_knuckle_l": (0.0, 0.20, 0.80), "middle_knuckle_r": (0.0, -0.20, 0.80),
    "pinky_knuckle_l": (-0.03, 0.20, 0.82), "pinky_knuckle_r": (-0.03, -0.20, 0.82),
}
LOWER_BODY = ("hip_l", "hip_r", "knee_l", "knee_r", "ankle_l", "ankle_r")
RIGHTWARD = np.array([0.0, -1.0, 0.0])
UP = np.array([0.0, 0.0, 1.0])


def cycle_parameters(n_frames: int, fps: float, cycle_seconds: float = 8.0) -> dict:
    """Per-frame posture parameters (degrees) of the reach-bend-place cycle
    that ``ergokit.synthetic.work_cycle_recording`` poses."""
    t = np.arange(n_frames) / fps
    phase = 2.0 * np.pi * t / cycle_seconds
    return {
        "arm_raise_r": 45.0 + 40.0 * np.sin(phase + 0.9),
        "elbow_r": 50.0 + 40.0 * np.sin(2.0 * phase),
        "arm_raise_l": 12.0 + 10.0 * np.sin(phase + 2.1),
        "elbow_l": 25.0 + 15.0 * np.sin(2.0 * phase + 0.6),
        "trunk_bend": np.maximum(0.0, 32.0 * np.sin(phase)),
        "hip_twist": 8.0 * np.sin(0.7 * phase),
        "neck_tilt": 12.0 * np.sin(phase + 0.4),
        "head_turn": 15.0 * np.sin(0.5 * phase),
    }


def rotations(axis: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """(n, 3, 3) Rodrigues rotations about unit axes (3,) or (n, 3)."""
    axis = np.broadcast_to(axis, (len(degrees), 3))
    x, y, z = axis[:, 0], axis[:, 1], axis[:, 2]
    rad = np.radians(degrees)
    c, s = np.cos(rad)[:, None, None], np.sin(rad)[:, None, None]
    zero = np.zeros_like(x)
    cross = np.stack([np.stack([zero, -z, y], -1),
                      np.stack([z, zero, -x], -1),
                      np.stack([-y, x, zero], -1)], -2)
    outer = axis[:, :, None] * axis[:, None, :]
    return c * np.eye(3) + s * cross + (1.0 - c) * outer


def _apply(rot: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nj->ni", rot, np.broadcast_to(v, (len(rot), 3)))


def posed_positions(params: dict) -> dict[str, np.ndarray]:
    """Landmark name -> (n, 3) positions for per-frame posture parameters:
    arm raises and elbow flexions relative to the trunk, trunk bend
    forward about the hips, hip twist of the lower body about the
    vertical, head tilt and turn relative to the bent trunk."""
    n = len(params["trunk_bend"])
    pos = {name: np.tile(np.asarray(p), (n, 1)) for name, p in NEUTRAL.items()}
    down = np.array([0.0, 0.0, -1.0])
    for side in ("r", "l"):
        d1 = _apply(rotations(RIGHTWARD, params[f"arm_raise_{side}"]), down)
        d2 = _apply(rotations(RIGHTWARD, params[f"elbow_{side}"]), d1)
        perp = _apply(rotations(RIGHTWARD, np.full(n, 90.0)), d2)
        pos[f"elbow_{side}"] = pos[f"shoulder_{side}"] + 0.30 * d1
        pos[f"wrist_{side}"] = pos[f"elbow_{side}"] + 0.25 * d2
        pos[f"middle_knuckle_{side}"] = pos[f"wrist_{side}"] + 0.10 * d2
        pos[f"pinky_knuckle_{side}"] = pos[f"wrist_{side}"] + 0.08 * d2 - 0.03 * perp

    pelvis = pos["pelvis"]
    bend = rotations(RIGHTWARD, -params["trunk_bend"])
    for name in pos:
        if name not in LOWER_BODY and name != "pelvis":
            pos[name] = pelvis + _apply(bend, pos[name] - pelvis)
    twist = rotations(UP, params["hip_twist"])
    for name in LOWER_BODY:
        pos[name] = pelvis + _apply(twist, pos[name] - pelvis)

    neck = pos["neck"]
    head = np.einsum("nij,njk->nik",
                     rotations(_apply(bend, UP), params["head_turn"]),
                     rotations(_apply(bend, RIGHTWARD), -params["neck_tilt"]))
    pos["nose"] = neck + _apply(head, pos["nose"] - neck)
    return pos


def random_rigid(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly random proper rotation and a camera-like offset."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, np.array([0.4, -0.2, 3.0]) + rng.uniform(-0.5, 0.5, 3)


def write_score_keypoints(out: Path, seed: int) -> dict:
    rng = rng_for("score-keypoints", seed)
    n = KP_FRAMES
    params = cycle_parameters(n, KP_FPS)
    rotation, offset = random_rigid(rng)
    pos = {name: p @ rotation.T + offset
           for name, p in posed_positions(params).items()}
    dropped = np.sort(rng.choice(np.arange(BASELINE_WINDOW, n), KP_DROPPED,
                                 replace=False))
    dropped_side = rng.choice(np.array(["l", "r"]), KP_DROPPED)
    drop = dict(zip(dropped.tolist(), dropped_side.tolist()))
    confidence = rng.uniform(0.6, 1.0, (n, len(NEUTRAL)))

    names = list(NEUTRAL)
    lines = []
    for i in range(n):
        skip = f"wrist_{drop[i]}" if i in drop else None
        record = {
            "frame": i,
            "time": i / KP_FPS,
            "points": {name: pos[name][i].tolist() for name in names if name != skip},
            "confidence": {name: round(float(confidence[i, k]), 3)
                           for k, name in enumerate(names) if name != skip},
        }
        lines.append(json.dumps(record))
    (out / "stream.jsonl").write_text("\n".join(lines) + "\n")

    np.savez(out / "truth" / "params.npz", **params)
    np.savez(out / "truth" / "dropped.npz", frames=dropped,
             right=(dropped_side == "r"))
    return {
        "frames": n, "rate_hz": KP_FPS, "duration_s": n / KP_FPS,
        "dropped_landmark_frames": KP_DROPPED,
    }


# --- validate --------------------------------------------------------------------


def smooth_signals(rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """(20, len(t)) smooth joint-angle-like signals: per channel an offset
    plus three sinusoids of incommensurate frequency, so no lag inside the
    search window repeats the signal."""
    out = np.empty((len(CHANNELS), len(t)))
    for c in range(len(CHANNELS)):
        freqs = rng.uniform(0.1, 0.4, 3)
        amps = rng.uniform(10.0, 25.0, 3)
        phases = rng.uniform(0.0, 2 * np.pi, 3)
        out[c] = rng.uniform(-10.0, 40.0)
        for f, a, p in zip(freqs, amps, phases):
            out[c] += a * np.sin(2 * np.pi * f * t + p)
    return out


def channel_sigmas() -> np.ndarray:
    return np.array([VAL_SIGMA_LEFT if ch.endswith("_l") else VAL_SIGMA_OTHER
                     for ch in CHANNELS])


def write_validate(out: Path, seed: int) -> dict:
    rng = rng_for("validate", seed)
    n_cam = int(VAL_SECONDS * VAL_CAM_RATE) + 1
    lags = rng.integers(VAL_LAG_RANGE[0], VAL_LAG_RANGE[1] + 1, VAL_RUNS)
    sigmas = channel_sigmas()
    for r, head_start in enumerate(lags):
        # One truth, sampled by both systems: the IMU at 100 Hz from t = 0,
        # the camera at 30 Hz from t = head_start / 30, with added noise.
        t_imu = np.arange(int(VAL_SECONDS * VAL_IMU_RATE) + 1) / VAL_IMU_RATE
        t_cam = (np.arange(n_cam - head_start) + head_start) / VAL_CAM_RATE
        truth_seed = [seed, WORKLOADS.index("validate"), r]
        imu = smooth_signals(np.random.default_rng(truth_seed), t_imu)
        cam = smooth_signals(np.random.default_rng(truth_seed), t_cam)
        cam += rng.normal(size=cam.shape) * sigmas[:, None]
        np.save(out / f"imu_run{r + 1}.npy", imu)
        np.save(out / f"camera_run{r + 1}.npy", cam)
        del imu, cam
    np.save(out / "truth" / "head_start.npy", lags)
    np.save(out / "truth" / "sigmas.npy", sigmas)
    return {
        "runs": VAL_RUNS, "duration_s": VAL_SECONDS,
        "imu_rate_hz": VAL_IMU_RATE, "camera_rate_hz": VAL_CAM_RATE,
        "imu_samples_per_run": int(VAL_SECONDS * VAL_IMU_RATE) + 1,
        "camera_samples_per_run": [int(n_cam - s) for s in lags],
        "camera_head_start_samples": [int(s) for s in lags],
        "noise_sigma_deg": {"left": VAL_SIGMA_LEFT, "other": VAL_SIGMA_OTHER},
    }


WRITERS = {
    "score-imu": write_score_imu,
    "score-keypoints": write_score_keypoints,
    "validate": write_validate,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs and truth; return the input make-up, with the size
    of every input file in bytes."""
    (out / "truth").mkdir(parents=True, exist_ok=True)
    makeup = WRITERS[workload](out, seed)
    makeup["input_bytes"] = {
        p.name: p.stat().st_size for p in sorted(out.iterdir()) if p.is_file()
    }
    (out / "truth" / "makeup.json").write_text(json.dumps(makeup, indent=1))
    return makeup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
