"""From 3D pose keypoints to joint angles.

Feeds a markerless-tracker-style keypoint stream through the vector-based
angle pipeline: anatomical axes per frame, signed plane projections, and
the start-of-task neck baseline. Shows why the baseline matters: the raw
head inclination against the nose landmark is far from zero even when the
worker stands neutral.
"""
from pathlib import Path

import numpy as np

from ergokit import (
    build_session_report,
    compute_angle_series,
    compute_joint_angles,
    emit_plot_series,
    neck_baseline,
    parse_keypoint_stream,
    score_timeline,
)
from ergokit.ingest import format_keypoint_stream
from ergokit.motion import JointChannel
from ergokit.synthetic import posed_recording, work_cycle_recording

out_dir = Path("demo-output")
out_dir.mkdir(exist_ok=True)

# --- 1. a keypoint stream, one JSON record per frame --------------------------
recording = work_cycle_recording(n_frames=900, fps=30.0)
stream_path = out_dir / "tracker_stream.jsonl"
stream_path.write_text(format_keypoint_stream(recording))
print(f"wrote tracker stream: {stream_path} ({len(recording)} frames at 30 fps)")
print("first record:", stream_path.read_text().splitlines()[0][:96], "...")

# --- 2. the neck baseline ------------------------------------------------------
parsed = parse_keypoint_stream(stream_path.read_bytes())
baseline = neck_baseline(parsed)
head_inclination = baseline.inclinations[JointChannel.T1_head_neck_FE]
print(f"\nstart-of-task head inclination: {head_inclination:.2f} deg "
      "(subtracted from neck flexion/extension)")

neutral = posed_recording([0.0])  # one frame: every column holds one sample
raw = compute_joint_angles(neutral, baseline=None)
corrected = compute_joint_angles(neutral, baseline=baseline)
print(f"neutral stance, raw nose inclination:            "
      f"{raw[JointChannel.T1_head_neck_FE][0]:7.2f} deg")
print(f"neutral stance, relative to the task's start:    "
      f"{corrected[JointChannel.T1_head_neck_FE][0]:7.2f} deg")

# --- 3. the full 20-channel series ----------------------------------------------
series = compute_angle_series(parsed)
print(f"\ncomputed {len(series.channels)} channels, "
      f"{series.length} samples at {series.sample_rate:.1f} Hz")
for ch in (JointChannel.elbow_flex_r, JointChannel.lumbar_flexion,
           JointChannel.T1_head_neck_FE):
    values = series.channels[ch]
    print(f"  {ch.value:18s} spans [{np.nanmin(values):7.2f}, "
          f"{np.nanmax(values):7.2f}] deg")

# --- 4. plot-ready score series ---------------------------------------------------
report = build_session_report(score_timeline(series))
for name, content in emit_plot_series(report).items():
    (out_dir / name).write_text(content)
    print(f"wrote {out_dir / name} ({len(content.splitlines()) - 1} rows)")
