"""Score a joint-angle recording end to end.

Builds a synthetic work cycle, exports it the way an IMU suite would
(CSV, one column per joint-angle channel), then runs the full scoring
pipeline: parse -> annotate -> per-frame scores -> risk bands -> report.
"""
from pathlib import Path

from ergokit import (
    build_session_report,
    channel_summary,
    compute_angle_series,
    default_config,
    emit_session_report,
    format_band_shares,
    parse_annotations,
    parse_imu_joint_csv,
    resample,
    score_timeline,
)
from ergokit.ingest import format_imu_joint_csv
from ergokit.motion import JointChannel
from ergokit.synthetic import work_cycle_recording

out_dir = Path("demo-output")
out_dir.mkdir(exist_ok=True)

# --- 1. fabricate an "IMU export": 60 s work cycle resampled to 100 Hz ------
series_30 = compute_angle_series(work_cycle_recording(n_frames=1800, fps=30.0))
series_100 = resample(series_30, 100.0)
csv_path = out_dir / "imu_export.csv"
csv_path.write_text(format_imu_joint_csv(series_100))
print(f"wrote synthetic IMU export: {csv_path} "
      f"({series_100.length} samples at {series_100.sample_rate:g} Hz)")

# --- 2. parse it back and attach manual annotations --------------------------
series = parse_imu_joint_csv(csv_path.read_bytes())
annotations = parse_annotations(
    b"t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
    b"10,25,1,1,0,0,1\n"   # repetitive handling with a light load
    b"40,55,1,2,1,1,2\n"   # heavier lift, one leg loaded
)

# --- 3. score every sample and aggregate risk bands --------------------------
config = default_config()
timeline = score_timeline(series, annotations, config)
report = build_session_report(timeline, series, source_kind="imu-csv", config=config)

print(f"\nscored {report.samples} samples, {report.duration:.1f} s; "
      f"config {report.config_checksum}")
print("time in risk bands (negligible / low / medium / very high):")
print(" ", format_band_shares(report.band_percentages))

print("\nper-channel posture statistics (degrees):")
for ch in (JointChannel.lumbar_flexion, JointChannel.T1_head_neck_FE,
           JointChannel.arm_flex_r, JointChannel.elbow_flex_r):
    s = channel_summary(series, ch)
    print(f"  {ch.value:18s} mean {s.mean:7.2f}  sd {s.std_dev:6.2f}  "
          f"range [{s.min:7.2f}, {s.max:7.2f}]")

# --- 4. emit the session documents -------------------------------------------
(out_dir / "session.json").write_text(emit_session_report(report, "structured"))
(out_dir / "session.csv").write_text(emit_session_report(report, "delimited"))
print(f"\nsession reports written to {out_dir}/session.json and session.csv")
