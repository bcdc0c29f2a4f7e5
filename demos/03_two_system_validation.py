"""Validate one capture system against another.

Simulates the classic two-system study: a precise reference system at
100 Hz and a camera-style system at 30 fps that starts late, carries
noise, and tracks the left side poorly. Both are brought to a common
rate, aligned by minimum RMSE on a reference channel, and compared per
channel across three runs, with the across-run MEAN column last.
"""
from pathlib import Path

import numpy as np

from ergokit import (
    compare_recordings,
    compute_angle_series,
    emit_comparison_report,
    resample,
    summarize_runs,
)
from ergokit.motion import JointAngleSeries, JointChannel, channel_side, Side
from ergokit.synthetic import work_cycle_recording

out_dir = Path("demo-output")
out_dir.mkdir(exist_ok=True)
rng = np.random.default_rng(5)


def simulate_run(head_start_s: float) -> tuple[JointAngleSeries, JointAngleSeries]:
    """One simultaneous recording: (reference at 100 Hz, degraded at 30 Hz).

    The camera starts ``head_start_s`` seconds after the reference, so its
    first sample corresponds to a later moment of the task.
    """
    truth = compute_angle_series(work_cycle_recording(n_frames=2400, fps=30.0))
    reference = resample(truth, 100.0)

    skip = int(round(head_start_s * 30.0))
    channels = {}
    for ch, values in truth.channels.items():
        sigma = 8.0 if channel_side(ch) == Side.left else 2.5
        late = values[skip:]
        channels[ch] = late + rng.normal(scale=sigma, size=late.size)
    camera = JointAngleSeries(sample_rate=30.0, start_time=0.0, channels=channels)
    return reference, camera


reports = []
for run, head_start in enumerate((0.8, 1.3, 0.4), start=1):
    reference, camera = simulate_run(head_start)
    # Compare at the lower of the two rates so nothing is invented.
    reference_30 = resample(reference, 30.0)
    report = compare_recordings(reference_30, camera,
                                reference_channel=JointChannel.arm_flex_r,
                                max_lag_seconds=5.0, min_overlap_seconds=10.0)
    print(f"run {run}: camera started {head_start:.2f} s late; "
          f"min-RMSE alignment found lag {report.lags[0]} samples "
          f"= {-(report.lags[0] / report.sample_rate):.2f} s of head start")
    reports.append(report)

summary = summarize_runs(reports)
doc = emit_comparison_report(summary, "delimited")
(out_dir / "comparison.csv").write_text(doc)
(out_dir / "comparison.json").write_text(emit_comparison_report(summary, "structured"))

print("\nper-channel RMSE (degrees), three runs and the mean:")
for line in doc.split("\n\n")[0].splitlines()[:11]:
    print(" ", line)
print(f"\nfull tables in {out_dir}/comparison.csv; note the left-side rows:")
for ch in (JointChannel.arm_flex_r, JointChannel.arm_flex_l):
    stats = summary.channels[ch]
    print(f"  {ch.value:12s} mean rmse {stats.rmse_mean:6.2f} deg, "
          f"mean correlation {stats.correlation_mean:.2f}")
