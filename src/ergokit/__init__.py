"""ergokit: multimodal ergonomic assessment from motion-capture data.

Joint-angle series come from IMU CSV exports or markerless 3D keypoint
streams; both feed the same data-driven RULA scoring, risk-band reporting,
and two-system comparison statistics.
"""

from .motion import (
    AnnotationFlags,
    AnnotationInterval,
    AnnotationTrack,
    ChannelSummary,
    JointAngleSeries,
    JointChannel,
    KeypointRecording,
    Landmark,
    Side,
    channel_side,
    channel_summary,
)
from .ingest import (
    format_imu_joint_csv,
    parse_annotations,
    parse_imu_joint_csv,
    parse_keypoint_stream,
    resample,
)
from .geometry import (
    AngleDefinition,
    Baseline,
    compute_angle_series,
    compute_joint_angles,
    default_angle_definitions,
    load_angle_definitions,
    neck_baseline,
)
from .rula import (
    RiskBand,
    RulaConfig,
    RulaTimeline,
    band_percentages,
    default_config,
    load_rula_config,
    score_frame,
    score_timeline,
    validate_rula_config,
)
from .compare import (
    AlignmentResult,
    ComparisonReport,
    align_min_rmse,
    compare_recordings,
    summarize_runs,
)
from .reporting import (
    SessionReport,
    build_session_report,
    emit_comparison_report,
    emit_plot_series,
    emit_session_report,
    format_band_shares,
    format_percent,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
