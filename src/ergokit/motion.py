"""Core domain types: landmarks, joint-angle channels, series containers,
and annotation intervals.

Conventions used throughout the package:

* 3D points and vectors are numpy float arrays of shape (3,) in the source
  capture volume's units; angles are scale-invariant so the unit never
  matters. A recording stacks them into one (N, L, 3) array.
* Angle samples are degrees stored as float64; a missing sample is NaN.
  No operation silently zero-fills a gap.
* All containers are value data: construct once, never mutate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import (
    EmptyChannel,
    InvalidForceValue,
    InvertedInterval,
    IrregularTimestamps,
    NonFiniteTimes,
    OverlappingIntervals,
    TooShort,
    UnknownChannel,
)

# A 3D point/vector. Kept as a bare numpy array rather than a wrapper class;
# every consumer does vector arithmetic on it directly.
Vec3 = np.ndarray


def vec3(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=float)


class Landmark(str, Enum):
    """Anatomical landmarks consumed by the angle definitions.

    This is the minimal closed set the shipped definitions need; extra
    tracker keypoints are ignored at ingestion.
    """

    nose = "nose"
    neck = "neck"
    torso = "torso"
    pelvis = "pelvis"
    shoulder_l = "shoulder_l"
    shoulder_r = "shoulder_r"
    elbow_l = "elbow_l"
    elbow_r = "elbow_r"
    wrist_l = "wrist_l"
    wrist_r = "wrist_r"
    middle_knuckle_l = "middle_knuckle_l"
    middle_knuckle_r = "middle_knuckle_r"
    pinky_knuckle_l = "pinky_knuckle_l"
    pinky_knuckle_r = "pinky_knuckle_r"
    hip_l = "hip_l"
    hip_r = "hip_r"
    knee_l = "knee_l"
    knee_r = "knee_r"
    ankle_l = "ankle_l"
    ankle_r = "ankle_r"


class JointChannel(str, Enum):
    """The twenty joint-angle channels, named exactly as exported in the
    comparison statistics tables."""

    T1_head_neck_FE = "T1_head_neck_FE"
    T1_head_neck_AR = "T1_head_neck_AR"
    T1_head_neck_LB = "T1_head_neck_LB"
    lumbar_flexion = "lumbar_flexion"
    lumbar_rotation = "lumbar_rotation"
    lumbar_bending = "lumbar_bending"
    arm_flex_l = "arm_flex_l"
    arm_flex_r = "arm_flex_r"
    arm_add_l = "arm_add_l"
    arm_add_r = "arm_add_r"
    arm_rot_l = "arm_rot_l"
    arm_rot_r = "arm_rot_r"
    elbow_flex_l = "elbow_flex_l"
    elbow_flex_r = "elbow_flex_r"
    pro_sup_l = "pro_sup_l"
    pro_sup_r = "pro_sup_r"
    wrist_flex_l = "wrist_flex_l"
    wrist_flex_r = "wrist_flex_r"
    wrist_dev_l = "wrist_dev_l"
    wrist_dev_r = "wrist_dev_r"


#: Stable channel ordering used by reports and serializers.
CHANNEL_ORDER: tuple[JointChannel, ...] = tuple(JointChannel)
#: A channel sample of larger magnitude (degrees) is no angle: a missing sample.
MAX_ABS_ANGLE = 1e6


class Side(str, Enum):
    left = "left"
    right = "right"


def channel_side(channel: JointChannel) -> Side | None:
    """Side of a sided channel (suffix _l/_r); None for axial channels."""
    name = channel.value
    if name.endswith("_l"):
        return Side.left
    if name.endswith("_r"):
        return Side.right
    return None


#: Row of each landmark in ``KeypointRecording.positions``.
LANDMARK_INDEX: dict[Landmark, int] = {lm: i for i, lm in enumerate(Landmark)}


@dataclass(frozen=True)
class KeypointRecording:
    """A whole keypoint recording as columns: ``times`` (N,) and
    ``positions`` (N, L, 3), rows in ``LANDMARK_INDEX`` order. A landmark
    absent from a frame, or with a non-finite coordinate, is a NaN row."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        if self.positions.shape != (len(self.times), len(LANDMARK_INDEX), 3):
            raise ValueError(f"positions {self.positions.shape} != (len(times), L, 3)")

    def __len__(self) -> int:
        return len(self.times)


def uniform_grid(times) -> tuple[float, float]:
    """Sample rate and start time of timestamps on a uniform grid of the
    median step. Raises TooShort for fewer than two times, and, naming the
    first offending sample, IrregularTimestamps for a non-finite time or a
    step outside 0.5-1.5x the median (a gap, a dropped frame, a stall)."""
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise TooShort(f"cannot infer a sample rate from {t.size} timestamp(s)")
    with np.errstate(invalid="ignore"):  # inf - inf; a non-finite time is refused below
        steps = np.diff(t)
        dt = float(np.median(steps))
    bad = ~np.isfinite(t)
    if not bad.any():
        bad[1:] = ~((steps >= 0.5 * dt) & (steps <= 1.5 * dt) & (dt > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise IrregularTimestamps(f"sample {i}: time {float(t[i])!r} is off the "
                                  f"uniform grid of the {dt:g} s median step")
    return 1.0 / dt, float(t[0])


@dataclass
class JointAngleSeries:
    """Multi-channel joint-angle time series on a uniform sample grid.

    Every channel is a 1-D array, one sample per row, all of one length;
    missing samples are NaN. A rate or sample time outside the float range
    raises NonFiniteTimes.
    ``unparseable_cells`` counts the non-empty IMU CSV cells that became
    missing samples.
    """

    sample_rate: float
    start_time: float
    channels: dict[JointChannel, np.ndarray]
    unparseable_cells: int = 0

    def __post_init__(self):
        if not (self.sample_rate > 0):
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        self.channels = {ch: np.asarray(v, dtype=float) for ch, v in self.channels.items()}
        shapes = {v.shape for v in self.channels.values()}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError(f"channels must be 1-D of one length, got {sorted(shapes)}")
        # At 1e-320 Hz the second sample is at t = inf; a 1e-320 s step makes the rate inf.
        end = float(self.start_time) + max(self.length - 1, 0) / float(self.sample_rate)
        if not (math.isfinite(self.sample_rate) and math.isfinite(end)):
            raise NonFiniteTimes(f"{self.length} samples at {self.sample_rate:g} Hz from "
                                 f"{self.start_time:g} s have no finite time axis")

    @property
    def length(self) -> int:
        if not self.channels:
            return 0
        return len(next(iter(self.channels.values())))

    @property
    def duration(self) -> float:
        n = self.length
        return 0.0 if n == 0 else (n - 1) / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.length) / self.sample_rate


@dataclass(frozen=True)
class ChannelSummary:
    mean: float
    std_dev: float
    min: float
    max: float


def angle_mask(values: np.ndarray) -> np.ndarray | None:
    """Which samples are angles: those within +/-MAX_ABS_ANGLE, so not NaN or
    +/-inf. None when all are, which the extrema show with no temporary."""
    if not values.size or -MAX_ABS_ANGLE <= values.min() and values.max() <= MAX_ABS_ANGLE:
        return None
    kept = values >= -MAX_ABS_ANGLE  # False for NaN
    kept &= values <= MAX_ABS_ANGLE  # in place: no float temporary
    return kept


def channel_summary(series: JointAngleSeries, channel: JointChannel) -> ChannelSummary:
    """Mean, population standard deviation, and extrema of one channel: NaN
    (missing), +/-inf and samples beyond +/-MAX_ABS_ANGLE are left out.

    Raises UnknownChannel if absent, EmptyChannel when no sample is left.
    """
    if channel not in series.channels:
        raise UnknownChannel(f"channel {channel.value} not present in series")
    values = series.channels[channel]
    kept = angle_mask(values)
    valid = values if kept is None else values[kept]
    if valid.size == 0:
        raise EmptyChannel(f"channel {channel.value} has no sample within +/-{MAX_ABS_ANGLE:g}")
    return ChannelSummary(
        mean=float(np.mean(valid)),
        std_dev=float(np.std(valid)),
        min=float(np.min(valid)),
        max=float(np.max(valid)),
    )


# --- annotations -------------------------------------------------------------

#: The annotation flags, in annotation-file column order, with their
#: allowed value ranges.
FLAG_RANGES = {"arm_muscle": (0, 1), "arm_force": (0, 3), "neck_muscle": (0, 1),
               "neck_force": (0, 3), "legs": (1, 2)}


@dataclass(frozen=True)
class AnnotationFlags:
    """Muscle/force/legs inputs active at one instant (or, as returned by
    ``AnnotationTrack.flags_for``, at N instants, one (N,) array per field).

    Defaults are the neutral values used outside any annotated interval.
    """

    arm_muscle: int = 0
    arm_force: int = 0
    neck_muscle: int = 0
    neck_force: int = 0
    legs: int = 1


NEUTRAL_FLAGS = AnnotationFlags()


@dataclass(frozen=True)
class AnnotationInterval:
    t0: float
    t1: float
    arm_muscle: int = 0
    arm_force: int = 0
    neck_muscle: int = 0
    neck_force: int = 0
    legs: int = 1

    def __post_init__(self):
        if not (self.t0 < self.t1):
            raise InvertedInterval(f"interval [{self.t0}, {self.t1}] has t0 >= t1")
        for name, (lo, hi) in FLAG_RANGES.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, int) and lo <= v <= hi):
                raise InvalidForceValue(f"{name}={v!r} outside allowed range {lo}..{hi}")


@dataclass(frozen=True)
class AnnotationTrack:
    """Non-overlapping annotation intervals sorted by t0 (``from_intervals`` sorts)."""

    intervals: tuple[AnnotationInterval, ...] = ()

    def __post_init__(self):
        for prev, nxt in zip(self.intervals, self.intervals[1:]):
            if nxt.t0 < prev.t1:
                raise OverlappingIntervals(
                    f"intervals [{prev.t0}, {prev.t1}] and [{nxt.t0}, {nxt.t1}] overlap"
                )

    @classmethod
    def from_intervals(cls, intervals) -> "AnnotationTrack":
        return cls(intervals=tuple(sorted(intervals, key=lambda iv: iv.t0)))

    def flags_for(self, times) -> AnnotationFlags:
        """Flags for every timestamp at once, each field an (N,) int8 array:
        those of the last interval starting at or before t if t < its t1
        (each interval covers [t0, t1)), else the neutral flags."""
        t = np.asarray(times, dtype=float)
        # Row k of ``rows`` and ``ends`` is interval k - 1; row 0 is neutral.
        rows = np.array([[getattr(row, name) for name in FLAG_RANGES]
                         for row in (NEUTRAL_FLAGS,) + self.intervals], dtype=np.int8)
        k = np.searchsorted([iv.t0 for iv in self.intervals], t, side="right")
        ends = np.array([-math.inf] + [iv.t1 for iv in self.intervals])
        return AnnotationFlags(**dict(zip(FLAG_RANGES, rows[np.where(t < ends[k], k, 0)].T)))


EMPTY_ANNOTATIONS = AnnotationTrack()
