"""Per-frame reference for the joint-angle geometry.

This is the scalar implementation ``ergokit.geometry`` used before it
computed every frame at once, kept unchanged as an independent oracle: one
frame and one definition at a time, with np.cross and np.linalg.norm on
single 3-vectors and Degenerate* exceptions where the batched path yields
NaN. Tests compare ``ergokit.geometry.compute_angle_series`` against
``compute_angle_series`` here, the same way ``worksheet_scorer`` serves the
RULA scorer. Its input is a list of ``Frame``, a dict of the landmarks
present per frame; ``frames_of`` converts a recording.

The only change since: the library no longer has scalar angle functions or
their exceptions, so ``DegenerateVector`` and ``DegenerateProjection`` are
defined here, with the same names and base class.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ergokit.errors import ErgokitError, NoCompleteFrames
from ergokit.geometry import (
    AXES_LANDMARKS,
    DEFAULT_BASELINE_WINDOW,
    EPSILON,
    AngleDefinition,
    Baseline,
    BodyAxes,
    PointRef,
    default_angle_definitions,
)
from ergokit.motion import (
    LANDMARK_INDEX,
    JointAngleSeries,
    JointChannel,
    KeypointRecording,
    Landmark,
    Vec3,
)

log = logging.getLogger(__name__)


class DegenerateVector(ErgokitError):
    pass


class DegenerateProjection(ErgokitError):
    pass


@dataclass(frozen=True)
class Frame:
    """One timestamped frame; a landmark absent from it has no entry."""

    timestamp: float
    positions: dict[Landmark, Vec3]

    def has(self, *landmarks: Landmark) -> bool:
        return all(lm in self.positions for lm in landmarks)


def frames_of(recording: KeypointRecording) -> list[Frame]:
    """One Frame per recording row, without its NaN rows."""
    return [Frame(timestamp=float(t),
                  positions={lm: p[i] for lm, i in LANDMARK_INDEX.items()
                             if not np.isnan(p[i]).any()})
            for t, p in zip(recording.times, recording.positions)]


def vector_angle(a: Vec3, b: Vec3) -> float:
    """Unsigned angle between two vectors, degrees in [0, 180].

    Computed as atan2(|a x b|, a . b), which equals the arccos of the
    clamped cosine but stays well-conditioned at 0 and 180 degrees, where
    the arccos form amplifies rounding into microdegrees. Raises
    DegenerateVector when either norm <= EPSILON.
    """
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= EPSILON or nb <= EPSILON:
        raise DegenerateVector(f"vector norms {na:g}, {nb:g}")
    return math.degrees(
        math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))
    )


def signed_plane_angle(u: Vec3, v: Vec3, plane_normal: Vec3) -> float:
    """Signed angle from u to v after projecting both onto the plane
    orthogonal to plane_normal, degrees in (-180, 180].

    Positive when the rotation from u to v follows the right-hand rule
    about plane_normal. Raises DegenerateProjection when a projection is
    shorter than EPSILON.
    """
    nn = float(np.linalg.norm(plane_normal))
    if nn <= EPSILON:
        raise DegenerateVector(f"plane normal norm {nn:g}")
    n = plane_normal / nn
    up = u - np.dot(u, n) * n
    vp = v - np.dot(v, n) * n
    if float(np.linalg.norm(up)) <= EPSILON or float(np.linalg.norm(vp)) <= EPSILON:
        raise DegenerateProjection("projection onto plane is degenerate")
    angle = math.degrees(math.atan2(float(np.dot(n, np.cross(up, vp))),
                                    float(np.dot(up, vp))))
    if angle <= -180.0:
        angle = 180.0
    return angle


def body_axes(frame: Frame) -> BodyAxes | None:
    """Orthonormal anatomical axes for a frame, or None when the trunk/hip
    landmarks are missing or degenerate."""
    if not frame.has(*AXES_LANDMARKS):
        return None
    pos = frame.positions
    up = pos[Landmark.torso] - pos[Landmark.pelvis]
    nu = float(np.linalg.norm(up))
    if nu <= EPSILON:
        return None
    up = up / nu
    lat = pos[Landmark.hip_r] - pos[Landmark.hip_l]
    lat = lat - np.dot(lat, up) * up
    nl = float(np.linalg.norm(lat))
    if nl <= EPSILON:
        return None
    right = lat / nl
    return BodyAxes(up=up, right=right, forward=np.cross(up, right))


def _point_vec(frame: Frame, point: PointRef) -> Vec3 | None:
    acc = np.zeros(3)
    for lm in point:
        if lm not in frame.positions:
            return None
        acc = acc + frame.positions[lm]
    return acc / len(point)


def _segment(frame: Frame, vec: tuple[PointRef, PointRef]) -> Vec3 | None:
    p0 = _point_vec(frame, vec[0])
    p1 = _point_vec(frame, vec[1])
    if p0 is None or p1 is None:
        return None
    return p1 - p0


def _raw_angle(defn: AngleDefinition, frame: Frame,
               axes: BodyAxes | None, baseline: Baseline | None) -> float:
    """One channel for one frame; raises Degenerate* or KeyError-like
    ValueError when inputs are unavailable."""
    b = _segment(frame, defn.vector_b)
    if b is None:
        raise DegenerateVector(f"{defn.channel.value}: landmarks missing")

    if defn.baseline in ("initial_self", "initial_axes"):
        if baseline is None:
            raise DegenerateVector(f"{defn.channel.value}: baseline required")
        ref_axes = baseline.axes
    else:
        ref_axes = axes

    if defn.plane == "none":
        a = _segment(frame, defn.vector_a)
        if a is None:
            raise DegenerateVector(f"{defn.channel.value}: landmarks missing")
        return vector_angle(a, b)

    if ref_axes is None:
        raise DegenerateVector(f"{defn.channel.value}: anatomical axes unavailable")

    if defn.plane == "axis_a":
        axis = _segment(frame, defn.vector_a)
        if axis is None:
            raise DegenerateVector(f"{defn.channel.value}: landmarks missing")
        reference = ref_axes.named(defn.sign_axis)
        angle = signed_plane_angle(reference, b, axis)
        return angle if defn.signed else abs(angle)

    normal = ref_axes.named(defn.sign_axis)
    if defn.baseline == "initial_self":
        a = baseline.directions.get(defn.channel)
        if a is None:
            raise DegenerateVector(f"{defn.channel.value}: baseline direction missing")
    elif isinstance(defn.vector_a, str):
        a = ref_axes.named(defn.vector_a)
    else:
        a = _segment(frame, defn.vector_a)
        if a is None:
            raise DegenerateVector(f"{defn.channel.value}: landmarks missing")

    angle = signed_plane_angle(a, b, normal)
    return angle if defn.signed else abs(angle)


def neck_baseline(frames, defs=None, window: int = DEFAULT_BASELINE_WINDOW) -> Baseline:
    """Capture the start-of-task baseline from the first complete frames.

    A frame is complete here when it carries the axes landmarks and every
    landmark used by a baseline-dependent definition. Up to ``window``
    leading frames are scanned; raises NoCompleteFrames when none qualify.
    """
    if defs is None:
        defs = default_angle_definitions()
    baseline_defs = [d for d in defs if d.baseline != "none"]
    needed: set[Landmark] = set(AXES_LANDMARKS)
    for d in baseline_defs:
        needed.update(d.landmarks())

    window_frames = list(frames)[: max(window, 1)]
    complete = [f for f in window_frames if f.has(*needed)]
    complete = [f for f in complete if body_axes(f) is not None]
    if not complete:
        raise NoCompleteFrames(
            f"no complete frame in the first {len(window_frames)} frames"
        )

    axes_list = [body_axes(f) for f in complete]
    up = _mean_direction([ax.up for ax in axes_list])
    right = _mean_direction([ax.right for ax in axes_list])
    right = right - np.dot(right, up) * up
    right = right / np.linalg.norm(right)
    axes = BodyAxes(up=up, right=right, forward=np.cross(up, right))

    inclinations: dict[JointChannel, float] = {}
    directions: dict[JointChannel, Vec3] = {}
    for d in baseline_defs:
        if d.baseline == "subtract_initial":
            values = []
            for f, ax in zip(complete, axes_list):
                values.append(_raw_angle(d, f, ax, None))
            inclinations[d.channel] = float(np.mean(values))
        elif d.baseline == "initial_self":
            segs = []
            for f in complete:
                seg = _segment(f, d.vector_b)
                segs.append(seg / np.linalg.norm(seg))
            directions[d.channel] = _mean_direction(segs)

    return Baseline(
        axes=axes,
        inclinations=inclinations,
        directions=directions,
    )


def _mean_direction(vectors) -> Vec3:
    m = np.mean(np.stack(vectors), axis=0)
    return m / np.linalg.norm(m)


def compute_joint_angles(frame: Frame, defs=None,
                         baseline: Baseline | None = None) -> dict[JointChannel, float]:
    """All computable channels for one frame.

    Channels whose landmarks are missing or whose geometry is degenerate are
    absent from the result, never zeroed. Neck flexion/extension has the
    baseline inclination subtracted when a baseline is given.
    """
    if defs is None:
        defs = default_angle_definitions()
    axes = body_axes(frame)
    out: dict[JointChannel, float] = {}
    for d in defs:
        try:
            value = _raw_angle(d, frame, axes, baseline)
        except (DegenerateVector, DegenerateProjection) as exc:
            log.debug("frame %.3f: %s", frame.timestamp, exc)
            continue
        if d.baseline == "subtract_initial" and baseline is not None:
            value -= baseline.inclinations.get(d.channel, 0.0)
        out[d.channel] = value
    return out


def compute_angle_series(frames, defs=None,
                         baseline_window: int = DEFAULT_BASELINE_WINDOW,
                         sample_rate: float | None = None) -> JointAngleSeries:
    """Apply compute_joint_angles across a recording.

    The sample rate is inferred from the median frame spacing unless given.
    Channels a frame cannot produce become NaN samples for that frame.
    """
    frames = list(frames)
    if not frames:
        raise NoCompleteFrames("empty recording")
    if defs is None:
        defs = default_angle_definitions()
    baseline = neck_baseline(frames, defs, window=baseline_window)

    if sample_rate is None:
        if len(frames) < 2:
            raise ValueError("cannot infer sample rate from a single frame")
        spacing = float(np.median(np.diff([f.timestamp for f in frames])))
        if spacing <= 0:
            raise ValueError("frame timestamps do not advance")
        sample_rate = 1.0 / spacing

    n = len(frames)
    channels = {d.channel: np.full(n, np.nan) for d in defs}
    dropped = {d.channel: 0 for d in defs}
    for i, frame in enumerate(frames):
        values = compute_joint_angles(frame, defs, baseline)
        for d in defs:
            if d.channel in values:
                channels[d.channel][i] = values[d.channel]
            else:
                dropped[d.channel] += 1
    for ch, count in dropped.items():
        if count:
            log.info("channel %s: %d of %d frames missing", ch.value, count, n)

    return JointAngleSeries(
        sample_rate=sample_rate,
        start_time=frames[0].timestamp,
        channels=channels,
    )
