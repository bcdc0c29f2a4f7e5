"""Joint angles from 3D keypoints.

Each channel is the angle between two body-segment vectors, optionally
projected onto an anatomical plane and signed by a right-hand rule. The
anatomical frame is rebuilt per keypoint frame from the trunk and hip
landmarks:

* ``up``      — pelvis to torso, normalized;
* ``right``   — left hip to right hip, orthonormalized against ``up``;
* ``forward`` — ``up x right`` (out of the subject's chest).

The sagittal plane is normal to ``right``/``left``, the frontal plane to
``forward``/``backward``, and the transverse plane to ``up``/``down``. A
definition may instead rotate about its own first vector (``axis_a``),
measuring vector b around that axis against a body-axis reference; this is
how forearm pronation/supination is extracted.

Each definition is computed over a whole (N, L, 3) recording at once; a
single frame is the N=1 case. A missing landmark, or a vector or in-plane
projection no longer than EPSILON, makes the sample NaN.

Angles are pure functions of difference vectors, so a rigid motion or a
uniform scaling of an entire recording leaves every output unchanged.

Baseline handling: channels whose zero is only meaningful relative to the
start of the task (head inclination against the nose landmark, pelvis
orientation) are corrected against a baseline captured from the first
usable frames of the recording.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    ConfigError,
    DegenerateProjection,
    DegenerateVector,
    NoCompleteFrames,
)
from .motion import (
    LANDMARK_INDEX,
    JointAngleSeries,
    JointChannel,
    KeypointRecording,
    Landmark,
    Vec3,
    uniform_grid,
)
from .rula import read_config_json

log = logging.getLogger(__name__)

#: Vectors (or in-plane projections) shorter than this are degenerate,
#: in source units.
EPSILON = 1e-9

#: Landmarks needed to build the per-frame anatomical axes.
AXES_LANDMARKS = frozenset(
    {Landmark.pelvis, Landmark.torso, Landmark.hip_l, Landmark.hip_r}
)

_PLANES = ("none", "sagittal", "frontal", "transverse", "axis_a")
_BASELINES = ("none", "subtract_initial", "initial_self", "initial_axes")
_PLANE_AXES = {
    "sagittal": ("left", "right"),
    "frontal": ("forward", "backward"),
    "transverse": ("up", "down"),
}
_OPPOSITE_AXES = {"down": "up", "left": "right", "backward": "forward"}


# --- vector kernels ---------------------------------------------------------------
# Over (..., 3) arrays, giving (...): NaN where the scalar forms below raise.


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _norm(a):
    return np.sqrt(_dot(a, a))


def _vector_angles(a, b):
    angle = np.degrees(np.arctan2(_norm(np.cross(a, b)), _dot(a, b)))
    return np.where((_norm(a) > EPSILON) & (_norm(b) > EPSILON), angle, np.nan)


@np.errstate(invalid="ignore", divide="ignore")
def _plane_angles(u, v, plane_normal):
    nn = _norm(plane_normal)
    n = plane_normal / nn[..., None]
    up = u - _dot(u, n)[..., None] * n
    vp = v - _dot(v, n)[..., None] * n
    angle = np.degrees(np.arctan2(_dot(n, np.cross(up, vp)), _dot(up, vp)))
    angle = np.where(angle <= -180.0, 180.0, angle)
    ok = (nn > EPSILON) & (_norm(up) > EPSILON) & (_norm(vp) > EPSILON)
    return np.where(ok, angle, np.nan)


def vector_angle(a: Vec3, b: Vec3) -> float:
    """Unsigned angle between two vectors, degrees in [0, 180].

    Computed as atan2(|a x b|, a . b), which equals the arccos of the
    clamped cosine but stays well-conditioned at 0 and 180 degrees, where
    the arccos form amplifies rounding into microdegrees. Raises
    DegenerateVector when either norm <= EPSILON.
    """
    angle = float(_vector_angles(np.asarray(a, float), np.asarray(b, float)))
    if math.isnan(angle):
        raise DegenerateVector(f"vector norms {_norm(a):g}, {_norm(b):g}")
    return angle


def signed_plane_angle(u: Vec3, v: Vec3, plane_normal: Vec3) -> float:
    """Signed angle from u to v after projecting both onto the plane
    orthogonal to plane_normal, degrees in (-180, 180].

    Positive when the rotation from u to v follows the right-hand rule
    about plane_normal. Raises DegenerateVector for a plane normal and
    DegenerateProjection for a projection no longer than EPSILON.
    """
    nn = float(_norm(plane_normal))
    if nn <= EPSILON:
        raise DegenerateVector(f"plane normal norm {nn:g}")
    angle = float(_plane_angles(np.asarray(u, float), np.asarray(v, float),
                                np.asarray(plane_normal, float)))
    if math.isnan(angle):
        raise DegenerateProjection("projection onto plane is degenerate")
    return angle


# --- anatomical axes ----------------------------------------------------------


@dataclass(frozen=True)
class BodyAxes:
    """Anatomical axes: (3,) vectors for one frame or the baseline, (N, 3)
    arrays with NaN rows over a recording."""

    up: Vec3
    right: Vec3
    forward: Vec3

    def named(self, name: str) -> Vec3:
        if name in _OPPOSITE_AXES:
            return -self.named(_OPPOSITE_AXES[name])
        if name not in ("up", "right", "forward"):
            raise ValueError(f"unknown body axis {name!r}")
        return getattr(self, name)


@np.errstate(invalid="ignore", divide="ignore")
def _orthonormal(up, lateral) -> BodyAxes:
    """Axes from an upward and a rightward vector, ``lateral`` made
    orthogonal to ``up``; NaN where either is no longer than EPSILON."""
    nu = _norm(up)
    up = up / nu[..., None]
    lateral = lateral - _dot(lateral, up)[..., None] * up
    nl = _norm(lateral)
    bad = ~((nu > EPSILON) & (nl > EPSILON))[..., None]
    up = np.where(bad, np.nan, up)
    right = np.where(bad, np.nan, lateral / nl[..., None])
    return BodyAxes(up=up, right=right, forward=np.cross(up, right))


def _axes(positions: np.ndarray) -> BodyAxes:
    """Axes of every frame of an (N, L, 3) array."""
    p = {lm: positions[:, LANDMARK_INDEX[lm]] for lm in AXES_LANDMARKS}
    return _orthonormal(p[Landmark.torso] - p[Landmark.pelvis],
                        p[Landmark.hip_r] - p[Landmark.hip_l])


# --- angle definitions ----------------------------------------------------------

# A point reference is a landmark, or a pair of landmarks meaning their
# midpoint.
PointRef = tuple[Landmark, ...]


@dataclass(frozen=True)
class AngleDefinition:
    channel: JointChannel
    vector_a: tuple[PointRef, PointRef] | None  # None: reference from baseline/axis
    vector_b: tuple[PointRef, PointRef]
    plane: str = "none"
    signed: bool = False
    sign_axis: str | None = None
    axis_a_ref: str | None = None  # reference axis when plane == "axis_a"
    baseline: str = "none"

    def __post_init__(self):
        if self.plane not in _PLANES:
            raise ValueError(f"{self.channel.value}: unknown plane {self.plane!r}")
        if self.baseline not in _BASELINES:
            raise ValueError(f"{self.channel.value}: unknown baseline {self.baseline!r}")
        if self.plane == "none" and self.signed:
            raise ValueError(f"{self.channel.value}: unprojected angles cannot be signed")
        if self.plane in _PLANE_AXES:
            if self.sign_axis not in _PLANE_AXES[self.plane]:
                raise ValueError(
                    f"{self.channel.value}: sign_axis {self.sign_axis!r} does not "
                    f"orient the {self.plane} plane"
                )
        if self.plane == "axis_a" and not self.axis_a_ref:
            raise ValueError(f"{self.channel.value}: axis_a needs a reference axis")

    def landmarks(self) -> frozenset[Landmark]:
        out: set[Landmark] = set()
        for vec in (self.vector_a, self.vector_b):
            if isinstance(vec, tuple):
                for point in vec:
                    out.update(point)
        if self.plane != "none" or self.vector_a is None or self.baseline != "none":
            out.update(AXES_LANDMARKS)
        return frozenset(out)


def _parse_point(raw) -> PointRef:
    if isinstance(raw, str):
        return (Landmark(raw),)
    if isinstance(raw, (list, tuple)) and all(isinstance(x, str) for x in raw):
        return tuple(Landmark(x) for x in raw)
    raise ValueError(f"bad point reference {raw!r}")


def _parse_vector(raw):
    """A vector spec: null, {'axis': name}, or [point, point]."""
    if raw is None:
        return None, None
    if isinstance(raw, dict):
        return None, raw["axis"]
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return (_parse_point(raw[0]), _parse_point(raw[1])), None
    raise ValueError(f"bad vector spec {raw!r}")


def parse_angle_definitions(raw: dict) -> list[AngleDefinition]:
    """Angle definitions from a raw document; ConfigError when malformed."""
    defs = []
    try:
        for entry in raw["definitions"]:
            channel = JointChannel(entry["channel"])
            vec_a, axis_a = _parse_vector(entry.get("a"))
            vec_b, axis_b = _parse_vector(entry["b"])
            if vec_b is None:
                raise ValueError(f"{channel.value}: vector b must be a point pair")
            plane = entry.get("plane", "none")
            sign_axis = entry.get("sign_axis")
            axis_a_plane = plane == "axis_a"
            # For 'axis_a' the sign axis names the in-plane reference. Otherwise
            # a body-axis reference vector ('a': {'axis': ...}) keeps vector_a
            # empty; the axis name rides along in axis_a_ref.
            defs.append(AngleDefinition(
                channel=channel,
                vector_a=vec_a,
                vector_b=vec_b,
                plane=plane,
                signed=bool(entry.get("signed", False)),
                sign_axis=None if axis_a_plane else sign_axis,
                axis_a_ref=sign_axis if axis_a_plane else axis_a,
                baseline=entry.get("baseline", "none"),
            ))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"angle definitions: {type(exc).__name__}: {exc}"]) from None
    return defs


def load_angle_definitions(path: str | None = None) -> list[AngleDefinition]:
    """Load angle definitions from a JSON file, or the shipped defaults."""
    if path is None:
        raw = json.loads(
            resources.files("ergokit.data").joinpath("angle_definitions.json").read_text()
        )
    else:
        raw = read_config_json(path)
    return parse_angle_definitions(raw)


_DEFAULT_DEFS: list[AngleDefinition] | None = None


def default_angle_definitions() -> list[AngleDefinition]:
    global _DEFAULT_DEFS
    if _DEFAULT_DEFS is None:
        _DEFAULT_DEFS = load_angle_definitions()
    return _DEFAULT_DEFS


# --- baseline -------------------------------------------------------------------


@dataclass(frozen=True)
class Baseline:
    """Start-of-task references captured from the first usable frames.

    ``inclination`` is the mean raw head inclination subtracted from neck
    flexion/extension; ``axes`` and ``directions`` serve the channels
    measured against start-of-task orientation.
    """

    inclination: float
    axes: BodyAxes
    inclinations: dict[JointChannel, float]
    directions: dict[JointChannel, Vec3]


def _segment(positions: np.ndarray, vec: tuple[PointRef, PointRef]) -> np.ndarray:
    """(N, 3) vectors between two points, each a landmark or a midpoint."""
    p0, p1 = (sum(positions[:, LANDMARK_INDEX[lm]] for lm in point) / len(point)
              for point in vec)
    return p1 - p0


def _channel(defn: AngleDefinition, positions: np.ndarray, axes: BodyAxes,
             baseline: Baseline | None) -> np.ndarray:
    """One definition over every frame, (N,) degrees."""
    missing = np.full(len(positions), np.nan)
    b = _segment(positions, defn.vector_b)
    if defn.baseline in ("initial_self", "initial_axes"):
        if baseline is None:
            return missing
        axes = baseline.axes

    if defn.plane == "none" or defn.plane == "axis_a":
        if defn.vector_a is None:
            return missing
        a = _segment(positions, defn.vector_a)
        if defn.plane == "none":
            return _vector_angles(a, b)
        angle = _plane_angles(axes.named(defn.axis_a_ref), b, a)
    else:
        if defn.baseline == "initial_self":
            a = baseline.directions.get(defn.channel)
            if a is None:
                return missing
        elif defn.vector_a is not None:
            a = _segment(positions, defn.vector_a)
        elif defn.axis_a_ref is not None:
            a = axes.named(defn.axis_a_ref)
        else:
            return missing
        angle = _plane_angles(a, b, axes.named(defn.sign_axis))
    return angle if defn.signed else np.abs(angle)


def _angles(positions: np.ndarray, defs,
            baseline: Baseline | None) -> dict[JointChannel, np.ndarray]:
    """Every definition over every frame of an (N, L, 3) array, less the
    baseline inclination for ``subtract_initial`` channels."""
    axes = _axes(positions)
    out = {}
    for d in defs:
        values = _channel(d, positions, axes, baseline)
        if d.baseline == "subtract_initial" and baseline is not None:
            values = values - baseline.inclinations.get(d.channel, 0.0)
        out[d.channel] = values
    return out


#: Default number of leading frames scanned for the baseline (0.5 s at
#: 30 fps).
DEFAULT_BASELINE_WINDOW = 15


def neck_baseline(recording: KeypointRecording, defs=None,
                  window: int = DEFAULT_BASELINE_WINDOW) -> Baseline:
    """Capture the start-of-task baseline from the usable frames among the
    first ``window`` frames of a recording.

    A frame is usable when it carries the axes landmarks and every landmark
    used by a baseline-dependent definition, and is not degenerate there:
    its axes, each ``subtract_initial`` channel and each ``initial_self``
    segment are defined. Raises NoCompleteFrames when no frame is usable.
    """
    if defs is None:
        defs = default_angle_definitions()
    baseline_defs = [d for d in defs if d.baseline != "none"]
    needed = AXES_LANDMARKS.union(*(d.landmarks() for d in baseline_defs))

    positions = recording.positions[: max(window, 1)]
    axes = _axes(positions)
    usable = ~np.isnan(positions[:, [LANDMARK_INDEX[lm] for lm in needed]]).any(axis=(1, 2))
    usable &= ~np.isnan(axes.forward).any(axis=1)
    values = {d.channel: _channel(d, positions, axes, None)
              for d in baseline_defs if d.baseline == "subtract_initial"}
    segments = {d.channel: _segment(positions, d.vector_b)
                for d in baseline_defs if d.baseline == "initial_self"}
    for v in values.values():
        usable &= ~np.isnan(v)
    for seg in segments.values():
        usable &= _norm(seg) > EPSILON
    if not usable.any():
        raise NoCompleteFrames(f"no usable frame in the first {len(positions)} frames")

    inclinations = {ch: float(np.mean(v[usable])) for ch, v in values.items()}
    segments = {ch: seg[usable] for ch, seg in segments.items()}
    return Baseline(
        inclination=inclinations.get(JointChannel.T1_head_neck_FE, 0.0),
        axes=_orthonormal(_mean_direction(axes.up[usable]),
                          _mean_direction(axes.right[usable])),
        inclinations=inclinations,
        directions={ch: _mean_direction(seg / _norm(seg)[:, None])
                    for ch, seg in segments.items()},
    )


def _mean_direction(vectors: np.ndarray) -> Vec3:
    m = np.mean(vectors, axis=0)
    return m / np.linalg.norm(m)


# --- per-frame and per-series computation -----------------------------------------


def compute_joint_angles(frame: KeypointRecording, defs=None,
                         baseline: Baseline | None = None) -> dict[JointChannel, float]:
    """All computable channels for a one-frame recording.

    Channels whose landmarks are missing or whose geometry is degenerate are
    absent from the result, never zeroed. Neck flexion/extension has the
    baseline inclination subtracted when a baseline is given.
    """
    if defs is None:
        defs = default_angle_definitions()
    if len(frame) != 1:
        raise ValueError(f"expected a one-frame recording, got {len(frame)} frames")
    values = _angles(frame.positions, defs, baseline)
    return {ch: float(v[0]) for ch, v in values.items() if not math.isnan(v[0])}


def compute_angle_series(recording: KeypointRecording, defs=None,
                         baseline_window: int = DEFAULT_BASELINE_WINDOW,
                         sample_rate: float | None = None) -> JointAngleSeries:
    """Every channel over every frame of a recording.

    Unless given, the sample rate comes from ``uniform_grid`` on the frame
    times. Channels a frame cannot produce become NaN samples for that frame.
    """
    n = len(recording)
    if not n:
        raise NoCompleteFrames("empty recording")
    if defs is None:
        defs = default_angle_definitions()
    start_time = float(recording.times[0])
    if sample_rate is None:
        sample_rate, start_time = uniform_grid(recording.times)
    baseline = neck_baseline(recording, defs, window=baseline_window)

    channels = _angles(recording.positions, defs, baseline)
    for ch, values in channels.items():
        count = int(np.isnan(values).sum())
        if count:
            log.info("channel %s: %d of %d frames missing", ch.value, count, n)

    return JointAngleSeries(
        sample_rate=sample_rate,
        start_time=start_time,
        channels=channels,
        meta={"source": "keypoints", "frames": n},
    )
