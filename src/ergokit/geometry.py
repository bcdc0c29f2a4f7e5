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
how forearm pronation/supination is extracted. An ``AngleDefinition`` is
its JSON entry as written; an entry that no frame could compute is refused
when the definitions load.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateProjection,
    DegenerateVector,
    NoCompleteFrames,
)
from .ingest import read_config_json
from .motion import (
    LANDMARK_INDEX,
    JointAngleSeries,
    JointChannel,
    KeypointRecording,
    Landmark,
    Vec3,
    uniform_grid,
)

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
_AXIS_NAMES = (*_OPPOSITE_AXES.values(), *_OPPOSITE_AXES)


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
# midpoint; a segment runs from its first point to its second.
PointRef = tuple[Landmark, ...]
Segment = tuple[PointRef, PointRef]


@dataclass(frozen=True)
class AngleDefinition:
    """One channel as its JSON entry states it. ``vector_a`` is a segment, a
    body-axis name (``{"axis": name}``), or None for ``initial_self``, which
    measures against the start-of-task direction of ``vector_b``.
    ``sign_axis`` is the plane normal, or for ``axis_a`` the in-plane
    reference. ValueError for an entry that no frame could compute."""

    channel: JointChannel
    vector_a: Segment | str | None
    vector_b: Segment
    plane: str = "none"
    signed: bool = False
    sign_axis: str | None = None
    baseline: str = "none"

    def __post_init__(self):
        name = self.channel.value
        if self.plane not in _PLANES:
            raise ValueError(f"{name}: unknown plane {self.plane!r}")
        if self.baseline not in _BASELINES:
            raise ValueError(f"{name}: unknown baseline {self.baseline!r}")
        if not isinstance(self.signed, bool):
            raise ValueError(f"{name}: signed must be true or false, got {self.signed!r}")
        if self.plane == "none" and self.signed:
            raise ValueError(f"{name}: unprojected angles cannot be signed")
        if self.plane in ("none", "axis_a") and not isinstance(self.vector_a, tuple):
            raise ValueError(f"{name}: plane {self.plane!r} needs a point pair as a")
        if self.plane != "none" and self.sign_axis not in _PLANE_AXES.get(self.plane, _AXIS_NAMES):
            raise ValueError(f"{name}: sign_axis {self.sign_axis!r} does not orient "
                             f"the {self.plane} plane")
        if (self.vector_a is None) != (self.baseline == "initial_self"):
            raise ValueError(f"{name}: a must be null exactly when the baseline is initial_self")
        if self.vector_a not in (None, *_AXIS_NAMES) and not isinstance(self.vector_a, tuple):
            raise ValueError(f"{name}: unknown body axis {self.vector_a!r}")

    def landmarks(self) -> frozenset[Landmark]:
        segments = [v for v in (self.vector_a, self.vector_b) if isinstance(v, tuple)]
        out = {lm for segment in segments for point in segment for lm in point}
        if self.plane != "none" or self.baseline != "none":
            out.update(AXES_LANDMARKS)
        return frozenset(out)


def _parse_point(raw) -> PointRef:
    names = [raw] if isinstance(raw, str) else raw
    if isinstance(names, (list, tuple)) and names and all(isinstance(x, str) for x in names):
        return tuple(Landmark(x) for x in names)
    raise ValueError(f"bad point reference {raw!r}")


def _parse_segment(raw) -> Segment:
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return _parse_point(raw[0]), _parse_point(raw[1])
    raise ValueError(f"bad vector spec {raw!r}")


def parse_angle_definitions(raw: dict) -> list[AngleDefinition]:
    """Angle definitions from a raw document; ConfigError when malformed."""
    defs = []
    try:
        for entry in raw["definitions"]:
            a = entry.get("a")
            defs.append(AngleDefinition(
                channel=JointChannel(entry["channel"]),
                vector_a=(a if a is None else a["axis"] if isinstance(a, dict)
                          else _parse_segment(a)),
                vector_b=_parse_segment(entry["b"]),
                plane=entry.get("plane", "none"),
                signed=entry.get("signed", False),
                sign_axis=entry.get("sign_axis"),
                baseline=entry.get("baseline", "none"),
            ))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"angle definitions: {type(exc).__name__}: {exc}"]) from None
    return defs


def load_angle_definitions(path: str | None = None) -> list[AngleDefinition]:
    """Load angle definitions from a JSON file, or the shipped defaults."""
    return parse_angle_definitions(read_config_json(path, "angle_definitions.json"))


@functools.cache
def default_angle_definitions() -> list[AngleDefinition]:
    return load_angle_definitions()


# --- baseline -------------------------------------------------------------------


@dataclass(frozen=True)
class Baseline:
    """Start-of-task references captured from the first usable frames: the
    mean raw value of each ``subtract_initial`` channel (the head inclination
    for neck flexion/extension), the body axes, and the direction of each
    ``initial_self`` segment."""

    axes: BodyAxes
    inclinations: dict[JointChannel, float]
    directions: dict[JointChannel, Vec3]


def _segment(positions: np.ndarray, vec: Segment) -> np.ndarray:
    """(N, 3) vectors between two points, each a landmark or a midpoint."""
    p0, p1 = (sum(positions[:, LANDMARK_INDEX[lm]] for lm in point) / len(point)
              for point in vec)
    return p1 - p0


def _channel(defn: AngleDefinition, positions: np.ndarray, axes: BodyAxes,
             baseline: Baseline | None) -> np.ndarray:
    """One definition over every frame, (N,) degrees; all NaN for an
    ``initial_*`` definition without a baseline that serves it."""
    b = _segment(positions, defn.vector_b)
    if defn.baseline in ("initial_self", "initial_axes"):
        if baseline is None or (defn.vector_a is None and defn.channel not in baseline.directions):
            return np.full(len(positions), np.nan)
        axes = baseline.axes
    if defn.vector_a is None:
        a = baseline.directions[defn.channel]
    elif isinstance(defn.vector_a, str):
        a = axes.named(defn.vector_a)
    else:
        a = _segment(positions, defn.vector_a)

    if defn.plane == "none":
        return _vector_angles(a, b)
    if defn.plane == "axis_a":
        angle = _plane_angles(axes.named(defn.sign_axis), b, a)
    else:
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

    segments = {ch: seg[usable] for ch, seg in segments.items()}
    return Baseline(
        axes=_orthonormal(_mean_direction(axes.up[usable]),
                          _mean_direction(axes.right[usable])),
        inclinations={ch: float(np.mean(v[usable])) for ch, v in values.items()},
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


def compute_angle_series(recording: KeypointRecording, defs=None) -> JointAngleSeries:
    """Every channel over every frame of a recording.

    The sample rate and start time come from ``uniform_grid`` on the frame
    times, and the neck baseline from the usable frames among the first
    ``DEFAULT_BASELINE_WINDOW``. Channels a frame cannot produce become NaN
    samples for that frame.
    """
    if not len(recording):
        raise NoCompleteFrames("empty recording")
    if defs is None:
        defs = default_angle_definitions()
    sample_rate, start_time = uniform_grid(recording.times)
    baseline = neck_baseline(recording, defs)
    return JointAngleSeries(
        sample_rate=sample_rate,
        start_time=start_time,
        channels=_angles(recording.positions, defs, baseline),
    )
