"""Synthetic posture generators.

The validation data behind this tool is confidential, so tests and demos
run on generated recordings: a canonical standing skeleton in a Z-up,
X-forward frame, posed by exact geometric construction. Generated angles
are exact by construction, which makes these recordings usable as oracles
for the keypoint pipeline.
"""
from __future__ import annotations

import math

import numpy as np

from .motion import (
    JointAngleSeries,
    JointChannel,
    KeypointFrame,
    Landmark,
    Vec3,
    vec3,
)

#: Canonical neutral standing posture: up = +Z, forward = +X, subject's
#: left = +Y. Arms hang straight down, palms toward the thighs.
NEUTRAL_POSITIONS: dict[Landmark, np.ndarray] = {
    Landmark.pelvis: vec3(0.0, 0.0, 1.00),
    Landmark.torso: vec3(0.0, 0.0, 1.30),
    Landmark.neck: vec3(0.0, 0.0, 1.55),
    Landmark.nose: vec3(0.10, 0.0, 1.70),
    Landmark.hip_l: vec3(0.0, 0.10, 1.00),
    Landmark.hip_r: vec3(0.0, -0.10, 1.00),
    Landmark.knee_l: vec3(0.0, 0.10, 0.55),
    Landmark.knee_r: vec3(0.0, -0.10, 0.55),
    Landmark.ankle_l: vec3(0.0, 0.10, 0.10),
    Landmark.ankle_r: vec3(0.0, -0.10, 0.10),
    Landmark.shoulder_l: vec3(0.0, 0.20, 1.45),
    Landmark.shoulder_r: vec3(0.0, -0.20, 1.45),
    Landmark.elbow_l: vec3(0.0, 0.20, 1.15),
    Landmark.elbow_r: vec3(0.0, -0.20, 1.15),
    Landmark.wrist_l: vec3(0.0, 0.20, 0.90),
    Landmark.wrist_r: vec3(0.0, -0.20, 0.90),
    Landmark.middle_knuckle_l: vec3(0.0, 0.20, 0.80),
    Landmark.middle_knuckle_r: vec3(0.0, -0.20, 0.80),
    Landmark.pinky_knuckle_l: vec3(-0.03, 0.20, 0.82),
    Landmark.pinky_knuckle_r: vec3(-0.03, -0.20, 0.82),
}

FOREARM_LENGTH = 0.25
HAND_LENGTH = 0.10
PINKY_ALONG = 0.08
PINKY_ASIDE = 0.03


def neutral_frame(timestamp: float = 0.0) -> KeypointFrame:
    return KeypointFrame(
        timestamp=timestamp,
        positions={lm: p.copy() for lm, p in NEUTRAL_POSITIONS.items()},
    )


def frame_with_elbow_flexion(timestamp: float, flexion_deg: float,
                             side_right: bool = True) -> KeypointFrame:
    """Neutral posture with one forearm flexed forward by exactly
    ``flexion_deg`` about the elbow; the hand stays straight on the forearm
    and the pinky keeps its sideways offset."""
    positions = {lm: p.copy() for lm, p in NEUTRAL_POSITIONS.items()}
    theta = math.radians(flexion_deg)
    # Rotate the straight-down forearm direction forward by theta.
    direction = vec3(math.sin(theta), 0.0, -math.cos(theta))
    perp = vec3(math.cos(theta), 0.0, math.sin(theta))  # unit, in-plane, forward of the forearm

    if side_right:
        elbow, wrist = Landmark.elbow_r, Landmark.wrist_r
        middle, pinky = Landmark.middle_knuckle_r, Landmark.pinky_knuckle_r
    else:
        elbow, wrist = Landmark.elbow_l, Landmark.wrist_l
        middle, pinky = Landmark.middle_knuckle_l, Landmark.pinky_knuckle_l

    positions[wrist] = positions[elbow] + FOREARM_LENGTH * direction
    positions[middle] = positions[wrist] + HAND_LENGTH * direction
    positions[pinky] = positions[wrist] + PINKY_ALONG * direction - PINKY_ASIDE * perp
    return KeypointFrame(timestamp=timestamp, positions=positions)


def elbow_flexion_recording(n_frames: int = 300, fps: float = 30.0,
                            mean_deg: float = 45.0, amplitude_deg: float = 40.0,
                            freq_hz: float = 0.5,
                            ) -> tuple[list[KeypointFrame], np.ndarray]:
    """A planar right-elbow flexion sinusoid built from exact geometry.

    Returns the frames and the generating angle per frame; everything else
    (head, trunk, left arm) stays at the neutral posture, so the neck
    baseline is constant and first-frame neck flexion is zero.
    """
    times = np.arange(n_frames) / fps
    angles = mean_deg + amplitude_deg * np.sin(2.0 * math.pi * freq_hz * times)
    frames = [
        frame_with_elbow_flexion(float(t), float(a)) for t, a in zip(times, angles)
    ]
    return frames, angles


def neutral_angle_series(n_samples: int = 100, sample_rate: float = 100.0,
                         ) -> JointAngleSeries:
    """All twenty channels at exactly 0 degrees: the all-neutral posture."""
    return JointAngleSeries(
        sample_rate=sample_rate,
        start_time=0.0,
        channels={ch: np.zeros(n_samples) for ch in JointChannel},
        meta={"source": "synthetic"},
    )


def _rot(axis: Vec3, degrees: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    x, y, z = axis
    c = math.cos(math.radians(degrees))
    s = math.sin(math.radians(degrees))
    cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(axis, axis)

# Rotation axes for posing, in the neutral body frame: subject's right is
# -Y (forward raises rotate about it), up is +Z.
_RIGHTWARD = np.array([0.0, -1.0, 0.0])
_UP = np.array([0.0, 0.0, 1.0])

_LOWER_BODY = (Landmark.hip_l, Landmark.hip_r, Landmark.knee_l,
               Landmark.knee_r, Landmark.ankle_l, Landmark.ankle_r)
_ARM = {
    "r": (Landmark.shoulder_r, Landmark.elbow_r, Landmark.wrist_r,
          Landmark.middle_knuckle_r, Landmark.pinky_knuckle_r),
    "l": (Landmark.shoulder_l, Landmark.elbow_l, Landmark.wrist_l,
          Landmark.middle_knuckle_l, Landmark.pinky_knuckle_l),
}


def posed_frame(timestamp: float = 0.0, *,
                elbow_r: float = 0.0, arm_raise_r: float = 0.0,
                elbow_l: float = 0.0, arm_raise_l: float = 0.0,
                trunk_bend: float = 0.0, hip_twist: float = 0.0,
                neck_tilt: float = 0.0, head_turn: float = 0.0) -> KeypointFrame:
    """Articulated standing posture, all parameters in degrees.

    Arm raises and elbow flexions are relative to the trunk, trunk bend is
    forward about the hips, hip twist rotates the lower body about the
    vertical, and the head tilts/turns relative to the (possibly bent)
    trunk.
    """
    positions = {lm: p.copy() for lm, p in NEUTRAL_POSITIONS.items()}

    for side, (raise_deg, elbow_deg) in (("r", (arm_raise_r, elbow_r)),
                                         ("l", (arm_raise_l, elbow_l))):
        shoulder, elbow, wrist, middle, pinky = _ARM[side]
        d1 = _rot(_RIGHTWARD, raise_deg) @ np.array([0.0, 0.0, -1.0])
        d2 = _rot(_RIGHTWARD, elbow_deg) @ d1
        perp = _rot(_RIGHTWARD, 90.0) @ d2
        positions[elbow] = positions[shoulder] + 0.30 * d1
        positions[wrist] = positions[elbow] + FOREARM_LENGTH * d2
        positions[middle] = positions[wrist] + HAND_LENGTH * d2
        positions[pinky] = positions[wrist] + PINKY_ALONG * d2 - PINKY_ASIDE * perp

    # The trunk and head point upward, so a forward rotation about the
    # rightward axis needs the opposite sign from the downward arm vectors.
    pelvis = positions[Landmark.pelvis]
    bend = _rot(_RIGHTWARD, -trunk_bend)
    for lm in positions:
        if lm not in _LOWER_BODY and lm is not Landmark.pelvis:
            positions[lm] = pelvis + bend @ (positions[lm] - pelvis)

    if hip_twist:
        twist = _rot(_UP, hip_twist)
        for lm in _LOWER_BODY:
            positions[lm] = pelvis + twist @ (positions[lm] - pelvis)

    # Head moves about the bent trunk's own axes.
    neck_point = positions[Landmark.neck]
    head = _rot(bend @ _UP, head_turn) @ _rot(bend @ _RIGHTWARD, -neck_tilt)
    positions[Landmark.nose] = neck_point + head @ (positions[Landmark.nose] - neck_point)

    return KeypointFrame(timestamp=timestamp, positions=positions)


def work_cycle_recording(n_frames: int = 600, fps: float = 30.0,
                         cycle_seconds: float = 8.0) -> list[KeypointFrame]:
    """A repetitive reach-bend-place cycle articulating the trunk, head,
    and both arms, for demos and band-mix fixtures."""
    frames = []
    for i in range(n_frames):
        t = i / fps
        phase = 2.0 * math.pi * t / cycle_seconds
        frames.append(posed_frame(
            t,
            arm_raise_r=45.0 + 40.0 * math.sin(phase + 0.9),
            elbow_r=50.0 + 40.0 * math.sin(2.0 * phase),
            arm_raise_l=12.0 + 10.0 * math.sin(phase + 2.1),
            elbow_l=25.0 + 15.0 * math.sin(2.0 * phase + 0.6),
            trunk_bend=max(0.0, 32.0 * math.sin(phase)),
            hip_twist=8.0 * math.sin(0.7 * phase),
            neck_tilt=12.0 * math.sin(phase + 0.4),
            head_turn=15.0 * math.sin(0.5 * phase),
        ))
    return frames


def transform_frames(frames, rotation: np.ndarray | None = None,
                     translation: np.ndarray | None = None,
                     scale: float = 1.0) -> list[KeypointFrame]:
    """Apply one rigid motion (plus uniform scale) to a whole recording."""
    R = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    t = np.zeros(3) if translation is None else np.asarray(translation, dtype=float)
    return [
        KeypointFrame(timestamp=frame.timestamp,
                      positions={lm: scale * (R @ p) + t for lm, p in frame.positions.items()})
        for frame in frames
    ]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniformly random proper rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
