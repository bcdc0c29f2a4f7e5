"""Synthetic posture generators.

The validation data behind this tool is confidential, so tests and demos
run on generated recordings: a canonical standing skeleton in a Z-up,
X-forward frame, posed by exact geometric construction, every frame of a
``KeypointRecording`` at once. Generated angles
are exact by construction, which makes these recordings usable as oracles
for the keypoint pipeline.
"""
from __future__ import annotations

import math

import numpy as np

from .motion import (
    LANDMARK_INDEX,
    JointAngleSeries,
    JointChannel,
    KeypointRecording,
    Landmark,
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


def neutral_angle_series(n_samples: int = 100, sample_rate: float = 100.0,
                         ) -> JointAngleSeries:
    """All twenty channels at exactly 0 degrees: the all-neutral posture."""
    return JointAngleSeries(
        sample_rate=sample_rate,
        start_time=0.0,
        channels={ch: np.zeros(n_samples) for ch in JointChannel},
        meta={"source": "synthetic"},
    )


# Rotation axes for posing, in the neutral body frame: subject's right is
# -Y (forward raises rotate about it), up is +Z.
_RIGHTWARD = np.array([0.0, -1.0, 0.0])
_UP = np.array([0.0, 0.0, 1.0])
_DOWN = -_UP

_LOWER_BODY = [LANDMARK_INDEX[lm] for lm in (
    Landmark.hip_l, Landmark.hip_r, Landmark.knee_l,
    Landmark.knee_r, Landmark.ankle_l, Landmark.ankle_r)]
_PELVIS, _NECK, _NOSE = (LANDMARK_INDEX[lm] for lm in
                         (Landmark.pelvis, Landmark.neck, Landmark.nose))
_UPPER_BODY = [i for i in LANDMARK_INDEX.values() if i not in _LOWER_BODY and i != _PELVIS]
_ARMS = [[LANDMARK_INDEX[lm] for lm in arm] for arm in (
    (Landmark.shoulder_r, Landmark.elbow_r, Landmark.wrist_r,
     Landmark.middle_knuckle_r, Landmark.pinky_knuckle_r),
    (Landmark.shoulder_l, Landmark.elbow_l, Landmark.wrist_l,
     Landmark.middle_knuckle_l, Landmark.pinky_knuckle_l))]


def _rotations(axis: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """(N, 3, 3) Rodrigues rotations by (N,) degrees about unit axes, one
    (3,) axis or one per frame (N, 3)."""
    rad = np.radians(degrees)[:, None, None]
    axis = np.broadcast_to(axis, (len(rad), 3))
    x, y, z = axis.T
    zero = np.zeros_like(x)
    cross = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(-1, 3, 3)
    return (np.cos(rad) * np.eye(3) + np.sin(rad) * cross
            + (1.0 - np.cos(rad)) * axis[:, :, None] * axis[:, None, :])


def _turn(rotations: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each frame's rotation applied to its (N, 3) or (N, K, 3) vectors."""
    return np.einsum("nij,n...j->n...i", rotations, vectors)


def posed_recording(times, *, elbow_r=0.0, arm_raise_r=0.0, elbow_l=0.0,
                    arm_raise_l=0.0, trunk_bend=0.0, hip_twist=0.0,
                    neck_tilt=0.0, head_turn=0.0) -> KeypointRecording:
    """Articulated standing posture at every time, all parameters in
    degrees, each a scalar or one value per frame; all zero is the neutral
    posture.

    Arm raises and elbow flexions are forward, relative to the trunk; trunk
    bend is forward about the hips, hip twist rotates the lower body about
    the vertical, and the head tilts/turns relative to the (possibly bent)
    trunk.
    """
    times = np.asarray(times, dtype=float)
    n = len(times)

    def per_frame(degrees):
        return np.broadcast_to(np.asarray(degrees, dtype=float), (n,))

    pos = np.tile(np.array([NEUTRAL_POSITIONS[lm] for lm in LANDMARK_INDEX]), (n, 1, 1))
    for (shoulder, elbow, wrist, middle, pinky), raise_deg, elbow_deg in zip(
            _ARMS, (arm_raise_r, arm_raise_l), (elbow_r, elbow_l)):
        upper_arm = _rotations(_RIGHTWARD, per_frame(raise_deg)) @ _DOWN
        forearm = _turn(_rotations(_RIGHTWARD, per_frame(elbow_deg)), upper_arm)
        # In the sagittal plane, forward of the forearm.
        perp = np.cross(_RIGHTWARD, forearm)
        pos[:, elbow] = pos[:, shoulder] + 0.30 * upper_arm
        pos[:, wrist] = pos[:, elbow] + FOREARM_LENGTH * forearm
        pos[:, middle] = pos[:, wrist] + HAND_LENGTH * forearm
        pos[:, pinky] = pos[:, wrist] + PINKY_ALONG * forearm - PINKY_ASIDE * perp

    # The trunk and head point upward, so a forward rotation about the
    # rightward axis needs the opposite sign from the downward arm vectors.
    pelvis = pos[:, [_PELVIS]]
    bend = _rotations(_RIGHTWARD, -per_frame(trunk_bend))
    pos[:, _UPPER_BODY] = pelvis + _turn(bend, pos[:, _UPPER_BODY] - pelvis)
    twist = _rotations(_UP, per_frame(hip_twist))
    pos[:, _LOWER_BODY] = pelvis + _turn(twist, pos[:, _LOWER_BODY] - pelvis)

    # Head moves about the bent trunk's own axes.
    head = (_rotations(bend @ _UP, per_frame(head_turn))
            @ _rotations(bend @ _RIGHTWARD, -per_frame(neck_tilt)))
    pos[:, _NOSE] = pos[:, _NECK] + _turn(head, pos[:, _NOSE] - pos[:, _NECK])
    return KeypointRecording(times=times, positions=pos)


def work_cycle_recording(n_frames: int = 600, fps: float = 30.0,
                         cycle_seconds: float = 8.0) -> KeypointRecording:
    """A repetitive reach-bend-place cycle articulating the trunk, head,
    and both arms, for demos and band-mix fixtures."""
    times = np.arange(n_frames) / fps
    phase = 2.0 * np.pi * times / cycle_seconds
    return posed_recording(
        times,
        arm_raise_r=45.0 + 40.0 * np.sin(phase + 0.9),
        elbow_r=50.0 + 40.0 * np.sin(2.0 * phase),
        arm_raise_l=12.0 + 10.0 * np.sin(phase + 2.1),
        elbow_l=25.0 + 15.0 * np.sin(2.0 * phase + 0.6),
        trunk_bend=np.maximum(0.0, 32.0 * np.sin(phase)),
        hip_twist=8.0 * np.sin(0.7 * phase),
        neck_tilt=12.0 * np.sin(phase + 0.4),
        head_turn=15.0 * np.sin(0.5 * phase),
    )


def elbow_flexion_recording(n_frames: int = 300, fps: float = 30.0,
                            mean_deg: float = 45.0, amplitude_deg: float = 40.0,
                            freq_hz: float = 0.5,
                            ) -> tuple[KeypointRecording, np.ndarray]:
    """A planar right-elbow flexion sinusoid built from exact geometry.

    Returns the recording and the generating angle per frame; everything
    else (head, trunk, left arm) stays at the neutral posture, so the neck
    baseline is constant and first-frame neck flexion is zero.
    """
    times = np.arange(n_frames) / fps
    angles = mean_deg + amplitude_deg * np.sin(2.0 * math.pi * freq_hz * times)
    return posed_recording(times, elbow_r=angles), angles


def transform_recording(recording: KeypointRecording,
                        rotation: np.ndarray | None = None,
                        translation: np.ndarray | None = None,
                        scale: float = 1.0) -> KeypointRecording:
    """Apply one rigid motion (plus uniform scale) to a whole recording;
    NaN rows stay NaN."""
    R = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    t = np.zeros(3) if translation is None else np.asarray(translation, dtype=float)
    return KeypointRecording(times=recording.times,
                             positions=scale * (recording.positions @ R.T) + t)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniformly random proper rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
