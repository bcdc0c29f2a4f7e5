"""Fixture builders that only the tests use: an all-neutral angle series, a
planar elbow sinusoid with its generating angles, rigid motions of a
keypoint recording, the annotation CSV writer that round-trips
``parse_annotations``, one sample scored the way a recording is or under
any flags, and a config's problems as ``check-config`` reads them."""
from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from ergokit.errors import ConfigError
from ergokit.motion import (
    FLAG_RANGES,
    AnnotationFlags,
    AnnotationInterval,
    AnnotationTrack,
    JointAngleSeries,
    JointChannel,
    KeypointRecording,
)
from ergokit.rula import (
    RulaConfig,
    RulaTimeline,
    _score,
    config_from_dict,
    default_config,
    score_timeline,
)
from ergokit.synthetic import posed_recording


def neutral_angle_series(n_samples: int = 100, sample_rate: float = 100.0,
                         ) -> JointAngleSeries:
    """All twenty channels at exactly 0 degrees: the all-neutral posture."""
    return JointAngleSeries(
        sample_rate=sample_rate,
        start_time=0.0,
        channels={ch: np.zeros(n_samples) for ch in JointChannel},
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


def format_annotations(track: AnnotationTrack) -> str:
    """An annotation CSV of ``track``, header first."""
    lines = [",".join(("t0", "t1", *FLAG_RANGES))]
    for iv in track.intervals:
        lines.append(",".join([repr(iv.t0), repr(iv.t1)]
                              + [str(getattr(iv, name)) for name in FLAG_RANGES]))
    return "\n".join(lines) + "\n"


def score_one(angles: dict, flags: AnnotationFlags | None = None,
              config: RulaConfig | None = None, strict: bool = False) -> RulaTimeline:
    """One sample of ``angles`` (channel -> degrees, None for NaN) at t = 0,
    scored as ``ergokit score`` scores a recording: a one-sample series
    through ``score_timeline``, with ``flags`` on one annotation interval
    [0, 1)."""
    series = JointAngleSeries(sample_rate=1.0, start_time=0.0,
                              channels={ch: [v] for ch, v in angles.items()})
    track = AnnotationTrack() if flags is None else AnnotationTrack(
        (AnnotationInterval(0.0, 1.0, **vars(flags)),))
    return score_timeline(series, track, config, strict)


def score_any_flags(angles: dict, flags: AnnotationFlags, config: RulaConfig | None = None,
                    strict: bool = False) -> RulaTimeline:
    """One sample of ``angles`` through ``rula._score``, the scorer that
    ``score_timeline`` calls, under ``flags`` that may lie outside the
    annotation ranges, as no input file's can (score C and D then leave
    1..9, legs 1..2); ``angles`` may be empty."""
    channels = {ch: np.array([v], dtype=float) for ch, v in angles.items()}
    scores = _score(channels, 1, AnnotationFlags(*np.int8([astuple(flags)]).T),
                    config or default_config(), strict)
    return RulaTimeline(sample_rate=1.0, start_time=0.0, **scores)


def config_problems(raw) -> list[str]:
    """Every problem ``config_from_dict`` finds in ``raw``, in the order
    ``check-config`` prints them; empty when the config builds."""
    try:
        config_from_dict(raw)
    except ConfigError as exc:
        return exc.violations
    return []
