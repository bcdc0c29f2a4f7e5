"""Per-frame reference for RULA scoring.

This is the scalar implementation ``ergokit.rula`` used before it scored
every sample at once, kept unchanged as an independent oracle: one frame at
a time, an interval scan per range score, one Python ``if`` per position
rule, and a linear scan over the annotation intervals per sample. The only
edits are that ``RangeRule.min_score`` and ``PositionRule.triggered`` became
the module functions ``_min_score`` and ``_triggered``, and that ``flags_at``
builds an interval's flags itself, as ``AnnotationInterval.flags`` is gone.
Tests compare ``ergokit.rula.score_timeline`` and ``score_frame`` against
``score_timeline`` and ``score_frame`` here, the same way ``angle_oracle``
serves the geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ergokit.errors import IncompleteFrame, UnknownJoint
from ergokit.motion import (
    AnnotationFlags,
    AnnotationTrack,
    NEUTRAL_FLAGS,
    JointAngleSeries,
    JointChannel,
    Side,
)
from ergokit.rula import (
    AXIAL_JOINTS,
    JOINT_SCORE_RANGE,
    SIDED_JOINTS,
    PositionRule,
    RangeRule,
    RiskBand,
    RulaConfig,
    default_config,
    risk_band,
    table_a,
    table_b,
    table_c,
)


def _min_score(rule: RangeRule) -> int:
    return min(score for _, _, score in rule.intervals)


def _triggered(rule: PositionRule, angle: float) -> bool:
    if rule.predicate == "above":
        return angle > rule.threshold
    if rule.predicate == "below":
        return angle < rule.threshold
    return abs(angle) > rule.threshold  # outside


def score_range(joint: str, angle: float, config: RulaConfig | None = None) -> int:
    """Primary score of the unique interval containing ``angle``."""
    config = config or default_config()
    rule = config.range_rules.get(joint)
    if rule is None:
        raise UnknownJoint(f"no range rule for joint {joint!r}")
    if math.isnan(angle):
        raise ValueError(f"angle for {joint} is NaN; resolve missing data first")
    for lo, hi, score in rule.intervals:
        if lo <= angle < hi:
            return score
    # Only +inf can fall through the half-open chain.
    return rule.intervals[-1][2]


def _clamp_joint(joint: str, score: int) -> int:
    lo, hi = JOINT_SCORE_RANGE[joint]
    return min(hi, max(lo, score))


def apply_position_adjustments(base_scores: dict[str, int],
                               angles: Mapping[JointChannel, float],
                               config: RulaConfig | None = None,
                               side: Side | None = None) -> dict[str, int]:
    """Add each triggered position adjustment once and clamp to the joint's
    table-input range.

    ``side`` selects which sided rules apply; axial rules apply whenever
    their joint is present in ``base_scores``. Rules whose trigger channel
    is missing simply do not fire.
    """
    config = config or default_config()
    adjusted = dict(base_scores)
    for rule in config.position_rules:
        if rule.joint not in adjusted:
            continue
        if rule.side is not None and rule.side != side:
            continue
        angle = angles.get(rule.channel)
        if angle is None or (isinstance(angle, float) and math.isnan(angle)):
            continue
        if _triggered(rule, float(angle)):
            adjusted[rule.joint] += rule.adjust
    return {joint: _clamp_joint(joint, score) for joint, score in adjusted.items()}


@dataclass(frozen=True)
class SideScores:
    arm: int
    forearm: int
    wrist: int
    wrist_twist: int
    table_a_score: int
    score_c: int
    final: int


@dataclass(frozen=True)
class RulaFrameScore:
    left: SideScores
    right: SideScores
    neck: int
    trunk: int
    legs: int
    table_b_score: int
    score_d: int
    final: int
    band: RiskBand
    degraded: bool = False

    def side(self, side: Side) -> SideScores:
        return self.left if side == Side.left else self.right


def _local_score(joint: str, side_key: str, angles, config, strict: bool):
    """Range score for one joint, honouring the missing-channel policy."""
    rule = config.range_rules[joint]
    channel = rule.channels[side_key]
    angle = angles.get(channel)
    missing = angle is None or (isinstance(angle, float) and math.isnan(angle))
    if missing:
        if strict:
            raise IncompleteFrame(
                f"channel {channel.value} required for {joint} is missing"
            )
        return _min_score(rule), True
    return score_range(joint, float(angle), config), False


def score_frame(angles: Mapping[JointChannel, float],
                flags: AnnotationFlags = NEUTRAL_FLAGS,
                config: RulaConfig | None = None,
                strict: bool = False) -> RulaFrameScore:
    """Score one frame of joint angles under the given annotation flags.

    In lenient mode (default) a missing channel contributes its joint's
    minimum score and marks the frame degraded; strict mode raises
    IncompleteFrame instead. A position rule's channel absent from
    ``angles`` degrades the frame too, after every range channel is checked;
    a None or NaN one only leaves its adjustment unapplied.
    """
    config = config or default_config()
    degraded = False

    sides: dict[Side, SideScores] = {}
    shared_base: dict[str, int] = {}
    for joint in AXIAL_JOINTS:
        score, miss = _local_score(joint, "axial", angles, config, strict)
        shared_base[joint] = score
        degraded = degraded or miss
    shared = apply_position_adjustments(shared_base, angles, config, side=None)

    legs = min(2, max(1, int(flags.legs)))
    b_score = table_b(shared["neck"], shared["trunk"], legs, config)
    score_d = b_score + flags.neck_muscle + flags.neck_force

    for side, key in ((Side.left, "left"), (Side.right, "right")):
        base: dict[str, int] = {}
        for joint in SIDED_JOINTS:
            score, miss = _local_score(joint, key, angles, config, strict)
            base[joint] = score
            degraded = degraded or miss
        adjusted = apply_position_adjustments(base, angles, config, side=side)
        a_score = table_a(adjusted["arm"], adjusted["forearm"],
                          adjusted["wrist"], adjusted["wrist_twist"], config)
        score_c = a_score + flags.arm_muscle + flags.arm_force
        final = table_c(score_c, score_d, config)
        sides[side] = SideScores(
            arm=adjusted["arm"],
            forearm=adjusted["forearm"],
            wrist=adjusted["wrist"],
            wrist_twist=adjusted["wrist_twist"],
            table_a_score=a_score,
            score_c=score_c,
            final=final,
        )

    absent = [rule for rule in config.position_rules if rule.channel not in angles]
    if absent:
        if strict:
            raise IncompleteFrame(
                f"channel {absent[0].channel.value} required for {absent[0].joint} is missing"
            )
        degraded = True

    combined = max(sides[Side.left].final, sides[Side.right].final)
    return RulaFrameScore(
        left=sides[Side.left],
        right=sides[Side.right],
        neck=shared["neck"],
        trunk=shared["trunk"],
        legs=legs,
        table_b_score=b_score,
        score_d=score_d,
        final=combined,
        band=risk_band(combined, config),
        degraded=degraded,
    )


def flags_at(track: AnnotationTrack, t: float) -> AnnotationFlags:
    """Flags for timestamp t; each interval covers [t0, t1)."""
    for iv in track.intervals:
        if iv.t0 <= t < iv.t1:
            return AnnotationFlags(iv.arm_muscle, iv.arm_force, iv.neck_muscle,
                                   iv.neck_force, iv.legs)
    return NEUTRAL_FLAGS


def score_timeline(series: JointAngleSeries,
                   annotations: AnnotationTrack = AnnotationTrack(),
                   config: RulaConfig | None = None,
                   strict: bool = False) -> list[RulaFrameScore]:
    """One RulaFrameScore per sample, scored one sample at a time."""
    config = config or default_config()
    times = series.times
    frames = []
    for i in range(series.length):
        angles = {ch: float(values[i]) for ch, values in series.channels.items()}
        frames.append(
            score_frame(angles, flags_at(annotations, float(times[i])), config, strict)
        )
    return frames
