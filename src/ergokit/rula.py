"""Data-driven RULA scoring.

Every number that decides a score lives in the configuration (the shipped
default is ``data/rula_default.json``), never in code: per-joint angle
ranges with their primary scores under the ``range`` key, posture
adjustments under ``position``, the three lookup tables, and the risk-band
cut points. Changing a threshold is a config edit. ``config_from_dict``
validates and builds in one walk: it returns the RulaConfig, its arrays
and mappings read-only, or raises ConfigError with every problem. Its
integers (table cells, range scores, adjusts, band bounds) are JSON integers
within bounds, never booleans. The config's checksum is the first 16 hex
digits of the SHA-256 of its canonical JSON, from CPython's built-in hash
module, so scoring never loads OpenSSL.

Scoring order per sample and side: range score per joint, position
adjustments (clamped to each joint's table-input range), Table A, then
score C = table A + arm muscle + arm force. Shared: neck/trunk range
scores, adjustments, Table B with the annotated legs score, then
score D = table B + neck muscle + neck force. Scores C and D are clamped
to 1..9 before the final Table C lookup. The combined score is the worse
(max) of the two sides. Every score is int8 and no sum wraps: cells and
range scores are 1..9, an annotated flag 0..3, and adjustments add up in
a type that holds 9 + 3 per position rule before the clamp.

There is one scoring path, over all samples at once: ``score_timeline``
returns a ``RulaTimeline`` of (N,) arrays, one sample being the case N=1:
scores have this one type from scoring to report. Tables A, B and C and
the risk bands are looked up there alone, by indexing the config's arrays
(``band_codes`` for the bands). A channel that is absent or no angle (NaN,
+/-inf, beyond +/-``MAX_ABS_ANGLE``: ``motion.angle_mask``, as in
``compare``) is missing: it scores its joint's minimum and marks the sample
degraded, or with ``strict=True`` raises IncompleteFrame naming it and the
first sample lacking it. A sample that is no angle fires no adjustment; a
position rule's absent channel degrades all.

Range intervals are half-open [lo, hi); the first interval is open below
and the last closed above, so every finite angle scores exactly once.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

try:  # CPython's own sha256: hashlib would load OpenSSL's libcrypto (~3.5 MB resident)
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from .errors import ConfigError, EmptyTimeline, IncompleteFrame
from .ingest import MAX_JSON_DEPTH, json_too_deep, read_config_json
from .motion import (
    AnnotationFlags,
    AnnotationTrack,
    EMPTY_ANNOTATIONS,
    JointAngleSeries,
    JointChannel,
    Side,
    angle_mask,
)


class RiskBand(str, Enum):
    negligible = "negligible"
    low = "low"
    medium = "medium"
    very_high = "very_high"


#: Joints scored per side vs shared, with their table-input score ranges.
SIDED_JOINTS = ("arm", "forearm", "wrist", "wrist_twist")
AXIAL_JOINTS = ("neck", "trunk")
JOINT_SCORE_RANGE = {
    "arm": (1, 6),
    "forearm": (1, 3),
    "wrist": (1, 4),
    "wrist_twist": (1, 2),
    "neck": (1, 6),
    "trunk": (1, 6),
    "legs": (1, 2),
}

_PREDICATES = ("above", "below", "outside")


@dataclass(frozen=True)
class RangeRule:
    joint: str
    channels: Mapping[str, JointChannel]  # keys: "left"/"right" or "axial"
    intervals: tuple[tuple[float, float, int], ...]  # (lo, hi, score), sorted
    edges: np.ndarray = field(repr=False, compare=False)  # starts after the first
    scores: np.ndarray = field(repr=False, compare=False)  # one per interval


@dataclass(frozen=True)
class PositionRule:
    joint: str
    channel: JointChannel
    predicate: str
    threshold: float
    adjust: int
    side: Side | None = None


@dataclass(frozen=True)
class RulaConfig:
    range_rules: Mapping[str, RangeRule]
    position_rules: tuple[PositionRule, ...]
    # Equality compares the rules and the checksum, which covers the tables.
    table_a_values: np.ndarray = field(compare=False)  # shape (6, 3, 4, 2)
    table_b_values: np.ndarray = field(compare=False)  # shape (6, 6, 2)
    table_c_values: np.ndarray = field(compare=False)  # shape (9, 9)
    band_codes: np.ndarray = field(compare=False)  # final score -> band index in RiskBand order
    checksum: str


# --- config loading: one walk validates and builds ----------------------------


def _digest(value, digits: int) -> str:
    """The first ``digits`` hex digits of the sha256 of ``value``'s canonical JSON."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()[:digits]


def config_checksum(raw: dict) -> str:
    """Checksum of the canonicalized config, embedded in every report."""
    return _digest(raw, 16)


def table_checksums(raw: dict) -> dict[str, str]:
    return {name: _digest(raw.get(name), 12) for name in ("table_a", "table_b", "table_c")}


def _is_int(value, lo=-math.inf, hi=math.inf) -> bool:
    """A JSON integer (never a bool) within lo..hi."""
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi


def _is_number(value) -> bool:
    """A JSON number that converts to float without overflow; not a bool."""
    return isinstance(value, float) or _is_int(value, -sys.float_info.max, sys.float_info.max)


def _table(raw: dict, name: str, shape: tuple[int, ...], bounds: tuple[int, int],
           axis_names: tuple[str, ...], problems: list[str]) -> np.ndarray | None:
    """Table ``name`` as an int array, or None when it has problems."""
    table = raw.get(name)
    before = len(problems)

    def at(coord):
        return f"{name}[" + "][".join(f"{n}={c}" for n, c in zip(axis_names, coord)) + "]"

    def walk(node, dims, coord):
        if not dims:
            if not _is_int(node):
                problems.append(f"{at(coord)}: cell missing or not an integer")
            elif not _is_int(node, *bounds):
                problems.append(f"{at(coord)}: value {node} outside {bounds[0]}..{bounds[1]}")
            return
        if not isinstance(node, list) or len(node) != dims[0]:
            prefix = at(coord) if coord else name
            found = len(node) if isinstance(node, list) else "non-list"
            problems.append(f"{prefix}: expected {dims[0]} entries, found {found}")
            return
        for i, child in enumerate(node, start=1):
            walk(child, dims[1:], coord + (i,))

    walk(table, list(shape), ())
    return np.asarray(table, dtype=np.int8) if len(problems) == before else None


def _range_rules(raw: dict, problems: list[str]) -> dict[str, RangeRule]:
    section = raw.get("range")
    if not isinstance(section, dict):
        problems.append("range: section missing or not an object")
        return {}
    for joint in SIDED_JOINTS + AXIAL_JOINTS:
        if joint not in section:
            problems.append(f"range[{joint}]: rule missing")
    rules = {}
    for joint, rule in section.items():
        if joint not in JOINT_SCORE_RANGE or joint == "legs":
            problems.append(f"range[{joint}]: unknown joint")
            continue
        if not isinstance(rule, dict):
            problems.append(f"range[{joint}]: rule must be an object")
            continue
        channels = rule.get("channels", {})
        if not isinstance(channels, dict):
            channels = {}  # reported as lacking the expected keys
        expected = {"left", "right"} if joint in SIDED_JOINTS else {"axial"}
        if set(channels) != expected:
            problems.append(
                f"range[{joint}]: channels must be exactly {sorted(expected)}"
            )
        parsed_channels = {}
        for key, ch in channels.items():
            try:
                parsed_channels[key] = JointChannel(ch)
            except ValueError:
                problems.append(f"range[{joint}]: unknown channel {ch!r} for {key}")
        intervals = rule.get("intervals")
        if not isinstance(intervals, list) or not intervals:
            problems.append(f"range[{joint}]: intervals missing")
            continue
        parsed = []
        for entry in intervals:
            if (not isinstance(entry, list) or len(entry) != 3
                    or not all(b is None or _is_number(b) for b in entry[:2])
                    or not _is_int(entry[2], 1, 9)):
                problems.append(f"range[{joint}]: bad interval {entry!r}")
                continue
            lo = -math.inf if entry[0] is None else float(entry[0])
            hi = math.inf if entry[1] is None else float(entry[1])
            if not lo < hi:
                problems.append(f"range[{joint}]: empty interval [{entry[0]}, {entry[1]}]")
                continue
            parsed.append((lo, hi, entry[2]))
        parsed.sort(key=lambda iv: iv[0])
        if parsed:
            if parsed[0][0] != -math.inf:
                problems.append(f"range[{joint}]: lowest interval must be open below")
            if parsed[-1][1] != math.inf:
                problems.append(f"range[{joint}]: highest interval must be open above")
        for prev, nxt in zip(parsed, parsed[1:]):
            if nxt[0] < prev[1]:
                problems.append(
                    f"range[{joint}]: intervals [{prev[0]}, {prev[1]}] and "
                    f"[{nxt[0]}, {nxt[1]}] overlap"
                )
            elif nxt[0] > prev[1]:
                problems.append(
                    f"range[{joint}]: gap between {prev[1]} and {nxt[0]}"
                )
        rules[joint] = RangeRule(
            joint=joint,
            channels=MappingProxyType(parsed_channels),
            intervals=tuple(parsed),
            edges=np.array([lo for lo, _, _ in parsed[1:]]),
            scores=np.array([score for _, _, score in parsed], dtype=np.int8),
        )
    return rules


def _position_rules(raw: dict, problems: list[str]) -> tuple[PositionRule, ...]:
    section = raw.get("position")
    if not isinstance(section, list):
        problems.append("position: section missing or not a list")
        return ()
    rules = []
    for i, rule in enumerate(section):
        where = f"position[{i}]"
        if not isinstance(rule, dict):
            problems.append(f"{where}: rule must be an object")
            continue
        joint = rule.get("joint")
        if not isinstance(joint, str) or joint not in JOINT_SCORE_RANGE or joint == "legs":
            problems.append(f"{where}: unknown joint {joint!r}")
            continue
        before = len(problems)
        side = rule.get("side")
        if joint in SIDED_JOINTS:
            if side not in ("left", "right"):
                problems.append(f"{where}: sided joint {joint} needs side left/right")
        elif side is not None:
            problems.append(f"{where}: axial joint {joint} cannot take a side")
        try:
            channel = JointChannel(rule.get("channel"))
        except ValueError:
            problems.append(f"{where}: unknown channel {rule.get('channel')!r}")
        if rule.get("predicate") not in _PREDICATES:
            problems.append(f"{where}: predicate must be one of {_PREDICATES}")
        threshold = rule.get("threshold")
        if not _is_number(threshold) or not math.isfinite(threshold):
            problems.append(f"{where}: threshold must be finite")
        adjust = rule.get("adjust")
        if not _is_int(adjust, -3, 3) or adjust == 0:
            problems.append(f"{where}: adjust must be a small nonzero integer")
        if len(problems) == before:
            rules.append(PositionRule(
                joint=joint, channel=channel, predicate=rule["predicate"],
                threshold=float(threshold), adjust=adjust,
                side=Side(side) if side else None,
            ))
    return tuple(rules)


def _band_codes(raw: dict, problems: list[str]) -> np.ndarray:
    """Final score 1..7 -> index of its band in RiskBand order."""
    band_codes = np.zeros(8, dtype=np.int8)
    bands = raw.get("bands")
    if not isinstance(bands, dict):
        problems.append("bands: section missing or not an object")
        return band_codes
    codes = {band.value: code for code, band in enumerate(RiskBand)}
    if set(bands) != set(codes):
        problems.append(f"bands: names must be exactly {sorted(codes)}")
        return band_codes
    covered = {}
    for name, rng in bands.items():
        if (not isinstance(rng, list) or len(rng) != 2
                or not all(_is_int(v) for v in rng) or rng[0] > rng[1]):
            problems.append(f"bands[{name}]: must be [lo, hi] with lo <= hi")
            continue
        if rng[0] < 1 or rng[1] > 7:
            problems.append(f"bands[{name}]: scores outside 1..7")
        for score in range(max(rng[0], 1), min(rng[1], 7) + 1):
            if score in covered:
                problems.append(
                    f"bands[{name}]: score {score} already assigned to {covered[score]}"
                )
            covered[score] = name
            band_codes[score] = codes[name]
    missing = [s for s in range(1, 8) if s not in covered]
    if missing:
        problems.append(f"bands: scores {missing} not assigned to any band")
    return band_codes


def config_from_dict(raw: dict) -> RulaConfig:
    """The one walk over a raw config: the immutable RulaConfig it describes,
    or ConfigError with every invariant violation, in section order."""
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    problems: list[str] = []
    tables = (
        _table(raw, "table_a", (6, 3, 4, 2), (1, 9), ("arm", "forearm", "wrist", "twist"),
               problems),
        _table(raw, "table_b", (6, 6, 2), (1, 9), ("neck", "trunk", "legs"), problems),
        _table(raw, "table_c", (9, 9), (1, 7), ("score_c", "score_d"), problems),
    )
    range_rules = _range_rules(raw, problems)
    position_rules = _position_rules(raw, problems)
    band_codes = _band_codes(raw, problems)
    if json_too_deep(raw):  # the checksum's encoder would run out of stack
        problems.append(f"config: nested deeper than {MAX_JSON_DEPTH} levels")
    if problems:
        raise ConfigError(problems)
    # A cached config is shared by every caller: its arrays are read-only and
    # its mappings are read-only views.
    rule_arrays = [a for rule in range_rules.values() for a in (rule.edges, rule.scores)]
    for array in (*tables, band_codes, *rule_arrays):
        array.flags.writeable = False
    return RulaConfig(MappingProxyType(range_rules), position_rules, *tables, band_codes,
                      checksum=config_checksum(raw))


def load_rula_config(path: str | None = None) -> RulaConfig:
    """Load a scoring config from a JSON file, or the shipped default."""
    return config_from_dict(read_config_json(path))


@functools.cache
def default_config() -> RulaConfig:
    return load_rula_config()


# --- scoring ------------------------------------------------------------------------

_BANDS = tuple(RiskBand)


def _clamp(scores, lo: int, hi: int):
    return np.minimum(np.maximum(scores, lo), hi)


def _range_scores(rule: RangeRule, angles):
    """Each angle's primary score, indexed by the number of interval starts at or below it."""
    return rule.scores[rule.edges.searchsorted(angles, side="right")]


@dataclass(frozen=True, eq=False)
class SideTimeline:
    """One side's scores for every sample, as (N,) int8 arrays."""

    arm: np.ndarray
    forearm: np.ndarray
    wrist: np.ndarray
    wrist_twist: np.ndarray
    table_a_score: np.ndarray
    score_c: np.ndarray
    final: np.ndarray


@dataclass(frozen=True, eq=False)
class RulaTimeline:
    """Scores of every sample as (N,) int8 arrays: per side in ``left`` and
    ``right``, shared ones here. ``final`` is the combined score, ``band``
    the index of its band in ``RiskBand`` order, ``degraded`` marks samples
    that lacked a channel."""

    sample_rate: float
    start_time: float
    left: SideTimeline
    right: SideTimeline
    neck: np.ndarray
    trunk: np.ndarray
    legs: np.ndarray
    table_b_score: np.ndarray
    score_d: np.ndarray
    final: np.ndarray
    band: np.ndarray
    degraded: np.ndarray

    @property
    def length(self) -> int:
        return len(self.final)

    @property
    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.length) / self.sample_rate


#: The scored joints in scoring order, as (side key, joint): the axial
#: joints, then the left side's, then the right side's.
_SLOTS = tuple(("axial", joint) for joint in AXIAL_JOINTS) + tuple(
    (key, joint) for key in ("left", "right") for joint in SIDED_JOINTS)
_SLOT_LO, _SLOT_HI = np.int8([JOINT_SCORE_RANGE[joint] for _, joint in _SLOTS]).T[..., None]


def _score(channels: Mapping[JointChannel, np.ndarray], n: int, flags: AnnotationFlags,
           config: RulaConfig, strict: bool) -> dict:
    """The RulaTimeline fields of ``n`` samples. ``channels`` maps each
    channel present to its ``n`` angles; each field of ``flags`` is one
    value or ``n`` values. Joint scores are the rows of one (10, n) array
    in ``_SLOTS`` order."""
    rules = [config.range_rules[joint] for _, joint in _SLOTS]
    reads = [(rule.channels[key], joint) for rule, (key, joint) in zip(rules, _SLOTS)]
    nans = np.full(n, np.nan)
    angles = np.array([channels.get(ch, nans) for ch, _ in reads], dtype=float)
    kept = angle_mask(angles)  # bool, with no (10, n) float temporary
    missing = np.zeros(angles.shape, bool) if kept is None else ~kept
    absent = [(r.channel, r.joint) for r in config.position_rules if r.channel not in channels]
    degraded = missing.any(axis=0) | bool(absent)
    if strict and degraded.any():
        i = int(np.argmax(degraded))
        channel, joint = ([reads[s] for s in np.flatnonzero(missing[:, i])] + absent)[0]
        raise IncompleteFrame(f"channel {channel.value} required for {joint} "
                              f"is missing at sample {i}")
    lowest = [[min(score for _, _, score in rule.intervals)] for rule in rules]
    total = np.min_scalar_type(-9 - 3 * len(config.position_rules))  # holds any adjusted sum
    scores = np.where(missing, np.array(lowest, total),
                      [_range_scores(rule, values) for rule, values in zip(rules, angles)])

    for rule in config.position_rules:
        values = channels.get(rule.channel)
        if values is None:
            continue
        kept = angle_mask(values)  # a sample that is no angle fires no rule
        if rule.predicate == "outside":
            values = np.abs(values)
        fired = values < rule.threshold if rule.predicate == "below" else values > rule.threshold
        slot = _SLOTS.index((rule.side.value if rule.side else "axial", rule.joint))
        scores[slot] += np.int8(rule.adjust) * (fired if kept is None else fired & kept)
    scores = _clamp(scores, _SLOT_LO, _SLOT_HI).astype(np.int8, copy=False)

    neck, trunk = scores[:2]
    legs = np.full(n, _clamp(flags.legs, 1, 2))
    table_b_score = config.table_b_values[neck - 1, trunk - 1, legs - 1]
    score_d = table_b_score + flags.neck_muscle + flags.neck_force
    sides = []
    for side_scores in (scores[2:6], scores[6:]):
        a = config.table_a_values[tuple(side_scores - 1)]
        score_c = a + flags.arm_muscle + flags.arm_force
        final = config.table_c_values[_clamp(score_c, 1, 9) - 1, _clamp(score_d, 1, 9) - 1]
        sides.append(SideTimeline(*side_scores, a, score_c, final))
    left, right = sides
    final = np.maximum(left.final, right.final)
    return dict(left=left, right=right, neck=neck, trunk=trunk, legs=legs,
                table_b_score=table_b_score, score_d=score_d, final=final,
                band=config.band_codes[final], degraded=degraded)


def score_timeline(series: JointAngleSeries,
                   annotations: AnnotationTrack = EMPTY_ANNOTATIONS,
                   config: RulaConfig | None = None,
                   strict: bool = False) -> RulaTimeline:
    """Score every sample of a series; annotation flags apply to samples
    whose timestamp falls inside an interval."""
    config = config or default_config()
    if series.length == 0:
        raise EmptyTimeline("series has no samples")
    fields = _score(series.channels, series.length,
                    annotations.flags_for(series.times), config, strict)
    return RulaTimeline(sample_rate=series.sample_rate,
                        start_time=series.start_time, **fields)


def band_percentages(timeline: RulaTimeline) -> dict[RiskBand, float]:
    """Percent of samples per risk band; sums to 100 within 1e-9."""
    if timeline.length == 0:
        raise EmptyTimeline("timeline has no frames")
    counts = np.bincount(timeline.band, minlength=len(_BANDS)).tolist()
    return {band: 100.0 * count / timeline.length for band, count in zip(_BANDS, counts)}
