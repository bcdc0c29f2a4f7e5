"""Parsers for the three input file kinds, plus rate resampling.

File formats
------------
IMU joint-angle CSV
    UTF-8, first row header, one row per sample, decimal point ``.``,
    configurable delimiter (default ``,``). One column per channel; an
    optional time column. Empty cells are missing samples; non-numeric and
    non-finite cells (``inf``, ``nan``, ``1e999``) become missing samples
    and are counted as warnings.

Keypoint stream (JSON lines)
    One frame per line, e.g.::

        {"frame": 0, "time": 0.0, "points": {"nose": [x, y, z], ...},
         "confidence": {"nose": 0.97, ...}}

    ``frame`` is the frame index; ``time`` (seconds) is optional and is
    synthesized as ``frame / frame_rate`` when absent. The stream parses
    into one KeypointRecording. Unmapped point labels are ignored. An
    absent landmark, or one with a non-finite triplet, is a NaN row; there
    is no "incomplete" flag. ``confidence`` is optional, range-checked to
    [0, 1] and unused. Irregular timestamps (a skipped frame, a stall) are
    rejected with IrregularTimestamps when the sample rate is inferred.

Annotation CSV
    Header ``t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs``,
    one interval per row.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyFile,
    MalformedHeader,
    MalformedRecord,
    MissingColumn,
    NonMonotonicTimestamps,
    TooShort,
)
from .motion import (
    AnnotationInterval,
    AnnotationTrack,
    JointAngleSeries,
    JointChannel,
    KeypointFrame,
    KeypointRecording,
    Landmark,
    CHANNEL_ORDER,
    LANDMARK_INDEX,
    uniform_grid,
)

log = logging.getLogger(__name__)


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


# --- IMU joint-angle CSV ------------------------------------------------------

def _default_channel_columns() -> dict[str, JointChannel]:
    return {ch.value: ch for ch in CHANNEL_ORDER}


@dataclass(frozen=True)
class ImuCsvSpec:
    """Layout of an IMU joint-angle CSV export.

    The default maps columns named exactly like the channel labels; vendor
    exports with different headers supply their own ``channel_columns``.
    When ``time_column`` is present in the file its values win over the
    declared rate for timestamping; otherwise timestamps are synthesized
    from ``declared_rate``.
    """

    delimiter: str = ","
    time_column: str | None = "time"
    channel_columns: dict[str, JointChannel] = field(
        default_factory=_default_channel_columns
    )
    declared_rate: float = 100.0

    def __post_init__(self):
        if not (self.declared_rate > 0):
            raise ValueError("declared_rate must be > 0")
        seen: set[JointChannel] = set()
        for col, ch in self.channel_columns.items():
            if ch in seen:
                raise ValueError(f"channel {ch.value} mapped by more than one column")
            seen.add(ch)


DEFAULT_IMU_SPEC = ImuCsvSpec()


def parse_imu_joint_csv(data: bytes | str, spec: ImuCsvSpec = DEFAULT_IMU_SPEC) -> JointAngleSeries:
    """Parse a joint-angle CSV export into a JointAngleSeries.

    Raises EmptyFile, MalformedHeader, or MissingColumn; unparseable or
    non-finite numeric cells become NaN and are counted in
    ``meta['unparseable_cells']``.
    A time column that is not on a uniform grid (a gap, a non-finite or
    missing time) raises IrregularTimestamps rather than being re-timed.
    """
    text = _as_text(data)
    if not text.strip():
        raise EmptyFile("no content")
    reader = csv.reader(io.StringIO(text), delimiter=spec.delimiter)
    try:
        header = next(reader)
    except StopIteration:  # pragma: no cover - guarded by the strip() check
        raise EmptyFile("no header row")
    header = [h.strip() for h in header]
    if any(not h for h in header):
        raise MalformedHeader("empty column name in header")
    if len(set(header)) != len(header):
        raise MalformedHeader("duplicate column names in header")

    col_index = {name: i for i, name in enumerate(header)}
    missing = [col for col in spec.channel_columns if col not in col_index]
    if missing:
        raise MissingColumn(f"column {missing[0]!r} absent from header")
    channel_idx = {ch: col_index[col] for col, ch in spec.channel_columns.items()}

    time_idx = None
    if spec.time_column is not None and spec.time_column in col_index:
        time_idx = col_index[spec.time_column]

    columns: dict[JointChannel, list[float]] = {ch: [] for ch in channel_idx}
    times: list[float] = []
    warnings = empty = 0
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        for ch, idx in channel_idx.items():
            cell = row[idx].strip() if idx < len(row) else ""
            if cell == "":
                columns[ch].append(math.nan)
                empty += 1
                continue
            try:
                columns[ch].append(float(cell))
            except ValueError:
                columns[ch].append(math.nan)
        if time_idx is not None:
            cell = row[time_idx].strip() if time_idx < len(row) else ""
            try:
                times.append(float(cell))
            except ValueError:
                times.append(math.nan)
                warnings += 1

    rate = spec.declared_rate
    start = 0.0
    if time_idx is not None and len(times) >= 2:
        rate, start = uniform_grid(times)

    channels = {ch: np.asarray(v) for ch, v in columns.items()}
    # Every non-empty cell without a finite value ("x", "nan", "inf", "1e999")
    # is a missing sample and counts as unparseable.
    for x in channels.values():
        x[np.isinf(x)] = math.nan
    warnings += sum(int(np.isnan(x).sum()) for x in channels.values()) - empty
    if warnings:
        log.warning("IMU CSV: %d unparseable cells became missing samples", warnings)

    return JointAngleSeries(
        sample_rate=rate,
        start_time=start,
        channels=channels,
        meta={"source": "imu-csv", "unparseable_cells": warnings},
    )


def format_imu_joint_csv(series: JointAngleSeries, delimiter: str = ",",
                         time_column: str = "time") -> str:
    """Serialize a series in the IMU CSV layout.

    Floats are written with shortest round-trip precision so
    parse(format(x)) reproduces x bit-for-bit; NaN becomes an empty cell.
    """
    channels = [ch for ch in CHANNEL_ORDER if ch in series.channels]
    lines = [delimiter.join([time_column] + [ch.value for ch in channels])]
    times = series.times
    for i in range(series.length):
        cells = [repr(float(times[i]))]
        for ch in channels:
            v = series.channels[ch][i]
            cells.append("" if math.isnan(v) else repr(float(v)))
        lines.append(delimiter.join(cells))
    return "\n".join(lines) + "\n"


# --- keypoint stream ----------------------------------------------------------

def _default_landmark_map() -> dict[str, Landmark]:
    return {lm.value: lm for lm in Landmark}


@dataclass(frozen=True)
class KeypointStreamSpec:
    """Layout of a keypoint stream: frame rate plus tracker-label mapping."""

    frame_rate: float = 30.0
    landmark_map: dict[str, Landmark] = field(default_factory=_default_landmark_map)

    def __post_init__(self):
        if not (self.frame_rate > 0):
            raise ValueError("frame_rate must be > 0")


DEFAULT_STREAM_SPEC = KeypointStreamSpec()


def parse_keypoint_stream(data: bytes | str,
                          spec: KeypointStreamSpec = DEFAULT_STREAM_SPEC) -> KeypointRecording:
    """Parse a JSON-lines keypoint stream into one KeypointRecording.

    Frames must arrive in nondecreasing timestamp order. A landmark that is
    absent, or has a non-finite coordinate, is a NaN row of its frame.
    """
    text = _as_text(data)
    if not text.strip():
        raise EmptyFile("no content")
    # Offset of each mapped label's triplet in a frame's flat row.
    column = {label: 3 * LANDMARK_INDEX[lm] for label, lm in spec.landmark_map.items()}
    empty_row = [math.nan] * (3 * len(LANDMARK_INDEX))
    times: list[float] = []
    rows: list[list[float]] = []
    prev_t = -math.inf
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"invalid JSON ({exc.msg})", line_no)
        if not isinstance(record, dict) or "points" not in record:
            raise MalformedRecord("record must be an object with a 'points' field", line_no)
        if "time" in record:
            try:
                t = float(record["time"])
            except (TypeError, ValueError):
                raise MalformedRecord("'time' must be a number", line_no)
        elif "frame" in record:
            t = float(record["frame"]) / spec.frame_rate
        else:
            raise MalformedRecord("record carries neither 'time' nor 'frame'", line_no)
        if not math.isfinite(t) or t < 0:
            raise MalformedRecord(f"timestamp {t} not finite and non-negative", line_no)
        if t < prev_t:
            raise NonMonotonicTimestamps(
                f"line {line_no}: timestamp {t} after {prev_t}"
            )
        prev_t = t

        points = record["points"]
        if not isinstance(points, dict):
            raise MalformedRecord("'points' must be a label -> [x, y, z] object", line_no)
        row = empty_row.copy()
        for label, xyz in points.items():
            j = column.get(label)
            if j is None:
                continue
            if not (isinstance(xyz, (list, tuple)) and len(xyz) == 3):
                raise MalformedRecord(f"point {label!r} is not an [x, y, z] triplet", line_no)
            try:
                row[j:j + 3] = float(xyz[0]), float(xyz[1]), float(xyz[2])
            except (TypeError, ValueError):
                raise MalformedRecord(f"point {label!r} has non-numeric coordinates", line_no)

        confidence = record.get("confidence")
        if isinstance(confidence, dict):
            for label, c in confidence.items():
                try:
                    ok = label not in column or 0.0 <= float(c) <= 1.0
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    raise MalformedRecord(
                        f"confidence {c!r} for {label!r} is not a number in [0, 1]", line_no)
        times.append(t)
        rows.append(row)

    positions = np.array(rows).reshape(len(rows), len(LANDMARK_INDEX), 3)
    # The tracker lost a landmark with a non-finite coordinate: absent.
    positions[~np.isfinite(positions).all(axis=2)] = np.nan
    return KeypointRecording(times=np.array(times), positions=positions)


def format_keypoint_stream(frames: list[KeypointFrame]) -> str:
    """Serialize frames back to the JSON-lines layout."""
    lines = []
    for i, frame in enumerate(frames):
        record = {
            "frame": i,
            "time": frame.timestamp,
            "points": {
                lm.value: [float(v) for v in p] for lm, p in frame.positions.items()
            },
        }
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


# --- annotations ----------------------------------------------------------------

_ANNOTATION_FIELDS = ("t0", "t1", "arm_muscle", "arm_force",
                      "neck_muscle", "neck_force", "legs")


def parse_annotations(data: bytes | str) -> AnnotationTrack:
    """Parse the annotation CSV into a validated, sorted AnnotationTrack."""
    text = _as_text(data)
    if not text.strip():
        raise EmptyFile("no content")
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    if header != list(_ANNOTATION_FIELDS):
        raise MalformedHeader(
            f"expected header {','.join(_ANNOTATION_FIELDS)}, got {','.join(header)}"
        )
    intervals = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(_ANNOTATION_FIELDS):
            raise MalformedRecord(
                f"expected {len(_ANNOTATION_FIELDS)} fields, got {len(row)}", line_no
            )
        try:
            t0, t1 = float(row[0]), float(row[1])
            flags = [int(c) for c in row[2:]]
        except ValueError:
            raise MalformedRecord("non-numeric field", line_no)
        intervals.append(
            AnnotationInterval(
                t0=t0, t1=t1,
                arm_muscle=flags[0], arm_force=flags[1],
                neck_muscle=flags[2], neck_force=flags[3], legs=flags[4],
            )
        )
    return AnnotationTrack.from_intervals(intervals)


def format_annotations(track: AnnotationTrack) -> str:
    lines = [",".join(_ANNOTATION_FIELDS)]
    for iv in track.intervals:
        lines.append(
            f"{iv.t0!r},{iv.t1!r},{iv.arm_muscle},{iv.arm_force},"
            f"{iv.neck_muscle},{iv.neck_force},{iv.legs}"
        )
    return "\n".join(lines) + "\n"


# --- resampling -----------------------------------------------------------------

# Interpolation positions within this many samples of a grid point are
# snapped onto it, so resampling at the source rate is an exact copy and a
# NaN neighbour does not poison an exact sample hit.
_SNAP = 1e-9


def resample(series: JointAngleSeries, target_rate: float) -> JointAngleSeries:
    """Linearly interpolate a series onto a uniform grid at ``target_rate``.

    Output length is floor(duration * target_rate) + 1, covering the
    original time span. A missing input sample propagates NaN to every
    output sample whose interpolation stencil touches it. At the series'
    own rate the input is returned as it is.
    """
    if not (target_rate > 0):
        raise ValueError("target_rate must be > 0")
    n_in = series.length
    if n_in < 2:
        raise TooShort(f"resample needs at least 2 samples, got {n_in}")
    if target_rate == series.sample_rate:
        return series

    duration = series.duration
    n_out = int(math.floor(duration * target_rate + _SNAP)) + 1
    # Positions of output samples on the input sample grid.
    pos = (np.arange(n_out) / target_rate) * series.sample_rate
    pos = np.clip(pos, 0.0, n_in - 1)

    nearest = np.rint(pos)
    exact = np.abs(pos - nearest) <= _SNAP
    pos = np.where(exact, nearest, pos)

    lo = np.floor(pos).astype(int)
    lo = np.minimum(lo, n_in - 2)
    w = pos - lo

    out: dict[JointChannel, np.ndarray] = {}
    for ch, x in series.channels.items():
        a, b = x[lo], x[lo + 1]
        y = (1.0 - w) * a + w * b
        hit = exact & (w <= 0.5)  # snapped onto the lower grid point
        hit_hi = exact & (w > 0.5)
        y = np.where(hit, a, y)
        y = np.where(hit_hi, b, y)
        out[ch] = y

    return JointAngleSeries(
        sample_rate=target_rate,
        start_time=series.start_time,
        channels=out,
        meta={**series.meta, "resampled_from_rate": series.sample_rate},
    )
