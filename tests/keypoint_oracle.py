"""Whole-text reference for the keypoint stream parser.

This is ``ergokit.ingest.parse_keypoint_stream`` as it was before it read
the stream a chunk of whole lines at a time into flat float buffers, kept
unchanged as an independent oracle: the whole input decoded at once, split
at each line feed, and each frame collected as a Python list of floats.
The one edit is that split: it used ``str.splitlines``, which also ends a
line at a lone CR, at U+2028 and at other Unicode line breaks. Tests
compare ``parse_keypoint_stream`` against ``parse_keypoint_stream_oracle``
here, the way ``csv_oracle`` serves the IMU CSV parser.
"""
from __future__ import annotations

import json
import math

import numpy as np

from ergokit.errors import EmptyFile, EncodingError, MalformedRecord, NonMonotonicTimestamps
from ergokit.ingest import MAX_JSON_DEPTH, json_too_deep
from ergokit.motion import KeypointRecording, LANDMARK_INDEX


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"not UTF-8 text: {exc.reason}") from None
    return data


def _without_bom(data: bytes | str) -> bytes | str:
    return data.removeprefix(b"\xef\xbb\xbf" if isinstance(data, bytes) else "\ufeff")


def parse_keypoint_stream_oracle(data: bytes | str, frame_rate: float = 30.0) -> KeypointRecording:
    """Parse a JSON-lines keypoint stream into one KeypointRecording.

    Frames must arrive in nondecreasing timestamp order; a frame without a
    ``time`` is at ``frame / frame_rate``. A landmark that is absent, or has
    a non-finite coordinate, is a NaN row of its frame.
    """
    if not (frame_rate > 0):
        raise ValueError("frame_rate must be > 0")
    text = _as_text(_without_bom(data))
    if not text.strip():
        raise EmptyFile("no content")
    # Offset of each landmark label's triplet in a frame's flat row.
    column = {lm.value: 3 * i for lm, i in LANDMARK_INDEX.items()}
    empty_row = [math.nan] * (3 * len(LANDMARK_INDEX))
    times: list[float] = []
    rows: list[list[float]] = []
    prev_t = -math.inf
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also a 4300-digit integer, deep nesting
            raise MalformedRecord(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no)
        if line.count("[") + line.count("{") > MAX_JSON_DEPTH and json_too_deep(record):
            raise MalformedRecord(f"JSON nested deeper than {MAX_JSON_DEPTH} levels", line_no)
        if not isinstance(record, dict) or "points" not in record:
            raise MalformedRecord("record must be an object with a 'points' field", line_no)
        # Arithmetic refuses a string as a number; True * 1.0 is 1.0: booleans are refused apart.
        booleans = "true" in line or "false" in line
        key = "time" if "time" in record else "frame"
        if key not in record:
            raise MalformedRecord("record carries neither 'time' nor 'frame'", line_no)
        try:
            t = record[key] / (1.0 if key == "time" else frame_rate)
            if booleans and isinstance(record[key], bool):
                raise TypeError
        except (TypeError, OverflowError):  # a huge integer overflows float
            raise MalformedRecord(f"{key!r} must be a number", line_no)
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
                row[j:j + 3] = xyz[0] * 1.0, xyz[1] * 1.0, xyz[2] * 1.0
                if booleans and any(isinstance(v, bool) for v in xyz):
                    raise TypeError
            except (TypeError, OverflowError):
                raise MalformedRecord(f"point {label!r} has non-numeric coordinates", line_no)

        confidence = record.get("confidence", {})
        if not isinstance(confidence, dict):
            raise MalformedRecord("'confidence' must be a label -> number object", line_no)
        for label, c in confidence.items():
            try:
                ok = label not in column or (0.0 <= c <= 1.0
                                             and not (booleans and isinstance(c, bool)))
            except TypeError:
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
