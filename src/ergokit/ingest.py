"""Parsers for the three input file kinds and the JSON configs, plus resampling.

File formats
------------
Each file, configs included, is UTF-8 text; one leading byte-order mark is
skipped. The three parsers take a file's bytes, as read from disk; a ``str``
is a TypeError.

IMU joint-angle CSV
    First row header, one row per sample, decimal point ``.``, delimiter
    ``,``. The header names the channels: a column named like a channel
    label holds that channel, and an optional ``time`` column the
    timestamps. Any subset of the channels may be present; an absent one is
    missing from the series, and a header without any is a MissingColumn.
    Empty cells are missing samples; non-numeric and non-finite cells
    (``inf``, ``nan``, ``1e999``) and channel cells beyond +/-1e6 degrees
    (``1e200``) become missing samples and are counted in
    ``unparseable_cells``. Only the channel columns and the time column are
    read: other (text) columns are never converted or counted. A cell in
    quotes (``"``) is unquoted and may hold a comma, a line break or a
    carriage return. A short row is padded with missing samples;
    a blank row (every cell whitespace) is skipped. Lines end in LF or CRLF;
    a carriage return outside quotes that does not end a line, or a quote
    never closed, is a MalformedRecord. The body is read in chunks of whole
    rows, each by one ``np.loadtxt`` call, into one block of columns.

Keypoint stream (JSON lines)
    One frame per line, e.g.::

        {"frame": 0, "time": 0.0, "points": {"nose": [x, y, z], ...},
         "confidence": {"nose": 0.97, ...}}

    ``frame`` is the frame index; ``time`` (seconds) is optional and is
    synthesized as ``frame / frame_rate`` when absent. The stream parses
    into one KeypointRecording. Unmapped point labels are ignored. An
    absent landmark, or one with a non-finite triplet, is a NaN row; there
    is no "incomplete" flag. ``confidence`` is optional; when present it is
    a label -> number object, range-checked to [0, 1] and unused. A frame,
    time, coordinate or known-label confidence is a JSON number: a string
    such as ``"3"`` or a boolean is a MalformedRecord. Irregular timestamps
    (a skipped frame, a stall) are rejected with IrregularTimestamps when
    the sample rate is inferred. The stream is decoded a chunk of whole lines
    (about 64 kB) at a time, and each frame's values go to flat float
    buffers: the parse holds the input plus 8 bytes per value.

Annotation CSV
    Header ``t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs``,
    one interval per row.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import re
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    EmptyFile,
    EncodingError,
    MalformedHeader,
    MalformedRecord,
    MissingColumn,
    NonMonotonicTimestamps,
    TooLong,
    TooShort,
)
from .motion import (
    AnnotationInterval,
    AnnotationTrack,
    JointAngleSeries,
    KeypointRecording,
    CHANNEL_ORDER,
    FLAG_RANGES,
    LANDMARK_INDEX,
    MAX_ABS_ANGLE,
    uniform_grid,
)


def _as_text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"not UTF-8 text: {exc.reason}") from None


def _check_utf8(data: bytes) -> None:
    """EncodingError, before any row is read, if ``data`` is not UTF-8."""
    if not data.isascii():
        for _ in _line_chunks(data):
            pass


def _text_at(data: bytes) -> int:
    """Where the text of ``data`` starts: past one byte-order mark at its
    very start. A ``str`` is a TypeError ("a bytes-like object is required")."""
    return 3 if memoryview(data)[:3] == b"\xef\xbb\xbf" else 0


# --- JSON documents -------------------------------------------------------------

#: The deepest nesting of arrays and objects read from a JSON input (a
#: config, angle definitions, a keypoint line): far below the recursion
#: limit, so whether an input is valid never depends on the stack depth.
MAX_JSON_DEPTH = 64


def json_too_deep(value) -> bool:
    """Whether arrays and objects nest more than MAX_JSON_DEPTH levels deep
    in a parsed JSON value; walked level by level, without recursion."""
    level = [value]
    for _ in range(MAX_JSON_DEPTH + 1):
        level = [v for v in level if isinstance(v, (dict, list))]
        if not level:
            return False
        level = [c for v in level for c in (v.values() if isinstance(v, dict) else v)]
    return True


def read_config_json(path: str | None, shipped: str = "rula_default.json"):
    """The JSON document in ``path``, or in the shipped data file ``shipped``
    when ``path`` is None, decoded as the other inputs are; ConfigError when
    it is not JSON or nests deeper than MAX_JSON_DEPTH."""
    data = (Path(path) if path is not None else
            resources.files("ergokit.data").joinpath(shipped)).read_bytes()
    try:
        raw = json.loads(_as_text(data[_text_at(data):]))
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if json_too_deep(raw):
        raise ConfigError([f"JSON nested deeper than {MAX_JSON_DEPTH} levels"])
    return raw


# --- IMU joint-angle CSV ------------------------------------------------------

def parse_imu_joint_csv(data: bytes, declared_rate: float = 100.0) -> JointAngleSeries:
    """Parse a joint-angle CSV export into a JointAngleSeries.

    Each header column named like a ``JointChannel`` label is read into that
    channel; a channel without a column is absent from the series, and
    scoring treats it as missing. The ``time`` column, when there is one,
    timestamps the samples; otherwise they are at ``declared_rate`` Hz from 0.
    Raises EmptyFile, EncodingError, MalformedHeader, MissingColumn (no
    channel column) or MalformedRecord; unparseable or non-finite numeric
    cells, and channel cells beyond ``MAX_ABS_ANGLE``, become NaN and are
    counted in ``unparseable_cells``.
    A time column that is not on a uniform grid (a gap, a non-finite or
    missing time) raises IrregularTimestamps rather than being re-timed.
    The channels are rows of one (channels, rows) float block, allocated once
    for ``_row_bound(data)`` rows, that each chunk's rows are copied into;
    the time column is copied into its own row, which the series does not keep.
    """
    if not (declared_rate > 0):
        raise ValueError("declared_rate must be > 0")
    _check_utf8(data)
    rows = io.BytesIO(data)
    rows.seek(_text_at(data))  # past a byte-order mark, uncopied
    reader = csv.reader(map(_as_text, rows))
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise MalformedRecord(str(exc), reader.line_num) from None
    if not any(h.strip() for h in header) and not _as_text(data[_text_at(data):]).strip():
        raise EmptyFile("no content")
    header = [h.strip() for h in header]
    if any(not h for h in header):
        raise MalformedHeader("empty column name in header")
    if len(set(header)) != len(header):
        raise MalformedHeader("duplicate column names in header")

    col_index = {name: i for i, name in enumerate(header)}
    channel_idx = {ch: col_index[ch.value] for ch in CHANNEL_ORDER if ch.value in col_index}
    if not channel_idx:
        raise MissingColumn("no channel column in header")
    time_idx = col_index.get("time")

    # The used columns, the channels' then the time's, and per used column
    # its empty cells and the non-empty cells that float() rejects.
    k = len(channel_idx)
    cols = [*channel_idx.values(), *{time_idx} - {None}]
    counts = np.zeros((2, len(cols)), dtype=np.int64)
    bound = _row_bound(data)
    block, times, n = np.empty((k, bound)), np.empty((len(cols) - k, bound)), 0
    for text, quoted in _row_chunks(rows):
        chunk = _read_rows(text, quoted, cols, counts)
        block[:, n:n + len(chunk)] = chunk[:, :k].T
        times[:, n:n + len(chunk)] = chunk[:, k:].T
        n += len(chunk)

    rate, start = declared_rate, 0.0
    if time_idx is not None and n >= 2:
        rate, start = uniform_grid(times[0, :n])

    channels = dict(zip(channel_idx, block[:, :n]))
    # Every non-empty cell without a finite value ("x", "nan", "inf", "1e999"),
    # or beyond MAX_ABS_ANGLE, is a missing sample and counts as unparseable.
    for x in channels.values():
        x[np.abs(x) > MAX_ABS_ANGLE] = math.nan  # inf too
    unparseable = sum(int(np.isnan(x).sum()) for x in channels.values())
    unparseable += int(counts[:, k:].sum() - counts[0, :k].sum())

    return JointAngleSeries(
        sample_rate=rate,
        start_time=start,
        channels=channels,
        unparseable_cells=unparseable,
    )


# Body chunks are whole rows, about this many bytes each.
_CHUNK = 1 << 17
# The code points past ASCII that str.strip() removes.
_WIDE_WHITESPACE = [0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F,
                    0x205F, 0x3000]
# A quoted cell, opened at a line start or after a comma, to its closing
# quote (group 1) if the text holds it; the rest of one opened earlier.
_OPENS = re.compile(r'(?<![^,\n])"(?:[^"]|"")*(")?')
_CLOSES = re.compile(r'(?:[^"]|"")*(")?')


def _row_bound(data: bytes) -> int:
    """At least the rows of ``data``: one more than its bytes that are
    neither CR nor LF but followed by one. Each row ends a line that holds
    such a character, so blank lines and lines of lone CRs count nothing."""
    bound = 1
    for at in range(0, len(data), _CHUNK):
        u = np.frombuffer(data[at:at + _CHUNK + 1], np.uint8)
        ends = (u == 10) | (u == 13)
        bound += np.count_nonzero(ends[1:] & ~ends[:-1])
    return int(bound)


def _row_chunks(rows):
    """The rest of ``rows`` in chunks of whole rows: each chunk's text with
    CRLF made LF, and the spans of its quoted cells, from the quote that
    opens one to the quote that closes it. A quoted cell may hold line
    breaks, so a chunk grows by lines until its last quote closes; each
    line is decoded and scanned once."""
    while piece := rows.read(_CHUNK):
        piece += rows.readline()
        pieces, spans, size, open_at = [], [], 0, None
        while True:
            text = _as_text(piece).replace("\r\n", "\n")
            at = 0
            if open_at is not None and (m := _CLOSES.match(text)).group(1):
                spans.append((open_at, size + m.end()))
                open_at, at = None, m.end()
            if open_at is None and '"' in text:
                for m in _OPENS.finditer(text, at):
                    if m.group(1):
                        spans.append((size + m.start(), size + m.end()))
                    else:  # open to the end of this piece
                        open_at = size + m.start()
            pieces.append(text)
            size += len(text)
            if open_at is None:
                break
            if not (piece := rows.readline()):
                raise MalformedRecord("a quoted cell is never closed")
        text = "".join(pieces)
        if "\r" in text:  # one left by CRLF -> LF is text only inside quotes
            bare = zip([0] + [b for _, b in spans], [a for a, _ in spans] + [len(text)])
            if any("\r" in text[a:b] for a, b in bare):
                raise MalformedRecord("carriage return without a line feed")
        yield text, spans


def _read_rows(text: str, quoted: list[tuple[int, int]], cols: list[int],
               counts: np.ndarray) -> np.ndarray:
    """The used columns ``cols`` of a chunk of whole rows, one row each.

    Blank rows (every cell whitespace) are dropped, short rows padded, and
    empty used cells filled with ``nan`` and counted in ``counts[0]``; one
    ``np.loadtxt`` call reads the rest. When its C float parse rejects a
    cell, the same call reads the chunk again with the cell rule as
    converter: ``float(cell)``, else NaN, counted in ``counts[1]``.
    """
    text = _filled(text if text.endswith("\n") else text + "\n", quoted, cols, counts[0])
    # encoding=None hands converters str cells on numpy 1.x too.
    args = dict(delimiter=",", quotechar='"', comments=None, usecols=cols, ndmin=2,
                encoding=None)
    if not text:
        return np.empty((0, len(cols)))
    try:
        return np.loadtxt(io.StringIO(text), **args)
    except ValueError:
        pass

    def cell(j: int, cell: str) -> float:
        try:
            return float(cell)
        except ValueError:
            counts[1, j] += 1
            return math.nan

    try:
        return np.loadtxt(io.StringIO(text), **args, converters={
            c: functools.partial(cell, j) for j, c in enumerate(cols)})
    except ValueError as exc:
        raise MalformedRecord(str(exc)) from None


def _filled(text: str, quoted: list[tuple[int, int]], cols: list[int],
            empty: np.ndarray) -> str:
    """``text`` with its blank rows emptied, its short rows padded and its
    empty used cells filled, each with ``nan``; counted into ``empty``.
    Empty when every row is blank."""
    # The code points of ``text``, one byte each when they fit.
    wide = not text.isascii()
    u = np.frombuffer(text.encode("utf-32-le") if wide
                      else text.encode("ascii"), dtype=np.uint32 if wide else np.uint8)
    sep = (u == ord(",")) | (u == ord("\n"))
    if quoted:  # separators inside quotes are text
        a, b = np.array(quoted).T
        inside = np.zeros(len(u) + 1, dtype=np.int8)
        inside[a], inside[b] = 1, -1
        sep &= np.cumsum(inside[:-1], dtype=np.int8) == 0
    ends = np.flatnonzero(sep)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # A cell is empty when it holds only whitespace and the quotes around
    # it, so only a cell that starts with either can be empty and not bare.
    is_empty = starts == ends
    if (~is_empty & (_is_space(u[starts]) | (u[starts] == ord('"')))).any():
        content = ~_is_space(u) & ~sep
        if quoted:
            content[a] = content[b - 1] = False
        is_empty = ~np.logical_or.reduceat(content, starts)
    # First and last cell of each row; the row and column of every cell.
    first = np.flatnonzero(np.concatenate(([True], u[ends[:-1]] == ord("\n"))))
    ncells = np.diff(np.append(first, len(ends)))
    last = first + ncells - 1
    row = np.repeat(np.arange(len(first)), ncells)
    col = np.arange(len(ends)) - first[row]
    blank = ~np.logical_or.reduceat(~is_empty, first)
    if blank.all():
        return ""

    width = max(cols) + 1
    fill = np.flatnonzero(is_empty & ~blank[row])
    fill = fill[np.isin(col[fill], cols)]
    short = np.flatnonzero(~blank & (ncells < width))
    # Filled cells, and the cells that padding short rows adds, per column.
    added = np.bincount(col[fill], minlength=width)
    added += np.searchsorted(np.sort(ncells[short]), np.arange(width), side="right")
    empty += added[cols]

    edits = sorted(
        [(starts[k], ends[k], "nan") for k in fill]
        + [(ends[last[r]], ends[last[r]], ",nan" * (width - ncells[r]))
           for r in short]
        + [(starts[first[r]], ends[last[r]], "")  # an empty line needs none
           for r in np.flatnonzero(blank & (starts[first] < ends[last]))],
        key=lambda edit: edit[0])
    pieces, prev = [], 0
    for a, b, new in edits:
        pieces += [text[prev:a], new]
        prev = b
    return "".join(pieces + [text[prev:]])


def _is_space(u: np.ndarray) -> np.ndarray:
    """Where the code points ``u`` are whitespace, as str.strip() sees it."""
    space = ((u >= 9) & (u <= 13)) | ((u >= 28) & (u <= 32))
    return space | np.isin(u, _WIDE_WHITESPACE) if u.dtype == np.uint32 else space


def format_imu_joint_csv(series: JointAngleSeries) -> str:
    """Serialize a series in the IMU CSV layout.

    Floats are written with shortest round-trip precision so
    parse(format(x)) reproduces x bit-for-bit; NaN becomes an empty cell.
    """
    channels = [ch for ch in CHANNEL_ORDER if ch in series.channels]
    lines = [",".join(["time"] + [ch.value for ch in channels])]
    columns = [map(repr, series.times.tolist())] + [
        ["" if v != v else repr(v) for v in series.channels[ch].tolist()] for ch in channels]
    lines += map(",".join, zip(*columns, strict=True))
    return "\n".join(lines) + "\n"


# --- keypoint stream ----------------------------------------------------------

def parse_keypoint_stream(data: bytes, frame_rate: float = 30.0) -> KeypointRecording:
    """Parse a JSON-lines keypoint stream into one KeypointRecording.

    Frames must arrive in nondecreasing timestamp order; a frame without a
    ``time`` is at ``frame / frame_rate``. A landmark that is absent, or has
    a non-finite coordinate, is a NaN row of its frame.
    """
    if not (frame_rate > 0):
        raise ValueError("frame_rate must be > 0")
    from array import array  # a shared library: loaded here, not at every start-up
    _check_utf8(data)
    # Offset of each landmark label's triplet in a frame's flat row.
    column = {lm.value: 3 * i for lm, i in LANDMARK_INDEX.items()}
    empty_row = [math.nan] * (3 * len(LANDMARK_INDEX))
    times, flat = array("d"), array("d")  # per frame: its time, its row
    prev_t = -math.inf
    lines = (line for chunk in map(str.splitlines, _line_chunks(data)) for line in chunk)
    for line_no, line in enumerate(lines, start=1):
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
        flat.fromlist(row)

    if not times:
        raise EmptyFile("no content")
    positions = np.frombuffer(flat).reshape(len(times), len(LANDMARK_INDEX), 3)
    # The tracker lost a landmark with a non-finite coordinate: absent.
    positions[~np.isfinite(positions).all(axis=2)] = np.nan
    return KeypointRecording(times=np.frombuffer(times), positions=positions)


_LINE_CHUNK = 1 << 16  # keypoint lines are decoded about this many bytes at a time


def _line_chunks(data: bytes):
    """``data`` less a leading byte-order mark, decoded in chunks that each end
    just after a line feed (which no UTF-8 sequence holds) or at the end."""
    start = _text_at(data)
    while start < len(data):
        end = data.find(b"\n", start + _LINE_CHUNK - 1) + 1 or len(data)
        yield _as_text(data[start:end])
        start = end


def format_keypoint_stream(recording: KeypointRecording) -> str:
    """Serialize a recording to the JSON-lines layout, one record per frame
    with its points in ``Landmark`` order; a NaN row is left out."""
    labels = [lm.value for lm in LANDMARK_INDEX]
    absent = np.isnan(recording.positions).any(axis=2).tolist()
    lines = []
    for i, (t, rows, gaps) in enumerate(zip(recording.times.tolist(),
                                            recording.positions.tolist(), absent)):
        points = {label: xyz for label, xyz, gap in zip(labels, rows, gaps) if not gap}
        lines.append(json.dumps({"frame": i, "time": t, "points": points}))
    return "\n".join(lines) + "\n"


# --- annotations ----------------------------------------------------------------

_ANNOTATION_FIELDS = ("t0", "t1", *FLAG_RANGES)


def parse_annotations(data: bytes) -> AnnotationTrack:
    """Parse the annotation CSV into a validated, sorted AnnotationTrack."""
    text = _as_text(data[_text_at(data):])
    if not text.strip():
        raise EmptyFile("no content")
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise MalformedRecord(str(exc), reader.line_num) from None
    header = [h.strip() for h in rows[0]]
    if header != list(_ANNOTATION_FIELDS):
        raise MalformedHeader(
            f"expected header {','.join(_ANNOTATION_FIELDS)}, got {','.join(header)}"
        )
    intervals = []
    for line_no, row in enumerate(rows[1:], start=2):
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
        intervals.append(AnnotationInterval(t0, t1, **dict(zip(FLAG_RANGES, flags))))
    return AnnotationTrack.from_intervals(intervals)


# --- resampling -----------------------------------------------------------------

# Interpolation positions within this many samples of a grid point are
# snapped onto it, so resampling at the source rate is an exact copy and a
# NaN neighbour does not poison an exact sample hit.
_SNAP = 1e-9


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or every CPU where
    the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pool_size(tasks: int) -> int:  # threads: one per usable CPU, at most one per task
    return min(tasks, _usable_cpus())


def _striped(work, items: int, workers: int) -> None:
    """Run ``work(k, j)`` for every item j < ``items``: thread k of ``workers``
    (``_pool_size(items)``) takes j = k, k + workers, ... in order, up to the
    first that raises. Raises the lowest raising item's error, as a serial loop would."""

    def stripe(k: int):  # the first item that raised, with its exception, or None
        for j in range(k, items, workers):
            try:
                work(k, j)
            except Exception as exc:
                return j, exc

    # numpy's gathers and ufuncs release the GIL, so the threads overlap. Imported
    # here: at module load it would add 6-9 ms to every command's start-up.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        failed = [f for f in pool.map(stripe, range(workers)) if f]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def resample(series: JointAngleSeries, target_rate: float) -> JointAngleSeries:
    """Linearly interpolate a series onto a uniform grid at ``target_rate``.

    Output length is floor(duration * target_rate) + 1, covering the
    original time span. An output sample that lands on an input sample
    (within ``_SNAP``) copies it, so a missing neighbour does not reach it;
    any other output sample is missing when either input sample of its
    interpolation stencil is. At the series' own rate the input is returned
    as it is.

    The stencil is computed once; ``_striped`` then interpolates channels k,
    k + threads, ... in thread k of one per CPU the process may run on (its
    affinity set, so ``taskset`` limits it), up to one per channel. Each
    channel runs the same arithmetic whatever the thread count, so the output
    is bit-identical to a one-thread run, with the channels in input order.
    The output channels are the rows of one block allocated in the calling
    thread and filled in place: freeing it later leaves the heap warm for the
    lag search's buffers, which outputs allocated in the workers did not.
    Beside the block, resample holds the stencil (lower indices, both
    weights, the grid hits' output and input indices) and one scratch row
    per thread, also allocated in the calling thread, into which the upper
    neighbours ``x[1:][lo]`` are gathered. An output that no array could
    index raises ``TooLong`` before anything is allocated.
    """
    if not (target_rate > 0):
        raise ValueError("target_rate must be > 0")
    n_in = series.length
    if n_in < 2:
        raise TooShort(f"resample needs at least 2 samples, got {n_in}")
    if target_rate == series.sample_rate:
        return series

    frames = series.duration * target_rate + _SNAP
    if not frames < np.iinfo(np.intp).max // (8 * max(len(series.channels), 1)):
        raise TooLong(f"resampling to {target_rate:g} Hz gives {frames:.3g} samples,"
                      " more than an array can index")
    n_out = int(math.floor(frames)) + 1
    # Positions of output samples on the input sample grid.
    pos = (np.arange(n_out) / target_rate) * series.sample_rate
    pos = np.clip(pos, 0.0, n_in - 1)

    nearest = np.rint(pos)
    exact = np.abs(pos - nearest) <= _SNAP
    pos = np.where(exact, nearest, pos)
    hit = np.flatnonzero(exact)  # output samples that copy an input sample
    src = nearest[hit].astype(int)
    del nearest, exact  # the stencil's temporaries go before the fan-out

    lo = np.floor(pos).astype(int)
    lo = np.minimum(lo, n_in - 2)
    w = pos - lo
    del pos
    w_lo = 1.0 - w

    def blend(x: np.ndarray, row: np.ndarray, t: np.ndarray) -> None:
        if x.shape != (n_in,):  # mode="clip" below must never clamp an index
            raise IndexError(f"channel of shape {x.shape}, expected ({n_in},)")
        with np.errstate(invalid="ignore"):  # 0 * inf at a hit; the scatter overwrites it
            np.take(x, lo, out=row, mode="clip")
            row *= w_lo
            np.take(x[1:], lo, out=t, mode="clip")  # the upper neighbours
            t *= w
            row += t
        row[hit] = x[src]

    xs, workers = list(series.channels.values()), _pool_size(len(series.channels))
    block, scratch = np.empty((len(xs), n_out)), np.empty((workers, n_out))
    _striped(lambda k, j: blend(xs[j], block[j], scratch[k]), len(xs), workers)

    return JointAngleSeries(
        sample_rate=target_rate,
        start_time=series.start_time,
        channels=dict(zip(series.channels, block)),
        unparseable_cells=series.unparseable_cells,
    )
