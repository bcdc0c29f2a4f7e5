"""Cell-by-cell reference for the IMU joint-angle CSV parser.

This is the parser ``ergokit.ingest`` used before it read the body in
chunks of whole rows with ``np.loadtxt``, kept unchanged (less its log
line) as an independent oracle: ``csv.reader`` over the decoded text, and
for every channel cell a ``strip``, a ``float`` and an ``append``. Tests compare
``parse_imu_joint_csv`` against ``parse_imu_joint_csv_oracle`` here, the way
``align_oracle`` serves the lag searches.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

from ergokit.errors import EmptyFile, MalformedHeader, MissingColumn
from ergokit.motion import JointAngleSeries, JointChannel, uniform_grid


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def parse_imu_joint_csv_oracle(data: bytes | str,
                               declared_rate: float = 100.0) -> JointAngleSeries:
    text = _as_text(data)
    if not text.strip():
        raise EmptyFile("no content")
    reader = csv.reader(io.StringIO(text))
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
    channel_idx = {ch: col_index[ch.value] for ch in JointChannel if ch.value in col_index}
    if not channel_idx:
        raise MissingColumn("no channel column in header")

    time_idx = None
    if "time" in col_index:
        time_idx = col_index["time"]

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

    rate = declared_rate
    start = 0.0
    if time_idx is not None:
        rate, start = uniform_grid(times)

    channels = {ch: np.asarray(v) for ch, v in columns.items()}
    # Every non-empty cell without a finite value ("x", "nan", "inf", "1e999"),
    # or of magnitude above 1e6 ("1e200"), is a missing sample and counts as
    # unparseable.
    for x in channels.values():
        x[np.isinf(x)] = math.nan
        x[np.abs(x) > 1e6] = math.nan
    warnings += sum(int(np.isnan(x).sum()) for x in channels.values()) - empty

    return JointAngleSeries(
        sample_rate=rate,
        start_time=start,
        channels=channels,
        unparseable_cells=warnings,
    )
