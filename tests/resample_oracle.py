"""Reference for ``ergokit.ingest.resample``.

This is ``resample`` as it was before it gathered the stencil's indices
once per call and scattered the exact grid hits by index, kept unchanged as
an independent oracle: per channel, the two neighbours ``a`` and ``b``, the
blend ``(1 - w) a + w b``, and two masked copies for the samples that land
on the grid. Tests compare ``resample`` against ``resample_oracle`` bit for
bit, the way ``align_oracle`` serves the lag searches.
"""
from __future__ import annotations

import math

import numpy as np

from ergokit.errors import TooShort
from ergokit.motion import JointAngleSeries, JointChannel

_SNAP = 1e-9


def resample_oracle(series: JointAngleSeries, target_rate: float) -> JointAngleSeries:
    """Linearly interpolate a series onto a uniform grid at ``target_rate``."""
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

    hit = exact & (w <= 0.5)  # snapped onto the lower grid point
    hit_hi = exact & (w > 0.5)
    out: dict[JointChannel, np.ndarray] = {}
    for ch, x in series.channels.items():
        a, b = x[lo], x[lo + 1]
        y = (1.0 - w) * a
        y += w * b
        np.copyto(y, a, where=hit)
        np.copyto(y, b, where=hit_hi)
        out[ch] = y

    return JointAngleSeries(
        sample_rate=target_rate,
        start_time=series.start_time,
        channels=out,
        unparseable_cells=series.unparseable_cells,
    )
