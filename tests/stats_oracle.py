"""Reference for the per-channel statistics of ``ergokit.compare``.

These are ``rmse``, ``pearson_correlation`` and the body of
``compare_recordings``' channel loop as they were before one validity pass
per channel pair fed both statistics, and before the library let the
means decide validity and scored the channels in a thread pool, kept as
an independent oracle: each function builds its own ``isfinite`` mask and
indexes the arrays with it, serially. Tests compare the library against
the functions here bit for bit, and ``align_oracle``'s loops score each
lag with them. A channel's outcome is a plain ``ChannelStats`` record, not
the library's type.

The only change since: the three inner products of r are
``np.einsum("i,i->", x, y)``, as in the library, not ``np.dot``. A BLAS
``ddot`` may split a long product across threads, so its bits changed
with the OpenBLAS thread count; einsum's loop is the same whatever it is.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ergokit.compare import MIN_VALID_FRACTION, ZERO_VARIANCE_STD
from ergokit.errors import LengthMismatch, NoValidPairs, ZeroVariance


class ChannelStats(NamedTuple):
    """One channel's outcome; None metrics mean it could not be compared,
    with ``note`` saying why."""

    rmse: float | None
    correlation: float | None
    valid_fraction: float
    note: str


def rmse(a, b) -> float:
    """Root mean square difference over pairs where both samples are finite."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths {a.shape} vs {b.shape}")
    valid = np.isfinite(a) & np.isfinite(b)
    if not np.any(valid):
        raise NoValidPairs("no pair has both samples valid")
    d = a[valid] - b[valid]
    return float(np.sqrt(np.mean(d * d)))


def pearson_correlation(a, b) -> float:
    """Pearson coefficient over pairs where both samples are finite, in
    [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths {a.shape} vs {b.shape}")
    valid = np.isfinite(a) & np.isfinite(b)
    n = int(np.sum(valid))
    if n < 2:
        raise NoValidPairs("need at least 2 valid pairs")
    da = a[valid] - np.mean(a[valid])
    db = b[valid] - np.mean(b[valid])
    ssa = float(np.einsum("i,i->", da, da))
    ssb = float(np.einsum("i,i->", db, db))
    if math.sqrt(min(ssa, ssb) / n) < ZERO_VARIANCE_STD:
        raise ZeroVariance(f"standard deviation below {ZERO_VARIANCE_STD} deg")
    r = float(np.einsum("i,i->", da, db)) / math.sqrt(ssa * ssb)
    return min(1.0, max(-1.0, r))


def channel_comparison(xa: np.ndarray, xb: np.ndarray) -> ChannelStats:
    """One channel of ``compare_recordings`` on its aligned overlap."""
    overlap = len(xa)
    valid = np.isfinite(xa) & np.isfinite(xb)
    fraction = float(np.sum(valid)) / overlap if overlap else 0.0
    if fraction < MIN_VALID_FRACTION:
        return ChannelStats(
            rmse=None, correlation=None, valid_fraction=fraction,
            note=f"only {fraction:.2f} of the overlap valid",
        )
    value = rmse(xa, xb)
    try:
        corr = pearson_correlation(xa, xb)
        note = ""
    except ZeroVariance:
        corr = None
        note = "zero variance"
    return ChannelStats(
        rmse=value, correlation=corr, valid_fraction=fraction, note=note,
    )
