"""Lag-by-lag reference for the alignment search.

This is the loop ``ergokit.compare`` used before it computed every lag's
sums at once with FFTs, kept unchanged as an independent oracle: one
``rmse`` call on the whole overlap per lag, and the key
``(value, |lag|, lag)``, with ``rmse`` from ``stats_oracle``, so a sample
beyond +/-``MAX_ABS_ANGLE`` is missing here as it is there. Tests compare
``align_min_rmse`` in ``ergokit.compare`` against the function here, the
same way ``rula_oracle`` serves the scorer.
"""
from __future__ import annotations

import numpy as np

from ergokit.compare import AlignmentResult
from ergokit.errors import InsufficientOverlap, NoValidPairs
from stats_oracle import rmse


def _overlap_slices(len_a: int, len_b: int, lag: int):
    i0 = max(0, -lag)
    i1 = min(len_a, len_b - lag)
    return i0, i1


def align_min_rmse(reference, other, max_lag: int, min_overlap: int = 1) -> AlignmentResult:
    """Integer lag in [-max_lag, max_lag] minimizing RMSE on the overlap.

    Ties break toward the smallest absolute lag, then toward the negative
    one. Raises InsufficientOverlap when no candidate lag leaves at least
    ``min_overlap`` samples of overlap with a valid pair.
    """
    reference = np.asarray(reference, dtype=float)
    other = np.asarray(other, dtype=float)
    best = None
    for lag in range(-max_lag, max_lag + 1):
        i0, i1 = _overlap_slices(len(reference), len(other), lag)
        if i1 - i0 < max(min_overlap, 1):
            continue
        try:
            value = rmse(reference[i0:i1], other[i0 + lag:i1 + lag])
        except NoValidPairs:
            continue
        key = (value, abs(lag), lag)
        if best is None or key < best[0]:
            best = (key, AlignmentResult(lag=lag, overlap=i1 - i0, rmse=value))
    if best is None:
        raise InsufficientOverlap(
            f"no lag within +/-{max_lag} leaves {min_overlap} overlapping samples"
        )
    return best[1]

