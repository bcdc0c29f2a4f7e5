"""Lag-by-lag reference for the alignment searches.

These are the loops ``ergokit.compare`` used before it computed every lag's
sums at once with FFTs, kept unchanged as an independent oracle: one
``rmse`` or ``pearson_correlation`` call on the whole overlap per lag, and
the key ``(value, |lag|, lag)``, both statistics from ``stats_oracle``.
Tests compare ``align_min_rmse`` and ``cross_correlation_peak`` in
``ergokit.compare`` against the functions here, the same way
``rula_oracle`` serves the scorer.
"""
from __future__ import annotations

import numpy as np

from ergokit.compare import AlignmentResult
from ergokit.errors import InsufficientOverlap, NoValidPairs, ZeroVariance
from stats_oracle import pearson_correlation, rmse


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


def cross_correlation_peak(reference, other, max_lag: int,
                           min_overlap: int = 2) -> tuple[int, float]:
    """Lag maximizing the Pearson coefficient, for sensitivity analysis
    against the min-RMSE alignment."""
    reference = np.asarray(reference, dtype=float)
    other = np.asarray(other, dtype=float)
    best = None
    for lag in range(-max_lag, max_lag + 1):
        i0, i1 = _overlap_slices(len(reference), len(other), lag)
        if i1 - i0 < max(min_overlap, 2):
            continue
        try:
            r = pearson_correlation(reference[i0:i1], other[i0 + lag:i1 + lag])
        except (NoValidPairs, ZeroVariance):
            continue
        key = (-r, abs(lag), lag)
        if best is None or key < best[0]:
            best = (key, (lag, r))
    if best is None:
        raise InsufficientOverlap(
            f"no lag within +/-{max_lag} leaves {min_overlap} overlapping samples"
        )
    return best[1]
