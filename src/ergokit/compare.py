"""Two-system comparison: min-RMSE temporal alignment, per-channel RMSE and
Pearson correlation, and multi-run summaries.

Both recordings must share a sample rate (resample first; downsample to the
lower rate so nothing is invented for the sparser signal). One global lag
is estimated on a designated reference channel and applied to every
channel: per-channel lags would let timing error masquerade as tracking
error. Lag is positive when the second recording is delayed relative to
the first. The lag searches take every lag's curve from one set of FFTs,
in O(N log N), and rescore exactly the lags that rounding could make best.

A sample is valid when it is finite: NaN and +/-inf are both missing.
Missing samples are excluded pairwise per channel; a channel with less
than half of its overlap valid is reported unavailable rather than
silently dropped.

One ``ComparisonReport`` holds n >= 1 runs: ``compare_recordings`` returns
one run, and ``summarize_runs`` joins runs that share a sample rate, a
reference channel and a channel set. Each channel keeps one entry per run;
its across-run means are derived in one place, the ``rmse_mean`` and
``correlation_mean`` properties of ``ChannelComparison``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ChannelSetMismatch,
    InsufficientOverlap,
    LengthMismatch,
    NoValidPairs,
    ReferenceChannelMissing,
    SampleRateMismatch,
    ZeroVariance,
)
from .motion import CHANNEL_ORDER, JointAngleSeries, JointChannel

#: Channels with less than this fraction of valid pairs in the aligned
#: overlap are reported unavailable.
MIN_VALID_FRACTION = 0.5

DEFAULT_MAX_LAG_SECONDS = 10.0
DEFAULT_MIN_OVERLAP_SECONDS = 5.0
DEFAULT_REFERENCE_CHANNEL = JointChannel.arm_flex_r

#: A series whose standard deviation (deg) is below this has no correlation:
#: it is constant up to rounding noise. Same as the geometry tests' tolerance.
ZERO_VARIANCE_STD = 1e-9


def _valid_pairs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as flat float arrays of the pairs where both samples
    are finite: the inputs themselves, flattened, when every pair is."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths {a.shape} vs {b.shape}")
    valid = np.isfinite(a) & np.isfinite(b)
    if valid.all():
        return a.ravel(), b.ravel()
    return a[valid], b[valid]


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    if not a.size:
        raise NoValidPairs("no pair has both samples valid")
    d = a - b
    d *= d
    return float(np.sqrt(np.mean(d)))


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    n = a.size
    if n < 2:
        raise NoValidPairs("need at least 2 valid pairs")
    da = a - np.mean(a)
    db = b - np.mean(b)
    ssa = float(np.dot(da, da))
    ssb = float(np.dot(db, db))
    if math.sqrt(min(ssa, ssb) / n) < ZERO_VARIANCE_STD:
        raise ZeroVariance(f"standard deviation below {ZERO_VARIANCE_STD} deg")
    r = float(np.dot(da, db)) / math.sqrt(ssa * ssb)
    return min(1.0, max(-1.0, r))


def rmse(a, b) -> float:
    """Root mean square difference over pairs where both samples are finite."""
    return _rmse(*_valid_pairs(a, b))


def pearson_correlation(a, b) -> float:
    """Pearson coefficient over pairs where both samples are finite, in
    [-1, 1]."""
    return _pearson(*_valid_pairs(a, b))


@dataclass(frozen=True)
class AlignmentResult:
    lag: int        # samples; positive = second series delayed
    overlap: int    # aligned overlap length at the chosen lag
    rmse: float     # RMSE at the chosen lag


def _overlap_slices(len_a: int, len_b: int, lag: int):
    i0 = max(0, -lag)
    i1 = min(len_a, len_b - lag)
    return i0, i1


def _lag_sums(a: np.ndarray, b: np.ndarray, max_lag: int):
    """Masked sums over the overlap of ``a[i]`` and ``b[i + lag]`` at every
    lag in [-max_lag, max_lag], ``max_lag`` clamped to the lags that overlap:
    ``(lags, overlap, sums, err, k)``.

    The rows of ``sums`` (count of finite pairs, Σa, Σb, Σa², Σb², Σab) are
    masked cross-correlations (Padfield, IEEE TIP 2012) from one set of real
    FFTs of the validity masks and of the series less one shared offset (the
    mean of both series' finite samples), which keeps differences and
    shrinks rounding; non-finite samples are zeroed. No lag wraps around. Row i's rounding is at most ``err[i]``:
    ``k = 16 eps (1 + log2 nfft)`` times its two factors' 2-norms.
    """
    max_lag = min(max_lag, max(len(a), len(b)) - 1)
    lags = np.arange(-max_lag, max_lag + 1)
    overlap = np.minimum(len(a), len(b) - lags) - np.maximum(0, -lags)
    ma, mb = np.isfinite(a), np.isfinite(b)
    finite = np.concatenate((a[ma], b[mb]))
    offset = finite.mean() if finite.size else 0.0
    a0, b0 = np.where(ma, a - offset, 0.0), np.where(mb, b - offset, 0.0)
    xa, xb = np.stack((ma, a0, a0 * a0)), np.stack((mb, b0, b0 * b0))
    # The shortest p * 2**j covering both series plus max_lag: fast FFT lengths.
    need = max(len(a), len(b)) + max_lag
    nfft = min(p << ((need - 1) // p).bit_length() for p in (1, 3, 5, 9, 15, 25, 27))
    fa, fb = np.fft.rfft(xa, nfft).conj(), np.fft.rfft(xb, nfft)
    pairs = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))
    sums = np.stack([np.fft.irfft(fa[i] * fb[j], nfft)[lags % nfft] for i, j in pairs])
    sums[0] = np.rint(sums[0])
    k = 16 * math.ulp(1.0) * (1 + math.log2(nfft))
    norm_a, norm_b = np.linalg.norm(xa, axis=1), np.linalg.norm(xb, axis=1)
    return lags, overlap, sums, k * np.array([norm_a[i] * norm_b[j] for i, j in pairs]), k


def _best_lag(a, b, max_lag, min_overlap, least, curve, exact):
    """Smallest ``(exact(x, y), |lag|, lag)`` over the lags that leave
    ``max(min_overlap, least)`` samples of overlap and ``least`` valid pairs.
    ``curve(sums, err, k)`` gives every lag's estimate of ``exact`` and a
    bound on the rounding of both; only lags whose estimate less bound is
    not above the lowest estimate plus bound are rescored with ``exact``.
    """
    lags, overlap, sums, err, k = _lag_sums(a, b, max_lag)
    ok = (overlap >= max(min_overlap, least)) & (sums[0] >= least)
    with np.errstate(divide="ignore", invalid="ignore"):
        cost, tol = curve(sums, err, k)
        keep = ok & ~(cost - tol > np.min(cost[ok] + tol[ok], initial=np.inf))
    keys = []
    for lag in lags[keep].tolist():
        i0, i1 = _overlap_slices(len(a), len(b), lag)
        try:
            keys.append((exact(a[i0:i1], b[i0 + lag:i1 + lag]), abs(lag), lag))
        except (NoValidPairs, ZeroVariance):
            continue
    if not keys:
        raise InsufficientOverlap(
            f"no lag within +/-{max_lag} leaves {min_overlap} overlapping samples"
        )
    return min(keys)


def align_min_rmse(reference, other, max_lag: int, min_overlap: int = 1) -> AlignmentResult:
    """Integer lag in [-max_lag, max_lag] minimizing RMSE on the overlap.

    Ties break toward the smallest absolute lag, then toward the negative
    one. Raises InsufficientOverlap when no candidate lag leaves at least
    ``min_overlap`` samples of overlap with a valid pair. The curve is the
    mean squared difference (Σa² + Σb² - 2Σab) / count.
    """
    def curve(sums, err, k):
        n, _, _, saa, sbb, sab = sums
        # FFT rounding, plus rmse's own: it sums d² <= 2 (a² + b²).
        tol = err[3] + err[4] + 2 * err[5] + 2 * k * (saa + sbb + err[3] + err[4])
        return (saa + sbb - 2 * sab) / n, tol / n

    reference = np.asarray(reference, dtype=float)
    other = np.asarray(other, dtype=float)
    value, _, lag = _best_lag(reference, other, max_lag, min_overlap, 1, curve, rmse)
    i0, i1 = _overlap_slices(len(reference), len(other), lag)
    return AlignmentResult(lag=lag, overlap=i1 - i0, rmse=value)


def cross_correlation_peak(reference, other, max_lag: int,
                           min_overlap: int = 2) -> tuple[int, float]:
    """Lag maximizing the Pearson coefficient, for sensitivity analysis
    against the min-RMSE alignment; ties and errors as ``align_min_rmse``."""
    def curve(sums, err, k):
        n, sa, sb, saa, sbb, sab = sums
        _, ea, eb, eaa, ebb, eab = err
        # One bound on the error of the covariance and of both variances:
        # the FFT sums', and pearson_correlation's own (its means are off by
        # at most d, its np.dot sums by n eps).
        d = k * max(np.max(np.abs(x[np.isfinite(x)]), initial=0.0) for x in (reference, other))
        e = (eaa + ebb + eab + ((np.abs(sa) + np.abs(sb)) * (ea + eb) + (ea + eb) ** 2) / n
             + n * d * d + 3 * (k + n * math.ulp(1.0)) * (saa + sbb))
        va, vb = saa - sa * sa / n, sbb - sb * sb / n
        r = (sab - sa * sb / n) / np.sqrt(va * vb)
        tol = 2 * e / np.sqrt((va - 2 * e) * (vb - 2 * e)) + 3 * e * (1 / (va - e) + 1 / (vb - e))
        # A lag whose variance may be near its error or the floor is always rescored.
        certain = np.minimum(va, vb) - 3 * e > 2 * n * ZERO_VARIANCE_STD ** 2
        return np.where(certain, -r, 0.0), np.where(certain, tol, np.inf)

    reference = np.asarray(reference, dtype=float)
    other = np.asarray(other, dtype=float)
    value, _, lag = _best_lag(reference, other, max_lag, min_overlap, 2, curve,
                              lambda x, y: -pearson_correlation(x, y))
    return lag, -value


def _mean_or_none(values) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


@dataclass(frozen=True)
class ChannelComparison:
    """One channel across runs, one entry per run. A None metric means the
    channel could not be compared in that run, with its note saying why."""

    rmse: tuple[float | None, ...]
    correlation: tuple[float | None, ...]
    valid_fraction: tuple[float, ...]
    notes: tuple[str, ...]

    @property
    def rmse_mean(self) -> float | None:
        return _mean_or_none(self.rmse)

    @property
    def correlation_mean(self) -> float | None:
        return _mean_or_none(self.correlation)


@dataclass(frozen=True)
class ComparisonReport:
    """n >= 1 runs: each run's lag in samples at ``sample_rate``, and each
    channel's statistics in the same run order."""

    lags: tuple[int, ...]
    sample_rate: float
    reference_channel: JointChannel
    channels: dict[JointChannel, ChannelComparison]


def _ordered_channels(keys) -> list[JointChannel]:
    keys = set(keys)
    ordered = [ch for ch in CHANNEL_ORDER if ch in keys]
    ordered.extend(sorted(keys - set(ordered), key=lambda c: c.value))
    return ordered


def compare_recordings(a: JointAngleSeries, b: JointAngleSeries,
                       reference_channel: JointChannel = DEFAULT_REFERENCE_CHANNEL,
                       max_lag_seconds: float = DEFAULT_MAX_LAG_SECONDS,
                       min_overlap_seconds: float = DEFAULT_MIN_OVERLAP_SECONDS,
                       ) -> ComparisonReport:
    """Compare two recordings of the same task at a common sample rate.

    The global lag comes from ``reference_channel``; every channel is then
    scored on the aligned overlap.
    """
    if not math.isclose(a.sample_rate, b.sample_rate, rel_tol=1e-9):
        raise SampleRateMismatch(
            f"rates differ: {a.sample_rate} vs {b.sample_rate}; resample first"
        )
    rate = a.sample_rate
    max_lag = max(1, int(round(max_lag_seconds * rate)))
    min_overlap = max(1, int(round(min_overlap_seconds * rate)))

    if reference_channel not in a.channels or reference_channel not in b.channels:
        raise ReferenceChannelMissing(
            f"reference channel {reference_channel.value} absent from an input"
        )
    alignment = align_min_rmse(
        a.channels[reference_channel], b.channels[reference_channel],
        max_lag=max_lag, min_overlap=min_overlap,
    )
    lag = alignment.lag

    i0, i1 = _overlap_slices(a.length, b.length, lag)
    overlap = i1 - i0
    results: dict[JointChannel, ChannelComparison] = {}
    for ch in _ordered_channels(set(a.channels) | set(b.channels)):
        value = corr = None
        fraction, note = 0.0, ""
        if ch not in a.channels or ch not in b.channels:
            note = f"missing in {'first' if ch not in a.channels else 'second'} recording"
        else:
            xa, xb = _valid_pairs(a.channels[ch][i0:i1], b.channels[ch][i0 + lag:i1 + lag])
            fraction = xa.size / overlap if overlap else 0.0
            if fraction < MIN_VALID_FRACTION:
                note = f"only {fraction:.2f} of the overlap valid"
            else:
                value = _rmse(xa, xb)
                try:
                    corr = _pearson(xa, xb)
                except ZeroVariance:
                    note = "zero variance"
        results[ch] = ChannelComparison((value,), (corr,), (fraction,), (note,))

    return ComparisonReport(
        lags=(lag,), sample_rate=rate,
        reference_channel=reference_channel, channels=results,
    )


def summarize_runs(reports) -> ComparisonReport:
    """The runs of ``reports`` joined into one report, in order. All runs
    must share the sample rate, the reference channel and the channel set."""
    reports = list(reports)
    if not reports:
        raise ChannelSetMismatch("no reports to summarize")
    first = reports[0]
    for i, report in enumerate(reports[1:], start=2):
        if set(report.channels) != set(first.channels):
            raise ChannelSetMismatch(f"run {i} covers a different channel set")
        if not math.isclose(report.sample_rate, first.sample_rate, rel_tol=1e-9):
            raise SampleRateMismatch(
                f"run {i} is at {report.sample_rate:.10g} Hz, run 1 at"
                f" {first.sample_rate:.10g} Hz; compare every run at one rate (--rate)"
            )
        if report.reference_channel != first.reference_channel:
            raise ChannelSetMismatch(
                f"run {i} is aligned on {report.reference_channel.value},"
                f" run 1 on {first.reference_channel.value}"
            )

    def joined(ch, name):
        return tuple(v for report in reports for v in getattr(report.channels[ch], name))

    return ComparisonReport(
        lags=tuple(lag for report in reports for lag in report.lags),
        sample_rate=first.sample_rate,
        reference_channel=first.reference_channel,
        channels={
            ch: ChannelComparison(*(joined(ch, f.name) for f in fields(ChannelComparison)))
            for ch in _ordered_channels(first.channels)
        },
    )
