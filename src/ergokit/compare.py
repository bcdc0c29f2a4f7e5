"""Two-system comparison: min-RMSE temporal alignment, per-channel RMSE and
Pearson correlation, and multi-run summaries.

Both recordings must share a sample rate (resample first; downsample to the
lower rate so nothing is invented for the sparser signal). One global lag
is estimated on a designated reference channel and applied to every
channel: per-channel lags would let timing error masquerade as tracking
error. Lag is positive when the second recording is delayed relative to
the first. The lag search takes every lag's valid-pair count and sum of
squared differences from FFTs of short blocks, in O(N log M) for windows
of M samples, and rescores exactly the lags that rounding could make best.

A sample is valid when it is finite: NaN and +/-inf are both missing.
Missing samples are excluded pairwise per channel; a channel with less
than half of its overlap valid is reported unavailable rather than
silently dropped. The means that r needs also decide validity: when both
sides' means are finite, so is every sample, and no mask is built. The
channels are scored concurrently, with einsum, not BLAS, so no statistic
depends on the BLAS build or its thread count.

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
from .ingest import _pool_size
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


def _valid_pairs(a, b):
    """``a`` and ``b`` flattened to the pairs where both samples are finite,
    with both sides' means, or None for them when a mask picked the pairs."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths {a.shape} vs {b.shape}")
    a, b = a.reshape(-1), b.reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf; a sum past the float range
        means = (np.mean(a), np.mean(b)) if a.size else (math.nan, math.nan)
    if math.isfinite(means[0]) and math.isfinite(means[1]):
        return a, b, means
    valid = np.isfinite(a) & np.isfinite(b)
    return a[valid], b[valid], None


def _rmse(a: np.ndarray, b: np.ndarray, d: np.ndarray | None = None) -> float:
    if not a.size:
        raise NoValidPairs("no pair has both samples valid")
    d = np.subtract(a, b, out=d)
    d *= d
    return float(np.sqrt(np.mean(d)))


def _pearson(a: np.ndarray, b: np.ndarray, means=None, rows=(None, None)) -> float:
    """r of finite pairs and ``means`` from ``_valid_pairs``, in two scratch ``rows``."""
    n = a.size
    if n < 2:
        raise NoValidPairs("need at least 2 valid pairs")
    ma, mb = means or (np.mean(a), np.mean(b))
    da = np.subtract(a, ma, out=rows[0])
    db = np.subtract(b, mb, out=rows[1])
    ssa = float(np.einsum("i,i->", da, da))
    ssb = float(np.einsum("i,i->", db, db))
    if math.sqrt(min(ssa, ssb) / n) < ZERO_VARIANCE_STD:
        raise ZeroVariance(f"standard deviation below {ZERO_VARIANCE_STD} deg")
    r = float(np.einsum("i,i->", da, db)) / math.sqrt(ssa * ssb)
    return min(1.0, max(-1.0, r))


def rmse(a, b) -> float:
    """Root mean square difference over pairs where both samples are finite."""
    return _rmse(*_valid_pairs(a, b)[:2])


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


def _fast_length(n: int) -> int:
    """The shortest p * 2**j of at least ``n``: the FFT lengths pocketfft runs fast."""
    return min(p << ((n - 1) // p).bit_length() for p in (1, 3, 5, 9, 15, 25, 27))


def _lag_sums(a: np.ndarray, b: np.ndarray, max_lag: int):
    """The count of finite pairs ``a[i]``, ``b[i + lag]`` and the sum of their
    squared differences (SSD) at every lag in [-max_lag, max_lag],
    ``max_lag`` clamped to the lags that overlap: ``(lags, overlap, count,
    ssd, err)``.

    Both curves are masked cross-correlations (Padfield, IEEE TIP 2012) of
    the validity masks and of the series less one shared offset (the mean of
    both series' finite samples), which keeps differences and shrinks
    rounding; non-finite samples are zeroed. The SSD is Σa² + Σb² - 2Σab,
    combined in the frequency domain. The FFTs are short (overlap-save):
    ``a`` is cut into blocks of B samples, each correlated with the window
    of ``b`` that starts max_lag before it, M = B + 2 max_lag long, and the
    blocks' spectra are summed pairwise before one inverse FFT per curve.
    M is the shortest fast length of at least 4096 and four lag ranges, so
    the windows' overlap costs at most a quarter of each FFT. When the
    single FFT that covers both series, of the shortest fast length of at
    least max(len(a), len(b)) + max_lag, is no longer, it is the one block.
    No lag wraps around.

    ``err`` bounds the rounding of every lag's SSD, and that of ``rmse`` on
    the lag's overlap: ``16 eps (1 + log2 M + log2 blocks)`` times the sum
    over blocks of the 2-norm products of the SSD's three terms, plus twice
    the total energy Σa0² + Σb0², which bounds every lag's SSD.
    """
    max_lag = min(max_lag, max(len(a), len(b)) - 1)
    lags = np.arange(-max_lag, max_lag + 1)
    overlap = np.minimum(len(a), len(b) - lags) - np.maximum(0, -lags)
    if max_lag < 0:
        return lags, overlap, np.zeros(0), np.zeros(0), 0.0
    # Samples that pair at no lag in range add nothing.
    a, b = a[:len(b) + max_lag], b[:len(a) + max_lag]
    ma, mb = np.isfinite(a), np.isfinite(b)
    n = np.count_nonzero(ma) + np.count_nonzero(mb)
    offset = (a.sum(where=ma) + b.sum(where=mb)) / n if n else 0.0
    m = _fast_length(max(4 * (2 * max_lag + 1), 4096))
    one = _fast_length(max(len(a), len(b)) + max_lag)
    m, block = (one, max(len(a), 1)) if one <= m else (m, m - 2 * max_lag)
    blocks = -(-len(a) // block) or 1
    # Rows: validity, value less offset, its square; zero where missing.
    xa, xb = np.zeros((3, blocks * block)), np.zeros((3, (blocks - 1) * block + m))
    for rows, x, valid in ((xa[:, :len(a)], a, ma), (xb[:, max_lag:max_lag + len(b)], b, mb)):
        rows[0] = valid
        np.subtract(x, offset, out=rows[1], where=valid)
        np.multiply(rows[1], rows[1], out=rows[2])
    energy = xa[2].sum() + xb[2].sum()
    xa = xa.reshape(3, blocks, block)
    xb = np.lib.stride_tricks.sliding_window_view(xb, m, axis=1)[:, ::block]
    fa, fb = np.fft.rfft(xa, m), np.fft.rfft(xb, m)
    np.conjugate(fa, out=fa)
    spec = np.stack((fa[0] * fb[0], -2 * fa[1] * fb[1]))
    spec[1] += fa[2] * fb[0]
    spec[1] += fa[0] * fb[2]
    # Pairwise over the blocks, so rounding grows with log2 of their number.
    left = blocks
    while left > 1:
        half = left // 2
        spec[:, :half] += spec[:, left - half:left]
        left -= half
    count, ssd = np.fft.irfft(spec[:, 0], m)[:, lags + max_lag]
    na, nb = (np.sqrt(np.einsum("ijk,ijk->ij", x, x)) for x in (xa, xb))
    k = 16 * math.ulp(1.0) * (1 + math.log2(m) + math.log2(blocks))
    err = k * (np.sum(na[2] * nb[0] + na[0] * nb[2] + 2 * na[1] * nb[1]) + 2 * energy)
    return lags, overlap, np.rint(count), ssd, err


def align_min_rmse(reference, other, max_lag: int, min_overlap: int = 1) -> AlignmentResult:
    """Integer lag in [-max_lag, max_lag] minimizing RMSE on the overlap.

    Ties break toward the smallest absolute lag, then toward the negative
    one. Raises InsufficientOverlap when no candidate lag leaves at least
    ``min_overlap`` samples of overlap with a valid pair. Every lag's mean
    squared difference comes from ``_lag_sums``; only the lags whose
    estimate less its bound is not above the lowest estimate plus bound are
    rescored with ``rmse``, and the key ``(rmse, |lag|, lag)`` picks one.
    """
    a = np.asarray(reference, dtype=float)
    b = np.asarray(other, dtype=float)
    lags, overlap, count, ssd, err = _lag_sums(a, b, max_lag)
    ok = (overlap >= max(min_overlap, 1)) & (count >= 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cost, tol = ssd / count, err / count
        keep = ok & ~(cost - tol > np.min(cost[ok] + tol[ok], initial=np.inf))
    keys = []
    for lag in lags[keep].tolist():
        i0, i1 = _overlap_slices(len(a), len(b), lag)
        keys.append((rmse(a[i0:i1], b[i0 + lag:i1 + lag]), abs(lag), lag))
    if not keys:
        raise InsufficientOverlap(
            f"no lag within +/-{max_lag} leaves {min_overlap} overlapping samples"
        )
    value, _, lag = min(keys)
    i0, i1 = _overlap_slices(len(a), len(b), lag)
    return AlignmentResult(lag=lag, overlap=i1 - i0, rmse=value)


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
    return [ch for ch in CHANNEL_ORDER if ch in keys]


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
    lag = align_min_rmse(
        a.channels[reference_channel], b.channels[reference_channel],
        max_lag=max_lag, min_overlap=min_overlap,
    ).lag

    i0, i1 = _overlap_slices(a.length, b.length, lag)
    overlap = i1 - i0
    names = _ordered_channels(set(a.channels) | set(b.channels))
    workers = _pool_size(len(names))
    scratch = np.empty((workers, 2, overlap))  # here, not in the workers: keeps the heap warm for the FFTs
    results: list[ChannelComparison | None] = [None] * len(names)

    def score(k: int) -> None:  # names[k::workers] in scratch[k], up to one that raises
        for j in range(k, len(names), workers):
            ch, value, corr, fraction, note = names[j], None, None, 0.0, ""
            if ch not in a.channels or ch not in b.channels:
                note = f"missing in {'first' if ch not in a.channels else 'second'} recording"
            else:
                xa, xb, means = _valid_pairs(a.channels[ch][i0:i1], b.channels[ch][i0 + lag:i1 + lag])
                fraction = xa.size / overlap if overlap else 0.0
                if fraction < MIN_VALID_FRACTION:
                    note = f"only {fraction:.2f} of the overlap valid"
                else:
                    rows = scratch[k, :, :xa.size]
                    value = _rmse(xa, xb, rows[0])
                    try:
                        corr = _pearson(xa, xb, means, rows)
                    except ZeroVariance:
                        note = "zero variance"
            results[j] = ChannelComparison((value,), (corr,), (fraction,), (note,))

    from concurrent.futures import ThreadPoolExecutor  # here: at module load it slows start-up
    with ThreadPoolExecutor(max_workers=workers) as pool:
        runs = [pool.submit(score, k) for k in range(workers)]
    for j, result in enumerate(results):
        if result is None:  # the first channel its worker raised on
            runs[j % workers].result()
    return ComparisonReport(lags=(lag,), sample_rate=rate, reference_channel=reference_channel,
                            channels=dict(zip(names, results)))


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
