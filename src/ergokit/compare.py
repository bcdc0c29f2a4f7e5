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

A sample is valid when it is an angle, within +/-``MAX_ABS_ANGLE``
(``motion.angle_mask``, as in ``channel_summary`` and scoring): NaN,
+/-inf and larger samples are missing, so no square or sum overflows.
``_pairs`` keeps the pairs of a lag's overlap where both samples are
valid, from each series' mask, built once (none when both extrema are in
range) for the lag search and every lag it rescores; ``_rmse`` and
``_pearson`` score them, called from ``align_min_rmse`` and
``compare_recordings`` only. A channel with less
than half of its overlap valid is reported unavailable rather than
silently dropped. The channels are scored concurrently, with einsum, not
BLAS, so no statistic depends on the BLAS build or its thread count.

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
from .ingest import _pool_size, _striped
from .motion import CHANNEL_ORDER, JointAngleSeries, JointChannel, angle_mask

#: Channels with less than this fraction of valid pairs in the aligned
#: overlap are reported unavailable.
MIN_VALID_FRACTION = 0.5

DEFAULT_MAX_LAG_SECONDS = 10.0
DEFAULT_MIN_OVERLAP_SECONDS = 5.0
DEFAULT_REFERENCE_CHANNEL = JointChannel.arm_flex_r

#: A series whose standard deviation (deg) is below this has no correlation:
#: it is constant up to rounding noise. Same as the geometry tests' tolerance.
ZERO_VARIANCE_STD = 1e-9


def _pairs(a, ka, b, kb, lag: int):
    """The pairs ``a[i]``, ``b[i + lag]`` of the overlap at ``lag`` where both
    samples are angles, from the whole series and their ``angle_mask``
    (None when every sample is an angle); the one rule of which pairs count."""
    sa = slice(max(0, -lag), min(len(a), len(b) - lag))
    sb = slice(sa.start + lag, sa.stop + lag)
    if ka is None and kb is None:
        return a[sa], b[sb]
    valid = kb[sb] if ka is None else ka[sa] if kb is None else ka[sa] & kb[sb]
    return a[sa][valid], b[sb][valid]


def _rmse(a: np.ndarray, b: np.ndarray, d: np.ndarray | None = None) -> float:
    """RMS difference of the valid pairs from ``_pairs``, in a scratch row ``d``."""
    if not a.size:
        raise NoValidPairs("no pair has both samples valid")
    d = np.subtract(a, b, out=d)
    d *= d
    return float(np.sqrt(np.mean(d)))


def _pearson(a: np.ndarray, b: np.ndarray, rows=(None, None)) -> float:
    """r of the valid pairs from ``_pairs``, in two scratch ``rows``."""
    n = a.size
    if n < 2:
        raise NoValidPairs("need at least 2 valid pairs")
    da = np.subtract(a, np.mean(a), out=rows[0])
    db = np.subtract(b, np.mean(b), out=rows[1])
    ssa = float(np.einsum("i,i->", da, da))
    ssb = float(np.einsum("i,i->", db, db))
    if math.sqrt(min(ssa, ssb) / n) < ZERO_VARIANCE_STD:
        raise ZeroVariance(f"standard deviation below {ZERO_VARIANCE_STD} deg")
    r = float(np.einsum("i,i->", da, db)) / math.sqrt(ssa * ssb)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class AlignmentResult:
    lag: int        # samples; positive = second series delayed
    overlap: int    # aligned overlap length at the chosen lag
    rmse: float     # RMSE at the chosen lag


def _fast_length(n: int) -> int:
    """The shortest p * 2**j of at least ``n``: the FFT lengths pocketfft runs fast."""
    return min(p << ((n - 1) // p).bit_length() for p in (1, 3, 5, 9, 15, 25, 27))


def _rows(out: np.ndarray, x: np.ndarray, valid: np.ndarray, start: int, offset: float):
    """``out`` (3, L), filled from ``x[start:start + L]``: validity, value less
    ``offset``, its square; zero where missing or outside ``x``."""
    out.fill(0.0)
    lo, hi = max(start, 0), min(start + out.shape[1], len(x))
    if lo < hi:
        part, v = out[:, lo - start:hi - start], valid[lo:hi]
        part[0] = v
        np.subtract(x[lo:hi], offset, out=part[1], where=v)
        np.multiply(part[1], part[1], out=part[2])
    return out


def _lag_sums(a: np.ndarray, ka, b: np.ndarray, kb, max_lag: int):
    """The count of the pairs ``_pairs(a, ka, b, kb, lag)`` keeps and the sum
    of their squared differences (SSD) at every lag in [-max_lag, max_lag],
    ``max_lag`` clamped to the lags that overlap: ``(lags, overlap, count,
    ssd, err)``, from the caller's masks ``ka`` and ``kb``.

    Both curves are masked cross-correlations (Padfield, IEEE TIP 2012) of
    the validity masks and of the series less one shared offset (the mean of
    both series' valid samples), which keeps differences and shrinks
    rounding; missing samples are zeroed. The SSD is Σa² + Σb² - 2Σab,
    combined in the frequency domain. The FFTs are short (overlap-save):
    ``a`` is cut into blocks of B samples, each correlated with the window
    of ``b`` that starts max_lag before it, M = B + 2 max_lag long, and the
    blocks' spectra are added up before one inverse FFT per curve. M is the
    shortest fast length of at least 4096 and four lag ranges, so the
    windows' overlap costs at most a quarter of each FFT. When the single
    FFT that covers both series, of the shortest fast length of at least
    max(len(a), len(b)) + max_lag, is no longer, it is the one block. No lag
    wraps around.

    The blocks are taken one at a time, each block's spectra added to one
    running total, so the working memory is O(M), not O(N).

    ``err`` bounds the rounding of every lag's SSD, and that of ``_rmse`` on
    the lag's pairs: ``16 eps (log2 M + blocks) (2 sqrt(M) + 4) E``, where
    E = Σa0² + Σb0² is the energy of the series less the offset, each sample
    once. The FFTs and the running sum, which passes each spectrum through
    at most blocks - 1 additions (Higham, SIAM J. Sci. Comput. 14, 1993),
    round within ``16 eps (log2 M + blocks)`` times the sum over blocks of the
    2-norm products of the SSD's three terms, plus 2E, which bounds every lag's SSD.
    Per block, ||a0²||₂ <= Σa0², ||mask||₂ <= sqrt(M) and 2 ||a0||₂ ||b0||₂
    <= Σa0² + Σb0², so its products are at most sqrt(M) + 1 times the
    energy of the block and of its window of b. With several blocks,
    M >= 4 (2 max_lag + 1) makes B > 3M/4: each sample of b lies in at most
    two windows, and the products sum to at most 2 (sqrt(M) + 1) E.
    """
    max_lag = min(max_lag, max(len(a), len(b)) - 1)
    lags = np.arange(-max_lag, max_lag + 1)
    overlap = np.minimum(len(a), len(b) - lags) - np.maximum(0, -lags)
    if max_lag < 0:
        return lags, overlap, np.zeros(0), np.zeros(0), 0.0
    # Samples that pair at no lag in range add nothing.
    a, b = a[:len(b) + max_lag], b[:len(a) + max_lag]
    ma, mb = (np.ones(len(x), bool) if m is None else m[:len(x)]
              for x, m in ((a, ka), (b, kb)))
    n = np.count_nonzero(ma) + np.count_nonzero(mb)
    offset = (a.sum(where=ma) + b.sum(where=mb)) / n if n else 0.0
    m = _fast_length(max(4 * (2 * max_lag + 1), 4096))
    one = _fast_length(max(len(a), len(b)) + max_lag)
    m, block = (one, max(len(a), 1)) if one <= m else (m, m - 2 * max_lag)
    blocks = -(-len(a) // block) or 1
    x = np.zeros((6, m))  # a's rows, then b's; a's stay zero past B
    total, energy = np.zeros((2, m // 2 + 1), complex), 0.0
    for j in range(blocks):
        # b's row is b delayed by max_lag, so that b[i] meets a[i] at lag 0.
        _rows(x[:3, :block], a, ma, j * block, offset)
        _rows(x[3:], b, mb, j * block - max_lag, offset)
        # Each sample's square once: b's windows overlap, so only the block's
        # own stretch of b's row counts, and the last block's runs to its end.
        energy += x[2].sum() + x[5, :block if j < blocks - 1 else None].sum()
        f = np.fft.rfft(x)
        fa, fb = np.conjugate(f[:3], out=f[:3]), f[3:]
        spec = np.stack((fa[0] * fb[0], -2 * fa[1] * fb[1]))
        spec[1] += fa[2] * fb[0]
        spec[1] += fa[0] * fb[2]
        total += spec
    count, ssd = np.fft.irfft(total, m)[:, lags + max_lag]
    err = 16 * math.ulp(1.0) * (math.log2(m) + blocks) * (2 * math.sqrt(m) + 4) * energy
    return lags, overlap, np.rint(count), ssd, err


def align_min_rmse(reference, other, max_lag: int, min_overlap: int = 1) -> AlignmentResult:
    """Integer lag in [-max_lag, max_lag] minimizing RMSE on the overlap.

    Ties break toward the smallest absolute lag, then toward the negative
    one. Raises InsufficientOverlap when no candidate lag leaves at least
    ``min_overlap`` samples of overlap with a valid pair. Every lag's mean
    squared difference comes from ``_lag_sums``; only the lags whose
    estimate less its bound is not above the lowest estimate plus bound are
    rescored, ``_rmse`` of their ``_pairs``, and the key ``(rmse, |lag|,
    lag)`` picks one. Both take each series' mask, built once here.
    """
    a, b = np.asarray(reference, dtype=float), np.asarray(other, dtype=float)
    ka, kb = angle_mask(a), angle_mask(b)
    lags, overlap, count, ssd, err = _lag_sums(a, ka, b, kb, max_lag)
    ok = (overlap >= max(min_overlap, 1)) & (count >= 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cost, tol = ssd / count, err / count
        keep = ok & ~(cost - tol > np.min(cost[ok] + tol[ok], initial=np.inf))
    keys = [(_rmse(*_pairs(a, ka, b, kb, lag)), abs(lag), lag) for lag in lags[keep].tolist()]
    if not keys:
        raise InsufficientOverlap(
            f"no lag within +/-{max_lag} leaves {min_overlap} overlapping samples"
        )
    value, _, lag = min(keys)
    return AlignmentResult(lag=lag, overlap=int(overlap[lag - lags[0]]), rmse=value)


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

    The global lag comes from ``align_min_rmse`` on ``reference_channel``.
    It builds that channel's masks, and the channel loop again (1 channel
    of 20), so the search stays one call a wrapper can time. Each channel is
    scored on ``_pairs`` at the lag, channels k, k + threads, ... in thread
    k (``ingest._striped``), in its two rows of one scratch block allocated
    first. The report and any error equal a serial loop's over ``CHANNEL_ORDER``.
    """
    if not math.isclose(a.sample_rate, b.sample_rate, rel_tol=1e-9):
        raise SampleRateMismatch(
            f"rates differ: {a.sample_rate} vs {b.sample_rate}; resample first"
        )
    rate = a.sample_rate
    # Past both lengths no lag or overlap changes the result; clamped there,
    # a huge window stays an int instead of reaching int(inf).
    most = a.length + b.length
    max_lag = max(0, int(round(min(max_lag_seconds * rate, most))))
    min_overlap = max(1, int(round(min(min_overlap_seconds * rate, most))))

    if reference_channel not in a.channels or reference_channel not in b.channels:
        raise ReferenceChannelMissing(
            f"reference channel {reference_channel.value} absent from an input"
        )
    lag = align_min_rmse(a.channels[reference_channel], b.channels[reference_channel],
                         max_lag=max_lag, min_overlap=min_overlap).lag
    overlap = min(a.length, b.length - lag) - max(0, -lag)  # the series', not the reference's
    names = _ordered_channels(set(a.channels) | set(b.channels))
    workers = _pool_size(len(names))
    scratch = np.empty((workers, 2, overlap))  # here, not in the workers: keeps the heap warm for the FFTs
    results: list[ChannelComparison | None] = [None] * len(names)

    def score(k: int, j: int) -> None:  # names[j] in scratch[k]
        ch, value, corr, fraction, note = names[j], None, None, 0.0, ""
        if ch not in a.channels or ch not in b.channels:
            note = f"missing in {'first' if ch not in a.channels else 'second'} recording"
        else:
            x, y = a.channels[ch], b.channels[ch]
            if (len(x), len(y)) != (a.length, b.length):  # replaced after the series' check
                raise LengthMismatch(f"lengths {x.shape} vs {y.shape}")
            xa, xb = _pairs(x, angle_mask(x), y, angle_mask(y), lag)
            fraction = xa.size / overlap
            if fraction < MIN_VALID_FRACTION:
                note = f"only {fraction:.2f} of the overlap valid"
            else:
                rows = scratch[k, :, :xa.size]
                value = _rmse(xa, xb, rows[0])
                try:
                    corr = _pearson(xa, xb, rows)
                except ZeroVariance:
                    note = "zero variance"
                except NoValidPairs:  # one valid pair, in an overlap of 1 or 2
                    note = "only 1 valid pair"
        results[j] = ChannelComparison((value,), (corr,), (fraction,), (note,))

    _striped(score, len(names), workers)
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
