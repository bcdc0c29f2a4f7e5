import math

import numpy as np
import pytest

from ergokit.compare import (
    _pairs,
    _pearson,
    _rmse,
    align_min_rmse,
    compare_recordings,
    summarize_runs,
)
from ergokit.errors import (
    ChannelSetMismatch,
    InsufficientOverlap,
    NoValidPairs,
    ReferenceChannelMissing,
    SampleRateMismatch,
    ZeroVariance,
)
from ergokit.motion import JointAngleSeries, JointChannel, angle_mask


def _series(channels, rate=30.0):
    return JointAngleSeries(sample_rate=rate, start_time=0.0, channels=channels)


# --- rmse and r of the pairs that count at lag 0 --------------------------------


def _lag0(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _pairs(a, angle_mask(a), b, angle_mask(b), 0)


def rmse(a, b) -> float:
    return _rmse(*_lag0(a, b))


def pearson_correlation(a, b) -> float:
    return _pearson(*_lag0(a, b))


def test_rmse_identity_and_offset(rng):
    x = rng.normal(size=100)
    assert rmse(x, x) == 0.0
    assert math.isclose(rmse(x, x + 5.0), 5.0, rel_tol=1e-12)


def test_rmse_direct_evaluation():
    assert math.isclose(rmse([0.0, 0.0], [3.0, 4.0]), math.sqrt(25.0 / 2.0))


def test_rmse_symmetry_and_shift_invariance(rng):
    a, b = rng.normal(size=50), rng.normal(size=50)
    assert rmse(a, b) == rmse(b, a)
    assert math.isclose(rmse(a + 7.0, b + 7.0), rmse(a, b), rel_tol=1e-9)


def test_rmse_pairwise_missing():
    a = np.array([1.0, np.nan, 3.0])
    b = np.array([1.0, 2.0, np.nan])
    assert rmse(a, b) == 0.0  # only the first pair is valid
    with pytest.raises(NoValidPairs):
        rmse(np.array([np.nan]), np.array([1.0]))



def test_pearson_trivial_cases(rng):
    a = rng.normal(size=200)
    assert pearson_correlation(a, a) == 1.0
    assert pearson_correlation(a, -a) == -1.0
    assert math.isclose(pearson_correlation(a, 2.0 * a + 5.0), 1.0, abs_tol=1e-12)


def test_pearson_affine_invariance(rng):
    a, b = rng.normal(size=100), rng.normal(size=100)
    r = pearson_correlation(a, b)
    assert math.isclose(pearson_correlation(3.0 * a + 1.0, b), r, abs_tol=1e-9)
    assert math.isclose(pearson_correlation(a, -b), -r, abs_tol=1e-12)


def test_pearson_errors():
    with pytest.raises(ZeroVariance):
        pearson_correlation(np.ones(10), np.arange(10.0))
    with pytest.raises(NoValidPairs):
        pearson_correlation(np.array([1.0, np.nan]), np.array([np.nan, 2.0]))


# --- alignment -----------------------------------------------------------------


def test_align_identity(rng):
    x = rng.normal(size=400)
    result = align_min_rmse(x, x, max_lag=50)
    assert result.lag == 0
    assert result.rmse == 0.0


def test_align_recovers_shift(rng):
    z = rng.normal(size=1000)
    ref = z[200:800]
    other = z[190:790]  # other[i] = ref[i - 10]: delayed by 10 samples
    result = align_min_rmse(ref, other, max_lag=50)
    assert result.lag == 10
    assert result.rmse < 1e-12


def test_align_constant_ties_break_to_zero():
    x = np.full(100, 3.0)
    result = align_min_rmse(x, x, max_lag=20)
    assert result.lag == 0


def test_align_tie_breaks_negative_on_equal_magnitude():
    # Period-4 signal: lags -4 and +4 tie at rmse 0; smallest |lag| is 0,
    # which also ties, so 0 still wins. Force a tie between +2 and -2 only.
    x = np.array([0.0, 1.0, 0.0, -1.0] * 30)
    result = align_min_rmse(x, x, max_lag=7)
    assert result.lag == 0  # 0 is always the smallest-|lag| tie winner here
    # With lag 0 excluded by trimming one series, +/-4 tie -> negative wins.
    result = align_min_rmse(x, np.roll(x, 2), max_lag=7)
    assert result.rmse == 0.0
    assert result.lag == -2  # ties with +2 (period 4), negative preferred


def test_align_insufficient_overlap():
    with pytest.raises(InsufficientOverlap):
        align_min_rmse(np.zeros(10), np.zeros(10), max_lag=3, min_overlap=50)


# --- compare_recordings ------------------------------------------------------------


def _full_series(rng, n=600, rate=30.0):
    t = np.arange(n) / rate
    channels = {}
    for i, ch in enumerate(JointChannel):
        channels[ch] = (
            20.0 * np.sin(2 * np.pi * 0.25 * t + 0.3 * i)
            + 5.0 * np.sin(2 * np.pi * 0.71 * t + 0.7 * i)
        )
    return _series(channels, rate)


def test_compare_self(rng):
    x = _full_series(rng)
    report = compare_recordings(x, x, max_lag_seconds=2.0, min_overlap_seconds=5.0)
    assert report.lags == (0,)
    for ch, result in report.channels.items():
        assert result.rmse == (0.0,), ch
        assert result.correlation == (1.0,), ch


def test_compare_rate_mismatch(rng):
    a = _full_series(rng)
    b = _series({ch: v.copy() for ch, v in a.channels.items()}, rate=100.0)
    with pytest.raises(SampleRateMismatch):
        compare_recordings(a, b)


def test_compare_reference_missing(rng):
    a = _full_series(rng)
    channels = {ch: v for ch, v in a.channels.items() if ch != JointChannel.arm_flex_r}
    b = _series(channels)
    with pytest.raises(ReferenceChannelMissing):
        compare_recordings(a, b, max_lag_seconds=1.0, min_overlap_seconds=2.0)


def test_compare_channel_missing_in_one_is_flagged(rng):
    a = _full_series(rng)
    channels = {ch: v for ch, v in a.channels.items() if ch != JointChannel.wrist_dev_l}
    b = _series(channels)
    report = compare_recordings(a, b, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    flagged = report.channels[JointChannel.wrist_dev_l]
    assert flagged.rmse == (None,)
    assert "missing" in flagged.notes[0]


def test_compare_low_valid_fraction_unavailable(rng):
    a = _full_series(rng, n=300)
    channels = {ch: v.copy() for ch, v in a.channels.items()}
    gap = channels[JointChannel.pro_sup_l]
    gap[: int(0.6 * len(gap))] = np.nan
    b = _series(channels)
    report = compare_recordings(a, b, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    result = report.channels[JointChannel.pro_sup_l]
    assert result.rmse == (None,)
    assert result.valid_fraction[0] < 0.5


def test_compare_one_valid_pair_keeps_rmse():
    """Half of a 2-sample overlap valid passes MIN_VALID_FRACTION: the channel
    keeps its RMSE and, like a zero-variance one, has no correlation."""
    a = _series({JointChannel.arm_flex_r: [0.0, 1.0], JointChannel.arm_flex_l: [1.0, np.nan]}, rate=1.0)
    b = _series({JointChannel.arm_flex_r: [0.0, 1.0], JointChannel.arm_flex_l: [2.0, 3.0]}, rate=1.0)
    report = compare_recordings(a, b, min_overlap_seconds=2)
    result = report.channels[JointChannel.arm_flex_l]
    assert result.rmse == (1.0,)
    assert result.correlation == (None,)
    assert result.notes[0]


def test_compare_sign_flip_channel(rng):
    a = _full_series(rng)
    channels = {ch: v.copy() for ch, v in a.channels.items()}
    channels[JointChannel.lumbar_bending] = -channels[JointChannel.lumbar_bending]
    b = _series(channels)
    report = compare_recordings(a, b, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    assert report.channels[JointChannel.lumbar_bending].correlation == (-1.0,)
    assert report.channels[JointChannel.arm_flex_l].correlation == (1.0,)


def test_compare_noisy_copy_rmse_near_sigma(rng):
    a = _full_series(rng, n=4000, rate=100.0)
    sigma = 5.0
    channels = {ch: v + rng.normal(scale=sigma, size=v.size)
                for ch, v in a.channels.items()}
    b = _series(channels, rate=100.0)
    report = compare_recordings(a, b, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    assert report.lags == (0,)
    for ch, result in report.channels.items():
        assert abs(result.rmse[0] - sigma) / sigma < 0.05, ch


# --- summaries ----------------------------------------------------------------------


def test_summarize_single_run_equals_run(rng):
    x = _full_series(rng)
    report = compare_recordings(x, x, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    summary = summarize_runs([report])
    stats = summary.channels[JointChannel.arm_flex_r]
    assert stats.rmse_mean == report.channels[JointChannel.arm_flex_r].rmse[0]
    assert stats.correlation_mean == 1.0


def test_summarize_mean(rng):
    x = _full_series(rng)
    r1 = compare_recordings(x, x, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    noisy = _series({ch: v + rng.normal(scale=10.0, size=v.size)
                     for ch, v in x.channels.items()})
    r2 = compare_recordings(x, noisy, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    summary = summarize_runs([r1, r2])
    for ch, stats in summary.channels.items():
        runs = [v for v in stats.rmse if v is not None]
        assert math.isclose(stats.rmse_mean, float(np.mean(runs)), abs_tol=1e-9)


def test_summarize_mean_permutation_invariant(rng):
    x = _full_series(rng)
    noisy = _series({ch: v + rng.normal(scale=3.0, size=v.size)
                     for ch, v in x.channels.items()})
    r1 = compare_recordings(x, x, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    r2 = compare_recordings(x, noisy, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    s12 = summarize_runs([r1, r2])
    s21 = summarize_runs([r2, r1])
    for ch in s12.channels:
        assert s12.channels[ch].rmse_mean == s21.channels[ch].rmse_mean


def test_summarize_channel_set_mismatch(rng):
    x = _full_series(rng)
    r1 = compare_recordings(x, x, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    smaller = _series({ch: v for ch, v in x.channels.items()
                       if ch != JointChannel.wrist_dev_l})
    r2 = compare_recordings(smaller, smaller,
                            max_lag_seconds=1.0, min_overlap_seconds=2.0)
    with pytest.raises(ChannelSetMismatch):
        summarize_runs([r1, r2])


def test_summarize_sample_rate_mismatch(rng):
    slow = _full_series(rng)
    fast = _full_series(rng, n=2000, rate=100.0)
    r1 = compare_recordings(slow, slow, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    r2 = compare_recordings(fast, fast, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    with pytest.raises(SampleRateMismatch, match=r"run 2 is at 100 Hz, run 1 at 30 Hz"):
        summarize_runs([r1, r2])


def test_summarize_reference_channel_mismatch(rng):
    x = _full_series(rng)
    r1 = compare_recordings(x, x, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    r2 = compare_recordings(x, x, reference_channel=JointChannel.elbow_flex_r,
                            max_lag_seconds=1.0, min_overlap_seconds=2.0)
    with pytest.raises(ChannelSetMismatch, match="run 2 is aligned on elbow_flex_r"):
        summarize_runs([r1, r2])


def test_summarize_joins_runs_in_order(rng):
    x = _full_series(rng)
    noisy = _series({ch: v + rng.normal(scale=3.0, size=v.size)
                     for ch, v in x.channels.items()})
    r1 = compare_recordings(x, x, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    r2 = compare_recordings(x, noisy, max_lag_seconds=1.0, min_overlap_seconds=2.0)
    joined = summarize_runs([r1, summarize_runs([r2, r1])])
    assert joined.lags == r1.lags + r2.lags + r1.lags
    assert list(joined.channels) == list(r1.channels)
    for ch, stats in joined.channels.items():
        one, two = r1.channels[ch], r2.channels[ch]
        assert stats.rmse == one.rmse + two.rmse + one.rmse
        assert stats.correlation == one.correlation + two.correlation + one.correlation
        assert stats.valid_fraction == one.valid_fraction + two.valid_fraction + one.valid_fraction
        assert stats.notes == one.notes + two.notes + one.notes
