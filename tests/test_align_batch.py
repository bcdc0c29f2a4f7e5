"""The FFT lag search against the lag-by-lag loop in ``align_oracle``.

``align_min_rmse`` must return what the loop returns, bit for bit: the same
lag, the same overlap, the same RMSE, and the same exception. Inputs are
drawn to stress the rounding window and the masks: unequal lengths, lag
ranges past both lengths, minimum overlaps at and around the feasible one,
NaN, +/-inf and out-of-range samples (up to all of them), a 1e4 deg offset under a small
signal, and periodic and constant series whose lags tie. Short series take
one FFT block; long ones with a narrow lag range take several, and the
longest a few dozen.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import align_oracle
from ergokit import compare
from ergokit.errors import InsufficientOverlap, ZeroVariance
from ergokit.motion import MAX_ABS_ANGLE, angle_mask

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# Missing samples: NaN, +/-inf, and finite ones beyond +/-MAX_ABS_ANGLE.
MISSING = np.array([np.nan, np.inf, -np.inf, 1e200, -2e6])


def _bits(value):
    return float(value).hex()


def _outcome(search, *args):
    """What a search returns, as comparable values, or the exception type."""
    try:
        result = search(*args)
    except InsufficientOverlap as exc:
        return type(exc)
    return result.lag, result.overlap, _bits(result.rmse)


def _assert_like_oracle(a, b, max_lag, min_overlap):
    got = _outcome(compare.align_min_rmse, a, b, max_lag, min_overlap)
    assert got == _outcome(align_oracle.align_min_rmse, a, b, max_lag, min_overlap)


def _series(draw, rng, len_a, len_b, kinds=("noise", "delayed", "periodic", "constant")):
    """Two series of one drawn kind, offset and scale, with nothing missing."""
    kind = draw(st.sampled_from(kinds))
    offset = draw(st.sampled_from([0.0, 1e4, -37.5]))
    scale = draw(st.sampled_from([30.0, 1.0, 1e-3]))
    if kind == "noise":
        a, b = rng.normal(size=len_a), rng.normal(size=len_b)
    elif kind == "delayed":
        z = rng.normal(size=max(len_a, len_b) + 400)
        shift = int(rng.integers(-200, 201))  # b[i + shift] is a[i], plus noise
        a = z[200:200 + len_a]
        b = z[200 - shift:200 - shift + len_b] + 1e-3 * rng.normal(size=len_b)
    elif kind == "periodic":
        cycle = rng.normal(size=int(rng.integers(1, 9)))
        a = np.resize(cycle, len_a)
        b = np.resize(np.roll(cycle, int(rng.integers(0, len(cycle)))), len_b)
    else:
        a, b = np.full(len_a, 1.0), np.full(len_b, draw(st.sampled_from([1.0, 2.5])))
    return offset + scale * a, offset + scale * b


def _lose(rng, x, gone):
    """A ``MISSING`` value, at random, in the samples ``gone`` selects."""
    x[gone] = MISSING[rng.integers(0, len(MISSING), size=x[gone].size)]


@st.composite
def pairs(draw):
    """Two series, a lag range and a minimum overlap; values from a seeded
    generator, as one draw per sample made each example slow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    len_a, len_b = draw(st.integers(2, 400)), draw(st.integers(2, 400))
    a, b = _series(draw, rng, len_a, len_b)
    for x in (a, b):
        share = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.9, 1.0]))
        _lose(rng, x, rng.random(len(x)) < share)
    max_lag = draw(st.integers(0, max(len_a, len_b) + 5))
    feasible = min(len_a, len_b)
    min_overlap = draw(st.sampled_from([0, 1, 2, feasible - 1, feasible, feasible + 1,
                                        int(rng.integers(1, feasible + 1))]))
    return a, b, max_lag, min_overlap


@st.composite
def long_pairs(draw):
    """Two long series and a lag range of at most 100, which the search cuts
    into several FFT blocks of a few thousand samples; or one long series
    and one short, where it drops the long one's samples that no lag in
    range pairs; or two series that span two or three stretches of 8
    blocks (9 to 24 blocks, so the running total adds many spectra), the
    last stretch part full. Missing runs of up to 9000 samples straddle
    block edges, the longest cover whole blocks, and in the longest series
    further runs straddle every eighth block edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_lag = draw(st.integers(0, 100))
    span = 8 * (4096 - 2 * max_lag)  # samples of a in 8 blocks
    long, short, grouped = (4000, 12_001), (2, 601), (span + 1, 3 * span)
    shape = draw(st.sampled_from([(grouped, grouped), (long, long), (long, short), (short, long),
                                  (grouped, grouped), (long, long)]))
    len_a, len_b = (int(rng.integers(*bounds)) for bounds in shape)
    a, b = _series(draw, rng, len_a, len_b, kinds=("noise", "delayed", "periodic"))
    for x in (a, b):
        _lose(rng, x, rng.random(len(x)) < draw(st.sampled_from([0.0, 0.02])))
        for size in rng.integers(1, draw(st.sampled_from([300, 3000, 9000])), size=6):
            start = rng.integers(0, len(x))
            _lose(rng, x, slice(start, start + size))
        for edge in range(span, len(x), span):
            start = edge - int(rng.integers(0, 2 * max_lag + 50))
            _lose(rng, x, slice(start, start + int(rng.integers(1, 4 * max_lag + 100))))
    min_overlap = draw(st.sampled_from([1, min(len_a, len_b) // 2, min(len_a, len_b)]))
    return a, b, max_lag, min_overlap


@PROPERTY
@given(pairs())
def test_searches_equal_oracle(case):
    _assert_like_oracle(*case)


@settings(PROPERTY, max_examples=60)
@given(long_pairs())
def test_blocked_search_equals_oracle(case):
    _assert_like_oracle(*case)


@pytest.mark.parametrize("a, b", [
    (np.full(30, np.nan), np.arange(30.0)),
    (np.full(30, np.inf), np.full(30, -np.inf)),
    (np.array([1.0, 2.0]), np.array([3.0])),
    (np.array([]), np.array([])),
    (np.array([5.0]), np.array([5.0])),
])
@pytest.mark.parametrize("max_lag", [-3, 0, 1, 40])
def test_degenerate_inputs_equal_oracle(a, b, max_lag):
    for min_overlap in (0, 1, 2):
        _assert_like_oracle(a, b, max_lag, min_overlap)


def _fft_search(a, b, max_lag):
    """``_lag_sums`` on the validity masks that ``align_min_rmse`` builds."""
    return compare._lag_sums(a, angle_mask(a), b, angle_mask(b), max_lag)


@settings(PROPERTY, max_examples=60)
@given(st.one_of(pairs(), long_pairs()))
def test_lag_sums_within_their_bound(case):
    """Every lag's FFT count is exact and its SSD is within ``err`` of the
    sum over the valid pairs, whether the FFTs take one block or several."""
    a, b, max_lag, _ = case
    lags, overlap, count, ssd, err = _fft_search(a, b, max_lag)
    for lag, n, got, est in zip(lags.tolist(), overlap, count, ssd):
        i0, i1 = align_oracle._overlap_slices(len(a), len(b), lag)
        assert n == i1 - i0
        x, y = (a[i0:i1], b[i0 + lag:i1 + lag]) if n > 0 else (a[:0], b[:0])
        valid = (np.abs(x) <= MAX_ABS_ANGLE) & (np.abs(y) <= MAX_ABS_ANGLE)
        assert got == np.count_nonzero(valid)
        assert abs(est - np.sum((x[valid] - y[valid]) ** 2)) <= err


def _hour_long_pair(rng):
    """An hour at 30 Hz of two noisy copies of one signal, the second
    delayed by 137 samples, with 2 % of each missing."""
    n = 108_000
    t = np.arange(n + 400) / 30.0
    z = 40.0 * np.sin(2 * np.pi * 0.21 * t) + 10.0 * np.sin(2 * np.pi * 0.83 * t)
    a = z[200:200 + n] + rng.normal(scale=2.0, size=n)
    b = z[63:63 + n] + rng.normal(scale=2.0, size=n)
    a[rng.random(n) < 0.02] = np.nan
    b[rng.random(n) < 0.02] = np.nan
    return a, b


def test_hour_long_run_equals_oracle():
    a, b = _hour_long_pair(np.random.default_rng(5))
    b[5000:5900] = np.nan
    _assert_like_oracle(a, b, 300, 150)


def _traced_peak(search, *args):
    tracemalloc.start()
    try:
        search(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_stays_flat_over_hours():
    """An hour at 30 Hz takes 31 FFT blocks of M = 4096 at +/-300 lags, but
    the FFT search holds one block at a time: with the validity masks it
    peaks at about 1 MB. Holding every block's took 15.7 MB, and 31 MB
    for two hours. Two hours may add to the FFT search the longer masks,
    and to the whole search what ``_pairs`` and ``_rmse`` copy to rescore
    a lag over the longer overlap (its valid pairs, their squared
    differences and the pair mask), no more."""
    a, b = _hour_long_pair(np.random.default_rng(6))
    a2, b2 = np.r_[a, a], np.r_[b, b]
    hour = _traced_peak(compare.align_min_rmse, a, b, 300)
    two_hours = _traced_peak(compare.align_min_rmse, a2, b2, 300)
    assert hour < 7e6
    assert two_hours - hour < 3e6
    fft_hour = _traced_peak(_fft_search, a, b, 300)
    fft_two_hours = _traced_peak(_fft_search, a2, b2, 300)
    assert fft_hour < 2e6
    assert fft_two_hours - fft_hour < 0.4e6


def test_max_lag_clamped_to_lags_that_overlap(rng):
    a, b = rng.normal(size=120), rng.normal(size=90)
    search = compare.align_min_rmse
    assert _outcome(search, a, b, 10**9, 1) == _outcome(search, a, b, 119, 1)


def _count_rmse_calls(monkeypatch):
    """The lengths of the pairs each rescored lag passes to ``_rmse``."""
    calls = []
    original = compare._rmse

    def counted(x, y, *rest):
        calls.append(len(x))
        return original(x, y, *rest)

    monkeypatch.setattr(compare, "_rmse", counted)
    return calls


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_window_stays_narrow_under_a_large_offset(monkeypatch, offset):
    """On a distinct minimum only a few lags are rescored, with or without
    a large offset: the shared offset keeps the rounding bound small."""
    rng = np.random.default_rng(9)
    z = 1e-3 * rng.normal(size=700)
    a, b = offset + z[100:500], offset + z[93:493]
    rmse_calls = _count_rmse_calls(monkeypatch)
    assert compare.align_min_rmse(a, b, max_lag=60).lag == 7
    assert 1 <= len(rmse_calls) <= 3


def test_window_stays_narrow_over_an_hour(monkeypatch):
    """An hour at +/-300 lags, summed over 31 FFT blocks, still rescores
    only a few lags; so does the hour tiled four times, over 124 blocks,
    where the rounding bound's term in the number of blocks is largest."""
    hour = _hour_long_pair(np.random.default_rng(6))
    rmse_calls = _count_rmse_calls(monkeypatch)
    for tiles in (1, 4):
        a, b = (np.tile(x, tiles) for x in hour)
        assert compare.align_min_rmse(a, b, max_lag=300).lag == 137
        assert 1 <= len(rmse_calls) <= 3
        rmse_calls.clear()


def test_masks_built_once_per_series(monkeypatch):
    """The search builds each series' validity mask once, for the FFT sums
    and for every lag it rescores: on a tie over many lags, with samples
    beyond +/-MAX_ABS_ANGLE on both sides, ``angle_mask`` runs twice."""
    rng = np.random.default_rng(12)
    a, b = np.full(300, 20.0), np.full(280, 20.0)
    for x in (a, b):
        _lose(rng, x, rng.random(len(x)) < 0.1)
    masks = []
    original = compare.angle_mask

    def counted(x):
        masks.append(len(x))
        return original(x)

    monkeypatch.setattr(compare, "angle_mask", counted)
    rmse_calls = _count_rmse_calls(monkeypatch)
    _assert_like_oracle(a, b, 8, 1)
    assert len(rmse_calls) == 17
    assert masks == [300, 280]


def test_near_constant_series_has_zero_variance():
    """r of the lag-0 pairs, with no mask: every sample is an angle."""
    tiny = 1e-13 * np.sin(np.arange(200.0))
    assert math.isclose(compare._pearson(*compare._pairs(np.arange(200.0) + tiny, None,
                                                         np.arange(200.0), None, 0)), 1.0)
    with pytest.raises(ZeroVariance):
        compare._pearson(*compare._pairs(tiny, None, np.arange(200.0), None, 0))
