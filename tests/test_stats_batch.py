"""The per-channel statistics against ``stats_oracle``.

``compare_recordings`` takes each channel's valid fraction, RMSE and r from
one set of valid pairs, found from the means that r needs; ``stats_oracle``
builds a mask per statistic, as the library did before. Every channel of
the one-run report must equal the oracle's record bit for bit, field by
field, and wherever the oracle raises, the library must raise the same
exception type. Channels are all finite, partly NaN/inf, under half valid,
wholly missing, or constant or near-constant (zero variance), over overlaps
down to one sample, and are contiguous arrays or strided columns of one
array. ``compare_recordings`` scores the channels in a thread pool sized by
the CPUs it may use; the property runs every case at 1, 2 and 3 of them.
Beyond the oracle: RMSE and r are checked against exact sums, and against
themselves under different OpenBLAS thread counts.
"""
import concurrent.futures
import contextlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import align_oracle
import ergokit
import stats_oracle
from ergokit import compare, ingest
from ergokit.errors import ErgokitError, InsufficientOverlap, LengthMismatch
from ergokit.motion import CHANNEL_ORDER, JointAngleSeries, JointChannel

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
MISSING = np.array([np.nan, np.inf, -np.inf])
REFERENCE = JointChannel.arm_flex_r
OTHERS = [ch for ch in CHANNEL_ORDER if ch is not REFERENCE][:5]


def _bits(value):
    return None if value is None else float(value).hex()


def _comparison(c):
    """A library ``ChannelComparison``'s one run, as ``_record`` gives it."""
    return _bits(c.rmse[0]), _bits(c.correlation[0]), _bits(c.valid_fraction[0]), c.notes[0]


def _record(c):
    return _bits(c.rmse), _bits(c.correlation), _bits(c.valid_fraction), c.note


def _library(a, b, max_lag, min_overlap):
    try:
        report = compare.compare_recordings(a, b, REFERENCE, max_lag, min_overlap)
    except ErgokitError as exc:
        return type(exc)
    return report.lags[0], {ch: _comparison(c) for ch, c in report.channels.items()}


def _oracle(a, b, max_lag, min_overlap):
    """The lag from the loop search, then each channel on its overlap."""
    try:
        lag = align_oracle.align_min_rmse(a.channels[REFERENCE], b.channels[REFERENCE],
                                          max_lag, min_overlap).lag
        i0, i1 = align_oracle._overlap_slices(a.length, b.length, lag)
        return lag, {ch: _record(stats_oracle.channel_comparison(
            a.channels[ch][i0:i1], b.channels[ch][i0 + lag:i1 + lag])) for ch in a.channels}
    except ErgokitError as exc:
        return type(exc)


def _channel(rng, draw, n, kind):
    if kind == "noise":
        x = 20.0 * rng.normal(size=n)
    elif kind == "constant":
        x = np.full(n, 3.0)
    elif kind == "near-constant":
        x = 7.0 + 1e-13 * rng.normal(size=n)
    else:
        x = 1e4 + rng.normal(size=n)
    share = draw(st.sampled_from([0.0, 0.0, 0.1, 0.45, 0.55, 0.9, 1.0]))
    gone = rng.random(n) < share
    x[gone] = MISSING[rng.integers(0, 3, size=int(gone.sum()))]
    return x


def _columns(channels):
    """The same channels as the columns of one (N, C) array: strided views
    when C > 1."""
    grid = np.column_stack(list(channels.values()))
    return {ch: grid[:, i] for i, ch in enumerate(channels)}


@contextlib.contextmanager
def _cpus(n):
    """``_usable_cpus`` patched to ``n``; yields the sizes of the pools
    started meanwhile."""
    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    with mock.patch.object(ingest, "_usable_cpus", lambda: n), \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor", Pool):
        yield sizes


@st.composite
def recordings(draw):
    """Two recordings on one 1 Hz grid, so lags and overlaps are samples;
    the second is a delayed noisy copy of the first."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    len_a, len_b = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    shift = int(rng.integers(-20, 21))
    z = rng.normal(size=max(len_a, len_b) + 40)
    ref_a = 30.0 * z[20:20 + len_a]
    ref_b = 30.0 * z[20 - shift:20 - shift + len_b] + 0.1 * rng.normal(size=len_b)
    for x in (ref_a, ref_b):
        x[rng.random(len(x)) < draw(st.sampled_from([0.0, 0.05, 0.6]))] = np.nan
    a, b = {REFERENCE: ref_a}, {REFERENCE: ref_b}
    kinds = ["noise", "constant", "near-constant", "offset"]
    for ch in OTHERS[:draw(st.integers(0, len(OTHERS)))]:
        a[ch] = _channel(rng, draw, len_a, draw(st.sampled_from(kinds)))
        b[ch] = _channel(rng, draw, len_b, draw(st.sampled_from(kinds)))
    max_lag = draw(st.integers(1, 30))
    min_overlap = draw(st.sampled_from([1, 2, 5, min(len_a, len_b)]))
    if draw(st.booleans()):
        a, b = _columns(a), _columns(b)
    return (JointAngleSeries(sample_rate=1.0, start_time=0.0, channels=a),
            JointAngleSeries(sample_rate=1.0, start_time=0.0, channels=b),
            max_lag, min_overlap)


@PROPERTY
@given(recordings())
def test_channel_comparisons_equal_oracle(case):
    want = _oracle(*case)
    for cpus in (1, 2, 3):
        with _cpus(cpus) as pools:
            assert _library(*case) == want
        # One pool of one thread per CPU, up to one per channel, unless the
        # lag search raised first.
        assert pools == ([] if want is InsufficientOverlap else [min(cpus, len(case[0].channels))])


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_first_failing_channel_in_order_raises(cpus):
    """Of two channels that raise, the one earlier in ``CHANNEL_ORDER``
    surfaces, as in a serial loop, wherever the pool put them."""
    rng = np.random.default_rng(cpus)
    n = 600
    a = {ch: 30.0 * rng.normal(size=n) for ch in [REFERENCE] + OTHERS}
    b = {ch: x + rng.normal(size=n) for ch, x in a.items()}
    names = compare._ordered_channels(a)
    failing = [i for i, ch in enumerate(names) if ch is not REFERENCE]
    for first in failing:
        for second in failing:
            if first >= second:
                continue
            series = JointAngleSeries(sample_rate=1.0, start_time=0.0, channels=a)
            # Shortened after the series checked its lengths; each fails
            # with its own length in the message.
            series.channels[names[first]] = a[names[first]][:5 + first]
            series.channels[names[second]] = a[names[second]][:5 + second]
            other = JointAngleSeries(sample_rate=1.0, start_time=0.0, channels=b)
            with _cpus(cpus), pytest.raises(LengthMismatch,
                                            match=re.escape(f"lengths ({5 + first},)")):
                compare.compare_recordings(series, other, REFERENCE, 3.0, 100.0)


def test_hour_long_run_equals_oracle():
    """The benchmark's shape at one lag: 108k samples per channel."""
    rng = np.random.default_rng(11)
    n = 108_000
    a = {ch: 30.0 * rng.normal(size=n) for ch in [REFERENCE] + OTHERS}
    b = {ch: x + rng.normal(size=n) for ch, x in a.items()}
    a[OTHERS[0]][rng.random(n) < 0.02] = np.nan
    b[OTHERS[1]][::3] = np.inf
    a[OTHERS[2]][:] = 5.0
    a, b = (JointAngleSeries(sample_rate=30.0, start_time=0.0, channels=c) for c in (a, b))
    # At 30 Hz, a +/-0.1 s window and a 5 s overlap are 3 and 150 samples.
    assert _library(a, b, 0.1, 5.0) == _oracle(a, b, 3, 150)


def _statistic(fn, a, b):
    try:
        return _bits(fn(a, b))
    except ErgokitError as exc:
        return type(exc)


@pytest.mark.parametrize("a, b", [
    (np.array([1.0, np.nan, 3.0, -0.0]), np.array([1.5, 2.0, np.inf, 0.0])),
    (np.arange(12.0).reshape(3, 4), np.arange(12.0).reshape(3, 4) ** 1.5),
    (np.arange(12.0).reshape(4, 3).T, np.sin(np.arange(12.0)).reshape(3, 4)),
    (np.float64(2.0), np.float64(5.0)),
    (np.array([]), np.array([])),
    (np.array([np.nan, 1.0]), np.array([2.0, np.nan])),
    (np.zeros(3), np.zeros(4)),
    (np.full(50, 4.0), np.linspace(0.0, 1.0, 50)),
    ([1, 2, 4], [2, 3, 7]),
])
def test_public_statistics_equal_oracle(a, b):
    for name in ("rmse", "pearson_correlation"):
        assert (_statistic(getattr(compare, name), a, b)
                == _statistic(getattr(stats_oracle, name), a, b)), name


def test_more_workers_than_cores_under_fast_switching():
    """Eight workers on a 20-channel pair, switching threads every
    microsecond, give the one-worker report: no worker's rows or results
    are lost to another's."""
    rng = np.random.default_rng(8)
    a = {ch: 30.0 * rng.normal(size=5000) for ch in CHANNEL_ORDER}
    b = {ch: x + rng.normal(size=5000) for ch, x in a.items()}
    a[OTHERS[0]][::7] = np.nan
    a, b = (JointAngleSeries(sample_rate=100.0, start_time=0.0, channels=c) for c in (a, b))
    with _cpus(1):
        want = _library(a, b, 0.5, 5.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with _cpus(8) as pools:
                assert _library(a, b, 0.5, 5.0) == want
            assert pools == [8]
    finally:
        sys.setswitchinterval(interval)


def _grid_pair(rng, n):
    """Two noisy channels of ``n`` samples that are multiples of 2**-10 deg
    within 64 deg of means of exactly 20.5 and 21.75 deg."""
    x = np.clip(30.0 * np.sin(np.arange(n) / 97.0) + 5.0 * rng.normal(size=n), -50, 50)
    y = np.clip(x + rng.normal(size=n), -50, 50)
    k, l = (np.rint(1024.0 * (v - v.mean())).astype(np.int64) for v in (x, y))
    for v in (k, l):
        v[0] -= v.sum()  # so each sums to exactly 0
    assert np.abs(k).max() < 2**16 and np.abs(l).max() < 2**16
    return 20.5 + k / 1024.0, 21.75 + l / 1024.0


def test_statistics_within_three_ulps_of_exact():
    """RMSE and r of a noisy 2**17-sample pair against ``math.fsum``.

    Every sample is a multiple of 2**-10 deg within 64 deg of its side's
    mean, 20.5 or 21.75 deg exactly, and 2**17 is a power of two. So every
    sum, mean, difference, square, deviation from the mean, product and
    partial sum the library forms is exact in float64, in any order: each
    is a multiple of 2**-20 below 2**29, which takes at most 49 bits.
    ``math.fsum`` then gives the exact sums too.

    RMSE: the library's and the reference are both the correctly rounded
    square root of the exact mean square, so they are equal.

    r = Sab / sqrt(Saa Sbb): the library rounds three times, the product,
    the square root and the quotient, each by a relative u = 2**-53 at
    most; the square root halves the first. So it is within 2.5 u r of the
    exact r, under 2.5 ulps for r in [0.5, 1), where an ulp is u. The
    reference is the exact r rounded to nearest, within half an ulp. The
    two differ by under 3 ulps.
    """
    n = 2**17
    a, b = _grid_pair(np.random.default_rng(17), n)
    want_rmse = math.sqrt(math.fsum((a - b) ** 2) / n)
    # The exact sums of products of deviations, as integers in units of 2**-20.
    da, db = a - 20.5, b - 21.75
    saa, sbb, sab = (int(math.fsum(x * y) * 2**20) for x, y in ((da, da), (db, db), (da, db)))
    scale = 2**110
    want_r = math.isqrt(sab * sab * scale * scale // (saa * sbb)) / scale
    assert 0.5 <= want_r < 1.0

    series = [JointAngleSeries(sample_rate=100.0, start_time=0.0, channels={REFERENCE: x})
              for x in (a, b)]
    report = compare.compare_recordings(*series, REFERENCE, 0.05, 5.0)
    assert report.lags == (0,)
    got = report.channels[REFERENCE]
    assert compare.rmse(a, b) == got.rmse[0] == want_rmse
    assert compare.pearson_correlation(a, b) == got.correlation[0]
    assert abs(got.correlation[0] - want_r) < 3 * math.ulp(want_r)


_BLAS_CHILD = """
import numpy as np
from ergokit import compare
from ergokit.motion import CHANNEL_ORDER, JointAngleSeries

rng = np.random.default_rng(5)
n = 120_000
a = {ch: 30.0 * np.sin(np.arange(n) / (50 + i)) + rng.normal(size=n)
     for i, ch in enumerate(CHANNEL_ORDER)}
b = {ch: x + rng.normal(size=n) for ch, x in a.items()}
report = compare.compare_recordings(
    *(JointAngleSeries(sample_rate=100.0, start_time=0.0, channels=c) for c in (a, b)))
print(*(v[0].hex() for c in report.channels.values() for v in (c.rmse, c.correlation)))
print(*(f(a[ch], b[ch]).hex() for ch in CHANNEL_ORDER
        for f in (compare.rmse, compare.pearson_correlation)))
"""


def test_statistics_do_not_depend_on_blas_threads():
    """A 120k-sample, 20-channel comparison gives the same bits under one
    and two OpenBLAS threads: no statistic calls BLAS. The variable is set
    in the child interpreters only."""
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(ergokit.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", _BLAS_CHILD],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0 and run.stderr == "", run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
