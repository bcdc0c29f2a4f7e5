"""The per-channel statistics against ``stats_oracle``.

``compare_recordings`` takes each channel's valid fraction, RMSE and r from
one set of valid pairs; ``stats_oracle`` builds a mask per statistic, as
the library did before. Every channel of the one-run report must equal the
oracle's record bit for bit, field by field, and wherever the oracle
raises, the library must raise the same exception type. Channels are all finite, partly NaN/inf,
under half valid, wholly missing, or constant or near-constant (zero
variance), over overlaps down to one sample.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import align_oracle
import stats_oracle
from ergokit import compare
from ergokit.errors import ErgokitError
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
    return (JointAngleSeries(sample_rate=1.0, start_time=0.0, channels=a),
            JointAngleSeries(sample_rate=1.0, start_time=0.0, channels=b),
            max_lag, min_overlap)


@PROPERTY
@given(recordings())
def test_channel_comparisons_equal_oracle(case):
    assert _library(*case) == _oracle(*case)


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
