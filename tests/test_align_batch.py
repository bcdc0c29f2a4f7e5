"""The FFT lag searches against the lag-by-lag loops in ``align_oracle``.

``align_min_rmse`` and ``cross_correlation_peak`` must return what the
loops return, bit for bit: the same lag, the same overlap, the same RMSE
or r, and the same exception. Inputs are drawn to stress the rounding
window and the masks: unequal lengths, lag ranges past both lengths,
minimum overlaps at and around the feasible one, NaN and +/-inf samples
(up to all of them), a 1e4 deg offset under a small signal, and periodic
and constant series whose lags tie.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import align_oracle
from ergokit import compare
from ergokit.errors import InsufficientOverlap, ZeroVariance

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
MISSING = np.array([np.nan, np.inf, -np.inf])


def _bits(value):
    return float(value).hex()


def _outcome(search, *args):
    """What a search returns, as comparable values, or the exception type."""
    try:
        result = search(*args)
    except InsufficientOverlap as exc:
        return type(exc)
    if isinstance(result, tuple):
        lag, r = result
        return lag, _bits(r)
    return result.lag, result.overlap, _bits(result.rmse)


def _assert_like_oracle(a, b, max_lag, min_overlap):
    for name in ("align_min_rmse", "cross_correlation_peak"):
        got = _outcome(getattr(compare, name), a, b, max_lag, min_overlap)
        want = _outcome(getattr(align_oracle, name), a, b, max_lag, min_overlap)
        assert got == want, name


@st.composite
def pairs(draw):
    """Two series, a lag range and a minimum overlap; values from a seeded
    generator, as one draw per sample made each example slow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    len_a, len_b = draw(st.integers(2, 400)), draw(st.integers(2, 400))
    kind = draw(st.sampled_from(["noise", "delayed", "periodic", "constant"]))
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
    a, b = offset + scale * a, offset + scale * b
    for x in (a, b):
        share = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.9, 1.0]))
        gone = rng.random(len(x)) < share
        x[gone] = MISSING[rng.integers(0, 3, size=int(gone.sum()))]
    max_lag = draw(st.integers(0, max(len_a, len_b) + 5))
    feasible = min(len_a, len_b)
    min_overlap = draw(st.sampled_from([0, 1, 2, feasible - 1, feasible, feasible + 1,
                                        int(rng.integers(1, feasible + 1))]))
    return a, b, max_lag, min_overlap


@PROPERTY
@given(pairs())
def test_searches_equal_oracle(case):
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


def test_hour_long_run_equals_oracle():
    rng = np.random.default_rng(5)
    n = 108_000
    t = np.arange(n + 400) / 30.0
    z = 40.0 * np.sin(2 * np.pi * 0.21 * t) + 10.0 * np.sin(2 * np.pi * 0.83 * t)
    a = z[200:200 + n] + rng.normal(scale=2.0, size=n)
    b = z[63:63 + n] + rng.normal(scale=2.0, size=n)
    a[rng.random(n) < 0.02] = np.nan
    b[5000:5900] = np.nan
    _assert_like_oracle(a, b, 300, 150)


def test_max_lag_clamped_to_lags_that_overlap(rng):
    a, b = rng.normal(size=120), rng.normal(size=90)
    for search in (compare.align_min_rmse, compare.cross_correlation_peak):
        assert _outcome(search, a, b, 10**9, 1) == _outcome(search, a, b, 119, 1)


def _count_exact_calls(monkeypatch, name):
    calls = []
    original = getattr(compare, name)

    def counted(x, y):
        calls.append(len(x))
        return original(x, y)

    monkeypatch.setattr(compare, name, counted)
    return calls


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_window_stays_narrow_under_a_large_offset(monkeypatch, offset):
    """On a distinct minimum only a few lags are rescored, with or without
    a large offset: the shared offset keeps the rounding bound small."""
    rng = np.random.default_rng(9)
    z = 1e-3 * rng.normal(size=700)
    a, b = offset + z[100:500], offset + z[93:493]
    rmse_calls = _count_exact_calls(monkeypatch, "rmse")
    r_calls = _count_exact_calls(monkeypatch, "pearson_correlation")
    assert compare.align_min_rmse(a, b, max_lag=60).lag == 7
    assert compare.cross_correlation_peak(a, b, max_lag=60)[0] == 7
    assert len(rmse_calls) <= 3 and len(r_calls) <= 3


def test_near_constant_series_has_zero_variance():
    tiny = 1e-13 * np.sin(np.arange(200.0))
    assert math.isclose(compare.pearson_correlation(np.arange(200.0) + tiny,
                                                    np.arange(200.0)), 1.0)
    with pytest.raises(ZeroVariance):
        compare.pearson_correlation(tiny, np.arange(200.0))
    with pytest.raises(InsufficientOverlap):
        compare.cross_correlation_peak(tiny, np.arange(200.0), max_lag=20)
