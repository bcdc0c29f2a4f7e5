"""``resample`` against the per-channel blend in ``resample_oracle``.

The output must equal the oracle's bit for bit, compared as int64 words so
that NaN positions and signed zeros count: the same grid, the same blend
``(1 - w) a + w b``, and the same copies where an output sample lands on an
input sample. Inputs have random lengths, several channels, up-, down-,
equal, rational and irrational rate changes, and cells that are NaN,
+/-inf, -0.0 or 0.0. ``resample`` interpolates channels in a thread pool
sized by the CPUs it may use, into the rows of one output block; the pool
tests patch that count.
"""
import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergokit import ingest
from ergokit.errors import TooLong, TooShort
from ergokit.ingest import resample
from ergokit.motion import CHANNEL_ORDER, JointAngleSeries
from resample_oracle import resample_oracle

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)
ODD = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
RATES = [100.0, 30.0, 25.0, 60.0, 7.3, 100.0 / 3.0, 250.0, 10.0, 1.0]
# Target over source: equal, down, up, the 100 -> 30 Hz case, irrational.
RATIOS = [1.0, 0.3, 0.5, 2.0, 3.0, 1.0 / 3.0, 0.73, math.pi, 1.0 / math.sqrt(2.0), math.e / 10]


def _outcome(series, target_rate, fn):
    """Output rate, start, unparseable cells and each channel's int64 words,
    or the exception type."""
    try:
        out = fn(series, target_rate)
    except (TooShort, ValueError) as exc:
        return type(exc)
    words = {ch: x.view(np.int64).tolist() for ch, x in out.channels.items()}
    return out.sample_rate, out.start_time, out.unparseable_cells, words


@st.composite
def series_and_rate(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    rate = draw(st.sampled_from(RATES))
    target = draw(st.sampled_from(RATES + [rate * r for r in RATIOS]))
    channels = {}
    for ch in CHANNEL_ORDER[:draw(st.integers(1, 4))]:
        kind = draw(st.sampled_from(["noise", "ramp", "constant", "zeros"]))
        if kind == "noise":
            x = 40.0 * rng.normal(size=n)
        elif kind == "ramp":
            x = np.arange(n) / rate
        elif kind == "constant":
            x = np.full(n, 42.0)
        else:
            x = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        share = draw(st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]))
        odd = rng.random(n) < share
        x[odd] = ODD[rng.integers(0, len(ODD), size=int(odd.sum()))]
        channels[ch] = x
    start = draw(st.sampled_from([0.0, 12.5, -3.0]))
    series = JointAngleSeries(sample_rate=rate, start_time=start, channels=channels,
                              unparseable_cells=3)
    return series, target


@PROPERTY
@given(series_and_rate())
def test_resample_equals_oracle_bit_for_bit(case):
    series, target = case
    assert _outcome(series, target, resample) == _outcome(series, target, resample_oracle)


def test_hour_long_channel_equals_oracle():
    """The benchmark's shape: one hour at 100 Hz to 30 Hz, missing cells."""
    rng = np.random.default_rng(7)
    x = 30.0 * np.sin(np.arange(360_001) * 0.003) + rng.normal(size=360_001)
    x[rng.random(x.size) < 0.01] = np.nan
    x[::997] = -0.0
    series = JointAngleSeries(sample_rate=100.0, start_time=0.0,
                              channels={CHANNEL_ORDER[0]: x})
    assert _outcome(series, 30.0, resample) == _outcome(series, 30.0, resample_oracle)


@pytest.mark.parametrize("values, rate, target", [
    ([1.0], 100.0, 30.0),
    ([1.0, 2.0], 100.0, 0.0),
    ([1.0, 2.0], 100.0, -30.0),
    ([1.0, 2.0], 100.0, float("nan")),
])
def test_rejections_equal_oracle(values, rate, target):
    series = JointAngleSeries(sample_rate=rate, start_time=0.0,
                              channels={CHANNEL_ORDER[0]: np.array(values)})
    assert _outcome(series, target, resample) == _outcome(series, target, resample_oracle)


def _odd_twenty(n, rate, target, rng):
    """All 20 channels of n samples at ``rate``, in a shuffled order. Each
    holds NaN, +/-inf and -0.0 on input samples that an output sample at
    ``target`` copies (grid hits) and on ones it blends (stencil
    neighbours)."""
    n_out = int(math.floor((n - 1) / rate * target + 1e-9)) + 1
    pos = np.minimum(np.arange(n_out) / target * rate, n - 1)
    exact = np.abs(pos - np.rint(pos)) <= 1e-9
    hits = np.rint(pos[exact]).astype(int)
    lo = np.minimum(np.floor(pos[~exact]).astype(int), n - 2)
    neighbours = np.unique(np.r_[lo, lo + 1])
    assert hits.size > 1 and neighbours.size > 1
    odd = ODD[:4]  # NaN, inf, -inf, -0.0
    channels = {}
    for i in rng.permutation(len(CHANNEL_ORDER)):
        x = 40.0 * rng.normal(size=n)
        x[rng.choice(hits, size=8)] = odd[rng.integers(0, len(odd), size=8)]
        x[rng.choice(neighbours, size=8)] = odd[rng.integers(0, len(odd), size=8)]
        channels[CHANNEL_ORDER[i]] = x
    return JointAngleSeries(sample_rate=rate, start_time=0.0, channels=channels)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("rate, target", [(100.0, 30.0), (30.0, 100.0), (100.0, 40.0)])
def test_channel_pool_equals_oracle_in_input_order(monkeypatch, cpus, rate, target):
    """Whatever the CPU count, every channel equals the oracle bit for bit
    and the output keeps the input's channel order."""
    workers = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    series = _odd_twenty(601, rate, target, np.random.default_rng(cpus))
    out = resample(series, target)
    assert workers == [cpus]
    assert list(out.channels) == list(series.channels)
    assert _outcome(series, target, lambda s, r: out) == \
        _outcome(series, target, resample_oracle)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_strided_channels_equal_oracle(monkeypatch, cpus):
    """Channels that are the columns of one (N, 20) array, so each is a
    strided view, equal the oracle bit for bit, -0.0 included."""
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
    twenty = _odd_twenty(601, 100.0, 30.0, np.random.default_rng(10 + cpus))
    grid = np.column_stack(list(twenty.channels.values()))
    series = JointAngleSeries(sample_rate=100.0, start_time=0.0,
                              channels={ch: grid[:, i] for i, ch in enumerate(twenty.channels)})
    assert all(not x.flags.c_contiguous for x in series.channels.values())
    assert any(np.signbit(x[x == 0]).any() for x in series.channels.values())
    assert _outcome(series, 30.0, resample) == _outcome(series, 30.0, resample_oracle)


def test_output_channels_are_rows_of_one_block():
    series = _odd_twenty(601, 100.0, 30.0, np.random.default_rng(1))
    out = resample(series, 30.0)
    block = out.channels[CHANNEL_ORDER[0]].base
    assert block.flags.c_contiguous and block.dtype == np.float64
    assert block.shape == (20, out.length)
    for row, x in zip(block, out.channels.values()):
        assert x.base is block and x.ctypes.data == row.ctypes.data


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("rate, target, hits", [(100.0, 30.0, 1 / 3), (30.0, 100.0, 1 / 10)])
def test_working_memory_beside_the_output_block(monkeypatch, cpus, rate, target, hits):
    """Beside its output block, resample holds the stencil (lower indices,
    w, 1 - w, and the grid hits' output and input indices) and, per thread,
    one scratch row and the gather of the hits: with a share ``hits`` of
    outputs on the grid, (3 + 2 hits) + threads (1 + hits) rows of n_out
    floats, plus one row for slack. With the positions, the upper indices
    and each channel's own upper gather still held, it took about 3 rows more."""
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(4)
    series = JointAngleSeries(sample_rate=rate, start_time=0.0,
                              channels={ch: rng.normal(size=60_001) for ch in CHANNEL_ORDER})
    resample(JointAngleSeries(sample_rate=rate, start_time=0.0,
                              channels={ch: x[:50] for ch, x in series.channels.items()}),
             target)  # imports what the pool uses
    tracemalloc.start()
    try:
        out = resample(series, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = out.length * 8
    assert peak - len(CHANNEL_ORDER) * row <= (4 + 2 * hits + cpus * (1 + hits)) * row


@pytest.mark.parametrize("target", [1e300, 1e308, math.inf])
def test_an_output_too_long_to_index_is_refused(target):
    """Refused before anything is allocated, also where the sample count
    is infinite (1e308 Hz over 600 s)."""
    series = JointAngleSeries(sample_rate=0.1, start_time=0.0,
                              channels={ch: np.zeros(61) for ch in CHANNEL_ORDER})
    tracemalloc.start()
    try:
        with pytest.raises(TooLong, match="more than an array can index"):
            resample(series, target)
        assert tracemalloc.get_traced_memory()[1] < 10_000
    finally:
        tracemalloc.stop()
