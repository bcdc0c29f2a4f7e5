"""``resample`` against the per-channel blend in ``resample_oracle``.

The output must equal the oracle's bit for bit, compared as int64 words so
that NaN positions and signed zeros count: the same grid, the same blend
``(1 - w) a + w b``, and the same copies where an output sample lands on an
input sample. Inputs have random lengths, several channels, up-, down-,
equal, rational and irrational rate changes, and cells that are NaN,
+/-inf, -0.0 or 0.0.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergokit.errors import TooShort
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
