"""The chunked IMU CSV parser against the cell-by-cell oracle, and the
parsers' error contract on arbitrary bytes.

``parse_imu_joint_csv`` must equal ``csv_oracle.parse_imu_joint_csv_oracle``
on every generated CSV: the same channel arrays bit for bit (NaN positions
included), rate, start time and ``unparseable_cells``, or the same
exception type. The CSVs mix empty, whitespace, non-numeric, non-finite and
non-ASCII cells, quoted cells (some holding a comma, a line break or a
carriage return), text columns (some named ``col i``, like no channel),
short, long and blank rows, CRLF line endings, absent channel columns, and
missing or bad time columns. They are parsed with the shipped chunk size
and with chunks of a few bytes.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csv_oracle import parse_imu_joint_csv_oracle
from ergokit import ingest
from ergokit.errors import EmptyFile, EncodingError, ErgokitError
from ergokit.ingest import parse_annotations, parse_imu_joint_csv
from ergokit.motion import CHANNEL_ORDER, JointAngleSeries, JointChannel

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

NUMBERS = ["1.5", "-2", "0", ".5", "5.", "1e5", "-0.0", "12.345678901234567", " 1.5 ",
           "\t2", "+3", "1e-300"]
ODD = ["", " ", "\t", "　", "\xa0", "x", "inf", "-inf", "nan", "+nan", "-nan", "NaN",
       "1e999", "-1e999", "1e200", "1_0", "١٢", "１", "Infinity", "1e", "- 1", "0x10",
       "#1", "'1'", "1.5.1", "nan(1)", "\r1\r"]
TEXT = ["abc", "a b", "\xe9", "", " ", 'x"y', "#c", "x,y", "l1\nl2", "l1\rl2", "1.5"]
BLANK_ROWS = ["", " ", ",,", " ,\t", "　", '""', '""," "']


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def _cell(draw, pool) -> str:
    cell = draw(st.sampled_from(pool))
    if "," in cell or "\n" in cell or "\r" in cell or cell.startswith('"') \
            or draw(st.integers(0, 9)) == 0:
        return _quote(cell)
    return cell


@st.composite
def csv_cases(draw):
    channels = draw(st.lists(st.sampled_from(list(JointChannel)), max_size=4, unique=True))
    header = [draw(st.sampled_from([ch.value, f"col {i}"])) for i, ch in enumerate(channels)]
    if draw(st.integers(0, 3)):
        header.append("time")
    header += [f"text{i}" for i in range(draw(st.integers(0, 2)))]
    header = draw(st.permutations(header))
    fault = draw(st.sampled_from(["none"] * 12 + ["duplicate", "empty", "missing", "multiline"]))
    if header and fault == "duplicate":
        header = header + [header[0]]
    elif fault == "empty":
        header = header + [" "]
    elif header and fault == "missing":
        header = header[1:]
    cells = [_quote(h) if fault == "multiline" and h.startswith("text") else h for h in header]
    lines = [",".join(c.replace("text", "te\nxt") if c.startswith('"') else c for c in cells)]

    step = draw(st.sampled_from([0.01, 0.5, 1.0]))
    bad_share = draw(st.sampled_from([0, 0, 5, 30]))
    for i in range(draw(st.sampled_from([0, 1, 1, 2, 3, 12]))):
        if draw(st.integers(0, 14)) == 0:
            lines.append(draw(st.sampled_from(BLANK_ROWS)))
        row = []
        for name in header:
            odd = draw(st.integers(0, 99)) < bad_share
            if name == "time":
                cell = repr(round(i * step, 6)) if not odd else _cell(draw, ODD)
            elif name.startswith(("text", "col")):
                cell = _cell(draw, TEXT)
            elif odd:
                cell = _cell(draw, ODD)
            else:
                cell = _cell(draw, NUMBERS + [repr(draw(st.floats(-1e3, 1e3)))])
            row.append(cell)
        shape = draw(st.integers(0, 9))
        if shape == 0:
            row = row[:draw(st.integers(0, len(row)))]
        elif shape == 1:
            row += ["extra", "1"]
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, newline, ""]))
    return text.encode(), draw(st.sampled_from([ingest._CHUNK, 7, 64]))


def _outcome(parse, data):
    try:
        series = parse(data, 50.0)
    except ErgokitError as exc:
        return type(exc).__name__
    return (series.sample_rate, series.start_time, series.unparseable_cells,
            {ch: x.view(np.uint64).tolist() for ch, x in series.channels.items()})


def test_parse_imu_csv_equals_oracle():
    """Both conversions are reached: the C float parse, and the converter
    for a chunk it rejects."""
    reads = Counter()
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        block = loadtxt(*args, **kwargs)
        reads["converter" if "converters" in kwargs else "C"] += 1
        return block

    @PROPERTY
    @given(csv_cases())
    def check(case):
        data, chunk = case
        with mock.patch.object(ingest, "_CHUNK", chunk):
            assert _outcome(parse_imu_joint_csv, data) == _outcome(parse_imu_joint_csv_oracle, data)

    with mock.patch.object(np, "loadtxt", counted):
        check()
    assert reads["C"] > 0 and reads["converter"] > 0


def test_quoted_line_break_across_a_chunk_boundary():
    rows = [f'{i * 0.01!r},{i}.5,"note\n{i}"' for i in range(40)]
    data = ("time,arm_flex_r,note\n" + "\n".join(rows) + "\n").encode()
    for chunk in (1, 5, 33):
        with mock.patch.object(ingest, "_CHUNK", chunk):
            assert _outcome(parse_imu_joint_csv, data) == _outcome(parse_imu_joint_csv_oracle, data)
    assert parse_imu_joint_csv(data).length == 40


def test_carriage_return_inside_quotes_is_text():
    data = b'time,arm_flex_r,note\r\n0.0,"1\r","a\rb"\r\n0.01,2,"c\r\r\nd"\r\n'
    assert _outcome(parse_imu_joint_csv, data) == _outcome(parse_imu_joint_csv_oracle, data)
    assert parse_imu_joint_csv(data).channels[JointChannel.arm_flex_r].tolist() == [1, 2]


@pytest.mark.parametrize("closed", [True, False])
def test_a_long_open_quote_decodes_each_line_once(closed):
    """A quote opened near the top and closed many rows later, or never:
    the chunk grows line by line without rescanning what it holds."""
    rows = [f"{i}.5,n" for i in range(3000)]
    rows[2] = rows[2][:-1] + '"approx 5'
    if closed:
        rows[2500] += '"'
    data = ("arm_flex_r,note\n" + "\n".join(rows) + "\n").encode()
    decoded = []
    as_text = ingest._as_text

    def counted(chunk):
        decoded.append(len(chunk))
        return as_text(chunk)

    start = time.perf_counter()
    with mock.patch.object(ingest, "_CHUNK", 256), \
            mock.patch.object(ingest, "_as_text", counted):
        outcome = _outcome(parse_imu_joint_csv, data)
    assert time.perf_counter() - start < 10
    assert sum(decoded) <= len(data)
    if closed:
        assert outcome == _outcome(parse_imu_joint_csv_oracle, data)
        assert parse_imu_joint_csv(data).length == 3 + 499  # rows 2-2500 are one
    else:
        assert outcome == "MalformedRecord"


@pytest.mark.parametrize("text, needle", [
    ("time,arm_flex_r\n0.0,1\r2.0\n", "carriage return"),
    ('time,arm_flex_r\n0.0,"1\n', "never closed"),
])
def test_malformed_rows_name_the_fault(text, needle):
    with pytest.raises(ErgokitError, match=needle):
        parse_imu_joint_csv(text.encode())


def test_invalid_utf8_anywhere_fails_before_any_row():
    """A byte that is not UTF-8 in the last row fails with EncodingError,
    however the rows are chunked, before the bare carriage return in the
    first row, a MalformedRecord, is read."""
    rows = ["0.0,1\r2"] + [f"{i / 100!r},{i}.5" for i in range(1, 40)]
    data = ("time,arm_flex_r\n" + "\n".join(rows) + "\n").encode() + b"0.4,\xff\n"
    for chunk in (64, ingest._CHUNK):
        with mock.patch.object(ingest, "_CHUNK", chunk):
            with pytest.raises(EncodingError, match="invalid start byte"):
                parse_imu_joint_csv(data)


def _twelve_thousand_rows() -> JointAngleSeries:
    rng = np.random.default_rng(5)
    return JointAngleSeries(sample_rate=100.0, start_time=0.0, channels={
        ch: np.round(40.0 * rng.normal(size=12_000), 6) for ch in CHANNEL_ORDER})


def _traced_parse(data: bytes) -> tuple[JointAngleSeries, int]:
    """The parsed series and the peak of the memory traced while parsing."""
    parse_imu_joint_csv(data[:1000])  # compiles and imports what the parse uses
    tracemalloc.start()
    try:
        parsed = parse_imu_joint_csv(data)
        return parsed, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_parse_peaks_within_one_and_a_half_times_its_input(bom):
    """A 12 000-row, 2.5 MB CSV parses in memory bounded by its size: the
    rows are read a chunk of ``_CHUNK`` bytes at a time into one block of
    columns, and a leading byte-order mark is skipped, not copied off with
    the rest of the input. The block takes 0.77 times the input and the
    parse about 1.3; a list of per-chunk blocks and their concatenation
    took 1.7, and a 1 MB chunk or a copy of the input would exceed 1.5."""
    series = _twelve_thousand_rows()
    data = bom + ingest.format_imu_joint_csv(series).encode()
    parsed, peak = _traced_parse(data)
    assert peak < 1.5 * len(data)
    for ch, x in series.channels.items():
        assert np.array_equal(parsed.channels[ch], x)


def test_the_channels_block_holds_no_time_row():
    """The channels are the rows of one block that holds nothing else: the
    time column, read into a row of its own, is freed with the parse."""
    parsed = parse_imu_joint_csv(b"arm_flex_r,time,note,elbow_flex_l\n1,0.5,a,2\n3,0.75,b,4\n")
    [block] = {id(x.base): x.base for x in parsed.channels.values()}.values()
    assert block.shape[0] == len(parsed.channels) == 2
    assert (parsed.sample_rate, parsed.start_time) == (4.0, 0.5)
    assert parsed.channels[JointChannel.arm_flex_r].tolist() == [1.0, 3.0]
    assert parsed.channels[JointChannel.elbow_flex_l].tolist() == [2.0, 4.0]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_blank_lines_take_no_room_in_the_parse(newline):
    """Ten blank lines after every row parse to the same series within the
    same bound: the block is sized by the lines that hold a character other
    than CR or LF, so blank lines cannot over-allocate it (sized by every
    line, it would take eleven times the rows' room), and an empty line
    costs no edit of the chunk's text."""
    series = _twelve_thousand_rows()
    text = ingest.format_imu_joint_csv(series)
    data = text.replace("\n", newline * 11).encode()
    parsed, peak = _traced_parse(data)
    assert peak < 1.5 * len(data)
    plain = parse_imu_joint_csv(text.encode())
    assert (parsed.sample_rate, parsed.start_time, parsed.unparseable_cells) == \
        (plain.sample_rate, plain.start_time, plain.unparseable_cells)
    assert parsed.channels.keys() == series.channels.keys()
    for ch, x in series.channels.items():
        assert np.array_equal(parsed.channels[ch], x)


@pytest.mark.parametrize("data", [b"\xef\xbb\xbf", b"\xef\xbb\xbf \r\n\t\n",
                                  b"\xef\xbb\xbf\n\n"])
def test_a_byte_order_mark_before_blank_lines_is_an_empty_file(data):
    with pytest.raises(EmptyFile):
        parse_imu_joint_csv(data)


def test_wide_whitespace_is_what_str_strip_removes():
    assert ingest._WIDE_WHITESPACE == [
        c for c in range(128, sys.maxunicode + 1) if chr(c).isspace()]


# --- error contract on arbitrary bytes -------------------------------------------

_VALID_IMU = (b"time,T1_head_neck_FE,arm_flex_r,note\r\n0.0,1.5,,\"a,b\"\r\n"
              b"0.01,x,2,c\r\n0.02,inf,3\r\n")
_VALID_ANNOTATIONS = (b"t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n"
                      b"0.0,1.0,1,2,0,1,1\n2.0,3.5,0,0,1,3,2\n")


@st.composite
def mutated(draw, base: bytes):
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(data)))
        if draw(st.booleans()) and at < len(data):
            del data[at:at + draw(st.integers(1, 4))]
        else:
            data[at:at] = draw(st.sampled_from(
                [b",", b'"', b"\n", b"\r", b" ", b"\xff", b"\x00", b"\xc3\xa9", b"x", b"-", b"e"]))
    return bytes(data)


@pytest.mark.parametrize("parse", [parse_imu_joint_csv, parse_annotations],
                         ids=["imu-csv", "annotations"])
@PROPERTY
@given(data=st.one_of(st.binary(max_size=200), mutated(_VALID_IMU),
                      mutated(_VALID_ANNOTATIONS)))
def test_parsers_raise_only_ergokit_errors(parse, data):
    try:
        parse(data)
    except ErgokitError:
        pass

