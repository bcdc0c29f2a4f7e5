"""Report emission: session reports, comparison tables, and plot-ready data.

Emitters are deterministic: fixed orderings (risk bands in report order,
channels in the declared channel order) and fixed float formatting
(3 decimals for statistics, 1 for percentages, rendered as ``12.3 %``).
The structured (JSON) and delimited (CSV) renderings of a report carry the
same rounded numeric values. The per-sample part of a session report (times
and scores) is rendered to text once per ``SessionReport``, on first use, and
shared by ``session.json``, ``session.csv`` and ``rula_scores.csv``.

No images are rendered here; plot emitters produce delimited files any
plotting tool can consume: the per-side score-over-time series, the band
shares behind the pie charts, and the per-channel RMSE/correlation bar
tables.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyChannel, EmptyInput, EmptyTimeline
from .motion import (
    CHANNEL_ORDER,
    ChannelSummary,
    JointAngleSeries,
    JointChannel,
    channel_summary,
)
from .compare import ComparisonReport, _ordered_channels
from .rula import RiskBand, RulaConfig, RulaTimeline, band_percentages


def format_percent(value: float) -> str:
    return f"{value:.1f} %"


def format_band_shares(percentages: dict[RiskBand, float]) -> str:
    """The four band shares as one display string, band order fixed:
    negligible / low / medium / very high."""
    return " / ".join(format_percent(percentages[band]) for band in RiskBand)


def _stat(value: float | None):
    return None if value is None else round(float(value), 3)


def _stat_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


#: From this magnitude up, a number is written as session.json writes it,
#: the JSON text of ``round(x, 3)``, not in fixed point with hundreds of digits.
_FIXED_BELOW = 1e12


def _fixed(value: float) -> str:
    return "%.3f" % value if abs(value) < _FIXED_BELOW else json.dumps(round(value, 3))


# --- session reports ---------------------------------------------------------


@dataclass(frozen=True)
class SessionReport:
    source_kind: str
    sample_rate: float
    duration: float
    samples: int
    config_checksum: str
    degraded_frames: int
    band_percentages: dict[RiskBand, float]
    times: np.ndarray
    left: np.ndarray
    right: np.ndarray
    combined: np.ndarray
    channel_summaries: dict[JointChannel, ChannelSummary]
    flags: dict = field(default_factory=dict)

    @functools.cached_property
    def _cells(self) -> list[str]:
        """The text of the times (``_fixed``) and of the left, right and
        combined scores, one string per column with a comma after each
        cell: rendered once, on first use, and shared by every emitter."""
        times = self.times.tolist()
        return ["%.3f," * len(times) % tuple(times) if np.all(np.abs(self.times) < _FIXED_BELOW)
                else "".join(_fixed(t) + "," for t in times)] + [
            _int_cells(a) for a in (self.left, self.right, self.combined)]

    @functools.cached_property
    def _rows(self) -> str:
        """The ``time,left,right,combined`` header and one line per sample,
        joined 4096 lines at a time, so only one block's lines are held."""
        columns = [text.split(",")[:-1] for text in self._cells]
        return "\n".join(["time,left,right,combined"] + ["\n".join(map(",".join, zip(*(
            c[a:a + 4096] for c in columns)))) for a in range(0, len(columns[0]), 4096)])


def _int_cells(values: np.ndarray) -> str:
    """The text of every integer in ``values``, each followed by a comma."""
    if values.size and 0 <= values.min() and values.max() <= 9:  # one digit each
        return ",".join((values.astype(np.uint8) + ord("0")).tobytes().decode()) + ","
    return "%d," * len(values) % tuple(values.tolist())


def build_session_report(timeline: RulaTimeline,
                         series: JointAngleSeries | None = None,
                         source_kind: str = "unknown",
                         config: RulaConfig | None = None,
                         flags: dict | None = None) -> SessionReport:
    if timeline.length == 0:
        raise EmptyTimeline("cannot report an empty timeline")
    summaries: dict[JointChannel, ChannelSummary] = {}
    if series is not None:
        for ch in CHANNEL_ORDER:
            if ch in series.channels:
                try:
                    summaries[ch] = channel_summary(series, ch)
                except EmptyChannel:
                    continue
    return SessionReport(
        source_kind=source_kind,
        sample_rate=timeline.sample_rate,
        duration=(timeline.length - 1) / timeline.sample_rate,
        samples=timeline.length,
        config_checksum=config.checksum if config is not None else "",
        degraded_frames=int(np.count_nonzero(timeline.degraded)),
        band_percentages=band_percentages(timeline),
        times=timeline.times,
        left=timeline.left.final,
        right=timeline.right.final,
        combined=timeline.final,
        channel_summaries=summaries,
        flags=dict(flags or {}),
    )


def emit_session_report(report: SessionReport, format: str = "structured") -> str:
    if format == "structured":
        return _session_json(report)
    if format == "delimited":
        return _session_csv(report)
    raise ValueError(f"unknown format {format!r}")


def _json_list(cells: str, pad: str) -> str:
    """Comma-terminated number texts laid out as json.dumps(..., indent=2)
    lays out a list at the indentation ``pad``."""
    return f"[{pad}  " + cells[:-1].replace(",", "," + pad + "  ") + f"{pad}]" if cells else "[]"


def _json_times(report: SessionReport) -> str:
    """The JSON text of ``round(t, 3)`` for every time, comma-terminated.

    Below 1e12 s it is the ``"%.3f"`` text with trailing zeros stripped down
    to one decimal: each pass drops one zero before a comma. ``"%.3f"`` and
    ``round`` both round correctly to the same 3-decimal ``d``, which has at
    most 15 significant digits (``DBL_DIG``), so ``repr`` of the double
    nearest ``d`` prints exactly ``d`` stripped (``-0.0`` too).
    """
    if not np.all(np.abs(report.times) < _FIXED_BELOW):
        return "".join(json.dumps(round(t, 3)) + "," for t in report.times.tolist())
    return report._cells[0].replace("0,", ",").replace("0,", ",")


def _session_json(report: SessionReport) -> str:
    scores = dict(zip(("time", "left", "right", "combined"),
                      (_json_times(report), *report._cells[1:])))
    doc = {
        "kind": "session",
        "source_kind": report.source_kind,
        "sample_rate": round(report.sample_rate, 3),
        "duration": round(report.duration, 3),
        "samples": report.samples,
        "config_checksum": report.config_checksum,
        "degraded_frames": report.degraded_frames,
        "flags": report.flags,
        "band_percentages": {
            band.value: round(report.band_percentages[band], 1) for band in RiskBand
        },
        "band_shares": format_band_shares(report.band_percentages),
        "scores": None,
        "channel_summaries": {
            ch.value: {
                "mean": _stat(s.mean),
                "std_dev": _stat(s.std_dev),
                "min": _stat(s.min),
                "max": _stat(s.max),
            }
            for ch, s in report.channel_summaries.items()
        },
    }
    # The text of json.dumps(doc, indent=2). With ``indent`` set, json runs
    # its pure-Python encoder, so the per-sample lists are rendered apart
    # and spliced in for the one top-level ``"scores": null``.
    pad = "\n    "
    lists = ("," + pad).join(f'"{k}": {_json_list(v, pad)}' for k, v in scores.items())
    head, _, tail = json.dumps(doc, indent=2).partition('\n  "scores": null')
    return "".join([head, '\n  "scores": {', pad, lists, "\n  }", tail, "\n"])


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, its quotes doubled, when it holds a
    comma, a quote or a line break (RFC 4180)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _session_csv(report: SessionReport) -> str:
    lines = ["key,value", "kind,session", f"source_kind,{report.source_kind}",
             f"sample_rate,{_fixed(report.sample_rate)}", f"duration,{_fixed(report.duration)}",
             f"samples,{report.samples}", f"config_checksum,{report.config_checksum}",
             f"degraded_frames,{report.degraded_frames}"]
    for key, value in sorted(report.flags.items()):
        text = value if isinstance(value, str) else json.dumps(value)
        lines.append(f"{_csv_cell(f'flag:{key}')},{_csv_cell(text)}")
    lines += [f"band_shares,{format_band_shares(report.band_percentages)}", "", "band,percent"]
    for band in RiskBand:
        lines.append(f"{band.value},{format_percent(report.band_percentages[band])}")
    lines += ["", report._rows]
    if report.channel_summaries:
        lines += ["", "channel,mean,std_dev,min,max"]
        for ch, s in report.channel_summaries.items():
            lines.append(f"{ch.value},{s.mean:.3f},{s.std_dev:.3f},{s.min:.3f},{s.max:.3f}")
    return "\n".join(lines) + "\n"


# --- comparison reports ---------------------------------------------------------


def emit_comparison_report(report: ComparisonReport, format: str = "structured") -> str:
    """Channels as rows in the declared channel order, one column per run,
    MEAN last; channels that could not be compared are flagged, never
    dropped. One report of any number of runs, from ``compare_recordings``
    or ``summarize_runs``."""
    if not report.channels:
        raise EmptyInput("comparison covers no channels")
    if format == "structured":
        return _comparison_json(report)
    if format == "delimited":
        return _comparison_csv(report)
    raise ValueError(f"unknown format {format!r}")


def _comparison_json(report: ComparisonReport) -> str:
    doc = {
        "kind": "comparison",
        "runs": len(report.lags),
        "sample_rate": round(report.sample_rate, 3),
        "reference_channel": report.reference_channel.value,
        "lag_samples": list(report.lags),
        "channels": {
            ch.value: {
                "rmse": {
                    "runs": [_stat(v) for v in stats.rmse],
                    "mean": _stat(stats.rmse_mean),
                },
                "correlation": {
                    "runs": [_stat(v) for v in stats.correlation],
                    "mean": _stat(stats.correlation_mean),
                },
                "notes": [n for n in stats.notes if n],
            }
            for ch, stats in _channel_rows(report)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _channel_rows(report: ComparisonReport):
    """``(channel, ChannelComparison)`` in the declared channel order."""
    return [(ch, report.channels[ch]) for ch in _ordered_channels(report.channels)]


def _metric_table(report: ComparisonReport, metric: str,
                  include_note: bool) -> list[str]:
    record_cols = ",".join(f"record_{i + 1}" for i in range(len(report.lags)))
    header = f"{metric},{record_cols},mean"
    if include_note:
        header += ",note"
    lines = [header]
    for ch, stats in _channel_rows(report):
        runs = getattr(stats, metric)
        mean = getattr(stats, f"{metric}_mean")
        cells = [ch.value] + [_stat_cell(v) for v in runs] + [_stat_cell(mean)]
        if include_note:
            cells.append(next((n for n in stats.notes if n), ""))
        lines.append(",".join(cells))
    return lines


def _comparison_csv(report: ComparisonReport) -> str:
    lines = _metric_table(report, "rmse", include_note=True)
    lines.append("")
    lines.extend(_metric_table(report, "correlation", include_note=True))
    return "\n".join(lines) + "\n"


# --- plot-ready data --------------------------------------------------------------


def emit_plot_series(obj) -> dict[str, str]:
    """Delimited plot-data files for a session report or a comparison.

    Session: score-over-time per side (the rows ``session.csv`` holds,
    rendered once per report) plus the band-share table behind a pie chart.
    A ``RulaTimeline`` is reported first with ``build_session_report``.
    Comparison (a ``ComparisonReport`` of any number of runs): per-channel
    RMSE and correlation bar tables.
    """
    if isinstance(obj, RulaTimeline):
        obj = build_session_report(obj)
    if isinstance(obj, SessionReport):
        band_lines = ["band,percent"]
        for band in RiskBand:
            band_lines.append(f"{band.value},{obj.band_percentages[band]:.1f}")
        return {
            "rula_scores.csv": obj._rows + "\n",
            "rula_bands.csv": "\n".join(band_lines) + "\n",
        }

    if not obj.channels:
        raise EmptyInput("comparison covers no channels")
    return {
        "comparison_rmse.csv":
            "\n".join(_metric_table(obj, "rmse", include_note=False)) + "\n",
        "comparison_correlation.csv":
            "\n".join(_metric_table(obj, "correlation", include_note=False)) + "\n",
    }
