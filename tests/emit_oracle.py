"""The report emitters as they were before two changes, kept as an
independent oracle.

Session reports: before the per-sample text was rendered once per report.
``_score_rows``, ``_number_list``, ``_session_json`` and ``_session_csv``
are copied unchanged, but for ``_session_csv``'s flag line, which renders
each flag row with ``csv.writer``, and for the CSV numbers, which
``_csv_number`` formats. Each formats every sample on every call:
``round(t, 3)`` and json's encoder for the JSON times, ``_csv_number`` for
the CSV rows.

Comparisons: before one ``ComparisonReport`` held n >= 1 runs. The one-run
``ChannelComparison`` and ``ComparisonReport`` and the multi-run
``ChannelRunStats`` and ``ComparisonSummary`` are copied with an ``Old``
prefix, and ``summarize_runs``, ``_as_summary``, ``emit_comparison_report``,
``_comparison_json``, ``_metric_table`` and ``_comparison_csv`` unchanged,
with the helpers ``_ordered_channels`` and ``_mean_or_none``.

``emit_plot_series_oracle`` is the old ``emit_plot_series`` less its
``SessionReport`` branch. Tests compare ``ergokit.reporting``'s emitters
against these byte for byte, the way ``csv_oracle`` serves the IMU CSV
parser.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from ergokit.errors import ChannelSetMismatch, EmptyInput
from ergokit.motion import CHANNEL_ORDER, JointChannel
from ergokit.reporting import (
    SessionReport,
    format_band_shares,
    format_percent,
    _stat,
    _stat_cell,
)
from ergokit.rula import RiskBand, RulaTimeline, band_percentages


def _csv_number(x: float) -> str:
    """``"%.3f"`` below 1e12 in magnitude; otherwise (NaN too) json's text of
    ``round(x, 3)``, as in the JSON document."""
    return "%.3f" % x if abs(x) < 1e12 else json.dumps(round(x, 3))


def _score_rows(times, left, right, combined) -> str:
    """The ``time,left,right,combined`` header and one line per sample."""
    cells = [None] * (4 * len(times))
    cells[0::4], cells[1::4] = map(_csv_number, times.tolist()), left.tolist()
    cells[2::4], cells[3::4] = right.tolist(), combined.tolist()
    return "time,left,right,combined" + "\n%s,%s,%s,%s" * len(times) % tuple(cells)


def _number_list(values: list, pad: str) -> str:
    """A list of numbers laid out as by json.dumps(..., indent=2) at the
    indentation ``pad``, rendered by json's C encoder."""
    items = json.dumps(values)[1:-1].replace(", ", "," + pad + "  ")
    return f"[{pad}  {items}{pad}]" if values else "[]"


def _session_json(report: SessionReport) -> str:
    scores = {
        "time": [round(t, 3) for t in report.times.tolist()],
        "left": report.left.astype(int).tolist(),
        "right": report.right.astype(int).tolist(),
        "combined": report.combined.astype(int).tolist(),
    }
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
    lists = ("," + pad).join(f'"{k}": {_number_list(v, pad)}' for k, v in scores.items())
    return json.dumps(doc, indent=2).replace(
        '\n  "scores": null', '\n  "scores": {' + pad + lists + "\n  }") + "\n"


def _session_csv(report: SessionReport) -> str:
    lines = ["key,value"]
    lines.append("kind,session")
    lines.append(f"source_kind,{report.source_kind}")
    lines.append(f"sample_rate,{_csv_number(report.sample_rate)}")
    lines.append(f"duration,{_csv_number(report.duration)}")
    lines.append(f"samples,{report.samples}")
    lines.append(f"config_checksum,{report.config_checksum}")
    lines.append(f"degraded_frames,{report.degraded_frames}")
    for key in sorted(report.flags):
        value = report.flags[key]
        row = io.StringIO()
        csv.writer(row).writerow(
            [f"flag:{key}", value if isinstance(value, str) else json.dumps(value)])
        lines.append(row.getvalue()[:-2])
    lines.append(f"band_shares,{format_band_shares(report.band_percentages)}")
    lines.append("")
    lines.append("band,percent")
    for band in RiskBand:
        lines.append(f"{band.value},{format_percent(report.band_percentages[band])}")
    lines.append("")
    lines.append(_score_rows(report.times, report.left, report.right, report.combined))
    if report.channel_summaries:
        lines.append("")
        lines.append("channel,mean,std_dev,min,max")
        for ch, s in report.channel_summaries.items():
            lines.append(
                f"{ch.value},{s.mean:.3f},{s.std_dev:.3f},{s.min:.3f},{s.max:.3f}"
            )
    return "\n".join(lines) + "\n"


def emit_plot_series_oracle(obj) -> dict[str, str]:
    """Delimited plot-data files for a timeline (score-over-time per side
    plus the band-share table behind a pie chart) or a comparison
    (per-channel RMSE and correlation bar tables)."""
    if isinstance(obj, RulaTimeline):
        if obj.length == 0:
            raise EmptyInput("empty timeline")
        scores = _score_rows(obj.times, obj.left.final, obj.right.final, obj.final)
        percentages = band_percentages(obj)
        band_lines = ["band,percent"]
        for band in RiskBand:
            band_lines.append(f"{band.value},{percentages[band]:.1f}")
        return {
            "rula_scores.csv": scores + "\n",
            "rula_bands.csv": "\n".join(band_lines) + "\n",
        }

    summary = _as_summary(obj)
    if not summary.channels:
        raise EmptyInput("comparison covers no channels")
    return {
        "comparison_rmse.csv":
            "\n".join(_metric_table(summary, "rmse", include_note=False)) + "\n",
        "comparison_correlation.csv":
            "\n".join(_metric_table(summary, "correlation", include_note=False)) + "\n",
    }


# --- comparison reports -----------------------------------------------------------


@dataclass(frozen=True)
class OldChannelComparison:
    """Per-channel outcome; None metrics mean the channel could not be
    compared, with ``note`` saying why."""

    rmse: float | None
    correlation: float | None
    valid_fraction: float
    note: str = ""

    @property
    def available(self) -> bool:
        return self.rmse is not None


@dataclass(frozen=True)
class OldComparisonReport:
    lag: int
    sample_rate: float
    reference_channel: JointChannel
    channels: dict[JointChannel, OldChannelComparison]

    @property
    def lag_seconds(self) -> float:
        return self.lag / self.sample_rate


def _ordered_channels(keys) -> list[JointChannel]:
    keys = set(keys)
    ordered = [ch for ch in CHANNEL_ORDER if ch in keys]
    ordered.extend(sorted(keys - set(ordered), key=lambda c: c.value))
    return ordered


@dataclass(frozen=True)
class OldChannelRunStats:
    rmse_runs: tuple[float | None, ...]
    rmse_mean: float | None
    correlation_runs: tuple[float | None, ...]
    correlation_mean: float | None
    notes: tuple[str, ...]


@dataclass(frozen=True)
class OldComparisonSummary:
    n_runs: int
    lags: tuple[int, ...]
    sample_rate: float
    reference_channel: JointChannel
    channels: dict[JointChannel, OldChannelRunStats]


def _mean_or_none(values) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def summarize_runs(reports) -> OldComparisonSummary:
    """Mean across runs per channel and metric; all runs must cover the
    same channel set."""
    reports = list(reports)
    if not reports:
        raise ChannelSetMismatch("no reports to summarize")
    key_set = set(reports[0].channels)
    for i, report in enumerate(reports[1:], start=2):
        if set(report.channels) != key_set:
            raise ChannelSetMismatch(f"run {i} covers a different channel set")

    channels: dict[JointChannel, OldChannelRunStats] = {}
    for ch in _ordered_channels(key_set):
        per_run = [report.channels[ch] for report in reports]
        channels[ch] = OldChannelRunStats(
            rmse_runs=tuple(c.rmse for c in per_run),
            rmse_mean=_mean_or_none([c.rmse for c in per_run]),
            correlation_runs=tuple(c.correlation for c in per_run),
            correlation_mean=_mean_or_none([c.correlation for c in per_run]),
            notes=tuple(c.note for c in per_run),
        )
    return OldComparisonSummary(
        n_runs=len(reports),
        lags=tuple(r.lag for r in reports),
        sample_rate=reports[0].sample_rate,
        reference_channel=reports[0].reference_channel,
        channels=channels,
    )


def _as_summary(obj) -> OldComparisonSummary:
    if isinstance(obj, OldComparisonSummary):
        return obj
    if isinstance(obj, OldComparisonReport):
        return summarize_runs([obj])
    raise TypeError(f"expected ComparisonReport or ComparisonSummary, got {type(obj)}")


def emit_comparison_report(report, format: str = "structured") -> str:
    """Channels as rows, runs as columns, MEAN last; channels that could
    not be compared are flagged, never dropped."""
    summary = _as_summary(report)
    if not summary.channels:
        raise EmptyInput("comparison covers no channels")
    if format == "structured":
        return _comparison_json(summary)
    if format == "delimited":
        return _comparison_csv(summary)
    raise ValueError(f"unknown format {format!r}")


def _comparison_json(summary: OldComparisonSummary) -> str:
    doc = {
        "kind": "comparison",
        "runs": summary.n_runs,
        "sample_rate": round(summary.sample_rate, 3),
        "reference_channel": summary.reference_channel.value,
        "lag_samples": list(summary.lags),
        "channels": {
            ch.value: {
                "rmse": {
                    "runs": [_stat(v) for v in stats.rmse_runs],
                    "mean": _stat(stats.rmse_mean),
                },
                "correlation": {
                    "runs": [_stat(v) for v in stats.correlation_runs],
                    "mean": _stat(stats.correlation_mean),
                },
                "notes": [n for n in stats.notes if n],
            }
            for ch, stats in summary.channels.items()
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _metric_table(summary: OldComparisonSummary, metric: str,
                  include_note: bool) -> list[str]:
    record_cols = ",".join(f"record_{i + 1}" for i in range(summary.n_runs))
    header = f"{metric},{record_cols},mean"
    if include_note:
        header += ",note"
    lines = [header]
    for ch, stats in summary.channels.items():
        if metric == "rmse":
            runs, mean = stats.rmse_runs, stats.rmse_mean
        else:
            runs, mean = stats.correlation_runs, stats.correlation_mean
        cells = [ch.value] + [_stat_cell(v) for v in runs] + [_stat_cell(mean)]
        if include_note:
            cells.append(next((n for n in stats.notes if n), ""))
        lines.append(",".join(cells))
    return lines


def _comparison_csv(summary: OldComparisonSummary) -> str:
    lines = _metric_table(summary, "rmse", include_note=True)
    lines.append("")
    lines.extend(_metric_table(summary, "correlation", include_note=True))
    return "\n".join(lines) + "\n"
