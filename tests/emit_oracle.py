"""The session-report emitters as they were before the per-sample text was
rendered once per report, kept as an independent oracle.

``_score_rows``, ``_number_list``, ``_session_json`` and ``_session_csv``
are copied unchanged, and ``emit_plot_series_oracle`` is the timeline
branch of the old ``emit_plot_series``. Each formats every sample on every
call: ``round(t, 3)`` and json's encoder for the JSON times, ``"%.3f"`` for
the CSV rows. Tests compare ``ergokit.reporting``'s emitters against these
byte for byte, the way ``csv_oracle`` serves the IMU CSV parser.
"""
from __future__ import annotations

import json

from ergokit.errors import EmptyInput
from ergokit.reporting import SessionReport, format_band_shares, format_percent, _stat
from ergokit.rula import RiskBand, RulaTimeline, band_percentages


def _score_rows(times, left, right, combined) -> str:
    """The ``time,left,right,combined`` header and one line per sample."""
    cells = [None] * (4 * len(times))
    cells[0::4], cells[1::4] = times.tolist(), left.tolist()
    cells[2::4], cells[3::4] = right.tolist(), combined.tolist()
    return "time,left,right,combined" + "\n%.3f,%s,%s,%s" * len(times) % tuple(cells)


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
    lines.append(f"sample_rate,{report.sample_rate:.3f}")
    lines.append(f"duration,{report.duration:.3f}")
    lines.append(f"samples,{report.samples}")
    lines.append(f"config_checksum,{report.config_checksum}")
    lines.append(f"degraded_frames,{report.degraded_frames}")
    for key in sorted(report.flags):
        lines.append(f"flag:{key},{report.flags[key]}")
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
    """Delimited plot-data files for a timeline: score-over-time per side
    plus the band-share table behind a pie chart. (The comparison branch
    is not copied; it did not change.)"""
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
