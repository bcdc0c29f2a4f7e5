"""Command-line entry point: ingestion -> geometry -> scoring -> statistics
-> reporting.

Subcommands: ``score``, ``compare``, ``convert``, ``check-config``. Every
failure exits nonzero with a single-line diagnostic prefixed
``ergokit: error:``; output files are written atomically (write then
rename).
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path

from .errors import ConfigError, ErgokitError
from .motion import EMPTY_ANNOTATIONS, JointChannel
from . import compare as compare_mod
from . import geometry, ingest, reporting, rula

PROG = "ergokit"


def _write_outputs(out: str, files) -> Path:
    """Make directory ``out`` and write each ``(name, text)`` of ``files``
    into it atomically, taking (and so rendering) one text at a time."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        tmp = out / (name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out / name)
        del text  # freed before the next text is rendered
    return out


def _report_files(stem: str, emit, report):
    """A report's ``stem``.json and ``stem``.csv, then its plot series."""
    yield f"{stem}.json", emit(report, "structured")
    yield f"{stem}.csv", emit(report, "delimited")
    yield from reporting.emit_plot_series(report).items()


def _load_series(path: str, kind: str, args) -> "ingest.JointAngleSeries":
    """The recording at ``path`` as joint angles, at ``--rate`` if given."""
    if kind == "imu-csv":
        series = ingest.parse_imu_joint_csv(Path(path).read_bytes(), args.imu_rate)
    else:  # the file's bytes, then the keypoints, are freed once read, before resampling
        series = geometry.compute_angle_series(
            ingest.parse_keypoint_stream(Path(path).read_bytes(), args.fps),
            geometry.load_angle_definitions(args.angle_defs))
    return series if args.rate is None else ingest.resample(series, args.rate)


def _session_report(series, kind: str, annotations, config, strict=False, flags=None):
    """Score ``series`` and build its session report. When the caller keeps
    no reference to the series, it and the timeline are freed on return."""
    timeline = rula.score_timeline(series, annotations, config, strict=strict)
    return reporting.build_session_report(timeline, series, source_kind=kind,
                                          config=config, flags=flags)


def cmd_score(args) -> int:
    report = _session_report(
        _load_series(args.input, args.kind, args), args.kind,
        ingest.parse_annotations(Path(args.annotations).read_bytes())
        if args.annotations else EMPTY_ANNOTATIONS,
        rula.load_rula_config(args.config), strict=args.strict,
        flags={key: getattr(args, key) for key in ("kind", "rate", "strict")},
    )
    out = _write_outputs(args.out, _report_files(
        "session", reporting.emit_session_report, report))

    shares = reporting.format_band_shares(report.band_percentages)
    # Past 1e9 s (only a tiny rate's), three digits keep the line short.
    seconds = format(report.duration, ".2f" if report.duration < 1e9 else ".3g")
    print(f"{PROG}: scored {report.samples} samples "
          f"({seconds} s at {report.sample_rate:g} Hz); "
          f"bands {shares}; reports in {out}")
    return 0


def cmd_compare(args) -> int:
    paths = args.inputs
    if len(paths) < 2 or len(paths) % 2 != 0:
        print(f"{PROG}: error: compare expects pairs of inputs (A B [A2 B2 ...])",
              file=sys.stderr)
        return 2
    reference = JointChannel(args.reference)
    config = rula.load_rula_config(args.config)

    reports = []
    session_docs = []
    for run, (path_a, path_b) in enumerate(zip(paths[0::2], paths[1::2]), start=1):
        series_a = _load_series(path_a, args.kind_a, args)
        series_b = _load_series(path_b, args.kind_b, args)
        if args.rate is None:  # else both are at --rate already
            rate = min(series_a.sample_rate, series_b.sample_rate)
            series_a = ingest.resample(series_a, rate)
            series_b = ingest.resample(series_b, rate)
        reports.append(
            compare_mod.compare_recordings(
                series_a, series_b,
                reference_channel=reference,
                max_lag_seconds=args.max_lag,
                min_overlap_seconds=args.min_overlap,
            )
        )
        if args.session_reports:
            for label, series, kind in (("a", series_a, args.kind_a),
                                        ("b", series_b, args.kind_b)):
                report = _session_report(series, kind, EMPTY_ANNOTATIONS, config)
                session_docs.append((f"session_run{run}_{label}.json",
                                     reporting.emit_session_report(report, "structured")))

    summary = compare_mod.summarize_runs(reports)
    out = _write_outputs(args.out, itertools.chain(_report_files(
        "comparison", reporting.emit_comparison_report, summary), session_docs))

    lags = ", ".join(str(lag) for lag in summary.lags)
    print(f"{PROG}: compared {len(summary.lags)} run(s); lag(s) {lags} samples; "
          f"reports in {out}")
    return 0


def cmd_convert(args) -> int:
    series = _load_series(args.input, "keypoints", args)
    out = _write_outputs(args.out, [("joint_angles.csv", ingest.format_imu_joint_csv(series))])
    print(f"{PROG}: converted {series.length} frames, "
          f"{len(series.channels)} channels -> {out / 'joint_angles.csv'}")
    return 0


def cmd_check_config(args) -> int:
    raw = ingest.read_config_json(args.config_path)
    try:
        config = rula.config_from_dict(raw)
    except ConfigError as exc:
        for problem in exc.violations:
            print(f"invalid: {problem}")
        print(f"{PROG}: error: {len(exc.violations)} problem(s) in {args.config_path}",
              file=sys.stderr)
        return 1
    print(f"config ok: {args.config_path}")
    print(f"config checksum: {config.checksum}")
    for name, checksum in rula.table_checksums(raw).items():
        print(f"{name} checksum: {checksum}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise instead of printing usage and exiting; ``main`` reports it."""
        raise argparse.ArgumentError(None, message)


def _number(positive: bool):
    """argparse type for a finite number, > 0 if ``positive`` else >= 0."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > 0 or value == 0 and not positive)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if positive else '>='} 0, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Ergonomic scoring and two-system comparison for "
                    "motion-capture joint angles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scores=True):
        p.add_argument("--out", default="ergokit-out", help="output directory")
        p.add_argument("--rate", type=_number(positive=True), default=None,
                       help="resample to this rate (Hz) before processing")
        p.add_argument("--fps", type=_number(positive=True), default=30.0,
                       help="keypoint stream frame rate")
        p.add_argument("--angle-defs", default=None,
                       help="angle definition JSON (default: shipped definitions)")
        if scores:  # convert reads neither a scoring config nor an IMU CSV
            p.add_argument("--config", default=None,
                           help="scoring config JSON (default: shipped tables)")
            p.add_argument("--imu-rate", type=_number(positive=True), default=100.0,
                           help="declared IMU sample rate when the CSV has no time column")

    p_score = sub.add_parser("score", help="score one recording")
    p_score.add_argument("input")
    p_score.add_argument("--kind", choices=("imu-csv", "keypoints"),
                         default="imu-csv")
    p_score.add_argument("--annotations", default=None,
                         help="muscle/force/legs annotation CSV")
    p_score.add_argument("--strict", action="store_true",
                         help="fail on missing channels instead of degrading")
    add_common(p_score)
    p_score.set_defaults(func=cmd_score)

    p_cmp = sub.add_parser("compare", help="compare recordings pairwise")
    p_cmp.add_argument("inputs", nargs="+",
                       help="pairs of recordings: A B [A2 B2 ...]")
    p_cmp.add_argument("--kind-a", choices=("imu-csv", "keypoints"),
                       default="imu-csv")
    p_cmp.add_argument("--kind-b", choices=("imu-csv", "keypoints"),
                       default="imu-csv")
    p_cmp.add_argument("--max-lag", type=_number(positive=False),
                       default=compare_mod.DEFAULT_MAX_LAG_SECONDS,
                       help="alignment search half-window, seconds (0: lag 0 only)")
    p_cmp.add_argument("--min-overlap", type=_number(positive=False),
                       default=compare_mod.DEFAULT_MIN_OVERLAP_SECONDS,
                       help="minimum aligned overlap, seconds")
    p_cmp.add_argument("--reference", default=compare_mod.DEFAULT_REFERENCE_CHANNEL.value,
                       choices=[ch.value for ch in JointChannel],
                       help="channel used to estimate the global lag")
    p_cmp.add_argument("--session-reports", action="store_true",
                       help="also write a session report per input")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_conv = sub.add_parser("convert",
                            help="keypoints -> joint-angle CSV (IMU layout)")
    p_conv.add_argument("input")
    add_common(p_conv, scores=False)
    p_conv.set_defaults(func=cmd_convert)

    p_check = sub.add_parser("check-config", help="validate a scoring config")
    p_check.add_argument("config_path")
    p_check.set_defaults(func=cmd_check_config)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ErgokitError, OSError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError; name the public one.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"{PROG}: error: {name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
