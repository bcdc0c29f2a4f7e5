"""ergokit benchmark: one run of one workload.

    python3 perfbench/run.py --workload {score-imu,score-keypoints,validate} \\
        --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed in a separate process, then
repeats the workload's operation for S seconds, checking every output. With
``--trace 0`` it reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` it wraps the package's layer functions
and reports per-layer times instead. Every reported time is scaled to the
reference machine's speed with the loop in ``calib.py``, timed next to each
measurement. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, seed, input sizes, every operation's raw and scaled time)
goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calib
import gen
import spans
import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
RESULTS = HERE / "results"

#: Fresh interpreters timed for ``setup_s``, after one untimed warm-up that
#: writes the bytecode caches.
SETUP_REPEATS = 9
#: Every run attempts at least this many operations, and starts no new one
#: after this many seconds of the process's life.
MIN_OPS = 3
LAST_START_S = 140.0

SETUP_CODE = {
    "score-imu": "import ergokit\nfrom ergokit import rula\nrula.load_rula_config()",
    "validate": "import ergokit\nfrom ergokit import rula\nrula.load_rula_config()",
    "score-keypoints": "import ergokit\nfrom ergokit import geometry, rula\n"
                       "rula.load_rula_config()\ngeometry.load_angle_definitions()",
}

#: (module, attribute, span name): the layer functions the traced run wraps.
#: Span names are the per-layer metric names; each layer is timed without
#: the time of the wrapped calls it makes.
LAYER_FUNCTIONS = (
    ("ingest", "parse_imu_joint_csv", "ingest.parse_imu_csv_s"),
    ("ingest", "parse_annotations", "ingest.parse_annotations_s"),
    ("ingest", "parse_keypoint_stream", "ingest.parse_keypoints_s"),
    ("ingest", "resample", "ingest.resample_s"),
    ("geometry", "load_angle_definitions", "geometry.load_definitions_s"),
    ("geometry", "compute_angle_series", "geometry.angles_s"),
    ("rula", "load_rula_config", "rula.load_config_s"),
    ("rula", "score_timeline", "rula.score_s"),
    ("compare", "align_min_rmse", "compare.align_s"),
    # compare_recordings minus align_min_rmse: per-channel statistics.
    ("compare", "compare_recordings", "compare.channel_stats_s"),
    ("compare", "summarize_runs", "compare.summarize_s"),
    ("reporting", "build_session_report", "reporting.build_s"),
    ("reporting", "format_band_shares", "reporting.emit_s"),
    ("reporting", "emit_session_report", "reporting.emit_s"),
    ("reporting", "emit_plot_series", "reporting.emit_s"),
    ("reporting", "emit_comparison_report", "reporting.emit_s"),
    # main minus its layer spans: argument parsing, file reads, atomic writes.
    ("cli", "main", "cli.self_s"),
)
OP_SPAN = "trace.op_s"

#: Per-layer rates: metric -> (time metric, work count key, unit).
RATES = {
    "ingest.imu_rows_per_s": ("ingest.parse_imu_csv_s", "imu_rows", "rows/s"),
    "ingest.keypoint_frames_per_s": ("ingest.parse_keypoints_s", "keypoint_frames", "frames/s"),
    "geometry.frames_per_s": ("geometry.angles_s", "keypoint_frames", "frames/s"),
    "rula.samples_per_s": ("rula.score_s", "scored_samples", "samples/s"),
    "compare.lag_pairs_per_s": ("compare.align_s", "lag_pairs", "pairs/s"),
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "reference_loop": {"iterations": calib.REF_ITERATIONS, "reference_s": calib.REF_S},
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(workloads.SRC), str(HERE)])
    return env


def measure_setup(workload: str, cwd: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported
    ergokit and loaded the shipped config (and, for keypoints, the angle
    definitions): raw, and scaled to reference speed.

    The child reads the system-wide monotonic clock when it is done, so
    the figure carries neither the child's exit nor the polling of a
    wait with a timeout. The reference loop runs between the children.
    """
    code = SETUP_CODE[workload] + "\nimport time\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))"
    raw, scaled = [], []
    ref_before = None
    for k in range(SETUP_REPEATS + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=cwd,
                              check=True, timeout=60, stdout=subprocess.PIPE, text=True)
        elapsed = float(proc.stdout.split()[-1]) - start
        ref_after = calib.reference_seconds()
        if k:
            raw.append(elapsed)
            scaled.append(elapsed * calib.factor(ref_before, ref_after))
        ref_before = ref_after
    return raw, scaled


def measure_rss(workload: str, inputs: Path, out: Path) -> float:
    """Peak resident set, MB, of a fresh process running one operation."""
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(inputs), str(out)],
        env=child_env(), cwd=out, check=True, timeout=120,
        stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_kb"] / 1024.0


def work_counts(workload: str, makeup: dict) -> dict:
    """Work one operation does, from the input sizes and the search window."""
    if workload == "score-imu":
        return {"imu_rows": makeup["samples"], "scored_samples": makeup["samples"]}
    if workload == "score-keypoints":
        return {"keypoint_frames": makeup["frames"], "scored_samples": makeup["frames"]}
    rate = gen.VAL_CAM_RATE
    len_a = workloads.resampled_length(makeup["imu_samples_per_run"], gen.VAL_IMU_RATE, rate)
    max_lag = int(round(workloads.VALIDATE_MAX_LAG_S * rate))
    min_overlap = int(round(workloads.VALIDATE_MIN_OVERLAP_S * rate))
    pairs = 0
    for len_b in makeup["camera_samples_per_run"]:
        for lag in range(-max_lag, max_lag + 1):
            overlap = min(len_a, len_b - lag) - max(0, -lag)
            if overlap >= min_overlap:
                pairs += overlap
    return {"lag_pairs": pairs}


def run_loop(workload: str, state, out: Path, expected: dict, seconds: float,
             process_start: float, tracer: spans.Tracer | None) -> dict:
    """Repeat the operation for ``seconds``; check every output.

    The reference loop runs after every operation, so each operation lies
    between two of its timings; both set the operation's scale factor.
    """
    check = workloads.CHECKS[workload]
    op_times, scaled_times, layer_times = [], [], []
    attempted = failed = bad_outputs = 0
    loop_start = time.perf_counter()
    ref_before = calib.reference_seconds()
    ref_times = [ref_before]
    while True:
        now = time.perf_counter()
        if attempted >= MIN_OPS and (now - loop_start >= seconds
                                     or now - process_start >= LAST_START_S):
            break
        gc.collect()
        attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                output = workloads.run_op(workload, state, out)
            else:
                with tracer.span(OP_SPAN):
                    output = workloads.run_op(workload, state, out)
            elapsed = time.perf_counter() - start
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            if tracer is not None:
                tracer.take()
            ref_before = calib.reference_seconds()
            ref_times.append(ref_before)
            continue
        ref_after = calib.reference_seconds()
        ref_times.append(ref_after)
        factor = calib.factor(ref_before, ref_after)
        ref_before = ref_after
        problems = check(output, expected)
        if problems:
            failed += 1
            bad_outputs += 1
            print(f"output check failed: {problems[:5]}", file=sys.stderr)
        op_times.append(elapsed)
        scaled_times.append(elapsed * factor)
        if tracer is not None:
            layer_times.append({name: t * factor for name, t in
                                spans.self_times(tracer.take()).items()})
    return {"attempted": attempted, "failed": failed, "bad_outputs": bad_outputs,
            "op_times": op_times, "scaled_times": scaled_times, "ref_times": ref_times,
            "layer_times": layer_times}


def layer_metrics(loop: dict, counts: dict) -> dict:
    names = [name for _, _, name in LAYER_FUNCTIONS]
    metrics = {}
    for name in dict.fromkeys(names):
        value = statistics.median(t.get(name, 0.0) for t in loop["layer_times"])
        metrics[name] = {"value": value, "unit": "s"}
    metrics[OP_SPAN] = {"value": statistics.median(loop["scaled_times"]), "unit": "s"}
    for name, (time_metric, count_key, unit) in RATES.items():
        busy = metrics[time_metric]["value"]
        work = counts.get(count_key, 0)
        metrics[name] = {"value": work / busy if work and busy > 0 else 0.0, "unit": unit}
    return metrics


def main() -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description="ergokit benchmark, one run")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        workloads.import_program()
        workloads.import_worksheet()
    except (workloads.MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot run without the program: {exc}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    inputs, out = work / "inputs", work / "out"
    out.mkdir(parents=True)
    try:
        gen_proc = subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(inputs)],
            check=True, timeout=120, stdout=subprocess.PIPE, text=True,
        )
        makeup = json.loads(gen_proc.stdout.splitlines()[-1])
        state = workloads.load(args.workload, inputs)
        expected = workloads.expected(args.workload, inputs, state)

        if args.trace:
            tracer = spans.Tracer()
            for module, attribute, name in LAYER_FUNCTIONS:
                tracer.wrap(sys.modules[f"ergokit.{module}"], attribute, name)
            try:
                loop = run_loop(args.workload, state, out, expected, args.seconds,
                                process_start, tracer)
            finally:
                tracer.restore()
            counts = work_counts(args.workload, makeup)
            metrics = layer_metrics(loop, counts) if loop["op_times"] else {}
            extra = {"work_counts": counts}
        else:
            setup_raw, setup = measure_setup(args.workload, out)
            rss = measure_rss(args.workload, inputs, work / "rss-out")
            loop = run_loop(args.workload, state, out, expected, args.seconds,
                            process_start, None)
            metrics = {}
            if loop["op_times"]:
                metrics = {
                    "wall_s": {"value": statistics.median(loop["scaled_times"]), "unit": "s"},
                    "setup_s": {"value": statistics.median(setup), "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"},
                }
            extra = {"setup_runs_s": setup, "setup_raw_runs_s": setup_raw,
                     "raw_medians": {"wall_s": statistics.median(loop["op_times"] or [0.0]),
                                     "setup_s": statistics.median(setup_raw)}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": loop["bad_outputs"] == 0 and bool(loop["op_times"]),
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs": makeup,
        "op_times_s": loop["scaled_times"], "op_raw_times_s": loop["op_times"],
        "reference_loop_s": loop["ref_times"],
        **extra, **result,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record.get(k) for k in ("workload", "seed", "environment", "inputs",
                                                  "raw_medians")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
