"""How the CLI calls the library's layers: through their module attributes,
which the benchmark's tracer wraps, and without keeping a stage's input
alive past the stage that reads it."""
import ast
import gc
import importlib
import weakref
from pathlib import Path

import pytest

from ergokit import cli, geometry, ingest, reporting, rula
from ergokit.ingest import format_keypoint_stream
from ergokit.synthetic import work_cycle_recording

RUN_PY = Path(__file__).parents[1] / "perfbench" / "run.py"

ANNOTATIONS = "t0,t1,arm_muscle,arm_force,neck_muscle,neck_force,legs\n0,2,0,3,0,3,1\n"


def _layer_functions() -> set[tuple[str, str]]:
    """The (module, attribute) pairs of ``LAYER_FUNCTIONS`` in
    ``perfbench/run.py``, read without importing it."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]:
            return {(module, attribute) for module, attribute, _ in ast.literal_eval(node.value)}
    raise AssertionError(f"no LAYER_FUNCTIONS in {RUN_PY}")


@pytest.fixture
def inputs(tmp_path):
    stream = tmp_path / "cycle.jsonl"
    stream.write_text(format_keypoint_stream(work_cycle_recording(360)))
    assert cli.main(["convert", str(stream), "--rate", "100", "--out", str(tmp_path)]) == 0
    annotations = tmp_path / "ann.csv"
    annotations.write_text(ANNOTATIONS)
    return {"csv": str(tmp_path / "joint_angles.csv"), "stream": str(stream),
            "ann": str(annotations), "out": str(tmp_path / "out")}


_SCORED = {("rula", "load_rula_config"), ("rula", "score_timeline"),
           ("reporting", "build_session_report"), ("reporting", "emit_session_report"),
           ("reporting", "emit_plot_series"), ("reporting", "format_band_shares")}
_ANGLES = {("ingest", "parse_keypoint_stream"), ("geometry", "load_angle_definitions"),
           ("geometry", "compute_angle_series")}

#: Each command, and every layer it must reach through its module attribute.
COMMANDS = {
    "score-imu": (["score", "{csv}", "--annotations", "{ann}", "--rate", "50"],
                  {("ingest", "parse_imu_joint_csv"), ("ingest", "parse_annotations"),
                   ("ingest", "resample"), *_SCORED}),
    "score-keypoints": (["score", "{stream}", "--kind", "keypoints"], {*_ANGLES, *_SCORED}),
    "compare": (["compare", "{csv}", "{stream}", "--kind-b", "keypoints", "--session-reports",
                 "--max-lag", "1", "--min-overlap", "2"],
                {("ingest", "parse_imu_joint_csv"), ("ingest", "resample"), *_ANGLES,
                 *_SCORED, ("compare", "compare_recordings"), ("compare", "align_min_rmse"),
                 ("compare", "summarize_runs"), ("reporting", "emit_comparison_report")}),
    "convert": (["convert", "{stream}", "--rate", "20"], {*_ANGLES, ("ingest", "resample")}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_reaches_its_traced_layers(monkeypatch, capsys, inputs, command):
    """perfbench times a layer by wrapping its module attribute; a call
    through an imported name would run untimed. Every layer the command uses
    must be reached through the wrapped attribute."""
    layers = _layer_functions()
    argv, expected = COMMANDS[command]
    assert expected <= layers
    calls = dict.fromkeys(layers, 0)

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for module_name, attribute in layers:
        module = importlib.import_module(f"ergokit.{module_name}")
        monkeypatch.setattr(module, attribute,
                            counted((module_name, attribute), getattr(module, attribute)))
    assert cli.main([arg.format(**inputs) for arg in argv] + ["--out", inputs["out"]]) == 0
    assert capsys.readouterr().err == ""
    reached = {key for key, count in calls.items() if count}
    assert reached == expected | {("cli", "main")}


@pytest.mark.parametrize("argv, makes", [
    (["score", "{csv}"], (ingest, "parse_imu_joint_csv")),
    (["score", "{stream}", "--kind", "keypoints", "--rate", "20"],
     (geometry, "compute_angle_series")),
], ids=["imu-csv", "keypoints-resampled"])
def test_score_frees_series_and_timeline_before_writing(monkeypatch, inputs, argv, makes):
    """While session.json is rendered, nothing holds the series that was
    loaded (or resampled) nor the timeline scored from it."""
    refs, alive = [], []

    def kept(module, attribute):
        original = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            refs.append(weakref.ref(result))
            return result
        monkeypatch.setattr(module, attribute, wrapper)

    kept(*makes)
    kept(ingest, "resample")
    kept(rula, "score_timeline")
    emit = reporting.emit_session_report

    def emit_checked(report, fmt):
        if fmt == "structured":
            gc.collect()
            alive.extend(ref() is not None for ref in refs)
        return emit(report, fmt)

    monkeypatch.setattr(reporting, "emit_session_report", emit_checked)
    assert cli.main([arg.format(**inputs) for arg in argv] + ["--out", inputs["out"]]) == 0
    assert len(refs) == (3 if "--rate" in argv else 2)
    assert alive == [False] * len(refs)
