"""Each workload's output check accepts the program's real output and
rejects a deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checkers.py -q

Inputs are the benchmark's own generators at reduced sizes.
"""
import json

import pytest

import gen
import workloads


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(gen, "IMU_SECONDS", 30)
    monkeypatch.setattr(gen, "IMU_ANNOTATIONS", 30)
    monkeypatch.setattr(gen, "IMU_GAPS", 30)
    monkeypatch.setattr(gen, "KP_FRAMES", 150)
    monkeypatch.setattr(gen, "KP_DROPPED", 6)
    monkeypatch.setattr(gen, "VAL_SECONDS", 300)


def program_output(workload, tmp_path, seed=7):
    workloads.import_program()
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir()
    gen.generate(workload, seed, inputs)
    state = workloads.load(workload, inputs)
    expected = workloads.expected(workload, inputs, state)
    return workloads.run_op(workload, state, out), expected


def test_score_imu_check_rejects_one_changed_sample_score(small_sizes, tmp_path):
    output, expected = program_output("score-imu", tmp_path)
    assert workloads.check_score_imu(output, expected) == []

    doc = json.loads(output)
    right = doc["scores"]["right"]
    right[len(right) // 2] = right[len(right) // 2] % 7 + 1
    problems = workloads.check_score_imu(json.dumps(doc), expected)
    assert len(problems) == 1 and problems[0].startswith("right score differs")


def test_score_keypoints_check_rejects_summary_off_by_001(small_sizes, tmp_path):
    output, expected = program_output("score-keypoints", tmp_path)
    assert workloads.check_score_keypoints(output, expected) == []

    doc = json.loads(output)
    doc["channel_summaries"]["lumbar_rotation"]["mean"] += 0.01
    problems = workloads.check_score_keypoints(json.dumps(doc), expected)
    assert len(problems) == 1 and problems[0].startswith("lumbar_rotation mean")


def test_validate_check_rejects_lag_off_by_one_sample(small_sizes, tmp_path):
    output, expected = program_output("validate", tmp_path)
    assert workloads.check_validate(output, expected) == []

    doc = json.loads(output["structured"])
    doc["lag_samples"][1] += 1
    corrupted = {**output, "structured": json.dumps(doc)}
    problems = workloads.check_validate(corrupted, expected)
    assert len(problems) == 1 and problems[0].startswith("lags")
