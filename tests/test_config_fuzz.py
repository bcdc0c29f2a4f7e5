"""Mutated copies of the shipped RULA config, through ``config_from_dict``,
``ergokit check-config`` and ``ergokit score --config``.

Each example replaces a few nodes of the shipped config (any section, key,
list or cell) with a list, an object, a string, a float, a bool, null or a
huge integer, or deletes them. ``config_from_dict`` must build the config,
holding the integers it wrote, or raise ConfigError with a nonempty list of
problem strings, and raise nothing else; ``check-config`` must exit 0
exactly when it builds, or nonzero with exactly one ``ergokit: error:``
line, and never raise. A built config must score any frame, under any flags
of -3..8, and ``score --config`` must keep the same one-line error contract.

Mutated copies of the shipped angle definitions go through
``parse_angle_definitions`` and ``compute_angle_series``, which may raise
only ``ErgokitError``.
"""
import contextlib
import copy
import io
import json
from importlib import resources

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ergokit.cli import main
from ergokit.errors import ConfigError, ErgokitError
from ergokit.geometry import compute_angle_series, parse_angle_definitions
from ergokit.ingest import format_imu_joint_csv
from ergokit.motion import AnnotationFlags, JointChannel
from ergokit.rula import config_from_dict
from ergokit.synthetic import work_cycle_recording

from recordings import config_problems, neutral_angle_series, score_any_flags

SHIPPED = json.loads(resources.files("ergokit.data").joinpath("rula_default.json").read_text())
DELETE = object()
HUGE = (10**9, -10**9, 10**400, -10**400)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


# Every node below the root, grouped by top-level key so that the small
# sections are drawn as often as the large tables.
PATHS = {section: [p for p in _paths(SHIPPED) if p[:1] == (section,)] for section in SHIPPED}
NODES = st.builds(lambda section, i: PATHS[section][i % len(PATHS[section])],
                  st.sampled_from(sorted(PATHS)), st.integers(0, 999))
VALUES = st.one_of(
    st.just(DELETE),
    st.lists(st.one_of(st.none(), st.integers(-2, 9), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.sampled_from(["left", "right", "axial", "x"]), st.integers(0, 8),
                    max_size=3),
    st.text(max_size=4),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(HUGE),
)


def _mutated(mutations, base: dict = SHIPPED) -> dict:
    raw = copy.deepcopy(base)
    for path, value in mutations:
        parent = raw
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (IndexError, KeyError, TypeError):
            pass  # an earlier mutation removed or replaced this node
    return raw


def _run(argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _check_config(path) -> tuple[int, list[str]]:
    return _run(["check-config", str(path)])


def _integer_slots(raw: dict):
    """Every value a valid config must write as a JSON integer: table cells,
    range scores, position adjusts and band bounds."""
    for name in ("table_a", "table_b", "table_c"):
        yield from np.array(raw[name], dtype=object).ravel()
    for rule in raw["range"].values():
        yield from (score for _, _, score in rule["intervals"])
    yield from (rule["adjust"] for rule in raw["position"])
    for bounds in raw["bands"].values():
        yield from bounds


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(st.tuples(NODES, VALUES), min_size=1, max_size=4))
@example(mutations=[(("bands", "low", 1), 10**9)])
@example(mutations=[(("bands", "very_high", 1), 10**400)])
@example(mutations=[(("range", "arm", "channels"), ["left", "right"])])
@example(mutations=[(("range", "neck", "channels"), 3)])
@example(mutations=[(("range", "arm", "intervals", 1, 0), "-20")])
@example(mutations=[(("range", "trunk", "intervals", 2, 1), 10**400)])
@example(mutations=[(("position", 0, "joint"), ["arm"])])
@example(mutations=[(("position", 0, "threshold"), -10**400)])
def test_mutated_config_is_reported_not_raised(tmp_path_factory, mutations):
    raw = _mutated(mutations)
    problems = config_problems(raw)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)

    path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
    path.write_text(json.dumps(raw))
    code, err = _check_config(path)
    if code == 0:
        assert not problems and not err
    else:
        assert problems
        assert len(err) == 1 and err[0].startswith("ergokit: error:")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(st.tuples(NODES, VALUES), min_size=1, max_size=4),
       angles=st.dictionaries(st.sampled_from(list(JointChannel)), st.floats()),
       flags=st.builds(AnnotationFlags, *[st.integers(-3, 8)] * 5))
@example(mutations=[(("range", "arm", "intervals", 1, 2), 10**20)], angles={},
         flags=AnnotationFlags())
@example(mutations=[(("range", "neck", "intervals", 0, 2), 10**400)], angles={},
         flags=AnnotationFlags())
@example(mutations=[(("range", "trunk", "intervals", 0, 2), True)], angles={},
         flags=AnnotationFlags())
@example(mutations=[(("position", 0, "adjust"), True)], angles={}, flags=AnnotationFlags())
@example(mutations=[(("bands", "negligible", 0), True)], angles={}, flags=AnnotationFlags())
def test_mutated_config_builds_exactly_when_valid(tmp_path_factory, mutations, angles, flags):
    raw = _mutated(mutations)
    try:
        config = config_from_dict(raw)
    except ConfigError as exc:
        problems = exc.violations
        assert problems
    else:
        problems = []
        assert all(type(value) is int for value in _integer_slots(raw))
        score_any_flags(angles, flags, config)

    base = tmp_path_factory.getbasetemp()
    recording = base / "fuzz_recording.csv"
    if not recording.exists():
        recording.write_text(format_imu_joint_csv(neutral_angle_series(20, 100.0)))
    path = base / "fuzzed_score_config.json"
    path.write_text(json.dumps(raw))
    code, err = _run(["score", str(recording), "--config", str(path),
                      "--out", str(base / "fuzz_out")])
    if problems:
        assert code != 0 and len(err) == 1 and err[0].startswith("ergokit: error:")
    else:
        assert code == 0 and not err


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _strings(child)


DEFINITIONS = json.loads(
    resources.files("ergokit.data").joinpath("angle_definitions.json").read_text())
DEFINITION_PATHS = [p for p in _paths(DEFINITIONS) if p[:1] == ("definitions",)]
# Every name the shipped definitions use (channels, landmarks, planes, axes,
# baselines), so that a mutation may also swap one valid name for another.
NAMES = st.sampled_from(sorted(set(_strings(DEFINITIONS["definitions"]))))
DEFINITION_VALUES = st.one_of(
    VALUES,
    NAMES,
    st.lists(st.one_of(NAMES, st.lists(NAMES, max_size=2)), max_size=3),
    st.fixed_dictionaries({"axis": st.one_of(NAMES, st.text(max_size=3),
                                             st.lists(NAMES, max_size=2))}),
)
RECORDING = work_cycle_recording(n_frames=20)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(DEFINITION_PATHS), DEFINITION_VALUES),
                          min_size=1, max_size=4))
@example(mutations=[(("definitions", 0, "a"), {"axis": "bogus"})])
@example(mutations=[(("definitions", 0, "a"), {"axis": ["x"]})])
@example(mutations=[(("definitions", 1, "b", 0), [])])
def test_mutated_angle_definitions_raise_only_ergokit_errors(mutations):
    raw = _mutated(mutations, DEFINITIONS)
    try:
        compute_angle_series(RECORDING, parse_angle_definitions(raw))
    except ErgokitError:
        pass
