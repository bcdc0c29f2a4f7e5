"""Mutated copies of the shipped RULA config, through ``validate_rula_config``
and ``ergokit check-config``.

Each example replaces a few nodes of the shipped config (any section, key,
list or cell) with a list, an object, a string, a float, a bool, null or a
huge integer, or deletes them. The validator must return a list of problem
strings and never raise; ``check-config`` must exit 0, or nonzero with
exactly one ``ergokit: error:`` line, and never raise.
"""
import contextlib
import copy
import io
import json
from importlib import resources

from hypothesis import example, given, settings, strategies as st

from ergokit.cli import main
from ergokit.rula import validate_rula_config

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


def _mutated(mutations) -> dict:
    raw = copy.deepcopy(SHIPPED)
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


def _check_config(path) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check-config", str(path)])
    return code, err.getvalue().splitlines()


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
    problems = validate_rula_config(raw)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)

    path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
    path.write_text(json.dumps(raw))
    code, err = _check_config(path)
    if code == 0:
        assert not problems and not err
    else:
        assert problems
        assert len(err) == 1 and err[0].startswith("ergokit: error:")
