"""Config fuzz: mutated golden configs end with a documented exit code.

Each example takes one config of tests/golden_cli.json and mutates it once
at any depth: it drops a key or list entry, renames a key, or replaces a
value with a small JSON value.  cli.main must then return 0, 2, 3 or 4,
let no exception escape, and return within MUTATION_SECONDS: every solve is
bounded by the semiflow's right-hand-side budget, so a hang shows as a
failure, not as a stuck suite.
"""

import contextlib
import io
import json
import pathlib
import tempfile
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskflow import cli

GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_cli.json").read_text())
CONFIGS = sorted(name for name, case in GOLDEN.items() if case["config"] is not None)
MUTATION_SECONDS = 20.0

SMALL_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4), st.just([]), st.just({}),
    st.just("0.5"), st.just(10**400), st.just([[0.0]]),
)


def key_paths(node, prefix=()):
    """The path of ``node`` and of every value below it, depth first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from key_paths(child, prefix + (key,))


def mutated(config, data):
    config = json.loads(json.dumps(config))
    path = data.draw(st.sampled_from(list(key_paths(config))), label="path")
    mutation = data.draw(st.sampled_from(("drop", "rename", "replace")), label="mutation")
    if not path:
        return data.draw(SMALL_JSON, label="config")
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "drop":
        del parent[key]
    elif mutation == "rename" and isinstance(parent, dict):
        parent[data.draw(st.text(min_size=1, max_size=6), label="new key")] = parent.pop(key)
    else:
        parent[key] = data.draw(SMALL_JSON, label="value")
    return config


@pytest.mark.parametrize("name", CONFIGS)
@given(data=st.data())
def test_mutated_golden_config_exits_with_a_documented_code(name, data):
    case = GOLDEN[name]
    config = mutated(case["config"], data)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = case["argv"] + ["--config", str(path), "--out", str(pathlib.Path(tmp) / "out")]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4), config
    assert elapsed < MUTATION_SECONDS, (elapsed, config)
