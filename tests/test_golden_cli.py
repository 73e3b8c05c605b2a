"""Golden CLI artifacts: every command's JSON output, pinned.

tests/golden_cli.json holds, for each case, the command line, its config
and the JSON artifact the command wrote when the file was recorded.  The
test reruns each command and compares the artifact: every number within
1e-12 relative, every string, key and length exactly.  A change that is
meant to move an artifact re-records the file with

    PYTHONPATH=src python tests/test_golden_cli.py

VERIFY_SHA256 pins verify.json byte for byte at 10^4 samples for seeds
0-5.  verify's records and the object API call the same plain-number
functions, so a change to any shared formula moves these bytes even where
it stays within the golden tolerance.  The digests were recorded with
Python 3.11 and numpy 2.4 on x86-64 Linux; another platform's libm may
move the last bits.
"""

import hashlib
import json
import math
import pathlib
import tempfile

import pytest

from diskflow import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
REL_TOL = 1e-12

_TAU_B = {"re": math.cos(0.7), "im": math.sin(0.7)}
_TAU_P = {"re": math.cos(1.1), "im": math.sin(1.1)}
_TAU_CP = {"re": math.cos(0.4), "im": math.sin(0.4)}

# (name, argv, config, artifact file name)
CASES = [
    ("region-interior", ["region"], {
        "kind": "interior", "tau": {"re": 0.3, "im": 0.4}, "sigmas": [0.5, 2.0],
        "lambdas": [-1.0, -0.7], "zeta": {"re": 0.15, "im": 0.12},
    }, "region.json"),
    ("region-origin", ["region"], {
        "kind": "origin", "tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0, 2.5],
        "lambdas": [-1.5, -0.5], "omega": {"re": 0.3, "im": 0.1},
    }, "region.json"),
    ("region-boundary", ["region"], {
        "kind": "boundary", "tau": _TAU_B, "sigmas": [2.0, 4.0],
        "lambdas": [-1.2, -0.8], "zeta": {"re": 0.2, "im": 0.15},
    }, "region.json"),
    ("region-parabolic", ["region"], {
        "kind": "parabolic", "tau": _TAU_P, "sigmas": [3.0],
        "lambdas": [-1.0], "zeta": {"re": 0.15, "im": 0.3},
    }, "region.json"),
    ("flow", ["flow", "--format", "json"], {
        "generator": {
            "tau": {"re": 0.0, "im": 0.2}, "sigmas": [1.0], "lambdas": [-1.0],
            "p": {"atoms": [{"theta": 4.0, "mass": 0.5}], "gamma": 0.3},
        },
        "z0": {"re": 0.4, "im": -0.3}, "t": 0.5, "samples": 50,
    }, "flow.json"),
    ("counterexample", ["counterexample", "--format", "json"], None, "counterexample.json"),
    ("cowen-pommerenke-interior", ["cowen-pommerenke", "--seed", "7"], {
        "tau": {"re": 0.3, "im": -0.2}, "sigmas": [0.5, 2.5], "target": [2.0, 3.0],
        "fields": 8, "sweep": 4,
    }, "cowen_pommerenke.json"),
    ("cowen-pommerenke-boundary", ["cowen-pommerenke", "--seed", "11"], {
        "tau": _TAU_CP, "sigmas": [2.0, 4.5], "target": [1.8, 2.6], "fields": 8,
    }, "cowen_pommerenke.json"),
    ("verify", ["verify", "--samples", "400", "--seed", "0"], None, "verify.json"),
]


def run_case(argv, config, artifact, out: pathlib.Path):
    """Run one command into ``out``; return its exit code and artifact."""
    args = list(argv) + ["--out", str(out)]
    if config is not None:
        path = out / "config.json"
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    code = cli.main(args)
    return code, json.loads((out / artifact).read_text())


def assert_same(got, expected, where="artifact"):
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        assert got == expected, where
    elif isinstance(expected, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - expected) <= REL_TOL * max(abs(got), abs(expected)), (
            f"{where}: {got!r} != {expected!r}"
        )
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_same(g, e, f"{where}[{i}]")
    else:
        assert isinstance(got, dict) and sorted(got) == sorted(expected), where
        for key in expected:
            assert_same(got[key], expected[key], f"{where}.{key}")


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_cli_artifact_matches_golden(case, tmp_path):
    name, argv, config, artifact = case
    golden = json.loads(GOLDEN.read_text())[name]
    assert golden["argv"] == argv and golden["config"] == config
    code, got = run_case(argv, config, artifact, tmp_path)
    assert code == golden["exit"]
    assert_same(got, golden["artifact"], name)


VERIFY_SHA256 = {
    0: "2a1c82d988224510f08c15e338ab33de904cce8afca6313d60c06ea594749797",
    1: "59adf3f79b74a387fc7492cc1d33cc91769b725d5b96eace1f2e46be5c0ff20c",
    2: "98f598e1288dc428c73c6c64eb52f7c394ac5eadbdf9c7d583dfd1fed45b630b",
    3: "3018e6ce17a7976acba5ff600e753a2e465fe2982f18b5f5289afab940aec786",
    4: "97370913532e467daf2f8bfd581a9a86b9aeb114790c5184d91931230b27a914",
    5: "582c12733ab31a0d2652ee8a2b4cb6315088b6dbdec48b1ea9f6fec9a0fe470c",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
def test_verify_json_bytes_are_pinned(seed, tmp_path):
    argv = ["verify", "--samples", "10000", "--seed", str(seed), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    digest = hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest()
    assert digest == VERIFY_SHA256[seed]


def record() -> None:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, config, artifact in CASES:
            code, got = run_case(argv, config, artifact, pathlib.Path(tmp) / name)
            golden[name] = {"argv": argv, "artifact": got, "config": config, "exit": code}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
