"""Golden CLI artifacts: every command's JSON output, pinned.

tests/golden_cli.json holds, for each case, the command line, its config
and the JSON artifact the command wrote when the file was recorded.  The
test reruns each command and compares the artifact: every number within
1e-12 relative, every string, key and length exactly.  A change that is
meant to move an artifact re-records its cases, by name, with

    PYTHONPATH=src python tests/test_golden_cli.py verify flow

which leaves every other entry byte for byte as it was; with no names it
re-records every case.

VERIFY_SHA256 pins verify.json byte for byte at 10^4 samples for seeds
0-5, and VERIFY_1E5_SHA256 at 10^5 samples for seed 0: 7 blocks of
cli.VERIFY_BLOCK, the last of them 1696 samples.  verify's records and the
object API call the same plain-number functions, so a change to any shared
formula moves these bytes even where it stays within the golden tolerance,
and so does a change to the order in which verify's column draws take the
random stream, to the stream a seed selects (cli._Draws) or to the block
size.  numpy picks its
float64 loops (exp, abs, arctan2, ...) by the CPU it runs on, and the
AVX-512 ones differ from libm in the last bit on a few percent of inputs,
so verify, here and in its golden case, runs in a child process with
every dispatched CPU feature turned off: each x86-64 host then takes the
same baseline loops.  The digests were recorded so with Python 3.11 and
numpy 2.4 on x86-64 Linux; another numpy build or another platform's libm
may still move the last bits.
"""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
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


def _baseline_env() -> dict[str, str]:
    """os.environ with numpy's SIMD dispatch held at its build baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(found))


def run_verify(args) -> int:
    """The exit code of ``diskflow verify`` run in a child on _baseline_env."""
    argv = [sys.executable, "-m", "diskflow.cli", "verify", *args]
    return subprocess.run(argv, env=_baseline_env(), stdout=subprocess.DEVNULL).returncode


def run_case(argv, config, artifact, out: pathlib.Path):
    """Run one command into ``out``; return its exit code and artifact."""
    args = list(argv) + ["--out", str(out)]
    if config is not None:
        path = out / "config.json"
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    code = run_verify(args[1:]) if args[0] == "verify" else cli.main(args)
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
    0: "6bae2bac40e4c2a1cdab215964910f030172eabb0fa1d85f36c6538a40d66970",
    1: "84b20ef25073d93dfd59217736cf86028d0c3760d9e9fb46ce15409c98f7d1a1",
    2: "182833dce2b0001c049220f14eb4fe7d52be1e02c5045dd5b6e073bb72eba985",
    3: "7723a91cd810d7ce420cce1bb9e600bf4d561a1764829227f3c3463b166489ee",
    4: "b6799e15ab9c30c307ebcdaa82070b59b060481764ff17ed000c326a7c290810",
    5: "57cd78608cbf63731f8f8f438934b32fd488f669dd24bb32f7926e31aa7ec533",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
def test_verify_json_bytes_are_pinned(seed, tmp_path):
    assert run_verify(["--samples", "10000", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest()
    assert digest == VERIFY_SHA256[seed]


VERIFY_1E5_SHA256 = "5676a342a93ee111af8c54a4ea4a1e39ec8f5b651f1334ebfb2fec8a1b9a8a09"


def test_verify_json_bytes_are_pinned_at_1e5_samples(tmp_path):
    assert 100_000 - 6 * cli.VERIFY_BLOCK == 1696
    assert run_verify(["--samples", "100000", "--seed", "0", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest()
    assert digest == VERIFY_1E5_SHA256


def record(*names: str) -> None:
    """Re-record the named cases of GOLDEN, or all of them if none is named."""
    known = [case[0] for case in CASES]
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown cases {unknown}; the cases are {known}")
    golden = json.loads(GOLDEN.read_text()) if names else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, config, artifact in CASES:
            if names and name not in names:
                continue
            code, got = run_case(argv, config, artifact, pathlib.Path(tmp) / name)
            golden[name] = {"argv": argv, "artifact": got, "config": config, "exit": code}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(*sys.argv[1:])
