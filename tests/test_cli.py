"""End-to-end command line tests: file outputs, determinism, exit codes."""

import json
import math
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "diskflow.cli"]


def run(*argv, cwd=None, timeout=None):
    return subprocess.run(
        CLI + list(argv), capture_output=True, text=True, cwd=cwd, timeout=timeout
    )


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def interior_region_config(tmp_path):
    return write_json(
        tmp_path / "cfg_region.json",
        {"kind": "interior", "tau": {"re": 0.5, "im": 0.0}, "sigmas": [0.0], "lambdas": [-1.0]},
    )


def test_region_interior_half_case(tmp_path, interior_region_config):
    out = tmp_path / "out"
    res = run("region", "--config", interior_region_config, "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "region.json").read_text())
    assert report["kind"] == "interior"
    assert report["base"]["type"] == "disk"
    assert report["base"]["center"]["re"] == pytest.approx(2.0)
    assert report["base"]["center"]["im"] == pytest.approx(0.0)
    assert report["base"]["radius"] == pytest.approx(2.0)
    assert report["refined"] is None


def test_region_origin_two_point_case(tmp_path):
    cfg = write_json(
        tmp_path / "cfg_region.json",
        {
            "kind": "origin",
            "tau": {"re": 0.0, "im": 0.0},
            "sigmas": [0.0, math.pi],
            "lambdas": [-1.0, -1.0],
        },
    )
    out = tmp_path / "out"
    res = run("region", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "region.json").read_text())
    assert report["base"]["center"]["re"] == pytest.approx(0.5)
    assert report["base"]["radius"] == pytest.approx(0.5)


def test_region_csv_and_svg_outputs(tmp_path, interior_region_config):
    out = tmp_path / "out"
    res = run(
        "region",
        "--config",
        interior_region_config,
        "--out",
        str(out),
        "--format",
        "csv",
        "--format",
        "svg",
    )
    assert res.returncode == 0, res.stderr
    lines = (out / "region.csv").read_text().splitlines()
    assert lines[0] == "param,re,im"
    assert len(lines) == 721  # header + samples
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(4.0)  # center 2 + radius 2 at angle 0
    svg = (out / "region.svg").read_text()
    assert 'viewBox="-1.2 -1.2 2.4 2.4"' in svg
    assert 'stroke-width="0.01"' in svg
    assert svg.count("<path") == 2  # unit circle + region boundary


# Registered before main runs, the probe is the last atexit handler to run.
_FREEZE_PROBE = """
import atexit, gc, sys
from diskflow import cli

atexit.register(lambda: print(gc.get_freeze_count() > 0))
how, argv = sys.argv[1], sys.argv[2:]
if how == "program":
    sys.argv = ["diskflow", *argv]
    sys.exit(cli.main())
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("how, frozen", [("program", "True"), ("call", "False")])
def test_only_a_program_run_freezes_its_heap_at_exit(tmp_path, interior_region_config, how, frozen):
    out = tmp_path / "out"
    argv = ["region", "--format", "csv", "--config", interior_region_config, "--out", str(out)]
    res = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, how, *argv], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [f"region kind=interior -> {out / 'region.csv'}", frozen]
    assert len((out / "region.csv").read_text().splitlines()) == 721


def test_region_refined_interval(tmp_path):
    cfg = write_json(
        tmp_path / "cfg_region.json",
        {
            "kind": "boundary",
            "tau": {"re": 1.0, "im": 0.0},
            "sigmas": [math.pi],
            "lambdas": [-1.0],
            "zeta": {"re": 0.2, "im": 0.05},
        },
    )
    out = tmp_path / "out"
    res = run("region", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "region.json").read_text())
    assert report["refined"]["type"] == "interval"
    assert report["refined"]["lo"] == 0.0
    assert report["refined"]["hi"] > 0.0


def test_flow_outputs_against_oracle(tmp_path):
    cfg = write_json(
        tmp_path / "cfg_flow.json",
        {
            "generator": {
                "tau": {"re": 0.0, "im": 0.0},
                "sigmas": [0.0],
                "lambdas": [-2.0],
                "p": {"atoms": [], "gamma": 0.0},
            },
            "z0": {"re": 0.5, "im": 0.0},
            "t": 0.1,
        },
    )
    out = tmp_path / "out"
    res = run("flow", "--config", cfg, "--out", str(out), "--format", "csv", "--format", "json")
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "flow.json").read_text())
    assert report["endpoint"]["re"] == pytest.approx(0.43220718724561547, abs=1e-8)
    assert report["endpoint"]["im"] == pytest.approx(0.0, abs=1e-10)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re,im,dre,dim"
    assert len(lines) == 201
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(0.1)
    assert float(last[1]) == pytest.approx(report["endpoint"]["re"], abs=1e-12)


def test_verify_exit_zero_and_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ("verify", "--samples", "200", "--seed", "11")
    res1 = run(*args, "--out", str(out1))
    res2 = run(*args, "--out", str(out2))
    assert res1.returncode == 0, res1.stdout + res1.stderr
    assert res2.returncode == 0
    assert res1.stdout == res2.stdout
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
    report = json.loads((out1 / "verify.json").read_text())
    assert sum(report["violations"].values()) == 0
    assert report["samples"] == 200
    assert set(report["checked"]) >= {"origin_in_Z", "spectral_in_range"}


def test_verify_passes_at_extreme_tolerance(tmp_path):
    # slacks are nonnegative up to sign, so even tolerance 1e-15 passes
    res = run(
        "verify", "--samples", "200", "--seed", "3", "--tolerance", "1e-15",
        "--out", str(tmp_path),
    )
    assert res.returncode == 0, res.stdout


def test_verify_reads_large_roundoff_as_roundoff(tmp_path, monkeypatch):
    # sample 6690 of the per-sample stream at seed 4 (verify's stream before
    # it drew columns, kept as verify_reference.random_spec):
    # hyperbolic_window compares two sides near 5.7e5 and
    # lands 2.3e-10 (4e-16 relative) below zero, past the absolute floor
    # 1e-10 but inside the floor scaled by the sides
    import numpy as np

    from verify_reference import columns_from_raw, random_spec, raw_from_spec

    from diskflow import cli
    from diskflow.cli import SIGN_VIOLATION_FLOOR, _sign_counts
    from diskflow.value_regions import REGIMES, _column_records, _spec_records

    rng = np.random.default_rng(4)
    for i in range(6691):
        spec = random_spec(rng, REGIMES[i % len(REGIMES)])
    raw = raw_from_spec(spec)
    assert REGIMES[6690 % len(REGIMES)] == "boundary_hyperbolic"
    records = {name: (lhs, rhs) for name, lhs, rhs in _spec_records(spec)}
    lhs, rhs = records["hyperbolic_window"]
    assert lhs > 5e5 and rhs > 5e5
    assert rhs - lhs < -SIGN_VIOLATION_FLOOR
    assert abs(rhs - lhs) < 1e-15 * lhs
    floors = SIGN_VIOLATION_FLOOR, SIGN_VIOLATION_FLOOR
    assert all(_sign_counts(l, r, *floors)[1:] == (0, 0) for l, r in records.values())
    # the same generator as a one-row column block gives the same sides,
    # which the column test reads as roundoff too
    block = columns_from_raw(raw)
    columns = {
        name: (l[0], r[0]) for name, l, r, rows in _column_records(block) if rows is True or rows[0]
    }
    assert sorted(columns) == sorted(records)
    col_lhs, col_rhs = columns["hyperbolic_window"]
    assert abs(col_lhs - lhs) <= 1e-12 * lhs and abs(col_rhs - rhs) <= 1e-12 * rhs
    assert _sign_counts(col_lhs, col_rhs, *floors)[1:] == (0, 0)
    # verify counts it as neither a violation nor a warning
    monkeypatch.setattr(cli, "_draw_columns", lambda rng, regime, rows: block)
    assert cli.main(["verify", "--samples", "1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["checked"]["hyperbolic_window"] == 1
    assert report["warnings"] == {} and report["violations"] == {}


def test_verify_genuine_violation_exits_4(tmp_path, monkeypatch):
    import numpy as np

    from diskflow import cli

    def violated(columns):
        rows = len(columns[1])
        return [("spectral_in_range", np.full(rows, 0.5), np.full(rows, 0.25), True)]

    monkeypatch.setattr(cli, "_column_records", violated)
    out = tmp_path / "out"
    assert cli.main(["verify", "--samples", "4", "--seed", "0", "--out", str(out)]) == 4
    report = json.loads((out / "verify.json").read_text())
    assert report["violations"] == {"spectral_in_range": 4}


def test_verify_blocks_keep_the_round_robin_regimes(tmp_path):
    # verify draws in blocks of VERIFY_BLOCK samples; sample i keeps regime
    # REGIMES[i % 4] across block edges, so each record's count follows the
    # regimes that carry it
    from diskflow import cli
    from diskflow.value_regions import REGIMES

    samples = 2 * cli.VERIFY_BLOCK + 3
    assert cli.main(["verify", "--samples", str(samples), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    interior, origin, hyperbolic, parabolic = (
        len(range(k, samples, len(REGIMES))) for k in range(len(REGIMES))
    )
    assert REGIMES == ("interior", "origin", "boundary_hyperbolic", "boundary_parabolic")
    boundary = hyperbolic + parabolic
    assert report["checked"] == {
        "spectral_in_range": samples,
        "origin_in_Z": samples - origin,
        "origin_ratio_real": interior + boundary,
        "spectral_reciprocal_floor": interior + origin,
        "curvature_window": origin,
        "harnack_lower": interior,
        "harnack_upper": interior,
        "spectral_tilt": interior,
        "boundary_spectral_cap": boundary,
        "hyperbolic_window": hyperbolic,
        "parabolic_floor": parabolic,
        "parabolic_cap": parabolic,
    }
    assert report["violations"] == {}


# Spawned from a bare interpreter: a child's ru_maxrss starts from the RSS
# of the process it forks from, and this one stays below verify's own.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "diskflow.cli", *sys.argv[1:]], check=True,
               stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_verify_memory_does_not_grow_with_samples(tmp_path):
    def peak_kib(samples):
        argv = ["verify", "--samples", str(samples), "--out", str(tmp_path / str(samples))]
        res = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True, text=True, timeout=300
        )
        assert res.returncode == 0, res.stderr
        return int(res.stdout)

    assert peak_kib(200000) - peak_kib(1000) < 5 * 1024


def test_verify_seed_changes_output(tmp_path):
    res1 = run("verify", "--samples", "100", "--seed", "1", "--out", str(tmp_path / "a"))
    res2 = run("verify", "--samples", "100", "--seed", "2", "--out", str(tmp_path / "b"))
    assert res1.stdout != res2.stdout


def _seeded_command(tmp_path, command):
    """The argv of a short run of a seeded command, config included."""
    if command == "verify":
        return ["verify", "--samples", "200"]
    cfg = write_json(
        tmp_path / "cfg_cp.json",
        {"tau": {"re": 0.3, "im": -0.2}, "sigmas": [0.5, 2.5], "target": [2.0, 3.0],
         "fields": 8, "sweep": 0},
    )
    return ["cowen-pommerenke", "--config", cfg]


@pytest.mark.parametrize("command", ["verify", "cowen-pommerenke"])
def test_a_negative_seed_exits_2(tmp_path, command):
    # random.Random(-1) would draw the stream of seed 1: the CLI refuses it
    out = tmp_path / "out"
    res = run(*_seeded_command(tmp_path, command), "--seed", "-1", "--out", str(out))
    assert res.returncode == 2
    assert "expected non-negative integer" in res.stderr
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["verify", "cowen-pommerenke"])
def test_a_seed_writes_the_same_bytes_twice(tmp_path, command):
    argv = _seeded_command(tmp_path, command)
    artifact = "verify.json" if command == "verify" else "cowen_pommerenke.json"
    written = {}
    for name, seed in [("a", 2**64), ("b", 2**64), ("c", 0)]:
        res = run(*argv, "--seed", str(seed), "--out", str(tmp_path / name))
        assert res.returncode == 0, res.stderr
        written[name] = (tmp_path / name / artifact).read_bytes()
    # a seed of 2**64 and beyond is accepted, and selects its own stream
    assert written["a"] == written["b"]
    assert written["a"] != written["c"]


def test_cowen_pommerenke_report(tmp_path):
    cfg = write_json(
        tmp_path / "cfg_cp.json",
        {
            "tau": {"re": 0.0, "im": 0.0},
            "sigmas": [0.0, math.pi],
            "target": [math.e, math.e],
            "fields": 16,
            "sweep": 8,
        },
    )
    out = tmp_path / "out"
    res = run(
        "cowen-pommerenke", "--config", cfg, "--out", str(out), "--seed", "5",
        "--format", "json", "--format", "csv", "--format", "svg",
    )
    assert res.returncode == 0, res.stdout + res.stderr
    report = json.loads((out / "cowen_pommerenke.json").read_text())
    assert report["target"] == [math.e, math.e]
    assert report["region"]["center"] == pytest.approx(0.5)
    assert report["region"]["radius"] == pytest.approx(0.5)
    assert len(report["points"]) == 1 + 8 + 16
    for p in report["points"]:
        assert p["slack"] >= -1e-8
    # the extremal field with c = 0 sits on the far edge of the disk
    assert report["points"][0]["re"] == pytest.approx(1.0, abs=1e-10)
    assert (out / "cowen_pommerenke.csv").read_text().splitlines()[0] == "param,re,im"
    assert "<svg" in (out / "cowen_pommerenke.svg").read_text()


def test_cowen_pommerenke_boundary_tau(tmp_path):
    cfg = write_json(
        tmp_path / "cfg_cp.json",
        {
            "tau": {"re": 1.0, "im": 0.0},
            "sigmas": [math.pi / 2, math.pi],
            "target": [math.e, math.e],
            "fields": 8,
        },
    )
    out = tmp_path / "out"
    res = run("cowen-pommerenke", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    report = json.loads((out / "cowen_pommerenke.json").read_text())
    # interval [0, 1/2] reported as center/radius
    assert report["region"]["center"] == pytest.approx(0.25)
    assert report["region"]["radius"] == pytest.approx(0.25)
    assert report["points"][0]["re"] == pytest.approx(0.5, abs=1e-10)
    assert report["points"][0]["im"] == pytest.approx(0.0, abs=1e-12)


def test_cowen_pommerenke_impossible_tolerance_exits_4(tmp_path):
    cfg = write_json(
        tmp_path / "cfg_cp.json",
        {
            "tau": {"re": 0.0, "im": 0.0},
            "sigmas": [0.0],
            "target": [math.e],
            "fields": 2,
            "sweep": 2,
        },
    )
    # demanding slack >= 1 everywhere cannot hold on the boundary point
    res = run(
        "cowen-pommerenke", "--config", cfg, "--out", str(tmp_path), "--tolerance", "-1",
    )
    assert res.returncode == 4


def test_counterexample_table(tmp_path):
    res = run("counterexample", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "counterexample.csv").read_text().splitlines()
    assert lines[0] == "kind,param,value"
    decay = [l.split(",") for l in lines[1:] if l.startswith("decay")]
    div = [l.split(",") for l in lines[1:] if l.startswith("divergence")]
    assert len(decay) == 6 and len(div) == 4
    vals = [float(r[2]) for r in decay]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.2
    for row in div:
        delta = float(row[1])
        assert float(row[2]) == pytest.approx(math.log(math.log(1.0 / delta)), abs=1e-9)


def test_missing_config_exits_2(tmp_path):
    res = run("region", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert res.returncode == 2


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run("region", "--config", str(bad), "--out", str(tmp_path))
    assert res.returncode == 2


def test_domain_error_exits_3(tmp_path):
    cfg = write_json(
        tmp_path / "cfg_region.json",
        {"kind": "interior", "tau": {"re": 0.5, "im": 0.0}, "sigmas": [0.0], "lambdas": [1.0]},
    )
    res = run("region", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 3


_SUBNORMAL = {"re": 1e-320, "im": 0.0}


@pytest.mark.parametrize(
    "kind, tau, observed",
    [("interior", 0.5, "zeta"), ("parabolic", 1.0, "zeta"), ("boundary", 1.0, "zeta"),
     ("origin", 0.0, "omega")],
)
def test_region_observation_beyond_the_charts_exits_3(tmp_path, kind, tau, observed):
    # a well-formed config whose zeta or omega makes tau/zeta or 1/omega
    # overflow was reported as malformed input (exit 2)
    cfg = {"kind": kind, "tau": {"re": tau, "im": 0.0}, "sigmas": [math.pi], "lambdas": [-1.0],
           observed: _SUBNORMAL}
    out = tmp_path / "out"
    res = run("region", "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out))
    assert res.returncode == 3, res.stdout + res.stderr
    assert res.stderr.splitlines() == [
        f"error: {observed} = {'G(0)' if observed == 'zeta' else 'lambda(G)'} must be finite "
        f"with a finite {'ell = tau/zeta - A' if observed == 'zeta' else '1/omega'}, "
        "got (1e-320+0j)"
    ]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "lam, zeta, top",
    [(-1e-160, {"re": 1.0 / 4e160, "im": 0.0}, 5e-161), (-1.0, {"re": 1e-160, "im": 0.0}, 2e-160)],
    ids=["small-lambda", "small-zeta"],
)
def test_region_interval_with_an_overflowing_modulus(tmp_path, lam, zeta, top):
    # |ell + iB|^2 overflowed: a traceback and exit 1
    cfg = {"kind": "boundary", "tau": {"re": 1.0, "im": 0.0}, "sigmas": [math.pi],
           "lambdas": [lam], "zeta": zeta}
    out = tmp_path / "out"
    res = run("region", "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "region.json").read_text())
    assert report["refined"]["lo"] == 0.0
    assert report["refined"]["hi"] == pytest.approx(top, rel=1e-12)


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("region", ("zeta",), {"re": math.nan, "im": 0.1}),
        ("region", ("lambdas",), [math.nan]),
        ("region", ("tau",), {"re": math.nan, "im": 0.0}),
        ("region", ("sigmas",), [math.inf]),
        ("flow", ("generator", "p", "atoms"), [{"theta": 3.0, "mass": math.nan}]),
        ("flow", ("generator", "p", "gamma"), math.nan),
        # a negative mass is as far outside the measure's domain
        ("flow", ("generator", "p", "atoms"), [{"theta": 3.0, "mass": -1.0}]),
    ],
)
def test_non_finite_config_number_exits_3(tmp_path, command, path, value):
    configs = {
        "region": {"kind": "interior", "tau": {"re": 0.5, "im": 0.0}, "sigmas": [0.0],
                   "lambdas": [-1.0], "zeta": {"re": 0.2, "im": 0.1}},
        "flow": {"generator": {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0],
                               "lambdas": [-2.0], "p": {"atoms": [], "gamma": 0.0}},
                 "z0": {"re": 0.5, "im": 0.0}, "t": 0.1},
    }
    cfg = configs[command]
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / "out"
    # a run on NaN numbers may not end, so each runs under a timeout
    res = run(command, "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out),
              timeout=60)
    assert res.returncode == 3, res.stdout + res.stderr
    assert list(out.iterdir()) == []


def test_flow_nan_horizon_exits_3(tmp_path):
    cfg = write_json(
        tmp_path / "cfg_flow.json",
        {
            "generator": {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0], "lambdas": [-2.0]},
            "z0": {"re": 0.5, "im": 0.0},
            "t": math.nan,
        },
    )
    res = run("flow", "--config", cfg, "--out", str(tmp_path), timeout=60)
    assert res.returncode == 3, res.stderr
    assert "finite" in res.stderr


@pytest.mark.parametrize(
    "command, option",
    [
        (command, option)
        for command in ("region", "flow", "counterexample")
        for option in ("--seed", "--samples", "--tolerance")
    ]
    + [("cowen-pommerenke", "--samples"), ("verify", "--config"), ("counterexample", "--config")],
)
def test_option_the_command_does_not_read_exits_2(tmp_path, command, option):
    from diskflow import cli

    # a config the command runs on, so the option alone decides the exit code
    configs = {
        "region": {"kind": "interior", "tau": {"re": 0.5, "im": 0.0},
                   "sigmas": [0.0], "lambdas": [-1.0]},
        "flow": {"generator": {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0],
                               "lambdas": [-2.0]},
                 "z0": {"re": 0.5, "im": 0.0}, "t": 0.1},
        "cowen-pommerenke": {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0],
                             "target": [math.e], "fields": 2, "sweep": 2},
    }
    argv = [command, option, "3", "--out", str(tmp_path / "out")]
    if command in configs:
        argv += ["--config", write_json(tmp_path / "cfg.json", configs[command])]
    assert cli.main(argv) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["verify", "cowen-pommerenke"])
def test_non_finite_tolerance_exits_2(tmp_path, command, value):
    from diskflow import cli

    # before, verify drew every sample and left an empty verify.json, and
    # cowen-pommerenke exited 4 on nan and 0 on inf whatever the slack
    out = tmp_path / "out"
    argv = [command, f"--tolerance={value}", "--out", str(out)]
    if command == "cowen-pommerenke":
        cfg = {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0], "target": [math.e],
               "fields": 2, "sweep": 2}
        argv += ["--config", write_json(tmp_path / "cfg.json", cfg)]
    assert cli.main(argv) == 2
    assert not out.exists()


def test_a_render_that_raises_leaves_every_file_as_it_was(tmp_path):
    import argparse

    from diskflow import cli

    def broken() -> str:
        raise RuntimeError("render failed")

    (tmp_path / "a.json").write_text("good json\n")
    (tmp_path / "a.csv").write_text("good csv\n")
    args = argparse.Namespace(command="test", format=["json", "csv"], out=str(tmp_path))
    artifacts = {"json": ("a.json", lambda: "new json\n"), "csv": ("a.csv", broken)}
    with pytest.raises(RuntimeError):
        cli._write_artifacts(args, artifacts)
    assert (tmp_path / "a.json").read_text() == "good json\n"
    assert (tmp_path / "a.csv").read_text() == "good csv\n"


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_verify_format_it_cannot_write_exits_2(tmp_path, fmt):
    from diskflow import cli

    out = tmp_path / "out"
    argv = ["verify", "--samples", "4", "--format", "json", "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_verify_nonpositive_samples_exits_2(tmp_path, samples):
    from diskflow import cli

    out = tmp_path / "out"
    assert cli.main(["verify", "--samples", samples, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, sweep, code",
    [(-4, 2, 2), (2, -2, 2), (-4, -2, 2), (0, 0, 0)],
)
def test_cowen_pommerenke_negative_counts_exit_2(tmp_path, fields, sweep, code):
    from diskflow import cli

    cfg = {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0], "target": [math.e],
           "fields": fields, "sweep": sweep}
    out = tmp_path / "out"
    argv = ["cowen-pommerenke", "--config", write_json(tmp_path / "cfg.json", cfg),
            "--out", str(out)]
    assert cli.main(argv) == code
    if code == 0:
        # zero counts mean the extremal field alone
        report = json.loads((out / "cowen_pommerenke.json").read_text())
        assert len(report["points"]) == 1
    else:
        assert list(out.iterdir()) == []


def test_cowen_pommerenke_target_without_a_random_field_exits_3(tmp_path):
    # log 1.001 is 1e-4 of sum log a_k, below the 0.01 floor of every
    # segment's spectral fraction, so no random strict field exists; the
    # rejection loop used to spin here until killed
    cfg = {"tau": {"re": 0, "im": 0}, "sigmas": [0, 3], "target": [1.001, 22026.0],
           "fields": 1, "sweep": 0}
    out = tmp_path / "out"
    res = run("cowen-pommerenke", "--config", write_json(tmp_path / "cfg.json", cfg),
              "--out", str(out), timeout=60)
    assert res.returncode == 3, res.stderr
    assert "spectral fraction" in res.stderr
    assert list(out.iterdir()) == []


_FLOW_CONFIG = {
    "generator": {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0], "lambdas": [-2.0]},
    "z0": {"re": 0.5, "im": 0.0}, "t": 0.1,
}
_CP_CONFIG = {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0], "target": [math.e],
              "fields": 2, "sweep": 2}


@pytest.mark.parametrize(
    "command, key, value, code",
    [
        ("flow", "samples", 2.9, 2),
        ("flow", "samples", "50", 2),
        ("flow", "samples", True, 2),
        ("flow", "samples", 10**15, 3),
        ("cowen-pommerenke", "fields", 2.5, 2),
        ("cowen-pommerenke", "fields", "8", 2),
        ("cowen-pommerenke", "sweep", 3.0, 2),
        ("cowen-pommerenke", "fields", 10**5 + 1, 3),
        ("cowen-pommerenke", "sweep", 10**5 + 1, 3),
    ],
)
def test_config_count_must_be_an_integer(tmp_path, command, key, value, code):
    from diskflow import cli

    cfg = dict(_FLOW_CONFIG if command == "flow" else _CP_CONFIG, **{key: value})
    out = tmp_path / "out"
    argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out)]
    assert cli.main(argv) == code
    assert list(out.iterdir()) == []


_REGION_CONFIG = {"kind": "interior", "tau": {"re": 0.5, "im": 0.0}, "sigmas": [0.0],
                  "lambdas": [-1.0]}
_TYPO = {"re": 0.2, "im": 0.1}


def _edited(cfg, path, value):
    """A copy of ``cfg`` with the value at the key path replaced."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize(
    "command, cfg, needle",
    [
        pytest.param("region", dict(_REGION_CONFIG, zeta_typo=_TYPO), "zeta_typo",
                     id="region-zeta_typo"),
        pytest.param("flow", dict(_FLOW_CONFIG, sample=_TYPO), "sample", id="flow-sample"),
        pytest.param("cowen-pommerenke", dict(_CP_CONFIG, field=_TYPO), "field",
                     id="cowen-pommerenke-field"),
        # nested objects: the measure p, an atom, a complex number
        pytest.param("flow", _edited(_FLOW_CONFIG, ("generator", "p"), [1]), "[1]",
                     id="flow-p-not-an-object"),
        pytest.param("flow", _edited(_FLOW_CONFIG, ("generator", "p"),
                                     {"atom": [{"theta": 3.0, "mass": 5.0}], "gama": 4.0}),
                     "'atom', 'gama'", id="flow-p-typos"),
        pytest.param("flow", _edited(_FLOW_CONFIG, ("generator", "p"),
                                     {"atoms": [{"theta": 3.0, "mas": 5.0}]}),
                     "'mas'", id="flow-atom-typo"),
        pytest.param("flow", _edited(_FLOW_CONFIG, ("z0",), {"re": 0.5, "im": 0.0, "imag": 0.1}),
                     "'imag'", id="flow-z0-typo"),
        pytest.param("region", _edited(_REGION_CONFIG, ("tau",), {"re": 0.5, "im": 0.0, "x": 1}),
                     "'x'", id="region-tau-typo"),
        # a key the region kind or the regime of tau does not read
        pytest.param("region", dict(_REGION_CONFIG, omega=_TYPO), "omega",
                     id="region-interior-omega"),
        pytest.param("region", dict(_REGION_CONFIG, kind="origin", tau={"re": 0.0, "im": 0.0},
                                    zeta=_TYPO), "zeta", id="region-origin-zeta"),
        pytest.param("cowen-pommerenke",
                     dict(_CP_CONFIG, tau={"re": 1.0, "im": 0.0}, sigmas=[math.pi], sweep=5),
                     "sweep", id="cowen-pommerenke-boundary-sweep"),
        # a number that is not a JSON number, a list that is not a JSON array
        pytest.param("region", dict(_REGION_CONFIG, tau={"re": "0.5", "im": False},
                                    sigmas="03", lambdas=["-1", "-2"]),
                     "'0.5'", id="region-strings-for-numbers"),
        pytest.param("region", dict(_REGION_CONFIG, tau={"re": 0.5, "im": False}),
                     "False", id="region-bool-for-number"),
        pytest.param("region", dict(_REGION_CONFIG, sigmas="03"), "'03'",
                     id="region-string-for-sigmas"),
        pytest.param("region", dict(_REGION_CONFIG, lambdas=["-1", "-2"]), "'-1'",
                     id="region-strings-in-lambdas"),
        pytest.param("region", dict(_REGION_CONFIG, lambdas=[-10**400]), "too large",
                     id="region-lambda-overflows-a-float"),
        pytest.param("region", dict(_REGION_CONFIG, kind=[]), "[]", id="region-list-for-kind"),
        pytest.param("flow", dict(_FLOW_CONFIG, t="1"), "'1'", id="flow-string-for-t"),
        pytest.param("flow", _edited(_FLOW_CONFIG, ("generator", "p"), {"atoms": {}}), "{}",
                     id="flow-object-for-atoms"),
        pytest.param("flow", _edited(_FLOW_CONFIG, ("generator", "p"),
                                     {"atoms": [{"theta": [[0.0]], "mass": 1.0}]}),
                     "[[0.0]]", id="flow-array-for-theta"),
        pytest.param("cowen-pommerenke", dict(_CP_CONFIG, target="34"), "'34'",
                     id="cowen-pommerenke-string-for-target"),
    ],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, command, cfg, needle):
    from diskflow import cli

    out = tmp_path / "out"
    argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out)]
    assert cli.main(argv) == 2
    assert needle in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_flow_horizon_beyond_the_step_bound_exits_3(tmp_path):
    cfg = write_json(tmp_path / "cfg_flow.json", dict(_FLOW_CONFIG, t=1e9))
    out = tmp_path / "out"
    # t = 1e9 needs far more steps than the right-hand-side budget allows
    res = run("flow", "--config", cfg, "--out", str(out), timeout=60)
    assert res.returncode == 3, res.stderr
    assert "right-hand-side calls" in res.stderr
    assert list(out.iterdir()) == []


def test_flow_horizon_past_a_hundred_completes(tmp_path):
    from diskflow import cli
    from diskflow.semiflow import MAX_RHS_CALLS

    # near the attracting tau = 0 error control takes steps of about a time
    # unit, so t = 101 costs a few thousand right-hand sides and ends at tau
    cfg = write_json(tmp_path / "cfg_flow.json", dict(_FLOW_CONFIG, t=101.0))
    out = tmp_path / "out"
    assert cli.main(["flow", "--format", "json", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "flow.json").read_text())
    assert abs(complex(report["endpoint"]["re"], report["endpoint"]["im"])) <= 1e-12
    assert 0 < report["rhs_calls"] <= MAX_RHS_CALLS


def test_flow_non_finite_right_hand_side_exits_3(tmp_path):
    # an atom of mass 1e308 near z0 overflows the denominator q to infinity,
    # so the variational right-hand side turns NaN inside the disk, which is refused
    generator = dict(_FLOW_CONFIG["generator"], p={"atoms": [{"theta": 0.3, "mass": 1e308}]})
    cfg = write_json(tmp_path / "cfg_flow.json", dict(_FLOW_CONFIG, generator=generator))
    out = tmp_path / "out"
    res = run("flow", "--config", cfg, "--out", str(out), timeout=60)
    assert res.returncode == 3, res.stderr
    assert "finite" in res.stderr
    assert list(out.iterdir()) == []


def test_unknown_command_exits_2():
    res = run("frobnicate")
    assert res.returncode == 2
