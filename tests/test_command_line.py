"""The command line parser: the same fields and exit codes as the argparse
parser it replaced (tests/cli_reference.py), help, and usage errors.

cli._parse_args reads each command's options from cli.COMMANDS.  On every
valid command line below it must give the fields argparse gave, and on
every invalid one the exit code argparse gave.  The declared differences
are listed in DIFFERENCES.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cli_reference
from diskflow import cli


def program(*argv, cwd=None):
    """Run python -m diskflow.cli in a fresh process, from any directory."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "diskflow.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def parse(argv):
    """The fields cli._parse_args reads from argv, or the code it exits with."""
    try:
        return vars(cli._parse_args(argv))
    except SystemExit as exc:
        return exc.code


VALID = [
    ["region", "--config", "c.json"],
    ["region", "--config=c.json"],
    ["region", "--config", "c.json", "--out", "o", "--format", "json", "--format=csv",
     "--format", "svg"],
    ["region", "--out=o", "--config", "a.json", "--config", "b.json"],
    ["region", "--format", "csv", "--format", "csv", "--config", "-"],
    ["region", "--config", "c.json", "--out="],
    ["flow", "--config", "c.json"],
    ["flow", "--format=json", "--config=c.json", "--out", "x y"],
    ["flow", "--config", "-a b", "--out", "-"],
    ["verify"],
    ["verify", "--seed", "-3", "--samples", "5", "--tolerance", "-0.5"],
    ["verify", "--seed=-3", "--tolerance=-1e-5", "--samples=1"],
    ["verify", "--tolerance", "-.5", "--seed", "7", "--seed", "8"],
    ["verify", "--tolerance=1e300", "--samples", "10", "--samples", "20", "--format", "json"],
    ["cowen-pommerenke", "--config", "c.json"],
    ["cowen-pommerenke", "--config", "c.json", "--seed", "-1", "--tolerance", "0"],
    ["cowen-pommerenke", "--tolerance=-1e-8", "--config=c.json", "--format", "svg",
     "--format=json"],
    ["counterexample"],
    ["counterexample", "--format", "json", "--format", "csv", "--out", "."],
]

INVALID = [
    [],
    ["frobnicate"],
    ["-x"],
    ["--config", "c.json"],
    ["--", "region", "--config", "c.json"],
    ["region"],
    ["region", "--config"],
    ["region", "--config", "--out", "o"],
    ["region", "--out", "o", "--config", "c.json", "--format", "xml"],
    ["region", "--config", "c.json", "--format="],
    ["region", "--config", "c.json", "stray"],
    ["region", "--config", "c.json", "--bogus", "1"],
    ["region", "--config", "c.json", "--seed", "1"],
    ["region", "--config", "c.json", "--"],
    ["region", "--", "--config", "c.json"],
    ["flow", "--config", "c.json", "--samples", "3"],
    ["flow", "--config", "c.json", "--out", "-x"],
    ["verify", "--samples", "0"],
    ["verify", "--samples", "-5"],
    ["verify", "--samples", "x"],
    ["verify", "--seed", "1.5"],
    ["verify", "--seed", "--samples", "3"],
    ["verify", "--tolerance", "-1e-5"],
    ["verify", "--tolerance=nan"],
    ["verify", "--tolerance", "inf"],
    ["verify", "--tolerance", "-3."],
    ["verify", "--config", "c.json"],
    ["verify", "--help=1"],
    ["cowen-pommerenke", "--seed", "3"],
    ["cowen-pommerenke", "--config", "c.json", "--samples", "3"],
    ["counterexample", "--seed", "1"],
    ["counterexample", "--", "-h"],
    ["counterexample", "region"],
]

HELP = [
    ["-h"],
    ["--help"],
    ["--bogus", "-h"],
    ["-h", "frobnicate"],
    ["region", "-h"],
    ["region", "--help"],
    ["region", "--bogus", "--help"],
    ["verify", "--samples", "3", "-h"],
    ["cowen-pommerenke", "-h"],
    ["flow", "-h"],
    ["counterexample", "-h"],
]

# (argv, a field argparse read, ours: exit 2 or that field's value).
# argparse took an unambiguous prefix of an option as the option, and
# dropped a '--' given as an option's value, which left --out an empty
# list that main could not make a directory of
DIFFERENCES = [
    (["region", "--conf", "c.json"], "config", 2),
    (["region", "--config", "c.json", "--f", "csv"], "format", 2),
    (["verify", "--samp", "5"], "samples", 2),
    (["verify", "--out=--"], "out", "--"),
]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_valid_command_lines_read_as_argparse_read_them(argv, capsys):
    ours = parse(argv)
    assert ours == cli_reference.parse(argv)
    assert ours["func"] is cli.COMMANDS[argv[0]][0]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", INVALID + HELP, ids=" ".join)
def test_invalid_and_help_command_lines_exit_as_argparse_exited(argv, capsys):
    expected = cli_reference.parse(argv)
    assert expected in (0, 2)
    capsys.readouterr()
    assert parse(argv) == expected


@pytest.mark.parametrize("argv, field, ours", DIFFERENCES,
                         ids=[" ".join(d[0]) for d in DIFFERENCES])
def test_declared_differences(argv, field, ours):
    assert field in cli_reference.parse(argv)
    result = parse(argv)
    assert result == 2 if ours == 2 else result[field] == ours


def test_top_level_help_lists_the_commands(tmp_path):
    res = program("--help", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: diskflow")
    for name, row in cli.COMMANDS.items():
        assert re.search(rf"^  {re.escape(name)} +{re.escape(row[1])}$", res.stdout, re.M)
    assert res.stderr == ""
    assert list(tmp_path.iterdir()) == []


def _options_in(text):
    return set(re.findall(r"--[a-z]+", text))


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_help_lists_its_options(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "-h"]) == 0
    ours = capsys.readouterr()
    assert cli_reference.parse([command, "-h"]) == 0
    theirs = capsys.readouterr()
    assert ours.out.startswith(f"usage: diskflow {command} [-h]")
    assert _options_in(ours.out) == _options_in(theirs.out)
    assert ours.err == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_usage_error_exits_2_and_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == ""
    assert usage.startswith("usage: diskflow")
    assert re.match(r"diskflow( [a-z-]+)?: error: ", error)
    assert list(tmp_path.iterdir()) == []


def test_usage_error_of_the_program_exits_2(tmp_path):
    res = program("region", "--bogus", "1", cwd=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1] == (
        "diskflow region: error: unrecognized arguments: --bogus 1"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("under_the_file", [False, True])
def test_out_that_is_a_file_exits_2(tmp_path, under_the_file):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"kind": "interior", "tau": {"re": 0.5, "im": 0.0},
                                  "sigmas": [0.0], "lambdas": [-1.0]}))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under_the_file else afile
    res = program("region", "--config", str(config), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: malformed input: ")
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.json"]

