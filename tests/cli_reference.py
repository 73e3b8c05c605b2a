"""The argparse command line `diskflow.cli` read before its own parser.

This is the parser `main` built on every run until the command line was
read straight from `cli.COMMANDS`: one argparse subparser per command,
with the same options, types and defaults.  It serves as the reference for
`cli._parse_args`, which must give the same fields on every valid command
line and the same exit code on every invalid one.  The one declared
difference: argparse also took an unambiguous prefix of an option
(`--conf` for `--config`), which `cli._parse_args` refuses.
"""

import argparse
import math

from diskflow import cli


def _count(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _finite(text: str) -> float:
    """argparse type of a finite float, such as a tolerance."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {x}")
    return x


# name -> (function, help, reads --config, default --tolerance); a command
# with a tolerance draws random inputs and also takes --seed
COMMANDS = {
    "region": (cli.cmd_region, "value regions for a configuration", True, None),
    "flow": (cli.cmd_flow, "integrate a semigroup orbit", True, None),
    "verify": (cli.cmd_verify, "randomized inequality verification", False, 1e-10),
    "cowen-pommerenke": (
        cli.cmd_cowen_pommerenke, "spectral region experiment for boundary data", True, 1e-8
    ),
    "counterexample": (cli.cmd_counterexample, "decay/divergence tables", False, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskflow",
        description="value regions, semiflows and spectral experiments in the disk",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, reads_config, tolerance) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument(
            "--format", action="append", choices=("json", "csv", "svg"),
            help="output format (repeatable)",
        )
        if reads_config:
            sub.add_argument("--config", required=True, help="path to a JSON config file")
        if tolerance is not None:
            sub.add_argument("--seed", type=int, default=0, help="random seed")
            sub.add_argument(
                "--tolerance", type=_finite, default=tolerance, help="violation tolerance"
            )
    subs.choices["verify"].add_argument(
        "--samples", type=_count, default=10000, help="sample count (>= 1)"
    )
    return parser


def parse(argv):
    """The fields argparse read from argv, or the code it exited with."""
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
