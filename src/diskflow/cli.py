"""Command line interface.

Subcommands, with the --format values each writes (default first):

  region              json csv svg   value regions for a fixed-point configuration
  flow                csv json       integrate a semigroup orbit
  verify              json           randomized inequality verification
  cowen-pommerenke    json csv svg   spectral region experiment for boundary data
  counterexample      csv json       decay/divergence quadrature tables

Every command writes one artifact per requested --format into --out
(default: current directory) and prints a short summary to stdout; a format
the command cannot write is malformed input.  COMMANDS lists each command's
options: region, flow and cowen-pommerenke read a JSON config (--config)
whose every object, nested ones included, holds only the keys its reader
lists, and whose numbers and lists are JSON numbers and arrays; verify and
cowen-pommerenke draw random inputs and also take --seed and --tolerance,
and verify takes --samples; no other command accepts them.

Each option takes one value, as --name value or --name=value; a value
that starts with '-' and is not a plain negative number (-3, -0.5) takes
the second form.  A prefix of an option (--conf) is refused, not read as
the option.  -h or --help prints the commands, or a command's options,
and exits 0.  A command line that _parse_args refuses exits 2 with a
usage line and an error line on stderr, before any file or directory is
made.

Output is deterministic for a fixed seed: floats are serialized with repr
and JSON keys are sorted.

Exit codes: 0 success or help, 2 a refused command line or malformed
input (a reader refused the config or a file could not be read or made),
3 domain error, 4 verification failure.
"""

from __future__ import annotations

import atexit
import cmath
import gc
import json
import math
import os
import sys
import types
from typing import Callable

from ._lazy import np

from .errors import DiskflowError, DomainError
from .generator import FixedPointConfig, GeneratorSpec, tau_regime
from .herglotz_core import (
    AtomicHerglotz,
    BoundaryPoint,
    _real,
    counterexample_P,
    counterexample_divergence,
)
from .loewner_cp import (
    CPTarget,
    cp_experiment,
    cp_extremal_field,
    cp_region,
    cp_region_boundary,
    random_strict_field,
)
from .semiflow import flow_trajectory
from .value_regions import (
    DiskRegion,
    IntervalRegion,
    REGIMES,
    _column_records,
    _draw_columns,
    interval_I,
    parabolic_region,
    region_Omega,
    region_Omega_origin,
    region_Z,
    region_Z_omega,
)

REGION_SAMPLES = 720
SIGN_VIOLATION_FLOOR = 1e-10
MAX_EXPERIMENTS = 10**5  # bound on cowen-pommerenke's fields and sweep; ~150 us each
VERIFY_BLOCK = 4096  # samples verify draws and checks at once; bounds its memory


# ----------------------------------------------------------------------
# JSON (de)serialization
# ----------------------------------------------------------------------


def complex_to_obj(w: complex) -> dict:
    w = complex(w)
    return {"im": w.imag, "re": w.real}


def _fields(obj, required: tuple[str, ...], optional: dict | None = None) -> list:
    """The values of a config object's required keys, then those of its
    optional keys (their defaults when absent).  Every config object, nested
    ones included, is read here: anything but a JSON object, a missing
    required key or a key not listed is malformed input."""
    optional = optional or {}
    keys = [*required, *optional]
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object with keys {keys}, got {obj!r}")
    missing = [key for key in required if key not in obj]
    unknown = sorted(set(obj) - set(keys))
    if missing or unknown:
        raise ValueError(f"object with keys {keys}: missing {missing}, unknown {unknown}")
    return [obj[key] for key in required] + [obj.get(key, v) for key, v in optional.items()]


def _number(value) -> float:
    """A config number: a JSON int or float, not a bool, that a float can hold.
    Apart from herglotz_core._real on purpose: a malformed config raises
    ValueError (exit 2), where the library's DomainError gives exit 3."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return _real(value, "number in the config")
    except DomainError as error:
        raise ValueError(str(error)) from None


def _array(value, read: Callable = _number) -> tuple:
    """A config array (a JSON array, not a string), each entry read by ``read``."""
    if not isinstance(value, list):
        raise ValueError(f"expected an array, got {value!r}")
    return tuple(map(read, value))


def parse_complex(obj) -> complex:
    re, im = _fields(obj, ("re", "im"))
    w = complex(_number(re), _number(im))
    if not cmath.isfinite(w):
        raise DomainError(f"a complex number must be finite, got {w}")
    return w


def parse_herglotz(obj) -> AtomicHerglotz:
    atoms, gamma = _fields(obj, (), {"atoms": [], "gamma": 0.0})
    pairs = _array(atoms, lambda atom: _array(_fields(atom, ("theta", "mass"))))
    atoms = tuple((BoundaryPoint(theta), mass) for theta, mass in pairs)
    return AtomicHerglotz(atoms, _number(gamma))


def _parse_sigmas(angles) -> tuple[BoundaryPoint, ...]:
    return tuple(map(BoundaryPoint, _array(angles)))


def parse_config(tau, sigmas, lambdas) -> FixedPointConfig:
    return FixedPointConfig(parse_complex(tau), _parse_sigmas(sigmas), _array(lambdas))


def parse_spec(obj) -> GeneratorSpec:
    tau, sigmas, lambdas, p = _fields(obj, ("tau", "sigmas", "lambdas"), {"p": {}})
    return GeneratorSpec(parse_config(tau, sigmas, lambdas), parse_herglotz(p))


def region_to_obj(region: DiskRegion | IntervalRegion) -> dict:
    if isinstance(region, DiskRegion):
        return {
            "center": complex_to_obj(region.center),
            "radius": region.radius,
            "type": "disk",
        }
    return {"hi": region.hi, "lo": region.lo, "type": "interval"}


# ----------------------------------------------------------------------
# artifact text and the one writer path
# ----------------------------------------------------------------------


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(header: str, lines) -> str:
    """A header line and rendered rows, one line each.  Each caller renders
    a row with one f-string, numbers by !r, so that they read back exactly."""
    return "\n".join([header, *lines]) + "\n"


def _write_artifacts(args, artifacts: dict[str, tuple[str, Callable[[], str]]]) -> list[str]:
    """Write one artifact into --out for each requested --format.

    ``artifacts`` maps every format the command can write to the file name
    and a function rendering the file's text; the first is the default.
    Any other requested format is malformed input; it is reported before
    any file is written.  Every text is rendered before any file is opened,
    so a render that raises leaves every file as it was.
    """
    formats = args.format or [next(iter(artifacts))]
    for fmt in formats:
        if fmt not in artifacts:
            raise ValueError(f"{args.command} cannot write format {fmt!r}")
    texts = [(os.path.join(args.out, artifacts[fmt][0]), artifacts[fmt][1]()) for fmt in formats]
    for path, text in texts:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return [path for path, _ in texts]


def _region_rows(region: DiskRegion | IntervalRegion) -> list[tuple[float, complex]]:
    """(parameter, point) samples along a region: the angle around a disk's
    rim, or the fraction of the way along an interval."""
    if isinstance(region, DiskRegion):
        points = region.sample_boundary(REGION_SAMPLES)
        return [(2.0 * math.pi * j / REGION_SAMPLES, w) for j, w in enumerate(points)]
    xs = region.sample(REGION_SAMPLES)
    return [(j / (REGION_SAMPLES - 1), complex(x, 0.0)) for j, x in enumerate(xs)]


def _region_csv(region: DiskRegion | IntervalRegion) -> str:
    rows = _region_rows(region)
    return _csv_text("param,re,im", (f"{t!r},{w.real!r},{w.imag!r}" for t, w in rows))


def _svg_path(points, stroke: str) -> str:
    coords = " L ".join(f"{w.real:.6f} {w.imag:.6f}" for w in points)
    return (
        f'<path d="M {coords} Z" fill="none" stroke="{stroke}" stroke-width="0.01"/>'
    )


def _svg_document(elements: list[str]) -> str:
    header = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.2 -1.2 2.4 2.4">'
    return header + "\n" + "\n".join(elements) + "\n</svg>\n"


def _unit_circle_path() -> str:
    return _svg_path(DiskRegion(0.0, 1.0).sample_boundary(256), "gray")


def _region_svg(region) -> str:
    if isinstance(region, DiskRegion):
        points = region.sample_boundary(REGION_SAMPLES)
    else:
        points = [complex(region.lo, 0.0), complex(region.hi, 0.0)]
    return _svg_document([_unit_circle_path(), _svg_path(points, "black")])


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _config_count(value) -> int:
    """A count from a config: a nonnegative JSON integer, not a float,
    string or bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"a count must be a nonnegative integer, got {value!r}")
    return value


# kind -> (base region, refined region over the observation)
_REGION_KINDS = {
    "interior": (region_Z, region_Omega),
    "origin": (region_Omega_origin, region_Z_omega),
    "boundary": (region_Z, interval_I),
}


def cmd_region(args) -> int:
    kind, tau, sigmas, lambdas, zeta, omega = _fields(
        _load_config(args.config),
        ("kind", "tau", "sigmas", "lambdas"),
        {"zeta": None, "omega": None},
    )
    config = parse_config(tau, sigmas, lambdas)
    observed, other = (omega, zeta) if kind == "origin" else (zeta, omega)
    if other is not None:
        raise ValueError("region observes omega for kind 'origin' and zeta for the other kinds")
    if kind == "parabolic":
        if observed is None:
            raise ValueError("region kind 'parabolic' requires zeta")
        base, refined = parabolic_region(config, parse_complex(observed)), None
    elif isinstance(kind, str) and kind in _REGION_KINDS:
        base_of, refine = _REGION_KINDS[kind]
        base = base_of(config)
        refined = None if observed is None else refine(config, parse_complex(observed))
    else:
        raise ValueError(f"unknown region kind {kind!r}")

    primary = refined if refined is not None else base
    report = {
        "base": region_to_obj(base),
        "kind": kind,
        "refined": None if refined is None else region_to_obj(refined),
    }
    written = _write_artifacts(
        args,
        {
            "json": ("region.json", lambda: _json_text(report)),
            "csv": ("region.csv", lambda: _region_csv(primary)),
            "svg": ("region.svg", lambda: _region_svg(primary)),
        },
    )
    print(f"region kind={kind} -> {', '.join(written)}")
    return 0


def _trajectory_csv(trajectory) -> str:
    rows = zip(trajectory.times, trajectory.points, trajectory.derivatives)
    return _csv_text(
        "t,re,im,dre,dim",
        (f"{t!r},{w.real!r},{w.imag!r},{d.real!r},{d.imag!r}" for t, w, d in rows),
    )


def cmd_flow(args) -> int:
    generator, z0, horizon, samples = _fields(
        _load_config(args.config), ("generator", "z0", "t"), {"samples": 200}
    )
    spec = parse_spec(generator)
    z0 = parse_complex(z0)
    horizon = _number(horizon)
    samples = _config_count(samples)
    trajectory = flow_trajectory(spec, z0, horizon, samples=samples)

    report = {
        "derivative": complex_to_obj(trajectory.derivatives[-1]),
        "endpoint": complex_to_obj(trajectory.points[-1]),
        "rejected_steps": trajectory.rejected_steps,
        "rhs_calls": trajectory.rhs_calls,
        "samples": samples,
        "steps": trajectory.steps,
        "t": horizon,
        "z0": complex_to_obj(z0),
    }
    _write_artifacts(
        args,
        {
            "csv": ("trajectory.csv", lambda: _trajectory_csv(trajectory)),
            "json": ("flow.json", lambda: _json_text(report)),
        },
    )
    endpoint = trajectory.points[-1]
    print(f"flow t={horizon!r} endpoint=({endpoint.real!r}, {endpoint.imag!r})")
    return 0


def _sign_counts(lhs, rhs, tol: float, sign_floor: float):
    """A record's slack rhs - lhs, and how many of its entries are warnings
    and sign violations: a slack below -tol, or -sign_floor, times
    max(1, |lhs|, |rhs|), elementwise on columns.  sign_floor >= tol, so
    every violation is also a warning, and violations are counted only
    where there are warnings.

    A slack is a difference of terms as large as the record's sides, so the
    roundoff floor scales with the sides: hyperbolic_window compares
    squares that reach 5.7e5, where one ulp is 1.2e-10.
    """
    slack = rhs - lhs
    scale = np.maximum(np.maximum(abs(lhs), abs(rhs)), 1.0)
    warnings = int(np.count_nonzero(slack < -tol * scale))
    violations = int(np.count_nonzero(slack < -sign_floor * scale)) if warnings else 0
    return slack, warnings, violations


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    tol = args.tolerance
    # a sub-tolerance slack is a warning; the exit code keys on sign
    # violations, negative beyond numerical roundoff, so shrinking the
    # tolerance below the roundoff floor cannot turn noise into failure
    sign_floor = max(tol, SIGN_VIOLATION_FLOOR)
    checked: dict[str, int] = {}
    warnings: dict[str, int] = {}
    violations: dict[str, int] = {}
    min_slack: dict[str, float] = {}
    for start in range(0, args.samples, VERIFY_BLOCK):
        size = min(VERIFY_BLOCK, args.samples - start)
        for k, regime in enumerate(REGIMES):
            # sample i has regime REGIMES[i % 4]; each regime's rows are one draw
            rows = len(range((k - start) % len(REGIMES), size, len(REGIMES)))
            if not rows:
                continue
            for name, lhs, rhs, where in _column_records(_draw_columns(rng, regime, rows)):
                if where is not True:
                    lhs, rhs = lhs[where], rhs[where]
                if not lhs.size:
                    continue
                checked[name] = checked.get(name, 0) + lhs.size
                slack, n_warnings, n_violations = _sign_counts(lhs, rhs, tol, sign_floor)
                if n_warnings:
                    warnings[name] = warnings.get(name, 0) + n_warnings
                if n_violations:
                    violations[name] = violations.get(name, 0) + n_violations
                least = float(slack.min())
                if name not in min_slack or least < min_slack[name]:
                    min_slack[name] = least
    total_violations = sum(violations.values())
    for name in sorted(checked):
        print(
            f"{name}: checked={checked[name]} violations={violations.get(name, 0)} "
            f"warnings={warnings.get(name, 0)} min_slack={min_slack[name]!r}"
        )
    report = {
        "checked": checked,
        "min_slack": min_slack,
        "samples": args.samples,
        "seed": args.seed,
        "tolerance": tol,
        "violations": violations,
        "warnings": warnings,
    }
    _write_artifacts(args, {"json": ("verify.json", lambda: _json_text(report))})
    print(f"total violations: {total_violations}")
    return 0 if total_violations == 0 else 4


def cmd_cowen_pommerenke(args) -> int:
    tau, sigmas, target, n_fields, n_sweep = _fields(
        _load_config(args.config), ("tau", "sigmas", "target"), {"fields": 64, "sweep": None}
    )
    tau = parse_complex(tau)
    sigmas = _parse_sigmas(sigmas)
    target = CPTarget(_array(target))
    boundary = tau_regime(tau) == "boundary"
    # the sweep traces cp_region's rim by Im c, which a boundary tau ignores
    if boundary and n_sweep is not None:
        raise ValueError("cowen-pommerenke reads sweep only for an interior tau")
    n_fields = _config_count(n_fields)
    n_sweep = 0 if boundary else _config_count(32 if n_sweep is None else n_sweep)
    if max(n_fields, n_sweep) > MAX_EXPERIMENTS:
        raise DomainError(
            f"fields and sweep are at most {MAX_EXPERIMENTS}, got {n_fields} and {n_sweep}"
        )
    rng = np.random.default_rng(args.seed)

    points = []

    def record(field) -> float:
        point, slack = cp_experiment(tau, sigmas, target, field)
        points.append({"im": point.imag, "re": point.real, "slack": slack})
        return slack

    record(cp_extremal_field(tau, sigmas, target, 0.0))
    for j in range(n_sweep):
        u = (j + 1.0) / (n_sweep + 1.0)
        record(cp_extremal_field(tau, sigmas, target, 1j * math.tan(math.pi * (u - 0.5))))
    for _ in range(n_fields):
        record(random_strict_field(rng, tau, sigmas, target))

    region = cp_region_boundary(target) if boundary else cp_region(target)
    if boundary:
        region_obj = {"center": (region.lo + region.hi) / 2.0, "radius": (region.hi - region.lo) / 2.0}
    else:
        region_obj = {"center": region.center.real, "radius": region.radius}
    report = {
        "points": points,
        "region": region_obj,
        "target": list(target.a),
    }
    worst = min(p["slack"] for p in points)

    def svg() -> str:
        marks = [
            _svg_path(DiskRegion(complex(p["re"], p["im"]), 0.01).sample_boundary(8), "red")
            for p in points
        ]
        outline = _svg_path([w for _, w in _region_rows(region)], "black")
        return _svg_document([_unit_circle_path(), outline] + marks)

    _write_artifacts(
        args,
        {
            "json": ("cowen_pommerenke.json", lambda: _json_text(report)),
            "csv": (
                "cowen_pommerenke.csv",
                lambda: _csv_text(
                    "param,re,im",
                    (f"{float(j)!r},{p['re']!r},{p['im']!r}" for j, p in enumerate(points)),
                ),
            ),
            "svg": ("cowen_pommerenke.svg", svg),
        },
    )
    print(f"cowen-pommerenke points={len(points)} worst_slack={worst!r}")
    return 0 if worst >= -args.tolerance else 4


def cmd_counterexample(args) -> int:
    decay = [(10.0**-k, counterexample_P(10.0**-k)) for k in range(1, 7)]
    divergence = [
        (math.exp(-math.exp(float(k))), counterexample_divergence(math.exp(-math.exp(float(k)))))
        for k in range(1, 5)
    ]
    rows = [("decay", y, v) for y, v in decay] + [("divergence", d, v) for d, v in divergence]
    report = {
        "decay": [{"value": v, "y": y} for y, v in decay],
        "divergence": [{"delta": d, "value": v} for d, v in divergence],
    }
    _write_artifacts(
        args,
        {
            "csv": (
                "counterexample.csv",
                lambda: _csv_text("kind,param,value", (f"{k},{x!r},{v!r}" for k, x, v in rows)),
            ),
            "json": ("counterexample.json", lambda: _json_text(report)),
        },
    )
    print(
        f"counterexample decay_final={decay[-1][1]!r} "
        f"divergence_final={divergence[-1][1]!r}"
    )
    return 0


# ----------------------------------------------------------------------
# command line / entry point
# ----------------------------------------------------------------------


def _count(text: str) -> int:
    """The value of a count option, which must be at least 1."""
    n = int(text)
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


def _finite(text: str) -> float:
    """The value of a finite float option, such as a tolerance."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _format(text: str) -> str:
    """A --format value: one of the formats some command writes."""
    if text not in ("json", "csv", "svg"):
        raise ValueError(f"invalid choice {text!r} (choose from json, csv, svg)")
    return text


# name -> (function, help, reads --config, default --tolerance, default
# --samples); a command with a tolerance draws random inputs and also takes
# --seed.  _options reads a row's options.
COMMANDS = {
    "region": (cmd_region, "value regions for a configuration", True, None, None),
    "flow": (cmd_flow, "integrate a semigroup orbit", True, None, None),
    "verify": (cmd_verify, "randomized inequality verification", False, 1e-10, 10000),
    "cowen-pommerenke": (
        cmd_cowen_pommerenke, "spectral region experiment for boundary data", True, 1e-8, None
    ),
    "counterexample": (cmd_counterexample, "decay/divergence tables", False, None, None),
}


def _options(reads_config: bool, tolerance, samples) -> dict:
    """option -> (type, default, help) of a COMMANDS row.  Every command
    takes --out and the repeatable --format; one that reads --config
    requires it."""
    options = {
        "--out": (str, ".", "output directory (default .)"),
        "--format": (_format, None, "json, csv or svg; repeatable (default: its first format)"),
    }
    if reads_config:
        options["--config"] = (str, None, "path to a JSON config file (required)")
    if tolerance is not None:
        options["--seed"] = (int, 0, "random seed (default 0)")
        options["--tolerance"] = (_finite, tolerance, f"violation tolerance (default {tolerance})")
    if samples is not None:
        options["--samples"] = (_count, samples, f"sample count, at least 1 (default {samples})")
    return options


def _is_value(word: str) -> bool:
    """Whether a word is a value rather than an option: it does not start
    with '-', or it is '-' alone, a plain negative number (-3, -0.5, -.5)
    or a word with a space.  A value such as -1e-5 takes the form
    --tolerance=-1e-5."""
    if not word.startswith("-") or word == "-" or " " in word:
        return True
    whole, dot, frac = word[1:].partition(".")
    return (whole.isdecimal() or not whole) and (frac.isdecimal() if dot else bool(whole))


def _usage(command=None, options=()) -> str:
    if command is None:
        return f"usage: diskflow [-h] {{{','.join(COMMANDS)}}} ..."
    words = [f"{name} {name[2:].upper()}" for name in options]
    words = [w if name == "--config" else f"[{w}]" for name, w in zip(options, words)]
    return f"usage: diskflow {command} [-h] {' '.join(words)}"


def _help(command=None, options=()) -> str:
    """-h's text: the commands, or the options of the command named."""
    if command is None:
        about = "value regions, semiflows and spectral experiments in the disk"
        rows = [(name, row[1]) for name, row in COMMANDS.items()]
        end = ["", "diskflow COMMAND -h lists the options of a command."]
    else:
        about = COMMANDS[command][1]
        rows = [(f"{name} {name[2:].upper()}", text) for name, (_, _, text) in options.items()]
        end = []
    rows.insert(0, ("-h, --help", "show this help and exit"))
    lines = [_usage(command, options), "", about, ""]
    lines += [f"  {left:<22}{right}" for left, right in rows] + end
    return "\n".join(lines) + "\n"


def _parse_args(argv):
    """The command and option values of a command line, read from COMMANDS.

    The first word that is not an option names the command.  Each option
    of the command's row takes one value, as --name value or --name=value;
    a repeated option keeps its last value, but --format collects every
    value.  A prefix of an option name is not the option.  -h or --help
    prints the top-level help, or the command's once one is named, and
    raises SystemExit(0).  Any other error prints a usage line and an
    error line to stderr and raises SystemExit(2): no command or an
    unknown one, a missing value or one that is not _is_value, a value its
    type refuses, a missing required --config, or a word that is neither an
    option of the command nor its name.  Such words, and a '--' with
    every word after it, are reported after the whole line is read, so -h
    after one still prints help.
    """
    command, options, fields, stray = None, {}, {}, []

    def fail(message: str):
        prog = "diskflow" if command is None else f"diskflow {command}"
        sys.stderr.write(f"{_usage(command, options)}\n{prog}: error: {message}\n")
        raise SystemExit(2)

    words = iter(argv)
    for word in words:
        if word == "--":  # ends the options: every word from here on is stray
            stray += [word, *words]
            break
        name, eq, value = word.partition("=") if word.startswith("-") else (word, "", "")
        if name in ("-h", "--help"):
            if eq:
                fail(f"{name} takes no value")
            sys.stdout.write(_help(command, options))
            raise SystemExit(0)
        if name in options:
            if not eq:
                value = next(words, None)
                if value is None or not _is_value(value):
                    fail(f"argument {name}: expected one value")
            try:
                value = options[name][0](value)
            except ValueError as exc:
                fail(f"argument {name}: {exc}")
            if name == "--format":
                value = (fields["format"] or []) + [value]
            fields[name[2:]] = value
        elif command is not None or not _is_value(word):
            stray.append(word)
        elif word in COMMANDS:
            command = word
            func, _, *row = COMMANDS[command]
            options = _options(*row)
            fields = {"command": command, "func": func}
            fields.update((name[2:], default) for name, (_, default, _) in options.items())
        else:
            fail(f"invalid command {word!r} (choose from {', '.join(COMMANDS)})")
    if command is None:
        fail("a command is required")
    if stray:
        fail(f"unrecognized arguments: {' '.join(stray)}")
    if "--config" in options and fields["config"] is None:
        fail("the option --config is required")
    return types.SimpleNamespace(**fields)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    With no argv, main reads sys.argv: it is the program, and the process
    ends after it.  It then registers gc.freeze with atexit, so that the
    interpreter's collections at exit skip every object that exists by
    then, which the OS takes back anyway; a script that calls main() and
    goes on working is frozen only at its own exit.  A call with argv
    registers nothing.
    """
    if argv is None:
        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    except DiskflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
