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
Output is deterministic for a fixed seed: floats are serialized with repr
and JSON keys are sorted.

Exit codes: 0 success, 2 malformed input (a reader refused the config or
the file could not be read), 3 domain error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from typing import Callable

import numpy as np

from .errors import DiskflowError, DomainError
from .generator import FixedPointConfig, GeneratorSpec, tau_regime
from .herglotz_core import (
    AtomicHerglotz,
    BoundaryPoint,
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
    _draw_raw,
    _raw_records,
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
    """A config number: a JSON int or float, not a bool, that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a number in the config is too large for a float") from None


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


def _csv_text(header: tuple[str, ...], rows) -> str:
    """Comma-separated rows; numbers are written by repr, so they read back exactly."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_artifacts(args, artifacts: dict[str, tuple[str, Callable[[], str]]]) -> list[str]:
    """Write one artifact into --out for each requested --format.

    ``artifacts`` maps every format the command can write to the file name
    and a function rendering the file's text; the first is the default.
    Any other requested format is malformed input; it is reported before
    any file is written.
    """
    formats = args.format or [next(iter(artifacts))]
    for fmt in formats:
        if fmt not in artifacts:
            raise ValueError(f"{args.command} cannot write format {fmt!r}")
    written = []
    for fmt in formats:
        name, render = artifacts[fmt]
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render())
        written.append(path)
    return written


def _region_rows(region: DiskRegion | IntervalRegion) -> list[tuple[float, complex]]:
    """(parameter, point) samples along a region: the angle around a disk's
    rim, or the fraction of the way along an interval."""
    if isinstance(region, DiskRegion):
        points = region.sample_boundary(REGION_SAMPLES)
        return [(2.0 * math.pi * j / REGION_SAMPLES, w) for j, w in enumerate(points)]
    xs = region.sample(REGION_SAMPLES)
    return [(j / (REGION_SAMPLES - 1), complex(x, 0.0)) for j, x in enumerate(xs)]


def _region_csv(region: DiskRegion | IntervalRegion) -> str:
    return _csv_text(("param", "re", "im"), ((t, w.real, w.imag) for t, w in _region_rows(region)))


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
        ("t", "re", "im", "dre", "dim"),
        ((t, w.real, w.imag, d.real, d.imag) for t, w, d in rows),
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
        "rhs_calls": trajectory.rhs_calls,
        "samples": samples,
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


def _is_sign_violation(lhs: float, rhs: float, floor: float) -> bool:
    """Slack rhs - lhs negative beyond roundoff.

    A slack is a difference of terms as large as the record's sides, so the
    roundoff floor scales with max(1, |lhs|, |rhs|): hyperbolic_window
    compares squares that reach 5.7e5, where one ulp is 1.2e-10.
    """
    return rhs - lhs < -floor * max(1.0, abs(lhs), abs(rhs))


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
    for i in range(args.samples):
        for name, lhs, rhs in _raw_records(_draw_raw(rng, REGIMES[i % len(REGIMES)])):
            slack = rhs - lhs
            checked[name] = checked.get(name, 0) + 1
            # sign_floor >= tol, so every violation is also a warning
            if _is_sign_violation(lhs, rhs, tol):
                warnings[name] = warnings.get(name, 0) + 1
                if _is_sign_violation(lhs, rhs, sign_floor):
                    violations[name] = violations.get(name, 0) + 1
            if name not in min_slack or slack < min_slack[name]:
                min_slack[name] = slack
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
                    ("param", "re", "im"),
                    ((float(j), p["re"], p["im"]) for j, p in enumerate(points)),
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
            "csv": ("counterexample.csv", lambda: _csv_text(("kind", "param", "value"), rows)),
            "json": ("counterexample.json", lambda: _json_text(report)),
        },
    )
    print(
        f"counterexample decay_final={decay[-1][1]!r} "
        f"divergence_final={divergence[-1][1]!r}"
    )
    return 0


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------


def _count(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# name -> (function, help, reads --config, default --tolerance); a command
# with a tolerance draws random inputs and also takes --seed
COMMANDS = {
    "region": (cmd_region, "value regions for a configuration", True, None),
    "flow": (cmd_flow, "integrate a semigroup orbit", True, None),
    "verify": (cmd_verify, "randomized inequality verification", False, 1e-10),
    "cowen-pommerenke": (
        cmd_cowen_pommerenke, "spectral region experiment for boundary data", True, 1e-8
    ),
    "counterexample": (cmd_counterexample, "decay/divergence tables", False, None),
}


def _build_parser() -> argparse.ArgumentParser:
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
                "--tolerance", type=float, default=tolerance, help="violation tolerance"
            )
    subs.choices["verify"].add_argument(
        "--samples", type=_count, default=10000, help="sample count (>= 1)"
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    except DiskflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
