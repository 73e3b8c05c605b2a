"""Command line interface.

Subcommands, with the --format values each writes (default first):

  region              json csv svg   value regions for a fixed-point configuration
  flow                csv json       integrate a semigroup orbit
  verify              json           randomized inequality verification
  cowen-pommerenke    json csv svg   spectral region experiment for boundary data
  counterexample      csv json       decay/divergence quadrature tables

Every command reads an optional JSON config (--config), writes one artifact
per requested --format into --out (default: current directory), and prints
a short summary to stdout; a format the command cannot write is malformed
input.  verify and cowen-pommerenke draw random inputs and also take --seed
and --tolerance, and verify takes --samples; no other command accepts them.
Output is deterministic for a fixed seed: floats are serialized with repr
and JSON keys are sorted.

Exit codes: 0 success, 2 malformed input, 3 domain error, 4 verification
failure.
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


# ----------------------------------------------------------------------
# JSON (de)serialization
# ----------------------------------------------------------------------


def complex_to_obj(w: complex) -> dict:
    w = complex(w)
    return {"im": w.imag, "re": w.real}


def parse_complex(obj) -> complex:
    w = complex(float(obj["re"]), float(obj["im"]))
    if not cmath.isfinite(w):
        raise DomainError(f"a complex number must be finite, got {w}")
    return w


def parse_herglotz(obj) -> AtomicHerglotz:
    atoms = tuple(
        (BoundaryPoint(float(a["theta"])), float(a["mass"]))
        for a in obj.get("atoms", [])
    )
    return AtomicHerglotz(atoms, float(obj.get("gamma", 0.0)))


def _parse_skeleton(obj) -> tuple[complex, tuple[BoundaryPoint, ...]]:
    """tau and the repelling points sigma_k of a config."""
    return parse_complex(obj["tau"]), tuple(BoundaryPoint(float(t)) for t in obj["sigmas"])


def parse_spec(obj) -> GeneratorSpec:
    config = FixedPointConfig(
        *_parse_skeleton(obj), tuple(float(v) for v in obj["lambdas"])
    )
    p = parse_herglotz(obj["p"]) if "p" in obj else AtomicHerglotz()
    return GeneratorSpec(config, p)


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
    and a function rendering the file's text.  Any other requested format
    is malformed input; it is reported before any file is written.
    """
    for fmt in args.format:
        if fmt not in artifacts:
            raise ValueError(f"{args.command} cannot write format {fmt!r}")
    written = []
    for fmt in args.format:
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


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_region(args) -> int:
    cfg = _load_config(args)
    kind = cfg["kind"]
    config = parse_spec(cfg).config
    refined = None
    if kind == "interior":
        base = region_Z(config)
        if "zeta" in cfg:
            refined = region_Omega(config, parse_complex(cfg["zeta"]))
    elif kind == "origin":
        base = region_Omega_origin(config)
        if "omega" in cfg:
            refined = region_Z_omega(config, parse_complex(cfg["omega"]))
    elif kind == "boundary":
        base = region_Z(config)
        if "zeta" in cfg:
            refined = interval_I(config, parse_complex(cfg["zeta"]))
    elif kind == "parabolic":
        base = parabolic_region(config, parse_complex(cfg["zeta"]))
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
    cfg = _load_config(args)
    spec = parse_spec(cfg["generator"])
    z0 = parse_complex(cfg["z0"])
    horizon = float(cfg["t"])
    samples = int(cfg.get("samples", 200))
    trajectory = flow_trajectory(spec, z0, horizon, samples=samples)

    report = {
        "derivative": complex_to_obj(trajectory.derivatives[-1]),
        "endpoint": complex_to_obj(trajectory.points[-1]),
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
    cfg = _load_config(args)
    tau, sigmas = _parse_skeleton(cfg)
    target = CPTarget(tuple(float(a) for a in cfg["target"]))
    n_fields = int(cfg.get("fields", 64))
    n_sweep = int(cfg.get("sweep", 32))
    if n_fields < 0 or n_sweep < 0:
        raise ValueError(f"fields and sweep must be nonnegative, got {n_fields} and {n_sweep}")
    boundary = tau_regime(tau) == "boundary"
    rng = np.random.default_rng(args.seed)

    points = []

    def record(field) -> float:
        point, _, slack = cp_experiment(
            tau, sigmas, target, field, membership_tol=args.tolerance
        )
        points.append({"im": point.imag, "re": point.real, "slack": slack})
        return slack

    record(cp_extremal_field(tau, sigmas, target, 0.0))
    if not boundary:
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


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sub.add_argument("--config", default=None, help="path to a JSON config file")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument(
        "--format",
        action="append",
        choices=("json", "csv", "svg"),
        default=None,
        help="output format (repeatable)",
    )
    sub.set_defaults(default_formats=formats)


def _count(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_randomized(sub: argparse.ArgumentParser, tolerance: float) -> None:
    """--seed and --tolerance, for the commands that draw random inputs."""
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument(
        "--tolerance", type=float, default=tolerance, help="violation tolerance"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskflow",
        description="value regions, semiflows and spectral experiments in the disk",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("region", help="value regions for a configuration")
    _add_common(sub, ("json",))
    sub.set_defaults(func=cmd_region)

    sub = subs.add_parser("flow", help="integrate a semigroup orbit")
    _add_common(sub, ("csv",))
    sub.set_defaults(func=cmd_flow)

    sub = subs.add_parser("verify", help="randomized inequality verification")
    _add_common(sub, ("json",))
    _add_randomized(sub, tolerance=1e-10)
    sub.add_argument("--samples", type=_count, default=10000, help="sample count (>= 1)")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser(
        "cowen-pommerenke", help="spectral region experiment for boundary data"
    )
    _add_common(sub, ("json",))
    _add_randomized(sub, tolerance=1e-8)
    sub.set_defaults(func=cmd_cowen_pommerenke)

    sub = subs.add_parser("counterexample", help="decay/divergence tables")
    _add_common(sub, ("csv",))
    sub.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.format is None:
        args.format = list(args.default_formats)
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.func(args)
    except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    except DiskflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
