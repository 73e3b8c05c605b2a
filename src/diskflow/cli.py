"""Command line interface.

Subcommands:

  region              value regions for a fixed-point configuration
  flow                integrate a semigroup orbit
  verify              randomized inequality verification
  cowen-pommerenke    spectral region experiment for prescribed boundary data
  counterexample      decay/divergence quadrature tables

Every command reads an optional JSON config (--config), writes artifacts
into --out (default: current directory) in the formats requested via
--format (json unless stated otherwise), and prints a short summary to
stdout.  Output is deterministic for a fixed seed: floats are serialized
with repr and JSON keys are sorted.

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

import numpy as np

from .errors import DiskflowError
from .generator import FixedPointConfig, GeneratorSpec, dw_spectral_value, eval_generator
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
    InequalityRecord,
    IntervalRegion,
    REGIMES,
    inequality_suite,
    interval_I,
    lambda_range,
    parabolic_region,
    random_spec,
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
    return complex(float(obj["re"]), float(obj["im"]))


def herglotz_to_obj(p: AtomicHerglotz) -> dict:
    return {
        "atoms": [{"mass": m, "theta": pt.theta} for pt, m in p.atoms],
        "gamma": p.gamma,
    }


def parse_herglotz(obj) -> AtomicHerglotz:
    atoms = tuple(
        (BoundaryPoint(float(a["theta"])), float(a["mass"]))
        for a in obj.get("atoms", [])
    )
    return AtomicHerglotz(atoms, float(obj.get("gamma", 0.0)))


def spec_to_obj(spec: GeneratorSpec) -> dict:
    return {
        "lambdas": list(spec.config.lambdas),
        "p": herglotz_to_obj(spec.p),
        "sigmas": [s.theta for s in spec.config.sigmas],
        "tau": complex_to_obj(spec.config.tau),
    }


def parse_spec(obj) -> GeneratorSpec:
    config = FixedPointConfig(
        parse_complex(obj["tau"]),
        tuple(BoundaryPoint(float(t)) for t in obj["sigmas"]),
        tuple(float(v) for v in obj["lambdas"]),
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


def _dump_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# CSV and SVG writers
# ----------------------------------------------------------------------


def _region_rows(region: DiskRegion | IntervalRegion) -> list[tuple[float, complex]]:
    if isinstance(region, DiskRegion):
        return [
            (
                2.0 * math.pi * j / REGION_SAMPLES,
                region.center
                + region.radius * cmath.exp(2j * math.pi * j / REGION_SAMPLES),
            )
            for j in range(REGION_SAMPLES)
        ]
    return [
        (
            j / (REGION_SAMPLES - 1),
            complex(region.lo + (region.hi - region.lo) * j / (REGION_SAMPLES - 1), 0.0),
        )
        for j in range(REGION_SAMPLES)
    ]


def _write_region_csv(path: str, region) -> None:
    lines = ["param,re,im"]
    for param, w in _region_rows(region):
        lines.append(f"{param!r},{w.real!r},{w.imag!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _svg_path(points, stroke: str) -> str:
    coords = " L ".join(f"{w.real:.6f} {w.imag:.6f}" for w in points)
    return (
        f'<path d="M {coords} Z" fill="none" stroke="{stroke}" stroke-width="0.01"/>'
    )


def _svg_document(elements: list[str]) -> str:
    header = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.2 -1.2 2.4 2.4">'
    return header + "\n" + "\n".join(elements) + "\n</svg>\n"


def _unit_circle_path() -> str:
    points = [cmath.exp(2j * math.pi * j / 256) for j in range(256)]
    return _svg_path(points, "gray")


def _region_svg(region) -> str:
    if isinstance(region, DiskRegion):
        points = [w for _, w in _region_rows(region)]
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


def _parse_fixed_points(cfg: dict) -> FixedPointConfig:
    return FixedPointConfig(
        parse_complex(cfg["tau"]),
        tuple(BoundaryPoint(float(t)) for t in cfg["sigmas"]),
        tuple(float(v) for v in cfg["lambdas"]),
    )


def cmd_region(args) -> int:
    cfg = _load_config(args)
    kind = cfg["kind"]
    config = _parse_fixed_points(cfg)
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
    written = []
    for fmt in args.format:
        path = os.path.join(args.out, f"region.{fmt}")
        if fmt == "json":
            _dump_json(path, report)
        elif fmt == "csv":
            _write_region_csv(path, primary)
        elif fmt == "svg":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_region_svg(primary))
        else:
            raise ValueError(f"unknown format {fmt!r}")
        written.append(path)
    print(f"region kind={kind} -> {', '.join(written)}")
    return 0


def cmd_flow(args) -> int:
    cfg = _load_config(args)
    spec = parse_spec(cfg["generator"])
    z0 = parse_complex(cfg["z0"])
    horizon = float(cfg["t"])
    samples = int(cfg.get("samples", 200))
    trajectory = flow_trajectory(spec, z0, horizon, samples=samples)

    written = []
    for fmt in args.format:
        if fmt == "csv":
            path = os.path.join(args.out, "trajectory.csv")
            lines = ["t,re,im,dre,dim"]
            for t, w, d in zip(
                trajectory.times, trajectory.points, trajectory.derivatives
            ):
                lines.append(f"{t!r},{w.real!r},{w.imag!r},{d.real!r},{d.imag!r}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        elif fmt == "json":
            path = os.path.join(args.out, "flow.json")
            _dump_json(
                path,
                {
                    "derivative": complex_to_obj(trajectory.derivatives[-1]),
                    "endpoint": complex_to_obj(trajectory.points[-1]),
                    "samples": samples,
                    "t": horizon,
                    "z0": complex_to_obj(z0),
                },
            )
        else:
            raise ValueError(f"unknown format {fmt!r} for flow")
        written.append(path)
    endpoint = trajectory.points[-1]
    print(f"flow t={horizon!r} endpoint=({endpoint.real!r}, {endpoint.imag!r})")
    return 0


def _membership(name: str, region: DiskRegion | IntervalRegion, w) -> InequalityRecord:
    """Membership of w in the region as one record lhs <= rhs, with the region's slack."""
    if isinstance(region, DiskRegion):
        return InequalityRecord(name, abs(complex(w) - region.center), region.radius)
    if w - region.lo <= region.hi - w:
        return InequalityRecord(name, region.lo, w)
    return InequalityRecord(name, w, region.hi)


def _verify_records(spec: GeneratorSpec) -> list[InequalityRecord]:
    records = inequality_suite(spec)
    config = spec.config
    zeta = eval_generator(spec, 0.0)
    if abs(config.tau) > 1e-12:
        records.append(_membership("origin_in_Z", region_Z(config), zeta))
    lam = dw_spectral_value(spec)
    region, _ = lambda_range(config)
    if config.is_boundary:
        records.append(_membership("spectral_in_range", region, float(lam)))
    else:
        records.append(_membership("spectral_in_range", region, lam))
    return records


def _is_sign_violation(record: InequalityRecord, floor: float) -> bool:
    """Slack negative beyond roundoff.

    A slack is a difference of terms as large as the record's sides, so the
    roundoff floor scales with max(1, |lhs|, |rhs|): hyperbolic_window
    compares squares that reach 5.7e5, where one ulp is 1.2e-10.
    """
    return record.slack < -floor * max(1.0, abs(record.lhs), abs(record.rhs))


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
        regime = REGIMES[i % len(REGIMES)]
        spec = random_spec(rng, regime)
        for record in _verify_records(spec):
            name, slack = record.name, record.slack
            checked[name] = checked.get(name, 0) + 1
            if slack < -tol:
                warnings[name] = warnings.get(name, 0) + 1
            # the scaled floor is at least sign_floor, so most records stop here
            if slack < -sign_floor and _is_sign_violation(record, sign_floor):
                violations[name] = violations.get(name, 0) + 1
            if name not in min_slack or slack < min_slack[name]:
                min_slack[name] = slack
    total_violations = sum(violations.values())
    for name in sorted(checked):
        print(
            f"{name}: checked={checked[name]} violations={violations.get(name, 0)} "
            f"warnings={warnings.get(name, 0)} min_slack={min_slack[name]!r}"
        )
    if "json" in args.format:
        _dump_json(
            os.path.join(args.out, "verify.json"),
            {
                "checked": checked,
                "min_slack": min_slack,
                "samples": args.samples,
                "seed": args.seed,
                "tolerance": tol,
                "violations": violations,
                "warnings": warnings,
            },
        )
    print(f"total violations: {total_violations}")
    return 0 if total_violations == 0 else 4


def cmd_cowen_pommerenke(args) -> int:
    cfg = _load_config(args)
    tau = parse_complex(cfg["tau"])
    sigmas = tuple(BoundaryPoint(float(t)) for t in cfg["sigmas"])
    target = CPTarget(tuple(float(a) for a in cfg["target"]))
    n_fields = int(cfg.get("fields", 64))
    n_sweep = int(cfg.get("sweep", 32))
    boundary = abs(abs(tau) - 1.0) <= 1e-12
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
    written = []
    for fmt in args.format:
        if fmt == "json":
            path = os.path.join(args.out, "cowen_pommerenke.json")
            _dump_json(path, report)
        elif fmt == "csv":
            path = os.path.join(args.out, "cowen_pommerenke.csv")
            lines = ["param,re,im"]
            for j, p in enumerate(points):
                lines.append(f"{float(j)!r},{p['re']!r},{p['im']!r}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        elif fmt == "svg":
            path = os.path.join(args.out, "cowen_pommerenke.svg")
            if boundary:
                shape = IntervalRegion(region.lo, region.hi)
            else:
                shape = region
            marks = [
                _svg_path(
                    [
                        complex(p["re"], p["im"]) + 0.01 * cmath.exp(2j * math.pi * q / 8)
                        for q in range(8)
                    ],
                    "red",
                )
                for p in points
            ]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(
                    _svg_document(
                        [_unit_circle_path(), _svg_path([w for _, w in _region_rows(shape)], "black")]
                        + marks
                    )
                )
        else:
            raise ValueError(f"unknown format {fmt!r}")
        written.append(path)
    print(f"cowen-pommerenke points={len(points)} worst_slack={worst!r}")
    return 0 if worst >= -args.tolerance else 4


def cmd_counterexample(args) -> int:
    decay = [(10.0**-k, counterexample_P(10.0**-k)) for k in range(1, 7)]
    divergence = [
        (math.exp(-math.exp(float(k))), counterexample_divergence(math.exp(-math.exp(float(k)))))
        for k in range(1, 5)
    ]
    written = []
    for fmt in args.format:
        if fmt == "csv":
            path = os.path.join(args.out, "counterexample.csv")
            lines = ["kind,param,value"]
            for y, val in decay:
                lines.append(f"decay,{y!r},{val!r}")
            for delta, val in divergence:
                lines.append(f"divergence,{delta!r},{val!r}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        elif fmt == "json":
            path = os.path.join(args.out, "counterexample.json")
            _dump_json(
                path,
                {
                    "decay": [{"value": v, "y": y} for y, v in decay],
                    "divergence": [{"delta": d, "value": v} for d, v in divergence],
                },
            )
        else:
            raise ValueError(f"unknown format {fmt!r}")
        written.append(path)
    print(
        f"counterexample decay_final={decay[-1][1]!r} "
        f"divergence_final={divergence[-1][1]!r}"
    )
    return 0


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------


def _add_common(
    sub: argparse.ArgumentParser, formats: tuple[str, ...], tolerance: float = 1e-10
) -> None:
    sub.add_argument("--config", default=None, help="path to a JSON config file")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--samples", type=int, default=10000, help="sample count")
    sub.add_argument(
        "--tolerance", type=float, default=tolerance, help="violation tolerance"
    )
    sub.add_argument(
        "--format",
        action="append",
        choices=("json", "csv", "svg"),
        default=None,
        help="output format (repeatable)",
    )
    sub.set_defaults(default_formats=formats)


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
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser(
        "cowen-pommerenke", help="spectral region experiment for boundary data"
    )
    _add_common(sub, ("json",), tolerance=1e-8)
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
