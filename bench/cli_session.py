"""The `cli` workload: a fixed session of diskflow commands and their checks.

The session is the same list of commands for every seed; the seed only
draws the configurations.  Each command writes into its own directory and is
checked from its artifacts against closed-form values computed here, never
against earlier output.  Standard library only, so the untraced run can
drive fresh processes without importing numpy itself.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi

# `verify` runs five times, spaced through the session, so its median is
# steady.  Each draws 10000 generators; at about 0.2 ms each its compute
# outweighs the ~1 s interpreter start every command pays.  Its seeds are
# fixed: on some seeds a roundoff-level slack (-2.3e-10 at seed 4, -4.7e-10
# at seed 2991684988) crosses verify's absolute 1e-10 floor and it exits 4,
# which would make the failure count depend on the benchmark seed.
VERIFY_SAMPLES = 10000
VERIFY_SEEDS = (0, 1, 2, 3, 5)
REGION_SAMPLES = 720
CP_TOLERANCE = 1e-8


@dataclass
class Command:
    argv: list[str]
    check: Callable[[str], list[str]]  # out dir -> problems found
    config: dict | None = None
    short: bool = True  # every command but verify
    label: str = ""


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _angles(rng: random.Random, count: int, gap: float, avoid=()) -> list[float]:
    chosen: list[float] = []
    while len(chosen) < count:
        t = rng.uniform(0.0, TWO_PI)
        if all(min(abs(t - u) % TWO_PI, TWO_PI - abs(t - u) % TWO_PI) > gap for u in chosen + list(avoid)):
            chosen.append(t)
    return chosen


def _fixed_points(rng: random.Random, tau: complex, avoid=()) -> dict:
    n = rng.randint(1, 3)
    sigmas = _angles(rng, n, 0.2, avoid)
    lambdas = [-math.exp(rng.uniform(-1.0, 1.0)) for _ in range(n)]
    return {"tau": {"re": tau.real, "im": tau.imag}, "sigmas": sigmas, "lambdas": lambdas}


def _cap_a(cfg: dict) -> float:
    tau = complex(cfg["tau"]["re"], cfg["tau"]["im"])
    return sum(
        abs(tau - cmath.exp(1j * s)) ** 2 / (2.0 * abs(v))
        for s, v in zip(cfg["sigmas"], cfg["lambdas"])
    )


def _expected_region(kind: str, cfg: dict):
    """(center, radius) of a disk or (lo, hi) of an interval, from the formulas."""
    tau = complex(cfg["tau"]["re"], cfg["tau"]["im"])
    cap_a = _cap_a(cfg)
    if kind in ("interior", "boundary"):
        return "disk", tau / (2.0 * cap_a), abs(tau) / (2.0 * cap_a)
    if kind == "origin":
        r = 1.0 / sum(1.0 / abs(v) for v in cfg["lambdas"])
        return "disk", complex(r, 0.0), r
    zeta = complex(cfg["zeta"]["re"], cfg["zeta"]["im"])
    ell = tau / zeta - cap_a
    return "interval", 0.0, 2.0 * ell.real


def _check_region(kind: str, cfg: dict, fmt: str) -> Callable[[str], list[str]]:
    shape, a, b = _expected_region(kind, cfg)

    def check(out: str) -> list[str]:
        path = os.path.join(out, f"region.{fmt}")
        if fmt == "json":
            with open(path, encoding="utf-8") as fh:
                base = json.load(fh)["base"]
            if shape == "disk":
                got = complex(base["center"]["re"], base["center"]["im"])
                if not (_close(got, a, 1e-12) and _close(base["radius"], b, 1e-12)):
                    return [f"{kind} region {got}, {base['radius']} != {a}, {b}"]
            elif not (_close(base["lo"], a, 1e-12) and _close(base["hi"], b, 1e-12)):
                return [f"{kind} interval [{base['lo']}, {base['hi']}] != [{a}, {b}]"]
            return []
        if fmt == "csv":
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != ["param", "re", "im"] or len(rows) != REGION_SAMPLES + 1:
                return [f"{kind} csv has {len(rows)} rows"]
            pts = [complex(float(r[1]), float(r[2])) for r in rows[1:]]
            if shape == "disk":
                bad = [w for w in pts if abs(abs(w - a) - b) > 1e-12 * max(1.0, b)]
            else:
                bad = [w for w in pts if w.imag != 0.0 or not a - 1e-12 <= w.real <= b + 1e-12]
                if not (_close(pts[0].real, a, 1e-12) and _close(pts[-1].real, b, 1e-12)):
                    bad.append(pts[0])
            return [f"{kind} csv: {len(bad)} points off the region boundary"] if bad else []
        paths = [e for e in ET.parse(path).getroot().iter() if e.tag.endswith("path")]
        return [] if len(paths) == 2 else [f"{kind} svg has {len(paths)} paths, expected 2"]

    return check


def _check_flow(cfg: dict, fmt: str) -> Callable[[str], list[str]]:
    from reference import koenigs_orbit

    theta = cfg["generator"]["sigmas"][0]
    lam = cfg["generator"]["lambdas"][0]
    z0 = complex(cfg["z0"]["re"], cfg["z0"]["im"])

    def agrees(t: float, w: complex, dw: complex) -> bool:
        w_ref, dw_ref = koenigs_orbit(theta, lam, z0, t)
        return abs(w - w_ref) <= 1e-8 and _close(dw, dw_ref, 1e-7)

    def check(out: str) -> list[str]:
        if fmt == "json":
            with open(os.path.join(out, "flow.json"), encoding="utf-8") as fh:
                rep = json.load(fh)
            w = complex(rep["endpoint"]["re"], rep["endpoint"]["im"])
            dw = complex(rep["derivative"]["re"], rep["derivative"]["im"])
            return [] if agrees(cfg["t"], w, dw) else [f"flow endpoint {w} off the Koenigs orbit"]
        with open(os.path.join(out, "trajectory.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != 200 or float(rows[-1][0]) != cfg["t"]:
            return [f"trajectory has {len(rows)} rows ending at t={rows[-1][0]}"]
        bad = [
            r for r in rows
            if not agrees(float(r[0]), complex(float(r[1]), float(r[2])), complex(float(r[3]), float(r[4])))
        ]
        return [f"trajectory: {len(bad)} rows off the Koenigs orbit"] if bad else []

    return check


def _check_cp(cfg: dict, boundary: bool) -> Callable[[str], list[str]]:
    r = 1.0 / sum(1.0 / math.log(a) for a in cfg["target"])

    def check(out: str) -> list[str]:
        with open(os.path.join(out, "cowen_pommerenke.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        half = r / 2.0 if boundary else r
        region = rep["region"]
        problems = []
        if not (_close(region["center"], half, 1e-12) and _close(region["radius"], half, 1e-12)):
            problems.append(f"cp region {region} != center = radius = {half}")
        expected_points = 1 + 64 if boundary else 1 + 32 + 64
        if len(rep["points"]) != expected_points:
            problems.append(f"cp has {len(rep['points'])} points, expected {expected_points}")
        for p in rep["points"]:
            w = complex(p["re"], p["im"])
            slack = min(w.real, r - w.real) if boundary else r - abs(w - r)
            if slack < -CP_TOLERANCE or (boundary and w.imag != 0.0):
                problems.append(f"cp point {w} outside the region (slack {slack})")
        if min(p["slack"] for p in rep["points"]) < -CP_TOLERANCE:
            problems.append("cp worst slack below -tolerance")
        return problems

    return check


def _check_counterexample(out: str) -> list[str]:
    with open(os.path.join(out, "counterexample.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    decay = [float(v) for k, _, v in rows if k == "decay"]
    div = [(float(d), float(v)) for k, d, v in rows if k == "divergence"]
    problems = []
    if len(decay) != 6 or any(b >= a for a, b in zip(decay, decay[1:])) or decay[-1] >= 0.2:
        problems.append(f"decay column {decay} is not strictly decreasing below 0.2")
    if len(div) != 4 or any(abs(v - math.log(math.log(1.0 / d))) > 1e-9 for d, v in div):
        problems.append(f"divergence column {div} != log log(1/delta)")
    return problems


def _check_verify(seed: int) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        with open(os.path.join(out, "verify.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        problems = []
        if rep["violations"]:
            problems.append(f"verify reported violations {rep['violations']}")
        if rep["samples"] != VERIFY_SAMPLES or rep["seed"] != seed:
            problems.append("verify ran on other samples or seed")
        if rep["checked"].get("spectral_in_range") != VERIFY_SAMPLES:
            problems.append("verify did not check every sample")
        return problems

    return check


def session(seed: int) -> list[Command]:
    """The commands of one session; configurations are drawn from ``seed``."""
    rng = random.Random(seed)
    commands: list[Command] = []

    def interior_tau() -> complex:
        return cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0.0, TWO_PI))

    for k, kind in enumerate(("interior", "origin", "boundary", "parabolic")):
        if kind == "interior":
            cfg = _fixed_points(rng, interior_tau())
        elif kind == "origin":
            cfg = _fixed_points(rng, 0j)
        else:
            tau_theta = rng.uniform(0.0, TWO_PI)
            cfg = _fixed_points(rng, cmath.exp(1j * tau_theta), avoid=(tau_theta,))
        if kind == "parabolic":
            tau = complex(cfg["tau"]["re"], cfg["tau"]["im"])
            center = tau / (2.0 * _cap_a(cfg))
            zeta = center + abs(center) * rng.uniform(0.0, 0.9) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            cfg["zeta"] = {"re": zeta.real, "im": zeta.imag}
        cfg["kind"] = kind
        for fmt in ("json", "csv", "svg"):
            commands.append(
                Command(["region", "--format", fmt], _check_region(kind, cfg, fmt), cfg, label=f"region-{kind}-{fmt}")
            )
        commands.append(_verify(VERIFY_SEEDS[k]))

    flow = {
        "generator": {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [rng.uniform(0.0, TWO_PI)],
                      "lambdas": [-math.exp(rng.uniform(-1.0, 1.0))]},
        "z0": (lambda z: {"re": z.real, "im": z.imag})(cmath.rect(rng.uniform(0.0, 0.8), rng.uniform(0.0, TWO_PI))),
        "t": rng.uniform(0.2, 1.0),
    }
    for fmt in ("csv", "json"):
        commands.append(Command(["flow", "--format", fmt], _check_flow(flow, fmt), flow, label=f"flow-{fmt}"))

    for boundary in (False, True):
        n = rng.randint(2, 3)
        if boundary:
            tau_theta = rng.uniform(0.0, TWO_PI)
            tau, sigmas = cmath.exp(1j * tau_theta), _angles(rng, n, 0.2, (tau_theta,))
        else:
            tau, sigmas = interior_tau(), _angles(rng, n, 0.2)
        cfg = {"tau": {"re": tau.real, "im": tau.imag}, "sigmas": sigmas,
               "target": [math.exp(rng.uniform(0.3, 1.2)) for _ in range(n)]}
        commands.append(
            Command(["cowen-pommerenke", "--seed", str(rng.randrange(2**32))],
                    _check_cp(cfg, boundary), cfg, label=f"cowen-pommerenke-{'boundary' if boundary else 'interior'}")
        )

    commands.append(Command(["counterexample"], _check_counterexample, label="counterexample"))
    commands.append(_verify(VERIFY_SEEDS[4]))
    return commands


def _verify(seed: int) -> Command:
    return Command(["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)],
                   _check_verify(seed), short=False, label=f"verify-{seed}")


def prepare(command: Command, index: int, workdir: str) -> list[str]:
    """Make the command's output directory, write its config, return its argv."""
    out = os.path.join(workdir, f"{index:02d}-{command.label}")
    os.makedirs(out, exist_ok=True)
    argv = list(command.argv) + ["--out", out]
    if command.config is not None:
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(command.config, fh)
        argv += ["--config", path]
    return argv


def check(command: Command, index: int, workdir: str, exit_code: int) -> list[str]:
    if exit_code != 0:
        return [f"{command.label} exited {exit_code}"]
    try:
        return command.check(os.path.join(workdir, f"{index:02d}-{command.label}"))
    except (OSError, ValueError, KeyError, IndexError, ET.ParseError) as exc:
        return [f"{command.label}: unreadable artifact: {exc!r}"]
