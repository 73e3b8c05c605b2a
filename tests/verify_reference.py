"""Object versions of the random spec law and of verify's inequality records.

These are the sampler, the records and the loop `verify` used before they
moved to plain numbers: every sample built a FixedPointConfig, its
AtomicHerglotz functions and a GeneratorSpec, and read them back through
the generator functions.  They serve as references for `value_regions`'
raw draw and record function and for `cmd_verify`, which must reproduce
them bit for bit and consume the same random stream.
"""

import cmath
import math

from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    DiskRegion,
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    InequalityRecord,
    beta,
    dw_spectral_value,
    eval_denominator,
    eval_generator,
    lambda_range,
    region_Z,
)
from diskflow.herglotz_core import angle_gap, contact_value
from diskflow.value_regions import REGIMES, origin_curvature_chart

TWO_PI = 2.0 * math.pi


def _distinct_angles(rng, count, min_gap, avoid=(), avoid_gap=0.0):
    chosen = []
    while len(chosen) < count:
        theta = float(rng.uniform(0.0, TWO_PI))
        ok = all(angle_gap(theta, c) > min_gap for c in chosen) and all(
            angle_gap(theta, c) > avoid_gap for c in avoid
        )
        if ok:
            chosen.append(theta)
    return chosen


def random_spec(rng, regime="interior"):
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    n = int(rng.integers(1, 5))
    sig_angles = _distinct_angles(rng, n, 1e-6)
    sigmas = tuple(BoundaryPoint(t) for t in sig_angles)
    lambdas = tuple(-math.exp(x) for x in rng.uniform(-2.0, 2.0, n))

    if regime == "origin":
        tau = 0.0 + 0.0j
        tau_angle = ()
    elif regime == "interior":
        while True:
            tau = math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            if abs(tau) > 1e-6:
                break
        tau_angle = ()
    else:
        theta = _distinct_angles(rng, 1, 0.0, avoid=tuple(sig_angles), avoid_gap=1e-3)[0]
        tau = BoundaryPoint(theta).value
        tau_angle = (theta,)

    config = FixedPointConfig(tau, sigmas, lambdas)

    n_atoms = int(rng.integers(0, 4))
    atom_angles = _distinct_angles(rng, n_atoms, 1e-6, avoid=tau_angle, avoid_gap=1e-3)
    atoms = [
        (BoundaryPoint(t), math.exp(rng.uniform(-3.0, 1.0))) for t in atom_angles
    ]
    gamma = float(rng.uniform(-5.0, 5.0))

    if regime == "boundary_hyperbolic":
        tau_bp = BoundaryPoint.from_complex(tau)
        tilt = contact_value(AtomicHerglotz(tuple(atoms), 0.0), tau_bp).imag
        gamma = -config.capB - tilt
    elif regime == "boundary_parabolic":
        tau_bp = BoundaryPoint.from_complex(tau)
        atoms.append((tau_bp, math.exp(rng.uniform(-3.0, 1.0))))

    return GeneratorSpec(config, AtomicHerglotz(tuple(atoms), gamma))


def inequality_suite(spec):
    config = spec.config
    a_cap = config.capA
    b_cap = config.capB
    s = config.inv_lambda_sum
    records = []
    w0 = eval_denominator(spec, 0.0)
    lam = dw_spectral_value(spec)

    if not config.is_boundary:
        inv = 1.0 / lam
        records.append(InequalityRecord("spectral_reciprocal_floor", s, 2.0 * inv.real))
        if config.is_origin:
            chart = origin_curvature_chart(spec)
            center = sum(
                p.value.conjugate() / abs(v)
                for p, v in zip(config.sigmas, config.lambdas)
            )
            records.append(
                InequalityRecord(
                    "curvature_window", abs(chart - center), 2.0 * inv.real - s
                )
            )
            return records
        t = abs(config.tau)
        one_m = 1.0 - t * t
        records.append(InequalityRecord("origin_ratio_real", a_cap, w0.real))
        ratio = w0.real - a_cap
        mid = (one_m * inv).real - one_m * s / 2.0
        records.append(
            InequalityRecord("harnack_lower", (1.0 - t) / (1.0 + t) * ratio, mid)
        )
        records.append(
            InequalityRecord("harnack_upper", mid, (1.0 + t) / (1.0 - t) * ratio)
        )
        tilt = abs((one_m * inv - w0).imag - b_cap)
        records.append(
            InequalityRecord("spectral_tilt", tilt, 2.0 * t / one_m * ratio)
        )
        return records

    records.append(InequalityRecord("origin_ratio_real", a_cap, w0.real))
    records.append(InequalityRecord("boundary_spectral_cap", lam, 1.0 / s))
    ratio = w0.real - a_cap
    if lam > 0.0:
        lhs = ratio**2 + (w0.imag + b_cap) ** 2
        records.append(
            InequalityRecord("hyperbolic_window", lhs, 2.0 * (1.0 / lam - s) * ratio)
        )
    else:
        b = beta(spec)
        records.append(InequalityRecord("parabolic_floor", 0.0, b))
        records.append(InequalityRecord("parabolic_cap", b, 2.0 * ratio))
    return records


def _membership(name, region, w):
    if isinstance(region, DiskRegion):
        return InequalityRecord(name, abs(complex(w) - region.center), region.radius)
    if w - region.lo <= region.hi - w:
        return InequalityRecord(name, region.lo, w)
    return InequalityRecord(name, w, region.hi)


def verify_records(spec):
    """inequality_suite plus verify's two region memberships."""
    records = inequality_suite(spec)
    config = spec.config
    zeta = eval_generator(spec, 0.0)
    if not config.is_origin:
        records.append(_membership("origin_in_Z", region_Z(config), zeta))
    lam = dw_spectral_value(spec)
    region, _ = lambda_range(config)
    records.append(_membership("spectral_in_range", region, lam))
    return records


def _is_sign_violation(record, floor):
    return record.slack < -floor * max(1.0, abs(record.lhs), abs(record.rhs))


def verify_report(seed, samples, tol, sign_floor_min=1e-10):
    """The report and stdout lines of `diskflow verify`, by the object loop."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sign_floor = max(tol, sign_floor_min)
    checked, warnings, violations, min_slack = {}, {}, {}, {}
    for i in range(samples):
        regime = REGIMES[i % len(REGIMES)]
        spec = random_spec(rng, regime)
        for record in verify_records(spec):
            name, slack = record.name, record.slack
            checked[name] = checked.get(name, 0) + 1
            if _is_sign_violation(record, tol):
                warnings[name] = warnings.get(name, 0) + 1
                if _is_sign_violation(record, sign_floor):
                    violations[name] = violations.get(name, 0) + 1
            if name not in min_slack or slack < min_slack[name]:
                min_slack[name] = slack
    lines = [
        f"{name}: checked={checked[name]} violations={violations.get(name, 0)} "
        f"warnings={warnings.get(name, 0)} min_slack={min_slack[name]!r}"
        for name in sorted(checked)
    ]
    lines.append(f"total violations: {sum(violations.values())}")
    report = {
        "checked": checked,
        "min_slack": min_slack,
        "samples": samples,
        "seed": seed,
        "tolerance": tol,
        "violations": violations,
        "warnings": warnings,
    }
    return report, lines
