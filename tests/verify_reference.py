"""Object versions of the random spec law and of verify's inequality records.

These are the sampler, the records and the loop `verify` used before they
moved to plain numbers: every sample built a FixedPointConfig, its
AtomicHerglotz functions and a GeneratorSpec, and read them back through
the generator functions.  random_spec is the only copy of the per-sample
stream, which draws one generator at a time and makes one rng.uniform call
per angle; the library samples the same law as numpy columns
(value_regions._draw_columns), in another order of the stream.  Tests that
pin the values of particular per-sample draws take their specs from here.

They serve as references for `value_regions`' record function, which must
reproduce verify_records bit for bit on the numbers a spec holds, for
the column sampler, which must follow the same law, and for `cmd_verify`,
which draws and checks its samples as numpy columns: verify_report takes
the same column rows, builds objects from each and checks them one at a
time.
"""

import cmath
import math

import numpy as np

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
from diskflow.cli import _Draws, _sign_counts
from diskflow.herglotz_core import angle_gap, circle_angle, contact_value
from diskflow.value_regions import REGIMES, _column_points, _draw_columns, origin_curvature_chart

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


def raw_from_spec(spec):
    """A spec as plain numbers, in the layout of a _draw_columns row that
    raw_rows yields and columns_from_raw takes: (regime, tau, sigma angles,
    lambdas, p's atoms as sorted (angle, mass) pairs, gamma)."""
    config, p = spec.config, spec.p
    return (
        config.regime,
        config.tau,
        [s.theta for s in config.sigmas],
        list(config.lambdas),
        [(point.theta, mass) for point, mass in p.atoms],
        p.gamma,
    )


def raw_rows(columns):
    """The rows of a _draw_columns block in raw_from_spec's layout, padding dropped."""
    regime, tau, _, sig_angles, lambdas, atom_angles, masses, gamma, _ = columns
    for i in range(len(tau)):
        sig = ~np.isnan(sig_angles[i])
        atoms = ~np.isnan(atom_angles[i])
        yield (
            regime,
            complex(tau[i]),
            sig_angles[i][sig].tolist(),
            lambdas[i][sig].tolist(),
            sorted(zip(atom_angles[i][atoms].tolist(), masses[i][atoms].tolist())),
            float(gamma[i]),
        )


def columns_from_raw(raw):
    """A one-row _draw_columns block holding a generator in raw_from_spec's layout."""
    regime, tau, sig_angles, lambdas, atoms, gamma = raw
    sig = np.full((1, 4), np.nan)
    lam = np.full((1, 4), -np.inf)
    atom_angles = np.full((1, 4), np.nan)
    masses = np.zeros((1, 4))
    sig[0, : len(sig_angles)] = sig_angles
    lam[0, : len(lambdas)] = lambdas
    for k, (theta, mass) in enumerate(atoms):
        atom_angles[0, k], masses[0, k] = theta, mass
    tau_angle = np.array([circle_angle(cmath.phase(tau))]) if regime == "boundary" else None
    tau = np.array([tau])
    points = _column_points(tau, sig, lam, atom_angles)
    return regime, tau, tau_angle, sig, lam, atom_angles, masses, np.array([gamma]), points


def spec_from_raw(raw):
    _, tau, sig_angles, lambdas, atoms, gamma = raw
    config = FixedPointConfig(tau, tuple(BoundaryPoint(t) for t in sig_angles), lambdas)
    p = AtomicHerglotz(tuple((BoundaryPoint(t), m) for t, m in atoms), gamma)
    return GeneratorSpec(config, p)


# the interior records whose sides multiply ratio = Re p(0) = Re w0 - A
_RATIO_RECORDS = ("harnack_lower", "harnack_upper", "spectral_tilt")


def record_scale(spec, record):
    """The size of the terms a record's sides are computed from:
    max(1, |lhs|, |rhs|), and for an interior tau, t = |tau|,
    - for the _RATIO_RECORDS, max(1, |lhs|, |rhs|, A) times (1 + t)/(1 - t).
      Those multiply Re w0 - A, a difference of terms of size A that
      cancels to roundoff when p has no atoms, by up to that factor;
    - for spectral_reciprocal_floor, max(1, |lhs|, |rhs|) times
      1/(1 - t^2), the conditioning of its formula in t: a last-bit
      difference in |tau| moves the record by up to that factor."""
    scale = max(1.0, abs(record.lhs), abs(record.rhs))
    if spec.config.regime != "interior":
        return scale
    t = abs(spec.config.tau)
    if record.name == "spectral_reciprocal_floor":
        return scale / (1.0 - t * t)
    if record.name not in _RATIO_RECORDS:
        return scale
    return max(scale, spec.config.capA) * (1.0 + t) / (1.0 - t)


def verify_report(seed, samples, tol, block, sign_floor_min=1e-10):
    """The report of `diskflow verify` by the object loop, on the samples
    of its column draws from the CLI's seeded stream (cli._Draws), in
    blocks of ``block`` samples, and the largest record_scale of each
    record.  A record is a warning or a violation by cmd_verify's own
    rule, cli._sign_counts, read one record at a time."""
    rng = _Draws(seed)
    sign_floor = max(tol, sign_floor_min)
    checked, warnings, violations, min_slack, scale = {}, {}, {}, {}, {}
    for start in range(0, samples, block):
        size = min(block, samples - start)
        for k, regime in enumerate(REGIMES):
            rows = len(range((k - start) % len(REGIMES), size, len(REGIMES)))
            if not rows:
                continue
            for raw in raw_rows(_draw_columns(rng, regime, rows)):
                spec = spec_from_raw(raw)
                for record in verify_records(spec):
                    name, slack = record.name, record.slack
                    checked[name] = checked.get(name, 0) + 1
                    _, warned, violated = _sign_counts(record.lhs, record.rhs, tol, sign_floor)
                    if warned:
                        warnings[name] = warnings.get(name, 0) + 1
                    if violated:
                        violations[name] = violations.get(name, 0) + 1
                    if name not in min_slack or slack < min_slack[name]:
                        min_slack[name] = slack
                    scale[name] = max(scale.get(name, 0.0), record_scale(spec, record))
    report = {
        "checked": checked,
        "min_slack": min_slack,
        "samples": samples,
        "seed": seed,
        "tolerance": tol,
        "violations": violations,
        "warnings": warnings,
    }
    return report, scale
