"""Package-level acceptance checks.

Each test exercises one headline guarantee end to end, at the tolerance
the guarantee is stated with.  Sample counts are chosen so every test
finishes comfortably within a minute."""

import cmath
import math

import numpy as np
import pytest

from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    CPTarget,
    FixedPointConfig,
    GeneratorSpec,
    RationalHerglotz,
    beta,
    boundary_log_derivative,
    brfp_spectral_value,
    counterexample_P,
    counterexample_divergence,
    cp_experiment,
    cp_extremal_field,
    cp_region,
    cp_region_boundary,
    dw_spectral_value,
    estimate_boundary_derivative,
    eta_chart,
    eval_generator,
    eval_herglotz,
    evolve,
    extremal_boundary_of_Z,
    extremal_hyperbolic,
    extremal_interior,
    extremal_origin,
    extremal_parabolic,
    integrate_flow,
    integrate_flow_with_derivative,
    interval_I,
    julia_quotient_estimate,
    lambda_range,
    origin_curvature_chart,
    parabolic_region,
    psi_tau,
    q_concavity_check,
    random_spec,
    random_strict_field,
    reciprocal,
    region_Omega,
    region_Omega_origin,
    region_Z,
    region_Z_omega,
    semiflow,
)
from diskflow.herglotz_core import angle_gap

TWO_PI = 2.0 * math.pi


def fresh_rng(salt: int = 0):
    return np.random.default_rng(987654321 + salt)


# ----------------------------------------------------------------------
# 1. repelling spectral values are exact, with and without free atoms
# ----------------------------------------------------------------------


def test_repelling_spectral_values_exact():
    rng = fresh_rng(1)
    for _ in range(1000):
        regime = ("interior", "origin", "boundary_hyperbolic")[int(rng.integers(3))]
        spec = random_spec(rng, regime)
        config = spec.config
        for k, sigma in enumerate(config.sigmas):
            mass = spec.p.atom_mass_at(sigma)
            if mass == 0.0:
                assert abs(brfp_spectral_value(spec, k) - config.lambdas[k]) <= 1e-12
        # now force an atom onto one repelling point and check the shift
        k = int(rng.integers(config.n))
        m = float(np.exp(rng.uniform(-3.0, 1.0)))
        bumped = GeneratorSpec(
            config,
            AtomicHerglotz(spec.p.atoms + ((config.sigmas[k], m),), spec.p.gamma),
        )
        total = spec.p.atom_mass_at(config.sigmas[k]) + m
        expect = -abs(config.lambdas[k]) / (1.0 + total / config.alphas[k])
        assert abs(brfp_spectral_value(bumped, k) - expect) <= 1e-12


# ----------------------------------------------------------------------
# 2. the reciprocal map is an involution and a pointwise inverse
# ----------------------------------------------------------------------


def test_reciprocal_involution_and_inverse():
    rng = fresh_rng(2)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        angles = []
        while len(angles) < m:
            t = float(rng.uniform(0.0, TWO_PI))
            if all(abs(t - u) > 1e-3 for u in angles):
                angles.append(t)
        atoms = tuple(
            (BoundaryPoint(t), float(np.exp(rng.uniform(-2.0, 1.0)))) for t in angles
        )
        p = RationalHerglotz(atoms, float(rng.uniform(-3.0, 3.0)))
        q = reciprocal(p)
        back = reciprocal(q)

        assert len(back.atoms) == m
        for (s0, m0), (s1, m1) in zip(p.atoms, back.atoms):
            assert angle_gap(s0.theta, s1.theta) <= 1e-9
            assert abs(m1 - m0) <= 1e-9 * max(1.0, m0)
        assert abs(back.gamma - p.gamma) <= 1e-9

        u = math.sqrt(float(rng.uniform(0.0, 0.9))) * cmath.exp(
            1j * float(rng.uniform(0.0, TWO_PI))
        )
        prod = eval_herglotz(p, u) * eval_herglotz(q, u)
        assert abs(prod - 1.0) <= 1e-9


# ----------------------------------------------------------------------
# 3. value regions contain every sampled observable; extremals sit on the
#    boundary and are the only one-atom candidates that do
# ----------------------------------------------------------------------


def _containment_slacks(spec):
    config = spec.config
    zeta = eval_generator(spec, 0.0)
    lam = dw_spectral_value(spec)
    out = []
    if abs(config.tau) <= 1e-12:
        out.append(region_Omega_origin(config).slack(lam))
        out.append(region_Z_omega(config, lam).slack(origin_curvature_chart(spec)))
        return out
    out.append(region_Z(config).slack(zeta))
    full, _ = lambda_range(config)
    if not config.is_boundary:
        out.append(region_Omega(config, zeta).slack(eta_chart(config, lam)))
        out.append(full.slack(lam))
        return out
    out.append(full.slack(float(lam)))
    if spec.p.atom_mass_at(BoundaryPoint.from_complex(config.tau)) > 0.0:
        out.append(parabolic_region(config, zeta).slack(beta(spec)))
    else:
        out.append(interval_I(config, zeta).slack(float(lam)))
    return out


@pytest.mark.parametrize(
    "regime", ["interior", "origin", "boundary_hyperbolic", "boundary_parabolic"]
)
def test_region_containment_no_violations(regime):
    rng = fresh_rng(3)
    worst = math.inf
    for _ in range(10_000):
        spec = random_spec(rng, regime)
        worst = min(worst, min(_containment_slacks(spec)))
    assert worst >= -1e-9


def _sample_with_mass(rng, regime, floor=1e-2):
    while True:
        spec = random_spec(rng, regime)
        if spec.p.total_mass >= floor:
            return spec


def test_extremal_constructors_reach_boundary():
    rng = fresh_rng(31)
    for _ in range(100):
        spec = _sample_with_mass(rng, "interior")
        config = spec.config
        zeta = eval_generator(spec, 0.0)
        om = region_Omega(config, zeta)
        sigma = BoundaryPoint(float(rng.uniform(0.0, TWO_PI)))
        ext = extremal_interior(config, zeta, sigma)
        assert abs(om.slack(eta_chart(config, dw_spectral_value(ext)))) <= 1e-10

        spec = _sample_with_mass(rng, "origin")
        omega = dw_spectral_value(spec)
        zw = region_Z_omega(spec.config, omega)
        ext = extremal_origin(spec.config, omega, sigma)
        assert abs(zw.slack(origin_curvature_chart(ext))) <= 1e-10

        spec = _sample_with_mass(rng, "boundary_hyperbolic")
        zeta = eval_generator(spec, 0.0)
        iv = interval_I(spec.config, zeta)
        ext = extremal_hyperbolic(spec.config, zeta)
        assert abs(dw_spectral_value(ext) - iv.hi) <= 1e-10

        spec = random_spec(rng, "boundary_parabolic")
        zeta = eval_generator(spec, 0.0)
        iv = parabolic_region(spec.config, zeta)
        ext = extremal_parabolic(spec.config, zeta)
        assert abs(beta(ext) - iv.hi) <= 1e-10

    config = FixedPointConfig(0.5, (BoundaryPoint(0.0),), (-1.0,))
    zdisk = region_Z(config)
    for w in zdisk.sample_boundary(24):
        if abs(w) < 1e-9:  # the edge of Z passes through 0, where ell blows up
            continue
        ext = extremal_boundary_of_Z(config, w)
        assert abs(zdisk.slack(eval_generator(ext, 0.0))) <= 1e-10


GRID = 720


def test_interior_extremal_unique_on_sigma_grid():
    config = FixedPointConfig(0.5, (BoundaryPoint(0.0),), (-1.0,))
    zeta = 1.0 + 0.5j
    base_theta = 1.0
    target = eta_chart(
        config,
        dw_spectral_value(extremal_interior(config, zeta, BoundaryPoint(base_theta))),
    )
    matches = 0
    for j in range(GRID):
        sigma = BoundaryPoint(base_theta + TWO_PI * j / GRID)
        eta = eta_chart(
            config, dw_spectral_value(extremal_interior(config, zeta, sigma))
        )
        if abs(eta - target) <= 1e-8:
            matches += 1
    assert matches == 1


def test_origin_extremal_unique_on_sigma_grid():
    config = FixedPointConfig(
        0.0, (BoundaryPoint(0.0), BoundaryPoint(math.pi)), (-1.0, -1.0)
    )
    omega = 0.4 + 0.1j
    base_theta = 1.0
    target = origin_curvature_chart(
        extremal_origin(config, omega, BoundaryPoint(base_theta))
    )
    matches = 0
    for j in range(GRID):
        sigma = BoundaryPoint(base_theta + TWO_PI * j / GRID)
        chart = origin_curvature_chart(extremal_origin(config, omega, sigma))
        if abs(chart - target) <= 1e-8:
            matches += 1
    assert matches == 1


def test_hyperbolic_extremal_unique_on_sigma_grid():
    config = FixedPointConfig(1.0, (BoundaryPoint(math.pi),), (-1.0,))
    zeta = 0.2 + 0.05j
    ext = extremal_hyperbolic(config, zeta)
    top = interval_I(config, zeta).hi
    assert abs(dw_spectral_value(ext) - top) <= 1e-12
    star = ext.p.atoms[0][0]
    mass = ext.p.atoms[0][1]
    gamma = ext.p.gamma
    matches = 0
    for j in range(GRID):
        sigma = BoundaryPoint(star.theta + TWO_PI * j / GRID)
        cand = GeneratorSpec(config, AtomicHerglotz(((sigma, mass),), gamma))
        if abs(float(dw_spectral_value(cand)) - top) <= 1e-8:
            matches += 1
    assert matches == 1


def test_parabolic_extremal_unique_on_sigma_grid():
    config = FixedPointConfig(1.0, (BoundaryPoint(math.pi),), (-1.0,))
    zeta = 0.2 + 0.05j
    ext = extremal_parabolic(config, zeta)
    top = parabolic_region(config, zeta).hi
    assert abs(beta(ext) - top) <= 1e-12
    tau_pt = BoundaryPoint.from_complex(config.tau)
    mass = ext.p.atom_mass_at(tau_pt)
    gamma = ext.p.gamma
    matches = 0
    for j in range(GRID):
        sigma = BoundaryPoint(tau_pt.theta + TWO_PI * j / GRID)
        cand = GeneratorSpec(config, AtomicHerglotz(((sigma, mass),), gamma))
        if abs(beta(cand) - top) <= 1e-8:
            matches += 1
    assert matches == 1


# ----------------------------------------------------------------------
# 4. the unconstrained spectral range is sharp
# ----------------------------------------------------------------------


def test_spectral_range_sharp_interior():
    config = FixedPointConfig(0.3 + 0.1j, (BoundaryPoint(0.0),), (-1.0,))
    region, ext = lambda_range(config)
    assert abs(dw_spectral_value(ext).real - 2.0 * region.radius) <= 1e-10
    assert abs(2.0 * region.radius - 2.0) <= 1e-12
    rng = fresh_rng(4)
    for _ in range(1000):
        spec = GeneratorSpec(config, random_spec(rng, "interior").p)
        assert dw_spectral_value(spec).real <= 2.0 * region.radius + 1e-10


def test_spectral_range_sharp_boundary():
    config = FixedPointConfig(1.0, (BoundaryPoint(math.pi),), (-1.0,))
    region, ext = lambda_range(config)
    assert abs(region.hi - 1.0) <= 1e-12
    assert abs(dw_spectral_value(ext) - region.hi) <= 1e-10
    rng = fresh_rng(41)
    for _ in range(1000):
        spec = GeneratorSpec(config, random_spec(rng, "boundary_hyperbolic").p)
        assert float(dw_spectral_value(spec)) <= region.hi + 1e-10


# ----------------------------------------------------------------------
# 5. the integrated semiflow matches a closed-form conjugacy
# ----------------------------------------------------------------------

KOENIGS = GeneratorSpec(
    FixedPointConfig(0.0, (BoundaryPoint(0.0),), (-2.0,)), AtomicHerglotz()
)


def _koenigs_oracle(z0: float, t: float) -> float:
    # solve w/(1-w)^2 = exp(-4t) z0/(1-z0)^2 on [0, z0] by bisection;
    # the left side increases on [0, 1)
    target = math.exp(-4.0 * t) * z0 / (1.0 - z0) ** 2
    lo, hi = 0.0, z0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid / (1.0 - mid) ** 2 < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_semiflow_matches_conjugacy_oracle():
    got = integrate_flow(KOENIGS, 0.5, 0.1)
    oracle = _koenigs_oracle(0.5, 0.1)
    assert abs(oracle - 0.43220718724561547) <= 1e-12
    assert abs(got - oracle) <= 1e-8

    for t in (0.1, 0.5):
        _, dphi = integrate_flow_with_derivative(KOENIGS, 0.0, t)
        assert abs(dphi - math.exp(-4.0 * t)) <= 1e-8

    # the public flows solve the closed form at an interior tau; the ODE
    # behind them is held to the same oracle
    (got,), _, _ = semiflow._lone(KOENIGS, 0.5 + 0j, 0.1, False)
    assert abs(got - oracle) <= 1e-8
    for t in (0.1, 0.5):
        (_, dphi), _, _ = semiflow._lone(KOENIGS, 0j, t, True)
        assert abs(dphi - math.exp(-4.0 * t)) <= 1e-8

    t = 0.5
    est = estimate_boundary_derivative(KOENIGS, BoundaryPoint(0.0), t)
    assert abs(est - math.exp(2.0 * t)) <= 1e-3 * math.exp(2.0 * t)


# ----------------------------------------------------------------------
# 6. the prescribed-derivative region is sharp and reachable
# ----------------------------------------------------------------------


def test_prescribed_derivative_region_sharp():
    target = CPTarget((math.e,))
    region = cp_region(target)
    assert abs(region.radius - 1.0) <= 1e-12

    field = cp_extremal_field(0.0, (BoundaryPoint(0.0),), target)
    psi = psi_tau(field)
    assert abs(psi - 2.0) <= 1e-12
    # the ODE cross-check; the public flows take the closed form from tau
    w, dphi = 0j, 1.0
    for duration, spec in field.segments:
        (w, v), _, _ = semiflow._lone(spec, w, duration, True)
        dphi *= v
    assert abs(-math.log(abs(dphi)) - 2.0) <= 1e-6

    pair = CPTarget((math.e, math.e))
    sigmas = (BoundaryPoint(0.0), BoundaryPoint(math.pi))
    rng = fresh_rng(6)
    for _ in range(500):
        rand = random_strict_field(rng, 0.0, sigmas, pair)
        _, slack = cp_experiment(0.0, sigmas, pair, rand)
        assert slack >= -1e-8

    edge_sigmas = (BoundaryPoint(math.pi / 2), BoundaryPoint(math.pi))
    edge = cp_extremal_field(1.0, edge_sigmas, pair)
    attained = psi_tau(edge)
    assert abs(attained - cp_region_boundary(pair).hi) <= 1e-6
    assert abs(attained.imag) <= 1e-12


# ----------------------------------------------------------------------
# 7. piecewise fields: boundary products aggregate exactly
# ----------------------------------------------------------------------


def test_piecewise_boundary_products():
    sigmas = (BoundaryPoint(0.0), BoundaryPoint(math.pi))
    target = CPTarget((2.0, 1.5))
    rng = fresh_rng(7)
    for _ in range(100):
        field = random_strict_field(rng, 0.0, sigmas, target)
        total = sum(boundary_log_derivative(field, k) for k in range(2))
        assert abs(total - sum(d for d, _ in field.segments)) <= 1e-9

    for salt in (71, 72):
        field = random_strict_field(fresh_rng(salt), 0.0, sigmas, target)
        k = salt % 2
        expect = math.exp(boundary_log_derivative(field, k))
        est = julia_quotient_estimate(lambda z: evolve(field, z), sigmas[k])
        assert abs(est - expect) <= 1e-3 * expect


# ----------------------------------------------------------------------
# 8. brute-force contact minimization over two-atom measures
# ----------------------------------------------------------------------


def _two_atom_grid_minimum(a: float):
    """Scan 200x200 angle pairs; the mixing weight is pinned by the
    constraint sum(m_j c_j) = a, admitted when it lies in [0, 1]."""
    theta = TWO_PI * np.arange(GRID_COARSE) / GRID_COARSE
    half = theta / 2.0
    with np.errstate(divide="ignore"):
        c = -np.cos(half) / np.sin(half)  # tilt of each kernel at tau = 1
    c[0] = np.inf  # the atom at tau itself never minimizes
    f = (1.0 + c * c) / 2.0

    c1 = c[:, None]
    c2 = c[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = (a - c2) / (c1 - c2)
        val = w * f[:, None] + (1.0 - w) * f[None, :]
    feasible = np.isfinite(val) & (w >= 0.0) & (w <= 1.0)
    val = np.where(feasible, val, np.inf)
    flat = int(np.argmin(val))
    i, j = divmod(flat, GRID_COARSE)
    w_star = float(w[i, j])
    # dominant atom of the minimizing measure
    angle = theta[i] if w_star >= 0.5 else theta[j]
    return float(val[i, j]), angle


GRID_COARSE = 200


@pytest.mark.parametrize("a", [0.0, 1.0, -2.0])
def test_contact_minimum_brute_force(a):
    closed = (1.0 + a * a) / 2.0
    got, angle = _two_atom_grid_minimum(a)
    # the lattice never beats the sharp closed form
    assert got >= closed - 1e-4
    assert got <= closed + 1e-3
    if a in (0.0, 1.0):  # minimizer angle lies on the lattice: exact attainment
        assert abs(got - closed) <= 1e-12
    star = -(1.0 + 1j * a) / (1.0 - 1j * a)
    gap = abs(angle - math.atan2(star.imag, star.real) % TWO_PI)
    gap = min(gap, TWO_PI - gap)
    assert gap <= TWO_PI / GRID_COARSE


# ----------------------------------------------------------------------
# 9. concavity of the harmonic aggregate
# ----------------------------------------------------------------------


def test_harmonic_aggregate_concavity():
    rng = fresh_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        x = np.exp(rng.uniform(-2.0, 2.0, size=n))
        report = q_concavity_check(tuple(x), rng=rng)
        assert report.concave
        assert report.max_eigenvalue <= 1e-9
        assert report.abs_det <= 1e-9 * report.det_scale
        assert report.min_midpoint_gap >= -1e-12
        assert report.min_strict_gap > 0.0


# ----------------------------------------------------------------------
# 10. the decay/divergence counterexample integrals
# ----------------------------------------------------------------------


def test_counterexample_decay_and_divergence():
    values = [counterexample_P(10.0**-k) for k in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.2

    for k in range(1, 5):
        delta = math.exp(-math.exp(float(k)))
        v = counterexample_divergence(delta)
        assert abs(v - math.log(math.log(1.0 / delta))) <= 1e-9
    final = counterexample_divergence(math.exp(-math.exp(4.0)))
    assert final >= 4.0 - 1e-9
