"""Tests for piecewise-constant fields, prescribed boundary derivatives,
and the harmonic-mean region for the attracting spectral aggregate."""

import cmath
import math

import numpy as np
import pytest

import loop_reference
from diskflow import loewner_cp
from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    CPTarget,
    DegenerateConfig,
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    NormalizationError,
    PiecewiseField,
    TargetMismatch,
    boundary_log_derivative,
    contact_value,
    cp_experiment,
    cp_extremal_field,
    cp_region,
    cp_region_boundary,
    denominator_herglotz,
    dw_spectral_value,
    evolve,
    evolve_with_derivative,
    harmonic_Q,
    integrate_flow,
    julia_quotient_estimate,
    psi_tau,
    q_concavity_check,
    q_hessian,
    random_strict_field,
)

S2 = (BoundaryPoint(0.0), BoundaryPoint(math.pi))


def unit_spec(tau, sigmas, lambdas, p=None):
    return GeneratorSpec(
        FixedPointConfig(tau, sigmas, lambdas), p if p is not None else AtomicHerglotz()
    )


# ----------------------------------------------------------------------
# field construction
# ----------------------------------------------------------------------


def test_field_requires_segments_and_positive_durations():
    spec = unit_spec(0.0, S2, (-0.5, -0.5))
    with pytest.raises((ValueError, DomainError)):
        PiecewiseField(())
    with pytest.raises((ValueError, DomainError)):
        PiecewiseField(((0.0, spec),))


STRICT_SPEC = unit_spec(0.0, S2, (-0.5, -0.5))


# NaN fails every comparison, so a check written as "v <= 0 raises" lets it
# through; an infinite target, duration or entry is refused as well
@pytest.mark.parametrize(
    "build",
    [
        lambda: CPTarget((math.e, math.nan)),
        lambda: CPTarget((math.inf,)),
        lambda: PiecewiseField(((math.nan, STRICT_SPEC),)),
        lambda: PiecewiseField(((1.0, STRICT_SPEC), (math.inf, STRICT_SPEC))),
        lambda: harmonic_Q((1.0, math.nan)),
        lambda: harmonic_Q((math.inf, math.inf)),
        lambda: q_hessian((1.0, math.nan)),
        lambda: q_hessian((1.0, math.inf)),
    ],
    ids=[
        "target-nan",
        "target-inf",
        "duration-nan",
        "duration-inf",
        "Q-nan",
        "Q-inf",
        "hessian-nan",
        "hessian-inf",
    ],
)
def test_non_finite_inputs_raise(build):
    with pytest.raises(DomainError):
        build()


def test_field_strict_normalization():
    good = unit_spec(0.0, S2, (-0.5, -0.5))
    PiecewiseField(((1.0, good),))
    bad = unit_spec(0.0, S2, (-0.5, -0.6))
    with pytest.raises(NormalizationError):
        PiecewiseField(((1.0, bad),))
    # relaxed mode accepts sums below 1 but not above
    PiecewiseField(((1.0, unit_spec(0.0, S2, (-0.2, -0.3))),), strict=False)
    with pytest.raises(NormalizationError):
        PiecewiseField(((1.0, bad),), strict=False)


def test_field_strictness_uses_actual_spectral_values():
    # a free atom on F shifts the actual modulus; the skeleton sum alone
    # would pass, the actual sum must fail
    c = FixedPointConfig(0.0, S2, (-0.5, -0.5))
    p = AtomicHerglotz(((S2[0], c.alphas[0]),))  # halves the first modulus
    with pytest.raises(NormalizationError):
        PiecewiseField(((1.0, GeneratorSpec(c, p)),))


def test_field_requires_shared_skeleton():
    a = unit_spec(0.0, S2, (-0.5, -0.5))
    b = unit_spec(0.1, S2, (-0.5, -0.5))
    with pytest.raises(DegenerateConfig):
        PiecewiseField(((1.0, a), (1.0, b)))


def test_cp_extremal_field_refuses_where_no_free_angle_is_left():
    # 64 repelling points 2 pi/64 < 0.1 apart leave no angle 0.05 clear of them
    sigmas = tuple(BoundaryPoint(2.0 * math.pi * k / 64) for k in range(64))
    target = CPTarget((math.e,) * 64)
    with pytest.raises(DegenerateConfig, match="^could not place an atom away from the fixed points$"):
        cp_extremal_field(0.0, sigmas, target, c=1.0)


def test_field_total_duration():
    spec = unit_spec(0.0, S2, (-0.5, -0.5))
    f = PiecewiseField(((0.25, spec), (0.5, spec)))
    assert sum(d for d, _ in f.segments) == pytest.approx(0.75)
    assert f.segments[0][1].config.n == 2


# ----------------------------------------------------------------------
# evolution
# ----------------------------------------------------------------------


def test_evolve_matches_segmentwise_flow():
    first = unit_spec(0.0, S2, (-0.5, -0.5))
    second = unit_spec(
        0.0, S2, (-0.25, -0.25), AtomicHerglotz(((BoundaryPoint(1.5), 0.5),))
    )
    field = PiecewiseField(((0.3, first), (0.4, second)), strict=False)
    z0 = 0.4 + 0.2j
    mid = integrate_flow(first, z0, 0.3)
    expect = integrate_flow(second, mid, 0.4)
    assert evolve(field, z0) == pytest.approx(expect, abs=1e-10)


def test_evolve_with_derivative_chains():
    first = unit_spec(0.0, S2, (-0.5, -0.5))
    field = PiecewiseField(((0.2, first), (0.3, first)))
    z0 = 0.1 - 0.3j
    phi, dphi = evolve_with_derivative(field, z0)
    h = 1e-6
    fd = (evolve(field, z0 + h) - evolve(field, z0 - h)) / (2 * h)
    assert dphi == pytest.approx(fd, rel=1e-6)
    assert phi == pytest.approx(evolve(field, z0), abs=1e-12)


def test_boundary_log_derivative_sums_over_segments():
    a = unit_spec(0.0, S2, (-0.5, -0.5))
    b = unit_spec(0.0, S2, (-0.75, -0.25))
    field = PiecewiseField(((0.4, a), (0.6, b)))
    assert boundary_log_derivative(field, 0) == pytest.approx(
        0.4 * 0.5 + 0.6 * 0.75, abs=1e-15
    )
    assert boundary_log_derivative(field, 1) == pytest.approx(
        0.4 * 0.5 + 0.6 * 0.25, abs=1e-15
    )
    with pytest.raises(DomainError):
        boundary_log_derivative(field, 2)


@pytest.mark.parametrize("k", [True, 1.0, "1"], ids=["True", "float", "str"])
def test_boundary_log_derivative_index_is_an_integer(k):
    field = PiecewiseField(((1.0, unit_spec(0.0, S2, (-0.25, -0.75))),))
    assert boundary_log_derivative(field, 1) == 0.75
    with pytest.raises(DomainError):
        boundary_log_derivative(field, k)


def test_strict_field_log_derivatives_sum_to_horizon(rng):
    target = CPTarget((math.e, math.exp(0.5)))
    for _ in range(20):
        field = random_strict_field(rng, 0.0, S2, target)
        total = sum(boundary_log_derivative(field, k) for k in range(2))
        assert total == pytest.approx(sum(d for d, _ in field.segments), abs=1e-12)


def test_random_strict_field_refuses_a_target_without_one():
    # a column's fractions average to log a_k / T, here 1e-4 < ROW_FLOOR,
    # so no draw can put every fraction above the floor
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="spectral fraction"):
        random_strict_field(rng, 0.0, S2, CPTarget((1.001, 22026.0)))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("a", [(1.13, 22026.0), (math.e, math.e), (2.0, 1.5)])
def test_random_strict_field_meets_its_floors(a):
    # (1.13, 22026) has a smallest share of 0.0121, just above the floor:
    # almost every Dirichlet draw has a fraction below it and is rescaled
    target = CPTarget(a)
    horizon = target.horizon
    rng = np.random.default_rng(0)
    for _ in range(2000):
        field = random_strict_field(rng, 0.0, S2, target)
        for duration, spec in field.segments:
            assert duration >= 1e-3 * horizon
            assert min(-lam for lam in spec.config.lambdas) >= loewner_cp.ROW_FLOOR
        for k, log_a in enumerate(target.log_values):
            assert abs(boundary_log_derivative(field, k) - log_a) <= 1e-12


def test_random_strict_field_keeps_a_draw_that_meets_both_floors():
    # the plain single-draw law, replayed on a copy of the generator
    target = CPTarget((math.e, math.e))
    log_a = np.asarray(target.log_values)
    horizon = target.horizon
    replay = np.random.default_rng(0)
    m = int(replay.integers(1, 5))
    durations = replay.dirichlet(np.ones(m)) * horizon
    rows = replay.dirichlet(np.ones(2), size=m)
    rows = rows + (log_a - durations @ rows)[None, :] / horizon
    assert m > 1
    assert durations.min() >= 1e-3 * horizon and rows.min() >= loewner_cp.ROW_FLOOR

    field = random_strict_field(np.random.default_rng(0), 0.0, S2, target)
    assert [d for d, _ in field.segments] == durations.tolist()
    assert [spec.config.lambdas for _, spec in field.segments] == [
        tuple(-rows[i]) for i in range(m)
    ]


def test_boundary_log_derivative_matches_flow():
    # exp of the aggregate equals the boundary derivative of the composite map
    a = unit_spec(0.0, S2, (-0.5, -0.5))
    b = unit_spec(0.0, S2, (-0.75, -0.25))
    field = PiecewiseField(((0.4, a), (0.6, b)))
    expect = math.exp(boundary_log_derivative(field, 0))
    got = julia_quotient_estimate(lambda z: evolve(field, z), S2[0])
    assert got == pytest.approx(expect, rel=1e-3)


def test_psi_tau_aggregates_spectral_values():
    a = unit_spec(0.0, S2, (-0.5, -0.5))
    field = PiecewiseField(((0.5, a), (0.25, a)))
    lam = dw_spectral_value(a)
    assert psi_tau(field) == pytest.approx(0.75 * lam, abs=1e-13)


# ----------------------------------------------------------------------
# harmonic mean region
# ----------------------------------------------------------------------


def test_harmonic_Q_values():
    assert harmonic_Q((1.0, 1.0)) == pytest.approx(0.5)
    assert harmonic_Q((2.0,)) == pytest.approx(2.0)
    assert harmonic_Q((1.0, 2.0, 4.0)) == pytest.approx(1.0 / (1.0 + 0.5 + 0.25))


def test_cp_region_unit_target():
    target = CPTarget((math.e,))
    region = cp_region(target)
    assert region.center == pytest.approx(1.0)
    assert region.radius == pytest.approx(1.0)
    boundary = cp_region_boundary(target)
    assert boundary.lo == 0.0 and boundary.hi == pytest.approx(1.0)


def test_cp_region_membership_by_slack():
    target = CPTarget((math.e, math.e))  # disk of radius 1/2 centered 1/2
    region = cp_region(target)
    # the center has slack r; 1.2 lies outside
    assert region.slack(0.5) == pytest.approx(0.5, abs=1e-12)
    assert region.slack(1.2) < 0.0


def test_q_hessian_matches_finite_differences():
    x = np.array([0.7, 1.3, 2.1])
    H = q_hessian(x)
    h = 1e-5
    for i in range(3):
        for j in range(3):
            e_i = np.zeros(3)
            e_j = np.zeros(3)
            e_i[i] = h
            e_j[j] = h
            fd = (
                harmonic_Q(x + e_i + e_j)
                - harmonic_Q(x + e_i)
                - harmonic_Q(x + e_j)
                + harmonic_Q(x)
            ) / h**2
            assert H[i, j] == pytest.approx(fd, rel=1e-3, abs=1e-7)


def test_q_hessian_annihilates_the_ray():
    x = np.array([0.4, 1.1, 3.0, 0.9])
    residual = q_hessian(x) @ x
    assert np.max(np.abs(residual)) < 1e-12


@pytest.mark.parametrize("n", [100, 1000])
def test_q_concavity_check_at_high_dimension(n):
    report = q_concavity_check(np.ones(n))
    assert report.concave
    assert report.min_strict_gap > 0.0


def test_q_concavity_report(rng):
    report = q_concavity_check((0.5, 1.5, 2.5), rng=rng)
    assert report.concave
    assert report.max_eigenvalue <= 1e-9
    assert report.abs_det <= 1e-9 * report.det_scale
    assert report.min_midpoint_gap >= -1e-12
    assert report.min_strict_gap > 0.0
    assert report.max_ray_residual < 1e-10


# ----------------------------------------------------------------------
# extremal fields and experiments
# ----------------------------------------------------------------------


def test_extremal_field_origin_attains_diameter():
    target = CPTarget((math.e,))
    field = cp_extremal_field(0.0, (BoundaryPoint(0.0),), target)
    psi = psi_tau(field)
    assert psi == pytest.approx(2.0, abs=1e-12)
    # ODE cross-check: -log phi_T'(0) = 2
    _, dphi = evolve_with_derivative(field, 0.0)
    assert -math.log(abs(dphi)) == pytest.approx(2.0, abs=1e-6)


def test_extremal_field_imaginary_sweep_traces_boundary():
    target = CPTarget((math.e, math.exp(0.5)))
    region = cp_region(target)
    for v in (-3.0, -0.5, 0.0, 0.5, 3.0):
        field = cp_extremal_field(0.0, S2, target, complex(0.0, v))
        psi = psi_tau(field)
        assert abs(region.slack(psi)) < 1e-12


def test_extremal_field_interior_c_moves_inside():
    target = CPTarget((math.e, math.exp(0.5)))
    region = cp_region(target)
    field = cp_extremal_field(0.0, S2, target, 0.5 + 0.2j)
    assert region.slack(psi_tau(field)) > 1e-6


def test_extremal_field_boundary_tau_attains_radius():
    target = CPTarget((math.e, math.e))
    sigmas = (BoundaryPoint(math.pi / 2), BoundaryPoint(math.pi))
    field = cp_extremal_field(1.0, sigmas, target)
    psi = psi_tau(field)
    assert psi == pytest.approx(cp_region_boundary(target).hi, abs=1e-12)


@pytest.mark.parametrize("c", [0.5, 2.0 + 1.0j])
def test_extremal_field_boundary_tau_with_positive_real_part(c):
    tau = cmath.exp(0.4j)
    sigmas = (BoundaryPoint(2.0), BoundaryPoint(4.5))
    target = CPTarget((1.8, 2.6))
    field = cp_extremal_field(tau, sigmas, target, c)
    ((_, spec),) = field.segments
    tau_bp = BoundaryPoint.from_complex(tau)
    assert abs(contact_value(denominator_herglotz(spec), tau_bp)) <= 1e-12
    assert loop_reference.p_sharp(spec.p, tau_bp) == pytest.approx(c.real, rel=1e-12)
    point, slack = cp_experiment(tau, sigmas, target, field)
    assert slack >= 0.0
    horizon, r = target.horizon, cp_region_boundary(target).hi
    assert point == pytest.approx(horizon / (c.real + horizon / r), rel=1e-12)


def test_extremal_field_rejects_negative_real_part():
    target = CPTarget((math.e,))
    with pytest.raises(DomainError):
        cp_extremal_field(0.0, (BoundaryPoint(0.0),), target, -0.1)


def test_cp_experiment_on_extremal():
    target = CPTarget((math.e, math.exp(0.5)))
    field = cp_extremal_field(0.0, S2, target)
    point, slack = cp_experiment(0.0, S2, target, field)
    assert slack >= -1e-8
    assert point == pytest.approx(psi_tau(field), abs=1e-12)


def test_cp_experiment_random_fields_members(rng):
    target = CPTarget((math.e, math.exp(0.5)))
    for _ in range(25):
        field = random_strict_field(rng, 0.0, S2, target)
        _, slack = cp_experiment(0.0, S2, target, field)
        assert slack >= -1e-8


def test_cp_experiment_rejects_mismatched_target():
    target = CPTarget((math.e, math.exp(0.5)))
    other = CPTarget((math.exp(0.5), math.e))
    field = cp_extremal_field(0.0, S2, target)
    with pytest.raises(TargetMismatch):
        cp_experiment(0.0, S2, other, field)


def test_cp_experiment_rejects_a_nan_log_derivative():
    target = CPTarget((math.e,))
    sigmas = (BoundaryPoint(0.0),)
    field = cp_extremal_field(0.0, sigmas, target)
    # the constructor refuses a NaN duration, so set one past it
    object.__setattr__(field, "segments", ((math.nan, field.segments[0][1]),))
    with pytest.raises(TargetMismatch):
        cp_experiment(0.0, sigmas, target, field)


def test_cp_experiment_rejects_mismatched_skeleton():
    target = CPTarget((math.e,))
    field = cp_extremal_field(0.0, (BoundaryPoint(0.0),), target)
    with pytest.raises(DomainError):
        cp_experiment(0.0, (BoundaryPoint(1.0),), target, field)


def test_random_strict_field_matches_target_exactly(rng):
    target = CPTarget((2.0, 3.0))
    for _ in range(10):
        field = random_strict_field(rng, 0.0, S2, target)
        assert field.strict
        assert sum(d for d, _ in field.segments) == pytest.approx(target.horizon, abs=1e-12)
        for k in range(2):
            assert boundary_log_derivative(field, k) == pytest.approx(
                target.log_values[k], abs=1e-12
            )
