"""Tests for the sharp value regions, their extremal generators, and the
inequality suite behind them."""

import math
import re

import pytest

import loop_reference
from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    DegenerateConfig,
    DiskRegion,
    DivisionByZero,
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    IntervalRegion,
    beta,
    caratheodory_min_sharp,
    contact_value,
    denominator_herglotz,
    dw_spectral_value,
    ell,
    eta_chart,
    eval_denominator,
    eval_generator,
    eval_herglotz,
    extremal_boundary_of_Z,
    extremal_hyperbolic,
    extremal_interior,
    extremal_origin,
    extremal_parabolic,
    inequality_suite,
    interval_I,
    lambda_range,
    origin_curvature_chart,
    parabolic_region,
    random_spec,
    region_Omega,
    region_Omega_origin,
    region_Z,
    region_Z_omega,
)
from diskflow.herglotz_core import angle_gap


def cfg(tau, pairs):
    sigmas = tuple(BoundaryPoint(t) for t, _ in pairs)
    lambdas = tuple(l for _, l in pairs)
    return FixedPointConfig(tau, sigmas, lambdas)


INTERIOR = cfg(0.3 + 0.1j, [(0.0, -1.0)])
HALF = cfg(0.5, [(0.0, -1.0)])
ORIGIN2 = cfg(0.0, [(0.0, -1.0), (math.pi, -1.0)])
BOUNDARY = cfg(1.0, [(math.pi, -1.0)])


# ----------------------------------------------------------------------
# region containers
# ----------------------------------------------------------------------


def test_disk_region_slack_and_membership():
    d = DiskRegion(1.0 + 0.0j, 2.0)
    assert d.slack(1.0) == pytest.approx(2.0)
    assert d.slack(3.0) == 0.0  # on the rim
    assert d.slack(3.1) == pytest.approx(-0.1)  # outside
    assert d.slack(3.0 + 5e-11) == pytest.approx(-5e-11, abs=1e-15)


@pytest.mark.parametrize("n", [1, 0])
def test_interval_sample_of_at_most_one_point_is_its_lower_end(n):
    assert IntervalRegion(0.25, 1.0).sample(n) == (0.25,)


def test_disk_region_boundary_samples():
    d = DiskRegion(0.5j, 1.5)
    pts = d.sample_boundary(16)
    assert len(pts) == 16
    for w in pts:
        assert abs(abs(w - 0.5j) - 1.5) < 1e-12


def test_disk_region_rejects_negative_radius():
    with pytest.raises((ValueError, DomainError)):
        DiskRegion(0.0, -1.0)


def test_interval_region_basics():
    iv = IntervalRegion(0.0, 2.0)
    assert iv.slack(0.0) == iv.slack(2.0) == 0.0
    assert iv.slack(2.1) == pytest.approx(-0.1)
    assert iv.slack(0.5) == pytest.approx(0.5)
    xs = iv.sample(5)
    assert xs[0] == 0.0 and xs[-1] == 2.0


def test_interval_region_rejects_reversed():
    with pytest.raises((ValueError, DomainError)):
        IntervalRegion(2.0, 1.0)


@pytest.mark.parametrize(
    "make",
    [lambda: DiskRegion(0.0, math.nan), lambda: IntervalRegion(0.0, math.nan),
     lambda: IntervalRegion(math.nan, 1.0), lambda: DiskRegion(complex(math.nan, 0.0), 1.0),
     lambda: DiskRegion(complex(0.0, math.inf), 1.0), lambda: DiskRegion(0.0, math.inf),
     lambda: IntervalRegion(0.0, math.inf), lambda: IntervalRegion(-math.inf, 1.0)],
    ids=["disk-radius", "interval-hi", "interval-lo", "disk-center-nan", "disk-center-inf",
         "disk-radius-inf", "interval-hi-inf", "interval-lo-inf"],
)
def test_regions_refuse_nan_bounds(make):
    # NaN fails every comparison, so a check written as "radius < 0 raises"
    # let it through and slack returned NaN or a wrong 0.5; a NaN center
    # made every slack NaN.  A region that is not finite is no value region
    # of a generator: DomainError, not the ValueError of malformed input.
    with pytest.raises(DomainError, match="must be finite"):
        make()


# ----------------------------------------------------------------------
# the range of G(0)
# ----------------------------------------------------------------------


def test_region_Z_half_case():
    # tau = 1/2, sigma = 1, lambda = -1: disk centered at 2 with radius 2
    z = region_Z(HALF)
    assert z.center == pytest.approx(2.0, abs=1e-15)
    assert z.radius == pytest.approx(2.0, abs=1e-15)


def test_region_Z_contains_origin_value(rng):
    for _ in range(50):
        spec = random_spec(rng, "interior")
        z = region_Z(spec.config)
        assert z.slack(eval_generator(spec, 0.0)) >= -1e-9


def test_region_Z_degenerate_at_origin():
    with pytest.raises(DegenerateConfig):
        region_Z(ORIGIN2)


def test_ell_equals_p_of_zero(rng):
    for _ in range(25):
        spec = random_spec(rng, "interior")
        zeta = eval_generator(spec, 0.0)
        assert ell(spec.config, zeta) == pytest.approx(
            eval_herglotz(spec.p, 0.0), rel=1e-10, abs=1e-12
        )


def test_ell_singular_at_zero():
    with pytest.raises(DivisionByZero):
        ell(HALF, 0.0)


# ----------------------------------------------------------------------
# interior tau != 0
# ----------------------------------------------------------------------


def test_eta_chart_is_denominator_at_tau(rng):
    for _ in range(25):
        spec = random_spec(rng, "interior")
        lam = dw_spectral_value(spec)
        assert eta_chart(spec.config, lam) == pytest.approx(
            eval_denominator(spec, spec.config.tau), rel=1e-12
        )


def test_region_Omega_contains_spectral_values(rng):
    for _ in range(200):
        spec = random_spec(rng, "interior")
        zeta = eval_generator(spec, 0.0)
        om = region_Omega(spec.config, zeta)
        eta = eta_chart(spec.config, dw_spectral_value(spec))
        assert om.slack(eta) >= -1e-9


def test_region_Omega_zero_fiber_marker():
    om = region_Omega(INTERIOR, 0.0)
    assert om.center == 0.0 and om.radius == 0.0


def test_region_Omega_rejects_outside_Z():
    # zeta far outside the disk of radius 2 around 2
    with pytest.raises(DomainError):
        region_Omega(HALF, -1.0 + 0.0j)


def test_region_Omega_rejects_boundary_tau():
    with pytest.raises(DomainError):
        region_Omega(BOUNDARY, 0.5)


def test_region_Omega_rejects_origin_tau():
    with pytest.raises(DegenerateConfig):
        region_Omega(ORIGIN2, 0.5)


def test_extremal_interior_pins_zeta_and_boundary(rng):
    for _ in range(25):
        base = random_spec(rng, "interior")
        if base.p.total_mass <= 1e-9:
            continue  # zeta would sit on the edge of Z
        config = base.config
        zeta = eval_generator(base, 0.0)
        om = region_Omega(config, zeta)
        for theta in (0.0, 1.0, 2.5, 4.0):
            spec = extremal_interior(config, zeta, BoundaryPoint(theta))
            assert eval_generator(spec, 0.0) == pytest.approx(zeta, rel=1e-10)
            eta = eta_chart(config, dw_spectral_value(spec))
            assert abs(om.slack(eta)) <= 1e-10


def test_extremal_interior_traces_distinct_points():
    zeta = 1.0 + 0.5j
    a = extremal_interior(HALF, zeta, BoundaryPoint(1.0))
    b = extremal_interior(HALF, zeta, BoundaryPoint(2.0))
    ea = eta_chart(HALF, dw_spectral_value(a))
    eb = eta_chart(HALF, dw_spectral_value(b))
    assert abs(ea - eb) > 1e-3


def test_eta_chart_refuses_lambda_zero():
    with pytest.raises(DivisionByZero, match="^eta chart is singular at lambda = 0$"):
        eta_chart(INTERIOR, 0)


def test_extremal_interior_rejects_boundary_zeta():
    z_edge = region_Z(HALF).sample_boundary(8)[1]
    with pytest.raises(DomainError):
        extremal_interior(HALF, z_edge, BoundaryPoint(1.0))


def test_extremal_boundary_of_Z_fiber():
    for w in region_Z(HALF).sample_boundary(12):
        if abs(w) < 1e-9:
            continue  # the edge of Z passes through 0, where ell is singular
        spec = extremal_boundary_of_Z(HALF, w)
        assert spec.p.total_mass == 0.0
        assert eval_generator(spec, 0.0) == pytest.approx(w, rel=1e-9)


def test_extremal_boundary_of_Z_rejects_interior_point():
    with pytest.raises(DomainError):
        extremal_boundary_of_Z(HALF, 2.0)  # the center of Z


# ----------------------------------------------------------------------
# tau = 0
# ----------------------------------------------------------------------


def test_region_Omega_origin_half_radius():
    # two unit-rate repelling points: r = 1/(1+1) = 1/2
    om = region_Omega_origin(ORIGIN2)
    assert om.center == pytest.approx(0.5, abs=1e-15)
    assert om.radius == pytest.approx(0.5, abs=1e-15)


def test_region_Omega_origin_contains_lambda(rng):
    for _ in range(100):
        spec = random_spec(rng, "origin")
        om = region_Omega_origin(spec.config)
        assert om.slack(dw_spectral_value(spec)) >= -1e-9


def test_region_Z_omega_radius_formula(rng):
    for _ in range(25):
        spec = random_spec(rng, "origin")
        lam = dw_spectral_value(spec)
        zw = region_Z_omega(spec.config, lam)
        expect = 2.0 * (1.0 / lam).real - spec.config.inv_lambda_sum
        assert zw.radius == pytest.approx(expect, rel=1e-12)
        assert zw.slack(origin_curvature_chart(spec)) >= -1e-9


def test_origin_curvature_chart_refuses_lambda_zero():
    # two masses of 1e308 make q(0) overflow to inf, so lambda = 1/q(0) = 0
    p = AtomicHerglotz(((BoundaryPoint(1.0), 1e308), (BoundaryPoint(2.0), 1e308)))
    spec = GeneratorSpec(cfg(0.0, [(0.0, -1.0)]), p)
    assert dw_spectral_value(spec) == 0
    with pytest.raises(DivisionByZero, match="^curvature chart is singular at lambda = 0$"):
        origin_curvature_chart(spec)


def test_region_Z_omega_rejects_outside_spectral_disk():
    with pytest.raises(DomainError):
        region_Z_omega(ORIGIN2, 5.0)  # Re(1/5) < S/2 = 1
    with pytest.raises(DomainError):
        region_Z_omega(ORIGIN2, 0.0)


def test_region_Z_omega_refuses_omega_zero_by_name():
    with pytest.raises(DomainError, match="^the fiber over omega = 0 is the zero field only$"):
        region_Z_omega(ORIGIN2, 0)


@pytest.mark.parametrize(
    "region, config, point",
    [
        (interval_I, BOUNDARY, math.nan),
        (interval_I, BOUNDARY, complex(0.1, math.nan)),
        (parabolic_region, BOUNDARY, math.nan),
        (region_Omega, INTERIOR, math.nan),
        (region_Z_omega, ORIGIN2, math.nan),
    ],
    ids=["interval_I", "interval_I-imaginary", "parabolic_region", "region_Omega", "region_Z_omega"],
)
def test_nan_observation_raises(region, config, point):
    # a check of the form "value < -EDGE_TOL" lets NaN through
    with pytest.raises(DomainError):
        region(config, point)


# origin_curvature_chart and dw_spectral_value share their formulas with
# verify's records, so these two tests derive them a second way: by the
# per-atom loops of tests/loop_reference.py.


def test_origin_curvature_chart_matches_second_derivative(rng):
    for _ in range(200):
        spec = random_spec(rng, "origin")
        lam = dw_spectral_value(spec)
        direct = loop_reference.eval_generator_second_derivative(spec, 0.0) / (2.0 * lam * lam)
        assert origin_curvature_chart(spec) == pytest.approx(direct, rel=1e-12)


def test_hyperbolic_spectral_value_matches_p_sharp(rng):
    for _ in range(200):
        spec = random_spec(rng, "boundary_hyperbolic")
        tau = BoundaryPoint.from_complex(spec.config.tau)
        expected = 1.0 / (loop_reference.p_sharp(spec.p, tau) + spec.config.inv_lambda_sum)
        assert dw_spectral_value(spec) == pytest.approx(expected, rel=1e-12)


def test_extremal_origin_hits_boundary():
    omega = 0.4 + 0.1j
    for theta in (0.2, 1.7, 3.5, 5.1):
        spec = extremal_origin(ORIGIN2, omega, BoundaryPoint(theta))
        assert dw_spectral_value(spec) == pytest.approx(omega, rel=1e-12)
        zw = region_Z_omega(ORIGIN2, omega)
        assert abs(zw.slack(origin_curvature_chart(spec))) <= 1e-10


def test_extremal_origin_rejects_edge_omega():
    with pytest.raises(DomainError):
        extremal_origin(ORIGIN2, 1.0, BoundaryPoint(0.5))  # on the disk edge


# ----------------------------------------------------------------------
# boundary tau
# ----------------------------------------------------------------------


def test_interval_I_contains_lambda(rng):
    for _ in range(200):
        spec = random_spec(rng, "boundary_hyperbolic")
        zeta = eval_generator(spec, 0.0)
        iv = interval_I(spec.config, zeta)
        assert iv.slack(dw_spectral_value(spec)) >= -1e-9


def test_interval_I_zero_fiber():
    iv = interval_I(BOUNDARY, 0.0)
    assert iv.lo == iv.hi == 0.0


def test_interval_I_singleton_on_matching_edge_point():
    pivot = sum(
        (BOUNDARY.tau - s.value) / abs(v)
        for s, v in zip(BOUNDARY.sigmas, BOUNDARY.lambdas)
    )
    zeta = 1.0 / pivot.conjugate()
    iv = interval_I(BOUNDARY, zeta)
    assert iv.hi - iv.lo <= 1e-12
    assert iv.lo == pytest.approx(1.0 / BOUNDARY.inv_lambda_sum, abs=1e-12)


def test_interval_I_trivial_on_other_edge_points():
    # rotate the matching edge point: the fiber collapses to {0}
    z = region_Z(BOUNDARY)
    pivot = sum(
        (BOUNDARY.tau - s.value) / abs(v)
        for s, v in zip(BOUNDARY.sigmas, BOUNDARY.lambdas)
    )
    match = 1.0 / pivot.conjugate()
    for w in z.sample_boundary(7):
        if abs(w) < 1e-12 or abs(w - match) < 1e-6:
            continue
        iv = interval_I(BOUNDARY, w)
        assert iv.hi - iv.lo <= 1e-12
        assert iv.hi == 0.0


def test_extremal_hyperbolic_attains_top(rng):
    for _ in range(50):
        base = random_spec(rng, "boundary_hyperbolic")
        if base.p.total_mass <= 1e-9:
            continue  # zeta would sit on the edge of Z
        config = base.config
        zeta = eval_generator(base, 0.0)
        iv = interval_I(config, zeta)
        spec = extremal_hyperbolic(config, zeta)
        assert eval_generator(spec, 0.0) == pytest.approx(zeta, rel=1e-9)
        assert dw_spectral_value(spec) == pytest.approx(iv.hi, rel=1e-9)


def test_extremal_hyperbolic_refuses_zeta_outside_Z():
    # Z is the disk of center and radius 1/(2A) for tau = 1: -0.5 lies outside
    with pytest.raises(DomainError, match="^zeta must lie in the interior of Z$"):
        extremal_hyperbolic(BOUNDARY, -0.5)


def test_extremal_hyperbolic_cancels_contact():
    zeta = eval_generator(
        GeneratorSpec(BOUNDARY, AtomicHerglotz(((BoundaryPoint(2.0), 0.5),), 0.7)), 0.0
    )
    spec = extremal_hyperbolic(BOUNDARY, zeta)
    q = denominator_herglotz(spec)
    tau_pt = BoundaryPoint.from_complex(BOUNDARY.tau)
    assert abs(contact_value(q, tau_pt)) < 1e-12
    # the atom never lands on tau itself
    assert not spec.p.atoms[0][0].same_point(tau_pt)


def test_parabolic_region_and_extremal(rng):
    for _ in range(50):
        base = random_spec(rng, "boundary_parabolic")
        config = base.config
        zeta = eval_generator(base, 0.0)
        iv = parabolic_region(config, zeta)
        assert iv.slack(beta(base)) >= -1e-9
        spec = extremal_parabolic(config, zeta)
        assert eval_generator(spec, 0.0) == pytest.approx(zeta, rel=1e-9)
        assert beta(spec) == pytest.approx(iv.hi, abs=1e-12)


def test_parabolic_extremal_mass_sits_at_tau():
    zeta = 0.2 + 0.05j
    spec = extremal_parabolic(BOUNDARY, zeta)
    tau_pt = BoundaryPoint.from_complex(BOUNDARY.tau)
    assert spec.p.atom_mass_at(tau_pt) > 0.0


# ----------------------------------------------------------------------
# regime guards: each one-regime function refuses every other regime
# ----------------------------------------------------------------------

_ZETA = 0.1 + 0.05j
_SIGMA = BoundaryPoint(2.0)
_REGIME_CONFIGS = {"origin": ORIGIN2, "interior": INTERIOR, "boundary": BOUNDARY}
# function of a config -> {refused regime: error}
_ORIGIN_ONLY = {"interior": DomainError, "boundary": DomainError}
_BOUNDARY_ONLY = {"interior": DomainError, "origin": DomainError}
_GUARDED = {
    "region_Omega": (lambda c: region_Omega(c, _ZETA),
                     {"origin": DegenerateConfig, "boundary": DomainError}),
    "extremal_interior": (lambda c: extremal_interior(c, _ZETA, _SIGMA),
                          {"origin": DegenerateConfig, "boundary": DomainError}),
    "region_Omega_origin": (region_Omega_origin, _ORIGIN_ONLY),
    "region_Z_omega": (lambda c: region_Z_omega(c, 0.5), _ORIGIN_ONLY),
    "origin_curvature_chart": (lambda c: origin_curvature_chart(GeneratorSpec(c)), _ORIGIN_ONLY),
    "extremal_origin": (lambda c: extremal_origin(c, 0.5, _SIGMA), _ORIGIN_ONLY),
    "interval_I": (lambda c: interval_I(c, _ZETA), _BOUNDARY_ONLY),
    "extremal_hyperbolic": (lambda c: extremal_hyperbolic(c, _ZETA), _BOUNDARY_ONLY),
    "parabolic_region": (lambda c: parabolic_region(c, _ZETA), _BOUNDARY_ONLY),
    "extremal_parabolic": (lambda c: extremal_parabolic(c, _ZETA), _BOUNDARY_ONLY),
    "beta": (lambda c: beta(GeneratorSpec(c)), _BOUNDARY_ONLY),
    "region_Z": (region_Z, {"origin": DegenerateConfig}),
}


# each refusal's message, from FixedPointConfig._require: "<name> requires
# <regime>", or at tau = 0 the twin to use instead; region_Z keeps its own
_REGIME_WORDS = {"origin": "tau = 0", "interior": "an interior Denjoy-Wolff point",
                 "boundary": "a boundary Denjoy-Wolff point"}
_TWINS = {"region_Omega": "region_Omega_origin", "extremal_interior": "extremal_origin"}


@pytest.mark.parametrize(
    "name, regime",
    [(name, regime) for name, (_, refused) in _GUARDED.items() for regime in refused],
)
def test_one_regime_function_refuses_other_regimes(name, regime):
    fn, refused = _GUARDED[name]
    if name == "region_Z":
        message = "Z degenerates to {0} for tau = 0"
    elif regime == "origin" and name in _TWINS:
        message = f"use {_TWINS[name]} for tau = 0"
    else:
        needed = next(r for r in _REGIME_CONFIGS if r not in refused)
        message = f"{name} requires {_REGIME_WORDS[needed]}"
    with pytest.raises(refused[regime], match=f"^{re.escape(message)}$"):
        fn(_REGIME_CONFIGS[regime])


# ----------------------------------------------------------------------
# observations the charts cannot represent
# ----------------------------------------------------------------------

# one sigma, lambda = -1: the entry points that read an observation, with
# the observation each names and the config it reads it over
ORIGIN1 = cfg(0.0, [(0.0, -1.0)])
_OBSERVERS = {
    "ell": (lambda w: ell(INTERIOR, w), "zeta = G(0)"),
    "region_Omega": (lambda w: region_Omega(INTERIOR, w), "zeta = G(0)"),
    "extremal_interior": (lambda w: extremal_interior(INTERIOR, w, _SIGMA), "zeta = G(0)"),
    "extremal_boundary_of_Z": (lambda w: extremal_boundary_of_Z(INTERIOR, w), "zeta = G(0)"),
    "interval_I": (lambda w: interval_I(BOUNDARY, w), "zeta = G(0)"),
    "extremal_hyperbolic": (lambda w: extremal_hyperbolic(BOUNDARY, w), "zeta = G(0)"),
    "parabolic_region": (lambda w: parabolic_region(BOUNDARY, w), "zeta = G(0)"),
    "extremal_parabolic": (lambda w: extremal_parabolic(BOUNDARY, w), "zeta = G(0)"),
    "region_Z_omega": (lambda w: region_Z_omega(ORIGIN1, w), "omega = lambda(G)"),
    "extremal_origin": (lambda w: extremal_origin(ORIGIN1, w, _SIGMA), "omega = lambda(G)"),
    "eta_chart": (lambda w: eta_chart(INTERIOR, w), "lambda"),
}


@pytest.mark.parametrize("value", [1e-320, math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["subnormal", "nan", "inf", "inf-imag"])
@pytest.mark.parametrize("name", list(_OBSERVERS))
def test_an_observation_beyond_the_charts_is_refused_by_name(name, value):
    # at 1e-320 the chart value tau/zeta, 1/omega or 1/lambda overflows:
    # ell returned inf+infj, region_Omega and interval_I raised a bare
    # ValueError, parabolic_region, region_Z_omega and eta_chart returned
    # infinite values and the extremals refused a mass no caller gave
    call, observed = _OBSERVERS[name]
    with pytest.raises(DomainError, match=f"^{re.escape(observed)} must be finite with a finite "):
        call(value)


@pytest.mark.parametrize(
    "config, zeta, top",
    [(cfg(1.0, [(math.pi, -1e-160)]), 1.0 / 4e160, 5e-161), (BOUNDARY, 1e-160, 2e-160)],
    ids=["small-lambda", "small-zeta"],
)
def test_interval_I_reads_a_top_whose_terms_overflow(config, zeta, top):
    # zeta at the center 1/(2A) of Z with A = 2e160, or zeta = 1e-160 with
    # A = 2: f = 2 Re w/(|w|^2 + 2 Re w S) with |w| = 2e160 or 1e160, where
    # abs(w) ** 2 raised a bare OverflowError
    region = interval_I(config, zeta)
    assert region.lo == 0.0 and region.hi == pytest.approx(top, rel=1e-12)


def test_interval_I_top_beside_the_largest_floats():
    # |w| near 1.4e308: the top is below the smallest normal float, 0 or subnormal
    region = interval_I(BOUNDARY, complex(1e-308, 1e-308))
    assert region.lo == 0.0 and 0.0 <= region.hi < 1e-300


# ----------------------------------------------------------------------
# unconstrained spectral range
# ----------------------------------------------------------------------


def test_lambda_range_interior_hand_case():
    region, spec = lambda_range(INTERIOR)
    assert isinstance(region, DiskRegion)
    assert region.center == pytest.approx(1.0) and region.radius == pytest.approx(1.0)
    lam = dw_spectral_value(spec)
    assert lam.real == pytest.approx(2.0, abs=1e-10)
    # the attaining generator makes the denominator real at tau
    assert abs(eval_denominator(spec, INTERIOR.tau).imag) < 1e-14


def test_lambda_range_boundary_hand_case():
    region, spec = lambda_range(BOUNDARY)
    assert isinstance(region, IntervalRegion)
    assert region.hi == pytest.approx(1.0)
    assert dw_spectral_value(spec) == pytest.approx(1.0, abs=1e-10)


def test_lambda_range_bound_holds_for_random_p(rng):
    region, _ = lambda_range(INTERIOR)
    for _ in range(100):
        spec = GeneratorSpec(INTERIOR, random_spec(rng, "interior").p)
        assert dw_spectral_value(spec).real <= 2.0 * region.radius + 1e-10


# ----------------------------------------------------------------------
# the sharp contact minimization
# ----------------------------------------------------------------------


def test_caratheodory_min_closed_form():
    tau = BoundaryPoint(0.0)
    for a in (0.0, 1.0, -2.0, 0.3):
        val, sigma = caratheodory_min_sharp(tau, a)
        assert val == pytest.approx((1.0 + a * a) / 2.0, abs=1e-15)
        expect = -tau.value * (1.0 + 1j * a) / (1.0 - 1j * a)
        assert sigma.value == pytest.approx(expect, abs=1e-12)
    # extremal_hyperbolic (tau = 1) puts its atom at the minimizer for the
    # atom's own tilt
    base = GeneratorSpec(BOUNDARY, AtomicHerglotz(((BoundaryPoint(2.0), 0.5),), 0.7))
    sigma = extremal_hyperbolic(BOUNDARY, eval_generator(base, 0.0)).p.atoms[0][0]
    tilt = contact_value(AtomicHerglotz(((sigma, 1.0),)), tau).imag
    assert caratheodory_min_sharp(tau, tilt)[1] == sigma


def test_caratheodory_minimizer_has_prescribed_tilt():
    tau = BoundaryPoint(0.7)
    for a in (0.0, 1.5, -0.8):
        _, sigma = caratheodory_min_sharp(tau, a)
        tilt = contact_value(AtomicHerglotz(((sigma, 1.0),)), tau).imag
        assert tilt == pytest.approx(a, abs=1e-12)


def test_caratheodory_min_at_zero_tilt_is_antipode():
    tau = BoundaryPoint(1.1)
    val, sigma = caratheodory_min_sharp(tau, 0.0)
    assert val == pytest.approx(0.5)
    assert angle_gap(sigma.theta, BoundaryPoint(1.1 + math.pi).theta) < 1e-12


# ----------------------------------------------------------------------
# inequality suite
# ----------------------------------------------------------------------


EXPECTED_NAMES = {
    "interior": {
        "spectral_reciprocal_floor",
        "origin_ratio_real",
        "harnack_lower",
        "harnack_upper",
        "spectral_tilt",
    },
    "origin": {"spectral_reciprocal_floor", "curvature_window"},
    "boundary_hyperbolic": {
        "origin_ratio_real",
        "boundary_spectral_cap",
        "hyperbolic_window",
    },
    "boundary_parabolic": {
        "origin_ratio_real",
        "boundary_spectral_cap",
        "parabolic_floor",
        "parabolic_cap",
    },
}


@pytest.mark.parametrize("regime", sorted(EXPECTED_NAMES))
def test_suite_names_by_regime(rng, regime):
    spec = random_spec(rng, regime)
    names = {r.name for r in inequality_suite(spec)}
    assert names == EXPECTED_NAMES[regime]


@pytest.mark.parametrize("regime", sorted(EXPECTED_NAMES))
def test_suite_slacks_nonnegative(rng, regime):
    for _ in range(300):
        spec = random_spec(rng, regime)
        for record in inequality_suite(spec):
            assert record.slack >= -1e-9, record.name


def test_suite_extremal_attains_reciprocal_floor():
    _, spec = lambda_range(INTERIOR)
    records = {r.name: r for r in inequality_suite(spec)}
    assert abs(records["spectral_reciprocal_floor"].slack) < 1e-12


def test_suite_extremal_attains_hyperbolic_window(rng):
    base = random_spec(rng, "boundary_hyperbolic")
    zeta = eval_generator(base, 0.0)
    spec = extremal_hyperbolic(base.config, zeta)
    records = {r.name: r for r in inequality_suite(spec)}
    assert abs(records["hyperbolic_window"].slack) < 1e-9


def test_random_hyperbolic_has_vanishing_contact(rng):
    for _ in range(20):
        spec = random_spec(rng, "boundary_hyperbolic")
        q = denominator_herglotz(spec)
        tau_pt = BoundaryPoint.from_complex(spec.config.tau)
        assert abs(contact_value(q, tau_pt)) < 1e-9
