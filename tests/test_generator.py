"""Tests for the fixed-point configuration and generator evaluation layer."""

import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loop_reference
import reciprocal_reference
from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    DegenerateConfig,
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    RationalHerglotz,
    beta,
    brfp_spectral_value,
    canonical_form,
    convex_combination,
    denominator_herglotz,
    dw_spectral_value,
    eval_denominator,
    eval_generator,
    eval_herglotz,
    extract_atom,
    inequality_suite,
    random_spec,
    spec_from_denominator,
)
from diskflow import generator
from diskflow.generator import _array_generator, _point_generator, tau_regime
from diskflow.semiflow import RADII
from diskflow.value_regions import REGIMES


def cfg(tau, pairs):
    sigmas = tuple(BoundaryPoint(t) for t, _ in pairs)
    lambdas = tuple(l for _, l in pairs)
    return FixedPointConfig(tau, sigmas, lambdas)


INTERIOR = cfg(0.3 + 0.1j, [(0.0, -1.0)])
BOUNDARY = cfg(1.0 + 0.0j, [(math.pi, -1.0)])


# ----------------------------------------------------------------------
# configuration validation and derived quantities
# ----------------------------------------------------------------------


def test_config_requires_fixed_points():
    with pytest.raises(DegenerateConfig):
        FixedPointConfig(0.0, (), ())


def test_config_rejects_nonnegative_lambda():
    with pytest.raises(DegenerateConfig):
        cfg(0.0, [(0.0, 1.0)])
    with pytest.raises(DegenerateConfig):
        cfg(0.0, [(0.0, 0.0)])


def test_config_rejects_duplicate_sigmas():
    with pytest.raises(DegenerateConfig):
        cfg(0.0, [(1.0, -1.0), (1.0, -2.0)])


def test_config_rejects_tau_outside_disk():
    with pytest.raises(DomainError):
        cfg(1.5, [(0.0, -1.0)])


@pytest.mark.parametrize(
    "tau, lam",
    [(10**400, -1.0), (-(10**400), -1.0), (0.3, 10**400), (0.3, -(10**400))],
    ids=["tau", "minus tau", "lambda", "minus lambda"],
)
def test_config_refuses_an_int_beyond_the_floats(tau, lam):
    # float() and complex() raise OverflowError on it
    with pytest.raises(DomainError, match="too large for a float"):
        cfg(tau, [(0.0, lam)])


def test_tau_regime_refuses_nan():
    with pytest.raises(DomainError):
        tau_regime(complex(math.nan, 0.0))


def test_config_rejects_tau_on_repelling_set():
    with pytest.raises(DegenerateConfig):
        cfg(cmath.exp(1.0j), [(1.0, -1.0)])


def test_config_length_mismatch():
    with pytest.raises(DegenerateConfig):
        FixedPointConfig(0.0, (BoundaryPoint(0.0),), (-1.0, -2.0))


def test_derived_quantities_hand_case():
    # tau = 0.3+0.1i, sigma = 1, lambda = -1
    c = INTERIOR
    assert c.n == 1
    assert not c.is_boundary
    assert c.alphas[0] == pytest.approx(abs(0.3 + 0.1j - 1.0) ** 2 / 2.0, abs=1e-15)
    assert c.capA == pytest.approx(0.25, abs=1e-15)
    assert c.capB == pytest.approx(0.1, abs=1e-15)
    assert c.inv_lambda_sum == pytest.approx(1.0)


def test_boundary_flag():
    assert BOUNDARY.is_boundary
    assert not cfg(0.0, [(1.0, -1.0)]).is_boundary


# ----------------------------------------------------------------------
# the atomic part p0 and its frozen boundary values
# ----------------------------------------------------------------------


def test_p0_at_origin_is_total_mass(rng):
    for _ in range(25):
        spec = random_spec(rng, "interior")
        c = spec.config
        assert eval_herglotz(c.base_herglotz, 0.0) == pytest.approx(complex(c.capA, 0.0), abs=1e-13)


def test_p0_at_tau_closed_form(rng):
    # Re p0(tau) = (1-|tau|^2) S / 2 and Im p0(tau) = B, exactly
    for _ in range(50):
        spec = random_spec(rng, "interior")
        c = spec.config
        val = eval_herglotz(c.base_herglotz, c.tau)
        t2 = abs(c.tau) ** 2
        assert val.real == pytest.approx((1 - t2) * c.inv_lambda_sum / 2, rel=1e-12)
        assert val.imag == pytest.approx(c.capB, abs=1e-12)


def test_denominator_is_p_plus_p0():
    p = AtomicHerglotz(((BoundaryPoint(2.0), 0.7),), 0.4)
    spec = GeneratorSpec(INTERIOR, p)
    z = 0.1 - 0.2j
    assert eval_denominator(spec, z) == pytest.approx(
        eval_herglotz(p, z) + eval_herglotz(INTERIOR.base_herglotz, z), abs=1e-14
    )
    q = denominator_herglotz(spec)
    assert eval_herglotz(q, z) == pytest.approx(eval_denominator(spec, z), abs=1e-14)


# ----------------------------------------------------------------------
# generator evaluation
# ----------------------------------------------------------------------


def test_generator_vanishes_at_interior_tau(rng):
    for _ in range(20):
        spec = random_spec(rng, "interior")
        assert abs(eval_generator(spec, spec.config.tau)) < 1e-13


def test_generator_at_origin():
    spec = GeneratorSpec(INTERIOR, AtomicHerglotz())
    q0 = eval_denominator(spec, 0.0)
    assert eval_generator(spec, 0.0) == pytest.approx(INTERIOR.tau / q0, abs=1e-14)


def test_generator_rejects_boundary_evaluation():
    spec = GeneratorSpec(INTERIOR, AtomicHerglotz())
    with pytest.raises(DomainError):
        eval_generator(spec, 1.0)


def test_derivatives_match_finite_differences(rng):
    spec = random_spec(rng, "interior")
    z = 0.12 - 0.3j
    h = 1e-6
    fd1 = (eval_generator(spec, z + h) - eval_generator(spec, z - h)) / (2 * h)
    assert loop_reference.eval_generator_derivative(spec, z) == pytest.approx(fd1, rel=1e-7)
    fd2 = (
        eval_generator(spec, z + h)
        - 2 * eval_generator(spec, z)
        + eval_generator(spec, z - h)
    ) / h**2
    assert loop_reference.eval_generator_second_derivative(spec, z) == pytest.approx(fd2, rel=1e-3)


def test_point_derivative_is_finite_beside_a_huge_atom():
    # q is about 1e300 here, so q^2 overflows and the unfused
    # (u' q - u q')/q^2 reads NaN, while the fused (u' - G q')/q does not
    big = AtomicHerglotz(((BoundaryPoint(3.0), 1e300),))
    spec = GeneratorSpec(cfg(0.0, [(0.0, -1.0)]), big)
    h = 1e-6
    for z in (0.5, 0.3 - 0.4j, -0.7j):
        g, dg = _point_generator(spec)(z)
        assert g == eval_generator(spec, z)
        fd = (eval_generator(spec, z + h) - eval_generator(spec, z - h)) / (2 * h)
        assert cmath.isfinite(dg) and dg != 0.0
        assert abs(dg - fd) <= 1e-6 * abs(fd)


@pytest.mark.parametrize("regime", REGIMES)
def test_array_generator_equals_eval_generator_bit_for_bit(regime):
    # the radius ladder's right-hand side: on each sigma's ladder and on
    # scattered points, for random draws and for their specs with no p
    rng = np.random.default_rng(REGIMES.index(regime) + 27)
    for _ in range(25):
        drawn = random_spec(rng, regime)
        scattered = np.sqrt(rng.uniform(0.0, 0.99, 16)) * np.exp(2j * np.pi * rng.uniform(size=16))
        for spec in (drawn, GeneratorSpec(drawn.config)):
            values = _array_generator(spec)
            ladders = [np.array(RADII) * sigma.value for sigma in spec.config.sigmas]
            for z in ladders + [scattered]:
                got, expected = values(z), eval_generator(spec, z)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# ----------------------------------------------------------------------
# spectral values
# ----------------------------------------------------------------------


def test_interior_spectral_value_formula(rng):
    for _ in range(25):
        spec = random_spec(rng, "interior")
        c = spec.config
        lam = dw_spectral_value(spec)
        expect = (1 - abs(c.tau) ** 2) / eval_denominator(spec, c.tau)
        assert lam == pytest.approx(expect, rel=1e-13)


def test_interior_spectral_value_is_minus_derivative(rng):
    # G'(tau) = -lambda whenever tau is interior
    for _ in range(25):
        spec = random_spec(rng, "interior")
        lam = dw_spectral_value(spec)
        assert loop_reference.eval_generator_derivative(spec, spec.config.tau) == pytest.approx(
            -lam, rel=1e-12
        )


def test_boundary_spectral_value_positive(rng):
    for _ in range(25):
        spec = random_spec(rng, "boundary_hyperbolic")
        lam = dw_spectral_value(spec)
        assert isinstance(lam, float)
        assert lam > 0.0


def test_boundary_spectral_value_vanishes_with_atom_at_tau():
    tau = BoundaryPoint(0.0)
    c = cfg(1.0, [(math.pi, -1.0)])
    spec = GeneratorSpec(c, AtomicHerglotz(((tau, 0.5),)))
    assert dw_spectral_value(spec) == 0.0


def test_boundary_spectral_value_vanishes_with_contact():
    # nonzero angular limit of q at tau forces the parabolic value 0
    c = cfg(1.0, [(math.pi, -1.0)])
    spec = GeneratorSpec(c, AtomicHerglotz(gamma=2.0))
    assert dw_spectral_value(spec) == 0.0


def test_brfp_without_atom_is_exact(rng):
    for _ in range(25):
        spec = random_spec(rng, "interior")
        c = spec.config
        for k in range(c.n):
            if spec.p.atom_mass_at(c.sigmas[k]) == 0.0:
                assert brfp_spectral_value(spec, k) == c.lambdas[k]


def test_brfp_atom_shift_formula():
    c = INTERIOR
    m = 0.4
    spec = GeneratorSpec(c, AtomicHerglotz(((c.sigmas[0], m),)))
    expect = -abs(c.lambdas[0]) / (1.0 + m / c.alphas[0])
    assert brfp_spectral_value(spec, 0) == pytest.approx(expect, abs=1e-15)


def test_brfp_matches_radial_difference_quotient():
    c = INTERIOR
    spec = GeneratorSpec(c, AtomicHerglotz(((c.sigmas[0], 0.4),)))
    s = c.sigmas[0].value
    r = 1.0 - 1e-7
    quotient = (eval_generator(spec, r * s) / ((r - 1.0) * s)).real
    assert quotient == pytest.approx(-brfp_spectral_value(spec, 0), rel=1e-5)


def test_brfp_index_out_of_range():
    spec = GeneratorSpec(INTERIOR, AtomicHerglotz())
    with pytest.raises(DomainError):
        brfp_spectral_value(spec, 1)


# over two points a bool or 1.0 taken as the index 1 would read sigma_1
@pytest.mark.parametrize(
    "k",
    [True, np.True_, 1.0, "1", None, -1, 10**5000],
    ids=["True", "numpy True", "float", "str", "None", "negative", "beyond repr"],
)
def test_brfp_index_is_an_integer_in_range(k):
    spec = GeneratorSpec(cfg(0.0, [(0.0, -0.25), (math.pi, -0.75)]))
    assert brfp_spectral_value(spec, 1) == -0.75
    assert brfp_spectral_value(spec, np.int64(1)) == -0.75
    with pytest.raises(DomainError):
        brfp_spectral_value(spec, k)


def test_beta_is_twice_atom_mass_at_tau():
    c = cfg(1.0, [(math.pi, -1.0)])
    spec = GeneratorSpec(c, AtomicHerglotz(((BoundaryPoint(0.0), 0.3),)))
    assert beta(spec) == pytest.approx(0.6, abs=1e-15)


def test_beta_requires_boundary_tau():
    spec = GeneratorSpec(INTERIOR, AtomicHerglotz())
    with pytest.raises(DomainError):
        beta(spec)


# ----------------------------------------------------------------------
# conversions and algebra
# ----------------------------------------------------------------------


def test_spec_from_denominator_round_trip(rng):
    for _ in range(10):
        spec = random_spec(rng, "interior")
        q = denominator_herglotz(spec)
        back = spec_from_denominator(spec.config.tau, spec.config.sigmas, q)
        for l0, l1 in zip(spec.config.lambdas, back.config.lambdas):
            assert l1 == pytest.approx(l0, rel=1e-9)
        z = 0.2 - 0.1j
        assert eval_generator(back, z) == pytest.approx(
            eval_generator(spec, z), rel=1e-9
        )


def test_spec_from_denominator_recovers_the_golden_flow_spec():
    # the generator of the golden `flow` config in tests/golden_cli.json
    spec = GeneratorSpec(
        FixedPointConfig(0.2j, (BoundaryPoint(1.0),), (-1.0,)),
        AtomicHerglotz(((BoundaryPoint(4.0), 0.5),), 0.3),
    )
    back = spec_from_denominator(spec.config.tau, spec.config.sigmas, denominator_herglotz(spec))
    assert back.config.lambdas == spec.config.lambdas
    assert [(pt.theta, m) for pt, m in back.p.atoms] == [(4.0, 0.5)]
    assert back.p.gamma == spec.p.gamma


def test_spec_from_denominator_requires_all_poles():
    q = denominator_herglotz(GeneratorSpec(INTERIOR, AtomicHerglotz()))
    with pytest.raises(DegenerateConfig):
        spec_from_denominator(
            INTERIOR.tau, INTERIOR.sigmas + (BoundaryPoint(2.0),), q
        )


def test_spec_from_denominator_takes_the_first_atom_beside_sigma():
    # both atoms are within ANGLE_TOL of sigma but 1.8e-12 apart, so q keeps
    # both: sigma takes the first one's mass and p keeps the second
    sigma = BoundaryPoint(1.0)
    below, above = BoundaryPoint(1.0 - 0.9e-12), BoundaryPoint(1.0 + 0.9e-12)
    q = RationalHerglotz(((above, 2.0), (BoundaryPoint(4.0), 0.5), (below, 0.25)), 0.3)
    assert len(q.atoms) == 3
    back = spec_from_denominator(0.2j, (sigma,), q)
    assert back.config.lambdas == (-abs(0.2j - sigma.value) ** 2 / 0.5,)
    assert [(pt.theta, m) for pt, m in back.p.atoms] == [(above.theta, 2.0), (4.0, 0.5)]
    assert back.p.gamma == 0.3


def test_convex_combination_is_pointwise(rng):
    c = INTERIOR
    first = GeneratorSpec(c, AtomicHerglotz(((BoundaryPoint(2.0), 0.7),), 0.3))
    second = GeneratorSpec(c, AtomicHerglotz(((BoundaryPoint(4.0), 1.2),), -0.5))
    w = 0.35
    mix = convex_combination(first, second, w)
    for z in (0.0, 0.4j, -0.3 + 0.2j):
        expect = w * eval_generator(first, z) + (1 - w) * eval_generator(second, z)
        assert eval_generator(mix, z) == pytest.approx(expect, rel=1e-8, abs=1e-10)


TWO_PI = 2.0 * math.pi
MIX_POINTS = np.array(
    [0j] + [r * cmath.exp(1j * a) for r in (0.3, 0.6, 0.9) for a in (0.4, 2.5, 4.6)]
)


@st.composite
def shared_skeleton_pairs(draw):
    """Two interior specs over one tau (|tau| <= 0.8) and 1..4 repelling
    points, with 0..3 atoms each, and a weight in [1e-12, 1 - 1e-12].  The
    repelling points and atoms sit on six slots, one per sixth of the
    circle within the middle half of its arc, so any two are at least pi/6
    apart."""
    offsets = draw(st.lists(st.floats(0.25, 0.75), min_size=6, max_size=6))
    turn = draw(st.floats(0.0, TWO_PI, exclude_max=True))
    slots = [(k + x) * TWO_PI / 6.0 + turn for k, x in enumerate(offsets)]
    order = draw(st.permutations(range(6)))
    n = draw(st.integers(1, 4))
    tau = cmath.rect(draw(st.floats(1e-3, 0.8)), draw(st.floats(0.0, TWO_PI)))
    sigmas = tuple(BoundaryPoint(slots[i]) for i in order[:n])
    free = order[n:]
    specs = []
    for _ in range(2):
        logs = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        picked = draw(st.permutations(free))[: draw(st.integers(0, min(3, len(free))))]
        masses = draw(st.lists(st.floats(-3.0, 1.0), min_size=len(picked), max_size=len(picked)))
        p = AtomicHerglotz(
            tuple((BoundaryPoint(slots[i]), math.exp(x)) for i, x in zip(picked, masses)),
            draw(st.floats(-5.0, 5.0)),
        )
        lambdas = tuple(-math.exp(x) for x in logs)
        specs.append(GeneratorSpec(FixedPointConfig(tau, sigmas, lambdas), p))
    weight = draw(st.floats(1e-12, 1.0 - 1e-12))
    return specs[0], specs[1], weight


@st.composite
def generic_pairs(draw):
    """A `random_spec` draw of any regime and a second spec on its skeleton,
    with new spectral values and the atoms and constant of a second draw of
    that regime, turned by the angle between the two taus, so that a
    parabolic draw's atom at tau stays at tau."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regime = draw(st.sampled_from(REGIMES))
    first, other = random_spec(rng, regime), random_spec(rng, regime)
    c = first.config
    turn = cmath.phase(c.tau) - cmath.phase(other.config.tau)
    p = AtomicHerglotz(
        tuple((BoundaryPoint(pt.theta + turn), m) for pt, m in other.p.atoms), other.p.gamma
    )
    lambdas = tuple(-math.exp(x) for x in rng.uniform(-2.0, 2.0, len(c.sigmas)))
    return first, GeneratorSpec(FixedPointConfig(c.tau, c.sigmas, lambdas), p)


def mix_miss(first, second, w, mix):
    """The worst distance of mix from the pointwise mean on MIX_POINTS, over
    max(1, the mean's largest modulus)."""
    expect = w * eval_generator(first, MIX_POINTS) + (1.0 - w) * eval_generator(second, MIX_POINTS)
    return np.abs(eval_generator(mix, MIX_POINTS) - expect).max() / max(1.0, np.abs(expect).max())


@given(shared_skeleton_pairs())
def test_convex_combination_is_the_pointwise_mean_and_keeps_each_sigma(pair):
    first, second, w = pair
    spy = mock.patch.object(generator, "_split_denominator", wraps=generator._split_denominator)
    with spy as split:
        mix = convex_combination(first, second, w)
    assert mix_miss(first, second, w, mix) <= 1e-9
    # the denominator the mix is re-split from holds one atom at each
    # sigma_k, at exactly sigma_k's angle
    q = split.call_args.args[2]
    for s in first.config.sigmas:
        assert [pt.theta for pt, _ in q.atoms if pt.same_point(s)] == [s.theta]


@given(shared_skeleton_pairs())
def test_convex_combination_normalizes_one_herglotz_record(pair):
    # q_c at most: N's atoms are read off the specs' own atoms, and the mix's
    # p is a subsequence of q_c's.  q_c is normalized only where
    # herglotz_core._arc_record finds its atoms out of sweep order, as where
    # a zero both denominators share gets mass 0 (a spec mixed with itself)
    first, second, w = pair
    normalize = AtomicHerglotz.__post_init__
    spy = mock.patch.object(AtomicHerglotz, "__post_init__", autospec=True, side_effect=normalize)
    with spy as made:
        convex_combination(first, second, w)
    assert made.call_count <= 1


@pytest.mark.parametrize("w", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
def test_convex_combination_of_a_generic_pair_normalizes_no_record(w):
    first = GeneratorSpec(INTERIOR, AtomicHerglotz(((BoundaryPoint(2.0), 0.5),), 0.25))
    second = GeneratorSpec(cfg(0.3 + 0.1j, [(0.0, -2.0)]), AtomicHerglotz(((BoundaryPoint(4.0), 1.5),), -1.0))
    normalize = AtomicHerglotz.__post_init__
    spy = mock.patch.object(AtomicHerglotz, "__post_init__", autospec=True, side_effect=normalize)
    with spy as made:
        convex_combination(first, second, w)
    assert made.call_count == 0


def same_config(config, built):
    """Whether two configurations agree field by field, angles and regime too."""
    fields = [(c.tau, [s.theta for s in c.sigmas], c.lambdas, c.regime) for c in (config, built)]
    return fields[0] == fields[1]


def is_normalized(p):
    """Whether p is an AtomicHerglotz that normalizing again leaves as it is."""
    fields = [([(pt.theta, m) for pt, m in h.atoms], h.gamma) for h in (p, AtomicHerglotz(p.atoms, p.gamma))]
    return type(p) is AtomicHerglotz and fields[0] == fields[1]


@given(shared_skeleton_pairs())
def test_records_built_without_init_equal_those_built_with_it(pair):
    # the mix's config and p, and the p of each split of a normalized record
    first, second, w = pair
    q = denominator_herglotz(first)
    back = spec_from_denominator(first.config.tau, first.config.sigmas, q)
    for spec in (convex_combination(first, second, w), back):
        c = spec.config
        assert same_config(c, FixedPointConfig(c.tau, c.sigmas, c.lambdas))
        assert is_normalized(spec.p)
    for sigma in first.config.sigmas + tuple(pt for pt, _ in first.p.atoms):
        for h in (q, first.p):
            assert is_normalized(extract_atom(h, sigma)[1])


def test_convex_combination_refuses_an_alpha_that_overflowed():
    # alpha = |tau - sigma|^2 / (2 |lambda|) is inf at lambda = -1e-320
    sigmas = INTERIOR.sigmas
    first = GeneratorSpec(FixedPointConfig(INTERIOR.tau, sigmas, (-1e-320,)))
    second = GeneratorSpec(INTERIOR, AtomicHerglotz(((BoundaryPoint(2.0), 0.7),), 0.3))
    for a, b in ((first, second), (second, first)):
        with pytest.raises(DomainError, match="spectral value -1e-320 gives the base mass alpha = inf"):
            convex_combination(a, b, 0.5)


@pytest.mark.parametrize(
    "tau, lam, alpha",
    [(0.3, -1e-310, "inf"), (cmath.exp(1e-11j), -1e308, "0.0")],
    ids=["inf", "zero"],
)
def test_an_alpha_beyond_the_floats_is_refused_by_its_readers(tau, lam, alpha):
    # |tau - 1|^2 / (2 |lambda|) overflows to inf, or underflows to 0
    spec = GeneratorSpec(FixedPointConfig(tau, (BoundaryPoint(0.0),), (lam,)))
    other = GeneratorSpec(FixedPointConfig(tau, (BoundaryPoint(0.0),), (-1.0,)))
    message = re.escape(f"spectral value {lam!r} gives the base mass alpha = {alpha};")
    for call in (dw_spectral_value, inequality_suite, lambda s: convex_combination(other, s, 0.5)):
        with pytest.raises(DomainError, match=message):
            call(spec)


def _overflowing_mix_specs():
    """Specs over tau = 0 whose q = p + p0 holds masses that overflow once
    merged or summed: p's atom of mass 1e308 on sigma's alpha = 1e308, and
    two free atoms of 1e308 over a sigma of alpha 1/2."""
    sigma = BoundaryPoint(0.0)
    huge = FixedPointConfig(0.0, (sigma,), (-5e-309,))  # alpha = 1e308
    plain = FixedPointConfig(0.0, (sigma,), (-1.0,))
    two = AtomicHerglotz(((BoundaryPoint(1.0), 1e308), (BoundaryPoint(2.0), 1e308)))
    return (GeneratorSpec(huge, AtomicHerglotz(((sigma, 1e308),))), GeneratorSpec(huge),
            GeneratorSpec(plain, two), GeneratorSpec(plain))


@pytest.mark.parametrize("pair", ["merged-self", "merged-first", "merged-second",
                                  "summed-self", "summed-first"])
def test_convex_combination_refuses_a_mass_of_q_that_overflows(pair):
    # the merged mass 2e308 of q_a made 1/(w/inf + (1-w)/inf) a bare
    # ZeroDivisionError, or a mass the caller never gave ("got inf"/"got nan")
    merged, huge, summed, plain = _overflowing_mix_specs()
    first, second = {"merged-self": (merged, merged), "merged-first": (merged, huge),
                     "merged-second": (huge, merged), "summed-self": (summed, summed),
                     "summed-first": (summed, plain)}[pair]
    # refused before the arc solve
    with mock.patch.object(generator, "_arc_zeros", side_effect=AssertionError):
        with pytest.raises(DomainError, match="^convex_combination: the masses of q_a or q_b"):
            convex_combination(first, second, 0.5)


@pytest.mark.parametrize("mass", [1e140, 1e150, 1e200, 1e250, 1e300])
def test_convex_combination_refuses_a_zero_mass_whose_residue_form_overflows(mass):
    # q_a and q_b and their totals are finite, but f_a^2 f_b^2/den at the
    # zero beside the huge atom is inf/inf: q_c got a mass the caller never
    # gave ("atom mass must be finite and nonnegative, got nan")
    config = FixedPointConfig(0.0, (BoundaryPoint(0.0),), (-1.0,))
    first = GeneratorSpec(config, AtomicHerglotz(((BoundaryPoint(2.0), mass),)))
    with pytest.raises(DomainError, match="^convex_combination: the mass of a zero of N on q_c overflows"):
        convex_combination(first, GeneratorSpec(config), 0.5)


def test_tau_point_is_the_circle_point_of_a_boundary_tau_only():
    assert INTERIOR.tau_point is None
    assert cfg(0.0, [(0.0, -1.0)]).tau_point is None
    for tau in (1.0, cmath.exp(2.5j), cmath.exp(-0.5j), -1.0):
        c = cfg(tau, [(1.0, -1.0)])
        assert c.tau_point.theta.hex() == BoundaryPoint.from_complex(c.tau).theta.hex()
        # the mix's config (_with_lambdas) reads the same point
        mixed = convex_combination(GeneratorSpec(c), GeneratorSpec(c, AtomicHerglotz(gamma=1.0)), 0.5)
        assert mixed.config.tau_point.theta.hex() == c.tau_point.theta.hex()


def test_brfp_spectral_value_stays_negative_beside_a_huge_atom():
    # p_star doubled the mass 1.5e308 to inf, so the value read -0.0 and
    # canonical_form refused the spec as having a nonnegative spectral value
    sigma = BoundaryPoint(0.0)
    c = FixedPointConfig(0.3, (sigma,), (-1e-12,))
    spec = GeneratorSpec(c, AtomicHerglotz(((sigma, 1.5e308),)))
    value = brfp_spectral_value(spec, 0)
    assert value < 0.0
    assert value == pytest.approx(-1e-12 / (1.5e308 / c.alphas[0]), rel=1e-12)
    canon = canonical_form(spec)
    assert canon.config.lambdas == (value,) and canon.p.atoms == ()


def test_brfp_spectral_value_refuses_a_value_below_the_floats():
    # alpha = 0.49/2e300 and mass 1e308: mass/alpha overflows, -|lambda|/inf is -0.0
    sigma = BoundaryPoint(0.0)
    spec = GeneratorSpec(FixedPointConfig(0.3, (sigma,), (-1e300,)), AtomicHerglotz(((sigma, 1e308),)))
    with pytest.raises(DomainError, match="^the atom of mass 1e[+]308 at repelling point 0 relaxes"):
        brfp_spectral_value(spec, 0)


@given(shared_skeleton_pairs(), st.floats(1e-3, 1.0 - 1e-3))
def test_convex_combination_matches_the_three_reciprocal_mix(pair, w):
    first, second, _ = pair
    mix = convex_combination(first, second, w)
    expect = eval_generator(reciprocal_reference.convex_combination(first, second, w), MIX_POINTS)
    scale = max(1.0, np.abs(expect).max())
    assert np.abs(eval_generator(mix, MIX_POINTS) - expect).max() <= 1e-9 * scale


# min(w, 1 - w) log-uniform in [1e-16, 0.5], on either side of 1/2
SWEEP_WEIGHTS = st.tuples(st.floats(-16.0, math.log10(0.5)), st.booleans()).map(
    lambda x: 1.0 - 10.0 ** x[0] if x[1] else 10.0 ** x[0]
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pairs", [shared_skeleton_pairs(), generic_pairs()], ids=["shared", "generic"])
@given(data=st.data())
def test_convex_combination_over_the_weight_sweep(pairs, data):
    first, second = data.draw(pairs)[:2]
    w = data.draw(SWEEP_WEIGHTS)
    assert mix_miss(first, second, w, convex_combination(first, second, w)) <= 1e-9


@given(shared_skeleton_pairs(), st.floats(1e-20, 2.0**-54))
def test_convex_combination_at_a_tiny_weight_is_the_second_spec(pair, w):
    # 1 - w rounds to 1 up to w = 2^-54, where the mix is second to rounding
    first, second, _ = pair
    assert convex_combination(first, second, w) is second
    assert mix_miss(first, second, w, second) <= 1e-9


def test_convex_combination_just_above_the_rounding_weight():
    # at w = 1e-16, 1 - w is below 1, so the mix is built, and one side's
    # atoms weigh about 1e-16: first's reciprocal atoms in the three-
    # reciprocal mix, which missed the pointwise mean here by 3.9e-9 x scale,
    # and second's atoms in N = w q_b + (1 - w) q_a, whose mix misses it by
    # 1.5e-16
    sigmas = (BoundaryPoint(math.pi / 6.0),)
    first = GeneratorSpec(
        FixedPointConfig(0.5, sigmas, (-1.0,)),
        AtomicHerglotz(((BoundaryPoint(math.pi / 2.0), 1.0), (BoundaryPoint(0.75 * math.pi), math.exp(-3.0))), 1.0),
    )
    second = GeneratorSpec(FixedPointConfig(0.5, sigmas, (-math.exp(2.0),)), AtomicHerglotz())
    w = 1e-16
    assert mix_miss(first, second, w, convex_combination(first, second, w)) <= 1e-9


def test_convex_combination_where_the_heavier_side_of_n_is_near_its_zero():
    # 1 - w = 8.2e-15, so N = w q_b + (1 - w) q_a is q_b to rounding, and the
    # zero of N beside sigma = 5.8823 lies at a zero of q_b, 1.4e-4 from
    # second's atom at 5.8837: f_b read an ulp away is noise, and the plain
    # residue form gave that zero a mass of 6.6e-9 for 1.3e-16, a miss of
    # 3.6e-9 x scale.  The Newton step of N removes it.
    tau = -0.7083080673182932 + 0.48903788562741873j
    thetas = (0.8804495716548729, 3.1469578958359814, 1.769956692204015, 5.882327325576558)
    sigmas = tuple(BoundaryPoint(t) for t in thetas)
    lambdas_a = (-4.030518967131484, -4.1547379463352465, -0.20559447562197278, -1.7810917979344951)
    lambdas_b = (-0.18377812424213646, -0.5950507334208109, -0.7163718138402126, -0.33525253184410647)
    atoms_a = [(2.8119188595943148, 0.7702848651235069), (4.147024118937327, 0.13962091030288315)]
    atoms_b = [
        (0.041028877158686444, 0.625021585142122),
        (1.7236950894364247, 0.24468083950052547),
        (5.883696707722326, 0.48395095704342145),
    ]
    first = GeneratorSpec(
        FixedPointConfig(tau, sigmas, lambdas_a),
        AtomicHerglotz(tuple((BoundaryPoint(t), m) for t, m in atoms_a), -2.7164494182642853),
    )
    second = GeneratorSpec(
        FixedPointConfig(tau, sigmas, lambdas_b),
        AtomicHerglotz(tuple((BoundaryPoint(t), m) for t, m in atoms_b), 2.7132868000831216),
    )
    w = 0.9999999999999918
    assert mix_miss(first, second, w, convex_combination(first, second, w)) <= 1e-11


def test_convex_combination_merges_a_sigma_given_across_angle_zero():
    # the two specs give sigma_1 within ANGLE_TOL of each other on either
    # side of angle 0, so N's atoms there merge across 2 pi into one shared
    # atom: N has four atoms, and the mix's p one atom per arc of N
    tau = 0.3 + 0.1j
    first = GeneratorSpec(
        FixedPointConfig(tau, (BoundaryPoint(2e-13), BoundaryPoint(2.0)), (-1.0, -2.0)),
        AtomicHerglotz(((BoundaryPoint(4.0), 0.5),), 0.3),
    )
    second = GeneratorSpec(
        FixedPointConfig(tau, (BoundaryPoint(-2e-13), BoundaryPoint(2.0)), (-0.5, -1.5)),
        AtomicHerglotz(((BoundaryPoint(5.0), 0.7),), -1.0),
    )
    for w in (1e-16, 0.3, 1.0 - 1e-16):
        mix = convex_combination(first, second, w)
        assert mix_miss(first, second, w, mix) <= 1e-9
        assert len(mix.p.atoms) == 4


def test_convex_combination_endpoints():
    c = INTERIOR
    first = GeneratorSpec(c, AtomicHerglotz(((BoundaryPoint(2.0), 0.7),)))
    second = GeneratorSpec(c, AtomicHerglotz(gamma=1.0))
    assert convex_combination(first, second, 1.0) is first
    assert convex_combination(first, second, 0.0) is second
    with pytest.raises(DomainError):
        convex_combination(first, second, 1.5)


def test_convex_combination_requires_shared_skeleton():
    first = GeneratorSpec(INTERIOR, AtomicHerglotz())
    second = GeneratorSpec(cfg(0.2, [(0.0, -1.0)]), AtomicHerglotz())
    with pytest.raises(DegenerateConfig):
        convex_combination(first, second, 0.5)


@pytest.mark.parametrize("weight", ["0.5", b"0.5", None, True, 0.5 + 0j], ids=repr)
def test_convex_combination_refuses_a_weight_that_is_no_real_number(weight):
    # a string, bytes, None and a complex value failed the range test with
    # a bare TypeError, and True was read as the weight 1
    first = GeneratorSpec(INTERIOR, AtomicHerglotz(((BoundaryPoint(2.0), 0.7),)))
    second = GeneratorSpec(INTERIOR, AtomicHerglotz(gamma=1.0))
    with pytest.raises(DomainError, match="weight must be a real number"):
        convex_combination(first, second, weight)
    mix = convex_combination(first, second, np.float64(0.25))
    assert mix == convex_combination(first, second, 0.25)


@pytest.mark.parametrize("weight", [np.array([0.25, 0.5]), np.array([0.25])], ids=["two", "one"])
def test_convex_combination_refuses_an_array_weight(weight):
    # an array's comparison is an array: two elements raised a bare
    # ValueError, one a bare TypeError from float()
    first = GeneratorSpec(INTERIOR, AtomicHerglotz(((BoundaryPoint(2.0), 0.7),)))
    second = GeneratorSpec(INTERIOR, AtomicHerglotz(gamma=1.0))
    with pytest.raises(DomainError, match="weight must be a real number"):
        convex_combination(first, second, weight)
    mix = convex_combination(first, second, np.array(0.25))
    assert mix == convex_combination(first, second, 0.25)


@pytest.mark.parametrize("weight", [np.True_, np.False_, np.array(True)], ids=repr)
def test_convex_combination_refuses_a_numpy_bool_weight(weight):
    # np.bool_ is no subclass of bool, and np.True_ was read as the weight 1
    first = GeneratorSpec(INTERIOR, AtomicHerglotz(((BoundaryPoint(2.0), 0.7),)))
    second = GeneratorSpec(INTERIOR, AtomicHerglotz(gamma=1.0))
    with pytest.raises(DomainError, match="weight must be a real number"):
        convex_combination(first, second, weight)


# ----------------------------------------------------------------------
# sampling law sanity
# ----------------------------------------------------------------------


def test_random_spec_regimes(rng):
    for _ in range(20):
        assert not random_spec(rng, "interior").config.is_boundary
        assert random_spec(rng, "origin").config.tau == 0.0
        hyp = random_spec(rng, "boundary_hyperbolic")
        assert hyp.config.is_boundary
        # the retuned gamma cancels the contact value at the drawn tau
        assert dw_spectral_value(hyp) > 0.0
        par = random_spec(rng, "boundary_parabolic")
        assert par.config.is_boundary
        tau_pt = BoundaryPoint.from_complex(par.config.tau)
        assert par.p.atom_mass_at(tau_pt) > 0.0
        assert beta(par) > 0.0 and dw_spectral_value(par) == 0.0


def test_random_spec_rejects_unknown_regime(rng):
    with pytest.raises(DomainError):
        random_spec(rng, "nonsense")
