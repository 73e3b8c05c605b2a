"""Tests for extreme points of the two normalized generator families."""

import cmath
import math

import numpy as np
import pytest

from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    DegenerateConfig,
    DomainError,
    ExtremeCandidate,
    FixedPointConfig,
    GeneratorSpec,
    NormalizationError,
    WeightError,
    brfp_spectral_value,
    canonical_form,
    eval_generator,
    extreme_candidate_generator,
    extreme_point_GenF,
    gk_dirac_parameter,
    gk_generator,
    is_extreme_GenF,
)
from diskflow.herglotz_core import angle_gap


def cfg(tau, pairs):
    sigmas = tuple(BoundaryPoint(t) for t, _ in pairs)
    lambdas = tuple(l for _, l in pairs)
    return FixedPointConfig(tau, sigmas, lambdas)


PAIR = cfg(0.2 - 0.3j, [(0.0, -0.5), (2.0, -0.5)])
SINGLE = cfg(0.3 + 0.1j, [(1.0, -1.0)])


# ----------------------------------------------------------------------
# candidate form
# ----------------------------------------------------------------------


def test_candidate_atom_budget():
    ExtremeCandidate(PAIR, 0.5, ((BoundaryPoint(4.0), 0.3),))
    with pytest.raises(DomainError):
        ExtremeCandidate(
            PAIR, 0.5, ((BoundaryPoint(4.0), 0.3), (BoundaryPoint(5.0), 0.1))
        )
    with pytest.raises(DomainError):
        ExtremeCandidate(SINGLE, 0.0, ((BoundaryPoint(4.0), 0.3),))


def test_candidate_rejects_negative_mass():
    with pytest.raises(WeightError):
        ExtremeCandidate(PAIR, 0.0, ((BoundaryPoint(4.0), -0.1),))


def test_candidate_refuses_nan_mass_and_b():
    # "mass < 0 raises" let NaN through, to fail later in AtomicHerglotz
    with pytest.raises(WeightError):
        ExtremeCandidate(PAIR, 0.0, ((BoundaryPoint(4.0), math.nan),))
    with pytest.raises(DomainError):
        ExtremeCandidate(PAIR, math.nan)


def test_candidate_atoms_must_avoid_repelling_set():
    with pytest.raises(DegenerateConfig):
        ExtremeCandidate(PAIR, 0.0, ((BoundaryPoint(2.0), 0.1),))


def test_candidate_generator_spec():
    cand = ExtremeCandidate(PAIR, 0.7, ((BoundaryPoint(4.0), 0.3),))
    spec = extreme_candidate_generator(cand)
    assert spec.p.gamma == 0.7
    assert spec.p.atom_mass_at(BoundaryPoint(4.0)) == pytest.approx(0.3)
    assert spec.config is PAIR


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------


def test_canonical_form_absorbs_atoms_on_F():
    m = 0.4
    spec = GeneratorSpec(SINGLE, AtomicHerglotz(((SINGLE.sigmas[0], m),), 0.2))
    canon = canonical_form(spec)
    assert canon.p.total_mass == 0.0
    assert canon.p.gamma == 0.2
    expect = brfp_spectral_value(spec, 0)
    assert canon.config.lambdas[0] == pytest.approx(expect, abs=1e-15)


def test_canonical_form_preserves_generator_pointwise():
    spec = GeneratorSpec(
        PAIR,
        AtomicHerglotz(
            ((PAIR.sigmas[0], 0.3), (BoundaryPoint(4.0), 0.6)), -0.4
        ),
    )
    canon = canonical_form(spec)
    for z in (0.0, 0.3 + 0.4j, -0.6j, 0.1 - 0.7j):
        assert eval_generator(canon, z) == pytest.approx(
            eval_generator(spec, z), rel=1e-13, abs=1e-15
        )


def test_canonical_form_identity_without_atoms_on_F():
    spec = GeneratorSpec(PAIR, AtomicHerglotz(((BoundaryPoint(4.0), 0.6),), 0.1))
    canon = canonical_form(spec)
    assert canon.config.lambdas == PAIR.lambdas
    assert canon.p.atoms == spec.p.atoms


# ----------------------------------------------------------------------
# normalized class over F
# ----------------------------------------------------------------------


def test_extreme_point_requires_normalization():
    s = (BoundaryPoint(0.0), BoundaryPoint(2.0))
    with pytest.raises(NormalizationError):
        extreme_point_GenF(0.0, s, (-0.5, -0.6), 0.0)


def test_extreme_point_construction_is_extreme():
    s = (BoundaryPoint(0.0), BoundaryPoint(2.0))
    spec = extreme_point_GenF(0.1j, s, (-0.25, -0.75), 1.3)
    assert is_extreme_GenF(spec)
    assert spec.p.is_trivial()
    assert spec.p.gamma == 1.3


def test_extra_free_atom_breaks_extremality():
    s = (BoundaryPoint(0.0), BoundaryPoint(2.0))
    spec = extreme_point_GenF(0.1j, s, (-0.25, -0.75), 0.0)
    bent = GeneratorSpec(spec.config, AtomicHerglotz(((BoundaryPoint(4.0), 0.2),)))
    assert not is_extreme_GenF(bent)


def test_unnormalized_spectral_values_break_extremality():
    spec = GeneratorSpec(cfg(0.0, [(0.0, -0.5)]), AtomicHerglotz())
    assert not is_extreme_GenF(spec)


def test_atom_on_F_can_restore_normalization():
    # |lambda| = 2 relaxes to 1 once the free atom doubles the base mass
    c = cfg(0.3 + 0.1j, [(1.0, -2.0)])
    m = c.alphas[0]  # brfp value: -2 / (1 + m/alpha) = -1 at m = alpha
    spec = GeneratorSpec(c, AtomicHerglotz(((c.sigmas[0], m),), 0.0))
    assert brfp_spectral_value(spec, 0) == pytest.approx(-1.0, abs=1e-14)
    assert is_extreme_GenF(spec)


# ----------------------------------------------------------------------
# single-point mixture form
# ----------------------------------------------------------------------


def test_gk_dirac_parameter_on_circle():
    k = gk_dirac_parameter(0.8, 0.5)
    assert abs(abs(k.value) - 1.0) < 1e-14
    y = 0.8 / 0.5
    assert k.value == pytest.approx((1j * y - 1.0) / (1j * y + 1.0), abs=1e-14)
    with pytest.raises(DomainError):
        gk_dirac_parameter(0.8, 0.0)


@pytest.mark.parametrize(
    "b, alpha, theta",
    [
        # b/alpha overflowed to inf, and (i inf - 1)/(i inf + 1) to NaN
        (1e200, 1e-200, 0.0),
        (-1e200, 1e-200, 0.0),
        (1e200, 1.0, 2e-200),
        (0.0, 1e-300, math.pi),
        (1e-300, 1e300, math.pi),
    ],
)
def test_gk_dirac_parameter_takes_the_limit_where_b_over_alpha_overflows(b, alpha, theta):
    assert gk_dirac_parameter(b, alpha).theta == theta


def test_gk_dirac_parameter_is_the_phase_of_its_mobius_point():
    rng = np.random.default_rng(36)
    for b, alpha in zip(rng.uniform(-5e7, 5e7, 2000), 10.0 ** rng.uniform(-6.0, 6.0, 2000)):
        y = b / alpha
        expected = BoundaryPoint(cmath.phase((1j * y - 1.0) / (1j * y + 1.0)))
        assert angle_gap(gk_dirac_parameter(b, alpha).theta, expected.theta) <= 2e-15


def test_gk_dirac_matches_candidate_generator():
    c = SINGLE
    b = 0.9
    kappa = gk_dirac_parameter(b, c.alphas[0])
    cand = extreme_candidate_generator(ExtremeCandidate(c, b))
    for z in (0.0, 0.4 + 0.2j, -0.5j, 0.7):
        direct = gk_generator(
            c.tau, c.sigmas[0], c.lambdas[0], ((kappa, 1.0),), z
        )
        assert direct == pytest.approx(eval_generator(cand, z), rel=1e-12, abs=1e-14)


def test_gk_generator_linear_in_measure():
    c = SINGLE
    k1 = BoundaryPoint(1.0)
    k2 = BoundaryPoint(4.0)
    z = 0.3 - 0.2j
    w = 0.3
    mixed = gk_generator(c.tau, c.sigmas[0], c.lambdas[0], ((k1, w), (k2, 1 - w)), z)
    a = gk_generator(c.tau, c.sigmas[0], c.lambdas[0], ((k1, 1.0),), z)
    b = gk_generator(c.tau, c.sigmas[0], c.lambdas[0], ((k2, 1.0),), z)
    assert mixed == pytest.approx(w * a + (1 - w) * b, rel=1e-13)


def test_gk_generator_validates_measure():
    c = SINGLE
    k = BoundaryPoint(1.0)
    with pytest.raises(WeightError):
        gk_generator(c.tau, c.sigmas[0], c.lambdas[0], ((k, 0.5),), 0.0)
    with pytest.raises(WeightError):
        gk_generator(c.tau, c.sigmas[0], c.lambdas[0], ((k, -1.0), (k, 2.0)), 0.0)


def test_gk_generator_validates_geometry():
    k = BoundaryPoint(1.0)
    with pytest.raises(DomainError):
        gk_generator(0.0, BoundaryPoint(0.0), 0.5, ((k, 1.0),), 0.0)  # lam > 0
    with pytest.raises(DegenerateConfig):
        gk_generator(1.0, BoundaryPoint(0.0), -1.0, ((k, 1.0),), 0.0)
    with pytest.raises(DomainError):
        gk_generator(0.0, BoundaryPoint(0.0), -1.0, ((k, 1.0),), 1.0)  # |z| = 1


def test_gk_generator_refuses_nan():
    k = BoundaryPoint(1.0)
    nan = float("nan")
    with pytest.raises(WeightError):
        gk_generator(0.0, BoundaryPoint(0.0), -1.0, ((k, nan),), 0.0)
    with pytest.raises(DomainError):
        gk_generator(0.0, BoundaryPoint(0.0), nan, ((k, 1.0),), 0.0)
    with pytest.raises(DomainError):
        gk_generator(0.0, BoundaryPoint(0.0), -1.0, ((k, 1.0),), nan)


@pytest.mark.parametrize("tau", [math.nan, 3.0])
def test_gk_generator_refuses_tau_off_the_closed_disk(tau):
    with pytest.raises(DomainError):
        gk_generator(tau, BoundaryPoint(0.0), -1.0, ((BoundaryPoint(1.0), 1.0),), 0.0)


def test_gk_vanishes_at_tau():
    c = SINGLE
    k = BoundaryPoint(2.5)
    val = gk_generator(c.tau, c.sigmas[0], c.lambdas[0], ((k, 1.0),), c.tau)
    assert abs(val) < 1e-14
