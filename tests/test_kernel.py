"""The array kernel against per-atom loop references.

Every kernel-backed function must equal its loop reference (tests/
loop_reference.py) within 1e-12 * max(1, |value|), at single points and at
arrays of points.  The kernel sums in another order (and arrays by
broadcasting against the atoms), so exact equality is not expected.  So
must the one-point (G, G') of generator._point_generator, whose G' is the
fused (u' - G q')/q that an orbit's variational equation reads.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import loop_reference as ref
from diskflow import (
    AtomAtPoint,
    AtomicHerglotz,
    BoundaryPoint,
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    RationalHerglotz,
    contact_value,
    eval_generator,
    eval_herglotz,
    reciprocal,
)
from diskflow.generator import _point_generator
from diskflow.herglotz_core import angle_gap, kernel_sum

TWO_PI = 2.0 * math.pi
REL = 1e-12

angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)
masses = st.floats(min_value=1e-3, max_value=10.0)
gammas = st.floats(min_value=-5.0, max_value=5.0)
atom_lists = st.lists(st.tuples(angles, masses), max_size=64)
points = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
point_lists = st.lists(points, min_size=1, max_size=8)

# p' and p'' of a bare p are its kernel sums of order 1 and 2
HERGLOTZ = (
    (eval_herglotz, ref.eval_herglotz),
    (lambda p, z: kernel_sum(p.s, p.m, z, 1), ref.herglotz_derivative),
    (lambda p, z: kernel_sum(p.s, p.m, z, 2), ref.herglotz_second_derivative),
)
GENERATOR = ((eval_generator, ref.eval_generator),)


def herglotz(pairs, gamma):
    return AtomicHerglotz(tuple((BoundaryPoint(t), m) for t, m in pairs), gamma)


def assert_close(got, expected):
    assert abs(got - expected) <= REL * max(1.0, abs(expected)), (got, expected)


def assert_matches(fn, reference, obj, z, zs):
    scalar = fn(obj, z)
    assert type(scalar) is complex
    assert_close(scalar, reference(obj, z))
    values = fn(obj, np.array(zs))
    assert values.shape == (len(zs),)
    for w, value in zip(zs, values):
        assert_close(value, reference(obj, w))


@st.composite
def generators(draw):
    """A fixed-point spec with up to 64 free atoms."""
    p = herglotz(draw(atom_lists), draw(gammas))
    if draw(st.booleans()):
        tau = complex(draw(points))
    else:
        tau = BoundaryPoint(draw(angles)).value
    thetas = draw(st.lists(angles, min_size=1, max_size=4, unique=True))
    sigmas = tuple(BoundaryPoint(t) for t in thetas)
    gaps_ok = all(
        angle_gap(a.theta, b.theta) > 1e-6 for i, a in enumerate(sigmas) for b in sigmas[i + 1 :]
    )
    tau_ok = abs(abs(tau) - 1.0) > 1e-12 or all(
        angle_gap(BoundaryPoint.from_complex(tau).theta, s.theta) > 1e-6 for s in sigmas
    )
    assume(gaps_ok and tau_ok)
    lambdas = tuple(-math.exp(draw(st.floats(min_value=-2.0, max_value=2.0))) for _ in sigmas)
    return GeneratorSpec(FixedPointConfig(tau, sigmas, lambdas), p)


@given(atom_lists, gammas, points, point_lists)
def test_herglotz_evaluation_matches_loops(pairs, gamma, z, zs):
    p = herglotz(pairs, gamma)
    for fn, reference in HERGLOTZ:
        assert_matches(fn, reference, p, z, zs)


@given(generators(), points, point_lists)
def test_generator_evaluation_matches_loops(gen, z, zs):
    for fn, reference in GENERATOR:
        assert_matches(fn, reference, gen, z, zs)
    point = _point_generator(gen)
    for w in [z] + zs:
        g, dg = point(w)
        assert_close(g, ref.eval_generator(gen, w))
        assert_close(dg, ref.eval_generator_derivative(gen, w))


@given(atom_lists, gammas, angles)
def test_boundary_functionals_match_loops(pairs, gamma, theta):
    p = herglotz(pairs, gamma)
    sigma = BoundaryPoint(theta)
    if math.isinf(ref.p_sharp(p, sigma)):  # sigma carries an atom
        with pytest.raises(AtomAtPoint):
            contact_value(p, sigma)
        return
    c = contact_value(p, sigma)
    assert c.real == 0.0
    assert_close(c, ref.contact_value(p, sigma))


@given(st.lists(st.tuples(angles, masses), min_size=1, max_size=16), gammas)
def test_reciprocal_masses_match_loops(pairs, gamma):
    p = RationalHerglotz(tuple((BoundaryPoint(t), m) for t, m in pairs), gamma)
    q = reciprocal(p)
    zeros = [point for point, _ in q.atoms]
    for (_, mass), expected in zip(q.atoms, ref.reciprocal_masses(p, zeros)):
        assert_close(mass, expected)


def test_kernel_points_outside_the_disk_raise():
    p = herglotz([(0.3, 1.0), (2.0, 0.5)], 0.2)
    spec = GeneratorSpec(FixedPointConfig(0.0, (BoundaryPoint(1.0),), (-1.0,)), p)
    inside_then_out = np.array([0.2j, 0.5, 1.0 + 0.0j])
    with pytest.raises(DomainError):
        eval_herglotz(p, inside_then_out)
    for fn, _ in GENERATOR:
        with pytest.raises(DomainError):
            fn(spec, inside_then_out)


def test_nan_points_raise():
    # NaN compares false with everything, so a test of |z| >= 1 lets it through
    p = herglotz([(0.3, 1.0), (2.0, 0.5)], 0.2)
    spec = GeneratorSpec(FixedPointConfig(0.0, (BoundaryPoint(1.0),), (-1.0,)), p)
    nan = complex(math.nan, 0.0)
    for z in (nan, np.array([0.2j, nan, 0.5])):
        with pytest.raises(DomainError):
            eval_herglotz(p, z)
        for fn, _ in GENERATOR:
            with pytest.raises(DomainError):
                fn(spec, z)
