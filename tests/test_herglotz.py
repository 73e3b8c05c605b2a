"""Unit tests for boundary points, atomic Herglotz functions, and the
reciprocal map on the rational subclass."""

import cmath
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import diskflow
from diskflow import (
    AtomAtPoint,
    AtomicHerglotz,
    BoundaryPoint,
    DomainError,
    QuadratureFailure,
    RationalHerglotz,
    contact_value,
    counterexample_P,
    counterexample_divergence,
    eval_herglotz,
    extract_atom,
    herglotz_core,
    herglotz_kernel,
    p_star,
    reciprocal,
)
from diskflow.herglotz_core import _MAX_PANELS, _gk15, _gk15_panel, angle_gap, kernel_sum
import reciprocal_reference
from loop_reference import herglotz_derivative_circle, p_sharp
from test_golden_cli import _baseline_env

TWO_PI = 2.0 * math.pi


def atoms(*pairs):
    return tuple((BoundaryPoint(t), m) for t, m in pairs)


# ----------------------------------------------------------------------
# BoundaryPoint
# ----------------------------------------------------------------------


def test_boundary_point_normalizes_angle():
    assert BoundaryPoint(TWO_PI + 0.5).theta == pytest.approx(0.5, abs=1e-15)
    assert BoundaryPoint(-0.25).theta == pytest.approx(TWO_PI - 0.25, abs=1e-15)
    assert 0.0 <= BoundaryPoint(123.456).theta < TWO_PI


def test_boundary_point_value_on_circle():
    s = BoundaryPoint(1.2)
    assert abs(abs(s.value) - 1.0) < 1e-15
    assert s.value == pytest.approx(cmath.exp(1.2j), abs=1e-15)


def test_from_complex_projects_and_rejects():
    s = BoundaryPoint.from_complex(2.0 * cmath.exp(0.7j))
    assert s.theta == pytest.approx(0.7, abs=1e-12)
    with pytest.raises((ValueError, DomainError)):
        BoundaryPoint.from_complex(0.0)


def test_angular_distance_wraps():
    a = BoundaryPoint(0.1)
    b = BoundaryPoint(TWO_PI - 0.1)
    assert angle_gap(a.theta, b.theta) == pytest.approx(0.2, abs=1e-14)
    assert a.same_point(BoundaryPoint(0.1 + TWO_PI))
    assert not a.same_point(b)


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_boundary_point_angle_round_trip(theta):
    s = BoundaryPoint(theta)
    again = BoundaryPoint.from_complex(s.value)
    assert angle_gap(s.theta, again.theta) < 1e-9


# ----------------------------------------------------------------------
# AtomicHerglotz invariants
# ----------------------------------------------------------------------


def test_zero_masses_are_dropped():
    p = AtomicHerglotz(atoms((0.3, 0.0), (1.1, 2.0)), 0.5)
    assert len(p.atoms) == 1
    assert p.total_mass == pytest.approx(2.0)


def test_negative_mass_rejected():
    with pytest.raises(DomainError):
        AtomicHerglotz(atoms((0.3, -1.0)), 0.0)


# float() raises OverflowError on an int beyond the floats; each is refused
# as DomainError where it is converted
def test_boundary_point_refuses_an_int_beyond_the_floats():
    with pytest.raises(DomainError, match="too large for a float"):
        BoundaryPoint(10**400)


@pytest.mark.parametrize("mass", [10**400, -10**400], ids=["plus", "minus"])
def test_atomic_herglotz_refuses_a_mass_beyond_the_floats(mass):
    with pytest.raises(DomainError, match="too large for a float"):
        AtomicHerglotz(atoms((0.3, mass)), 0.0)


@pytest.mark.parametrize("gamma", [10**400, -10**400], ids=["plus", "minus"])
def test_atomic_herglotz_refuses_a_gamma_beyond_the_floats(gamma):
    with pytest.raises(DomainError, match="too large for a float"):
        AtomicHerglotz(atoms((0.3, 1.0)), gamma)


def test_coincident_atoms_merge():
    p = AtomicHerglotz(atoms((0.4, 1.0), (0.4, 2.5)), 0.0)
    assert len(p.atoms) == 1
    assert p.atoms[0][1] == pytest.approx(3.5)


@pytest.mark.parametrize(
    "pairs, expected",
    [
        # a chain 0.6e-12 apart: the first two are one point, the third is not
        (((1.0, 1.0), (1.0 + 0.6e-12, 2.0), (1.0 + 1.2e-12, 4.0)),
         ((1.0, 3.0), (1.0 + 1.2e-12, 4.0))),
        # two atoms 0.4e-12 apart across 2*pi merge at angle 0
        (((TWO_PI - 0.4e-12, 1.0), (0.0, 2.0)), ((0.0, 3.0),)),
    ],
)
def test_merge_is_independent_of_atom_order(pairs, expected):
    for order in itertools.permutations(pairs):
        p = AtomicHerglotz(atoms(*order), 0.0)
        assert [(pt.theta, m) for pt, m in p.atoms] == list(expected)


def test_atoms_sorted_by_angle():
    p = AtomicHerglotz(atoms((5.0, 1.0), (0.2, 1.0), (2.0, 1.0)), 0.0)
    thetas = [pt.theta for pt, _ in p.atoms]
    assert thetas == sorted(thetas)


def test_trivial_detection():
    # trivial means purely imaginary constant: a tilt alone still counts
    assert AtomicHerglotz().is_trivial()
    assert AtomicHerglotz(gamma=1.0).is_trivial()
    assert not AtomicHerglotz(atoms((0.0, 1.0))).is_trivial()


def test_rational_requires_atom():
    with pytest.raises(DomainError, match="at least one atom"):
        RationalHerglotz((), 1.0)


@pytest.mark.parametrize("gamma", [0.5, 0.0])
def test_reciprocal_refuses_a_function_without_atoms(gamma):
    # 1/(i gamma) has no atoms either; the refusal names the rule before
    # any solve, where the arc solve would index the first atom
    with pytest.raises(DomainError, match="at least one atom"):
        reciprocal(AtomicHerglotz((), gamma))


# ----------------------------------------------------------------------
# evaluation and derivatives
# ----------------------------------------------------------------------


def test_eval_matches_direct_kernel_sum():
    p = AtomicHerglotz(atoms((0.3, 0.7), (2.1, 1.4), (4.0, 0.2)), -0.9)
    z = 0.31 - 0.44j
    expect = complex(0.0, -0.9)
    for t, m in ((0.3, 0.7), (2.1, 1.4), (4.0, 0.2)):
        s = cmath.exp(1j * t)
        expect += m * (s + z) / (s - z)
    assert eval_herglotz(p, z) == pytest.approx(expect, abs=1e-14)


def test_eval_at_origin_is_mass_plus_tilt():
    p = AtomicHerglotz(atoms((0.3, 0.7), (2.1, 1.4)), 0.25)
    assert eval_herglotz(p, 0.0) == pytest.approx(complex(2.1, 0.25), abs=1e-15)


def test_eval_rejects_closed_boundary():
    p = AtomicHerglotz(atoms((0.3, 1.0)))
    with pytest.raises(DomainError):
        eval_herglotz(p, 1.0 + 0.0j)
    with pytest.raises(DomainError):
        eval_herglotz(p, 1.2j)


@given(
    st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
    st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
)
def test_positive_real_part_everywhere(theta, mass, gamma, z):
    p = AtomicHerglotz(atoms((theta, mass)), gamma)
    assert eval_herglotz(p, z).real > 0.0


def test_derivative_matches_finite_difference():
    p = AtomicHerglotz(atoms((0.9, 0.8), (3.3, 1.1)), 0.4)
    z = -0.2 + 0.35j
    h = 1e-6
    fd = (eval_herglotz(p, z + h) - eval_herglotz(p, z - h)) / (2 * h)
    assert kernel_sum(p.s, p.m, z, 1) == pytest.approx(fd, rel=1e-8)


def test_second_derivative_matches_finite_difference():
    p = AtomicHerglotz(atoms((0.9, 0.8), (3.3, 1.1)), 0.4)
    z = -0.2 + 0.35j
    h = 1e-5
    fd = (
        eval_herglotz(p, z + h) - 2 * eval_herglotz(p, z) + eval_herglotz(p, z - h)
    ) / h**2
    assert kernel_sum(p.s, p.m, z, 2) == pytest.approx(fd, rel=1e-6)


# ----------------------------------------------------------------------
# boundary functionals
# ----------------------------------------------------------------------


def test_p_star_is_twice_atom_mass():
    s = BoundaryPoint(1.0)
    p = AtomicHerglotz(((s, 0.75), (BoundaryPoint(2.0), 3.0)), 1.0)
    assert p_star(p, s) == pytest.approx(1.5)
    assert p_star(p, BoundaryPoint(0.1)) == 0.0


def test_p_star_as_radial_limit():
    # (1 - conj(s) r s) p(r s) -> 2 m as r -> 1
    s = BoundaryPoint(1.0)
    p = AtomicHerglotz(((s, 0.75), (BoundaryPoint(2.0), 3.0)), 1.0)
    r = 1.0 - 1e-9
    approx = (1.0 - r) * eval_herglotz(p, r * s.value)
    assert approx.real == pytest.approx(p_star(p, s), abs=1e-6)


def test_p_sharp_finite_case_and_radial_limit():
    s = BoundaryPoint(0.0)
    p = AtomicHerglotz(atoms((2.0, 1.3), (4.5, 0.2)), -2.0)
    direct = 2.0 * (
        1.3 / abs(cmath.exp(2.0j) - 1.0) ** 2 + 0.2 / abs(cmath.exp(4.5j) - 1.0) ** 2
    )
    assert p_sharp(p, s) == pytest.approx(direct, rel=1e-14)
    r = 1.0 - 1e-7
    limit = eval_herglotz(p, r).real / (1.0 - r)
    assert p_sharp(p, s) == pytest.approx(limit, rel=1e-5)
    # p#(sigma) = Re(-sigma p'(sigma)): at sigma by direct summation, and as
    # the radial limit of the interior derivative
    on_circle = (-s.value * herglotz_derivative_circle(p, s.value)).real
    assert p_sharp(p, s) == pytest.approx(on_circle, rel=1e-14)
    radial = (-s.value * kernel_sum(p.s, p.m, r * s.value, 1)).real
    assert p_sharp(p, s) == pytest.approx(radial, rel=1e-5)


def test_p_sharp_infinite_on_atom():
    s = BoundaryPoint(1.0)
    p = AtomicHerglotz(((s, 1.0),))
    assert math.isinf(p_sharp(p, s))


def test_contact_value_purely_imaginary():
    s = BoundaryPoint(0.0)
    p = AtomicHerglotz(atoms((2.0, 1.3), (4.5, 0.2)), -2.0)
    c = contact_value(p, s)
    assert c.real == 0.0
    # radial limit agreement
    r = 1.0 - 1e-8
    assert eval_herglotz(p, r).imag == pytest.approx(c.imag, abs=1e-6)


def test_contact_value_raises_on_atom():
    s = BoundaryPoint(1.0)
    p = AtomicHerglotz(((s, 1.0),))
    with pytest.raises(AtomAtPoint):
        contact_value(p, s)


def test_extract_atom_round_trip():
    s = BoundaryPoint(1.0)
    p = AtomicHerglotz(((s, 0.6), (BoundaryPoint(3.0), 1.0)), 0.3)
    mass, rest = extract_atom(p, s)
    assert mass == pytest.approx(0.6)
    assert rest.atom_mass_at(s) == 0.0
    assert rest.gamma == p.gamma
    rebuilt = AtomicHerglotz(rest.atoms + ((s, mass),), rest.gamma)
    z = 0.2 + 0.1j
    assert eval_herglotz(rebuilt, z) == pytest.approx(eval_herglotz(p, z), abs=1e-15)


def test_extract_atom_conserves_mass():
    # two atoms 1.5e-12 apart stay separate, and sigma lies within
    # ANGLE_TOL of both: only the first is split off
    near = BoundaryPoint(1.0 + 1.5e-12)
    p = AtomicHerglotz(((BoundaryPoint(1.0), 1.0), (near, 2.0), (BoundaryPoint(3.0), 0.5)))
    assert len(p.atoms) == 3
    mass, rest = extract_atom(p, BoundaryPoint(1.0 + 0.75e-12))
    assert mass == 1.0
    assert mass + rest.total_mass == p.total_mass == 3.5
    assert [(pt.theta, m) for pt, m in rest.atoms] == [(near.theta, 2.0), (3.0, 0.5)]


def test_extract_missing_atom_is_identity():
    p = AtomicHerglotz(atoms((3.0, 1.0)), 0.3)
    mass, rest = extract_atom(p, BoundaryPoint(1.0))
    assert mass == 0.0
    assert rest is p


def test_caratheodory_extreme_is_unit_kernel():
    s = BoundaryPoint(2.2)
    p = AtomicHerglotz(((s, 1.0),))
    assert p.total_mass == 1.0
    assert p.gamma == 0.0
    z = 0.4 - 0.1j
    assert eval_herglotz(p, z) == pytest.approx(herglotz_kernel(s, z), abs=1e-15)


@given(
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.0, max_value=4.0),
)
def test_add_and_scale_are_pointwise(theta, mass, c):
    p = AtomicHerglotz(atoms((theta, mass)), 0.7)
    q = AtomicHerglotz(atoms((theta + 1.0, 2.0)), -0.2)
    z = 0.3 + 0.2j
    lhs = eval_herglotz(AtomicHerglotz(p.atoms + q.atoms, p.gamma + q.gamma), z)
    assert lhs == pytest.approx(eval_herglotz(p, z) + eval_herglotz(q, z), abs=1e-12)
    scaled = AtomicHerglotz(tuple((pt, c * m) for pt, m in p.atoms), c * p.gamma)
    assert eval_herglotz(scaled, z) == pytest.approx(c * eval_herglotz(p, z), abs=1e-12)


# ----------------------------------------------------------------------
# reciprocal map
# ----------------------------------------------------------------------


def test_reciprocal_single_kernel():
    # 1/K_sigma = K_{-sigma}
    s = BoundaryPoint(0.8)
    p = RationalHerglotz(((s, 1.0),), 0.0)
    q = reciprocal(p)
    z = 0.25 - 0.3j
    assert eval_herglotz(q, z) * eval_herglotz(p, z) == pytest.approx(1.0, abs=1e-12)
    assert len(q.atoms) == 1
    assert angle_gap(q.atoms[0][0].theta, 0.8 + math.pi) <= 1e-9


def test_reciprocal_pointwise_inverse():
    p = RationalHerglotz(atoms((0.5, 0.9), (2.4, 0.3), (4.4, 1.7)), 0.6)
    q = reciprocal(p)
    for z in (0.0, 0.3 + 0.4j, -0.7j, 0.85):
        prod = eval_herglotz(p, z) * eval_herglotz(q, z)
        assert prod == pytest.approx(1.0, abs=1e-10)


def test_reciprocal_involution():
    p = RationalHerglotz(atoms((0.5, 0.9), (2.4, 0.3), (4.4, 1.7)), 0.6)
    back = reciprocal(reciprocal(p))
    assert back.gamma == pytest.approx(p.gamma, abs=1e-10)
    assert len(back.atoms) == len(p.atoms)
    for (s0, m0), (s1, m1) in zip(p.atoms, back.atoms):
        assert angle_gap(s0.theta, s1.theta) < 1e-9
        assert m1 == pytest.approx(m0, abs=1e-10)


def test_reciprocal_interlaces_atoms():
    # poles of 1/p are the zeros of p, which interlace the atoms of p
    p = RationalHerglotz(atoms((0.0, 1.0), (2.0, 1.0), (4.0, 1.0)), 0.0)
    q = reciprocal(p)
    assert len(q.atoms) == 3
    p_angles = sorted(pt.theta for pt, _ in p.atoms)
    for pt, _ in q.atoms:
        assert all(abs(pt.theta - a) > 1e-6 for a in p_angles)


@pytest.mark.parametrize("m", [1e-300, 1e-32, 1e-28])
def test_reciprocal_refuses_a_tiny_mass(m):
    # the zero next to the tiny atom lies within ulps of it, and its mass
    # comes out wrong: the masses of 1/p miss Re(1/p(0)) by 3.5% to 38%
    p = RationalHerglotz(atoms((1.0, m), (2.0, 1.0), (4.0, 1.0)), 0.3)
    with pytest.raises(DomainError, match="1e-08"):
        reciprocal(p)


@pytest.mark.parametrize(
    "m, gamma", [([5e-324], 0.0), ([5e-324, 5e-324], 0.3), ([5e-324, 1e-323, 5e-324], -0.3)]
)
def test_reciprocal_refuses_masses_whose_halves_vanish(m, gamma):
    # 5e-324 halves to 0, so p# is 0 at some zeros: numpy's f/p# is inf or
    # NaN there, where Python's division raises.  Both loops bisect to the
    # same zeros and p#, and 1/(2 p#) reads as an infinite mass, which the
    # mass check refuses (a ZeroDivisionError before)
    a = [1.0, 2.0, 4.0][: len(m)]
    plain = herglotz_core._plain_arc_zeros(a, m, gamma, ())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        assert herglotz_core._array_arc_zeros(a, m, gamma, ()) == plain
    with pytest.raises(DomainError, match="1e-08"):
        reciprocal(RationalHerglotz(atoms(*zip(a, m)), gamma))


@pytest.mark.parametrize("gap", [1e-11, 1e-10, 1e-9])
def test_reciprocal_refuses_to_invert_close_atoms_wrongly(gap):
    # 1/p passes the check; its zero between the two close atoms does not
    p = RationalHerglotz(atoms((1.0, 1.0), (1.0 + gap, 1.0), (4.0, 1.0)), 0.3)
    q = reciprocal(p)
    with pytest.raises(DomainError, match="1e-08"):
        reciprocal(q)


MIN_GAP = 1e-4
INTERIOR = np.array(
    [0j] + [r * cmath.exp(1j * a) for r in (0.3, 0.6, 0.9) for a in (0.4, 2.5, 4.6)]
)


@st.composite
def separated_rationals(draw):
    """Degree 1..128, neighbouring atoms (across 2*pi too) at least MIN_GAP
    apart, masses exp(U[-3, 1]) and gamma in [-5, 5]."""
    degree = draw(st.integers(min_value=1, max_value=128))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=degree, max_size=degree)))
    share = weights / weights.sum() if weights.sum() > 0 else np.full(degree, 1.0 / degree)
    gaps = MIN_GAP + share * (TWO_PI - degree * MIN_GAP)
    start = draw(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True))
    thetas = start + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    logs = draw(st.lists(st.floats(-3.0, 1.0), min_size=degree, max_size=degree))
    gamma = draw(st.floats(min_value=-5.0, max_value=5.0))
    return RationalHerglotz(
        atoms(*zip(thetas.tolist(), (math.exp(x) for x in logs))), gamma
    )


@given(separated_rationals())
def test_reciprocal_inverse_and_involution_up_to_degree_128(p):
    q = reciprocal(p)
    assert len(q.atoms) == len(p.atoms)
    product = eval_herglotz(p, INTERIOR) * eval_herglotz(q, INTERIOR)
    assert np.abs(product - 1.0).max() <= 1e-9
    back = reciprocal(q)
    assert len(back.atoms) == len(p.atoms)
    assert abs(back.gamma - p.gamma) <= 1e-9
    for point, mass in p.atoms:
        twin, twin_mass = min(back.atoms, key=lambda pm: angle_gap(point.theta, pm[0].theta))
        assert angle_gap(point.theta, twin.theta) <= 1e-9
        assert abs(twin_mass - mass) <= 1e-9 * max(1.0, mass)


EPS = np.finfo(float).eps


@given(separated_rationals())
def test_reciprocal_matches_the_complex_kernel_solve(p):
    # tests/reciprocal_reference.py solves the arcs with complex kernels at
    # e^{it}.  gamma depends on p's mass and constant alone, so it agrees to
    # the bit, and the zeros agree within 1e-13.  A mass is 1/(2 p#) at its
    # zero, and log p# moves by up to 2/delta per radian there, delta the
    # chord from the zero to its nearest atom; the reference's p# also
    # carries about 3 eps/delta of rounding in s_j - e^{it}.  So the masses
    # agree within 1e-12 plus twice (2 |zero shift| + 4 eps)/delta, relative.
    q = reciprocal(p)
    expected = reciprocal_reference.reciprocal(p)
    assert q.gamma.hex() == expected.gamma.hex()
    assert len(q.atoms) == len(expected.atoms)
    zeros = np.array([point.theta for point, _ in q.atoms])
    masses = np.array([mass for _, mass in q.atoms])
    ref_zeros = np.array([point.theta for point, _ in expected.atoms])
    ref_masses = np.array([mass for _, mass in expected.atoms])
    # the sorted order may differ where a zero lies next to angle 0
    offsets = (ref_zeros[:, None] - zeros + math.pi) % TWO_PI - math.pi
    twin = np.abs(offsets).argmin(axis=1)
    assert len(set(twin.tolist())) == len(twin)
    shift = np.abs(offsets[np.arange(len(twin)), twin])
    assert shift.max() <= 1e-13
    angles = np.array([point.theta for point, _ in p.atoms])
    delta = np.abs(2.0 * np.sin((zeros[twin][:, None] - angles) / 2.0)).min(axis=1)
    tol = 1e-12 + 2.0 * (2.0 * shift + 4.0 * EPS) / delta
    assert (np.abs(masses[twin] - ref_masses) <= tol * ref_masses).all()


# Four rationals of each degree 1..64, seed 25: atoms one per arc of width
# 2 pi/degree, jittered within the middle half of the arc and turned at
# random, masses exp(U[-3, 1]), gamma U[-5, 5].  The child prints the sha256
# of float.hex of every zero, mass and gamma of their reciprocals.
RECIPROCAL_DIGEST_CHILD = """
import hashlib, math
import numpy as np
from diskflow import BoundaryPoint, RationalHerglotz, reciprocal
rng = np.random.default_rng(25)
digest = hashlib.sha256()
for degree in range(1, 65):
    for _ in range(4):
        thetas = (np.arange(degree) + rng.uniform(0.25, 0.75, degree)) * 2.0 * math.pi / degree
        thetas += rng.uniform(0.0, 2.0 * math.pi)
        masses = np.exp(rng.uniform(-3.0, 1.0, degree))
        atoms = tuple((BoundaryPoint(t), m) for t, m in zip(thetas.tolist(), masses.tolist()))
        q = reciprocal(RationalHerglotz(atoms, rng.uniform(-5.0, 5.0)))
        for point, mass in q.atoms:
            digest.update(f"{point.theta.hex()} {mass.hex()}\\n".encode())
        digest.update(f"{q.gamma.hex()}\\n".encode())
print(digest.hexdigest())
"""
# prepended to a digest child, it sends every arc solve to the array loop
ARRAYS_ONLY = "import diskflow.herglotz_core as core; core._PLAIN_ATOMS = 0\n"
# re-recorded when degrees up to _PLAIN_ATOMS began to be solved in plain
# floats; their zeros moved by at most 8.9e-16 rad, their masses by at most
# 3.8e-15 relative
RECIPROCAL_SHA256 = "bfa443d6c6958b715e904b82af9375695685b932a31b20bb9acd42ad3f7f404a"
# the array loop at every degree, recorded before the plain loop existed,
# when the arc solve's Newton step began to divide out the arc's two poles
RECIPROCAL_ARRAY_SHA256 = "7cd0aec19de55482d0b6187d483ab30d5f45d5c46dc096470425e1938cd2a368"


def _reciprocal_digest(prefix: str = "") -> str:
    """The digest RECIPROCAL_DIGEST_CHILD prints after ``prefix``.  numpy
    picks its tan loop by the CPU, so the child runs on the baseline loops,
    as verify does in test_golden_cli, and a RuntimeWarning fails it."""
    env = _baseline_env()
    src = str(pathlib.Path(diskflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", prefix + RECIPROCAL_DIGEST_CHILD]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return child.stdout.strip()


def test_reciprocal_is_pinned_bit_for_bit():
    assert _reciprocal_digest() == RECIPROCAL_SHA256


def test_the_array_loop_of_reciprocal_is_pinned_bit_for_bit():
    assert _reciprocal_digest(ARRAYS_ONLY) == RECIPROCAL_ARRAY_SHA256


def _sweep_cases():
    """Two atoms a gap apart beside a third, the second of the two carrying
    mass m: 4 gaps x 12 masses x 3 gammas."""
    for gamma, gap, m in itertools.product(
        (-5.0, 0.0, 3.0),
        (2e-12, 1e-9, 1e-6, 1e-3),
        (1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10, 1.0, 1e10, 1e50, 1e100, 1e200, 1e300),
    ):
        # the zero beside the tiny atom is located only to within ulps, and
        # the masses still sum to Re(1/p(0)) within 1e-8, so the wrong 1/p
        # passes the check (ROADMAP item 7; the tiny-mass fault in CHANGES.md)
        silent = gap == 1e-3 and m == 1e-20
        marks = pytest.mark.xfail(strict=True, reason="silent wrong 1/p") if silent else ()
        yield pytest.param(gamma, gap, m, marks=marks)


@pytest.mark.parametrize("gamma, gap, m", _sweep_cases())
@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_reciprocal_inverts_or_refuses_extreme_inputs(gamma, gap, m):
    # an overflow in the arc solve must end in the mass check's DomainError.
    # numpy warns of such an overflow, by design here: the array loop warned
    # on 9 of these inputs, and the plain loop that solves 3 atoms on none
    p = RationalHerglotz(atoms((1.0, 1.0), (1.0 + gap, m), (4.0, 1.0)), gamma)
    try:
        q = reciprocal(p)
    except DomainError:
        return
    assert all(math.isfinite(point.theta) and math.isfinite(mass) for point, mass in q.atoms)
    product = eval_herglotz(p, INTERIOR) * eval_herglotz(q, INTERIOR)
    assert np.abs(product - 1.0).max() <= 1e-9


# a gap between zeros at, within or just beyond ANGLE_TOL, and masses and
# gammas RationalHerglotz drops or refuses
NEAR_GAPS = [0.0, 5e-13, herglotz_core.ANGLE_TOL, math.nextafter(herglotz_core.ANGLE_TOL, 1.0)]
BAD_MASSES = [0.0, -0.0, -1.0, math.inf, math.nan, 1]


@st.composite
def arc_zero_lists(draw):
    """(angle, mass) pairs in increasing angle order, as the arc solve
    returns its zeros, and a gamma.  The first angle in [0, 2 pi) or at 0,
    -0, the int 0 or just above 0; arcs of 1e-3 to 0.8 rad, one of them
    possibly a NEAR_GAPS gap; the last angle possibly moved to 2 pi, 4 pi or
    near the first one's turn, within ANGLE_TOL or not, below 2 pi or
    above; masses in [1e-300, 1e300], one of them possibly a BAD_MASSES one
    (the int 1 too, which RationalHerglotz reads as a float); gamma in
    [-5, 5], NaN or inf."""
    start = draw(st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), st.sampled_from([0.0, -0.0, 0, 1e-13, 5e-13])))
    gaps = draw(st.lists(st.floats(1e-3, 0.8), max_size=7))
    if gaps and draw(st.booleans()):
        gaps[draw(st.integers(0, len(gaps) - 1))] = draw(st.sampled_from(NEAR_GAPS))
    angles = list(itertools.accumulate(gaps, initial=start))
    if draw(st.booleans()):
        close = start + TWO_PI - draw(st.sampled_from([*NEAR_GAPS, 2e-12, 1e-3, -1e-3]))
        angles[-1] = draw(st.sampled_from([TWO_PI, 2.0 * TWO_PI, close, close]))
    masses = draw(st.lists(st.floats(1e-300, 1e300), min_size=len(angles), max_size=len(angles)))
    if draw(st.booleans()):
        masses[draw(st.integers(0, len(masses) - 1))] = draw(st.sampled_from(BAD_MASSES))
    gamma = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.sampled_from([math.nan, math.inf])))
    return list(zip(angles, masses)), gamma


def _outcome(build):
    """The class, and the type and float.hex of gamma and of each angle and
    mass, of what build returns, or the type and message of what it raises."""
    try:
        q = build()
    except Exception as exc:
        return type(exc), str(exc)
    values = [(type(pt), type(pt.theta), pt.theta.hex(), type(m), float(m).hex()) for pt, m in q.atoms]
    return type(q), type(q.gamma), float(q.gamma).hex(), values


@given(arc_zero_lists())
@example(([(1e-13, 1.0), (2.0, 0.5), (TWO_PI - 5e-13, 2.0)], 0.5))  # close across 2 pi
@example(([(1e-13, 1.0), (2.0, 0.5), (TWO_PI + 5e-13, 2.0)], 0.5))  # close after the turn
def test_arc_record_equals_the_rational_herglotz_of_its_zeros(case):
    # _arc_record builds around __init__ only the atoms __post_init__ would
    # keep as they are; every other input goes to RationalHerglotz itself
    zeros, gamma = case
    expected = _outcome(lambda: RationalHerglotz(atoms(*zeros), gamma))
    assert _outcome(lambda: herglotz_core._arc_record(zeros, gamma)) == expected


@pytest.fixture
def normalized(monkeypatch):
    """The records AtomicHerglotz.__post_init__ normalizes during a test."""
    made, normalize = [], AtomicHerglotz.__post_init__
    monkeypatch.setattr(AtomicHerglotz, "__post_init__", lambda q: normalize(q) or made.append(q))
    return made


def test_arc_record_moves_a_last_zero_past_two_pi_to_the_front(normalized):
    p = herglotz_core._arc_record([(1.0, 0.5), (3.0, 0.25), (TWO_PI, 2.0)], 0.5)
    assert [(pt.theta, m) for pt, m in p.atoms] == [(0.0, 2.0), (1.0, 0.5), (3.0, 0.25)]
    assert type(p) is RationalHerglotz and p.gamma == 0.5 and normalized == []


def test_reciprocal_normalizes_no_record_where_its_zeros_are_apart(normalized):
    p = RationalHerglotz(atoms((0.5, 1.0), (2.0, 0.25), (4.0, 3.0)), 0.5)
    assert normalized == [p]
    assert len(reciprocal(p).atoms) == 3 and normalized == [p]


def _separated_draws():
    """Two rationals of each degree 1..64 (seed 30), drawn as the pinned
    reciprocal draws are: one atom per arc of width 2 pi/degree."""
    rng = np.random.default_rng(30)
    for degree in range(1, 65):
        for _ in range(2):
            thetas = (np.arange(degree) + rng.uniform(0.25, 0.75, degree)) * TWO_PI / degree
            thetas += rng.uniform(0.0, TWO_PI)
            masses = np.exp(rng.uniform(-3.0, 1.0, degree))
            yield degree, RationalHerglotz(atoms(*zip(thetas, masses)), rng.uniform(-5.0, 5.0))


def _clustered_draws():
    """300 rationals (seed 31) of 1..3 clusters, each of 4..16 atoms with
    neighbour gaps 10**U[-8, -2], masses exp(U[-3, 1]) and gamma U[-5, 5]."""
    rng = np.random.default_rng(31)
    for _ in range(300):
        thetas = []
        for centre in rng.uniform(0.0, TWO_PI, rng.integers(1, 4)):
            thetas += (centre + np.cumsum(10.0 ** rng.uniform(-8.0, -2.0, rng.integers(4, 17)))).tolist()
        masses = np.exp(rng.uniform(-3.0, 1.0, len(thetas)))
        yield len(thetas), RationalHerglotz(atoms(*zip(thetas, masses)), rng.uniform(-5.0, 5.0))


@pytest.mark.parametrize(
    "draws, degrees, median, most",
    [
        (_separated_draws, range(1, 17), 6, 11),
        (_separated_draws, range(17, 65), 6, 7),
        (_clustered_draws, range(4, 49), 6, 10),
    ],
    ids=["separated 1-16", "separated 17-64", "clustered"],
)
def test_the_arc_solve_keeps_its_iteration_budget(monkeypatch, draws, degrees, median, most):
    # the arc solve counts its passes on either path, the most any arc
    # takes; up to _PLAIN_ATOMS atoms it runs in plain floats.  With the
    # arc's two poles divided out of the Newton step these draws take the
    # passes pinned here; the plain Newton step on f took medians 9.5, 11
    # and 10 and at most 14, 21 and 17
    solve, passes = herglotz_core._arc_zeros, []

    def counting(a, m, gamma, rows=()):
        result = solve(a, m, gamma, rows)
        passes.append(result[-1])
        return result

    monkeypatch.setattr(herglotz_core, "_arc_zeros", counting)
    for degree, p in draws():
        if degree in degrees:
            reciprocal(p)
    assert np.median(passes) <= median
    assert max(passes) <= most


def _few_atoms():
    """The draws of both laws with at most _PLAIN_ATOMS atoms."""
    for draws in (_separated_draws, _clustered_draws):
        for degree, p in draws():
            if degree <= herglotz_core._PLAIN_ATOMS:
                yield p


def test_the_arc_solve_agrees_in_plain_floats_and_on_arrays():
    # below the threshold _arc_zeros solves in plain floats; the array loop
    # solves the same arcs in the same passes.  Each stops within _ARC_TOL
    # of the zero, and the two read the same zeros within that, and p# and
    # the sums of the mix within 5e-14 relative (the most seen was 8.9e-16
    # rad and 1.2e-14 on these 111 draws, 24 separated and 87 clustered);
    # the sums sum_j m_j c_j cancel to -gamma at a zero, so they are checked
    # through the mixes that read them
    count = 0
    for p in _few_atoms():
        a = [point.theta for point, _ in p.atoms]
        t, sharp, ((_, square),), passes = herglotz_core._plain_arc_zeros(a, p.m, p.gamma, (p.m,))
        ref = herglotz_core._array_arc_zeros(a, p.m, p.gamma, (p.m,))
        assert passes == ref[3]
        assert max(abs(x - y) for x, y in zip(t, ref[0])) <= herglotz_core._ARC_TOL
        assert max(abs(x - y) / y for x, y in zip(sharp, ref[1])) <= 5e-14
        assert max(abs(x - y) / y for x, y in zip(square, ref[2][0][1])) <= 5e-14
        count += 1
    assert count > 100


# ----------------------------------------------------------------------
# counterexample integrals
# ----------------------------------------------------------------------


def test_decay_values_frozen():
    assert counterexample_P(1e-1) == pytest.approx(0.5601066973887631, abs=1e-12)
    assert counterexample_P(1e-2) == pytest.approx(0.37071078304254806, abs=1e-12)
    assert counterexample_P(1e-6) == pytest.approx(0.11528381262656391, abs=1e-12)


def test_decay_strictly_monotone():
    vals = [counterexample_P(10.0**-k) for k in range(1, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_decay_rejects_nonpositive():
    with pytest.raises((ValueError, DomainError)):
        counterexample_P(0.0)
    with pytest.raises((ValueError, DomainError)):
        counterexample_P(-1.0)


def test_divergence_is_iterated_log():
    for k in range(1, 5):
        delta = math.exp(-math.exp(float(k)))
        v = counterexample_divergence(delta)
        assert v == pytest.approx(math.log(math.log(1.0 / delta)), abs=1e-12)


def test_divergence_rejects_bad_delta():
    with pytest.raises((ValueError, DomainError)):
        counterexample_divergence(0.5)  # not below 1/e
    with pytest.raises((ValueError, DomainError)):
        counterexample_divergence(0.0)


# ----------------------------------------------------------------------
# the adaptive G7K15 routine behind both integrals
# ----------------------------------------------------------------------


def test_one_panel_is_exact_to_degree_22():
    for k in range(23):
        value, err = _gk15_panel(lambda t: t**k, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (k + 1), abs=1e-15), k
        # G7 is exact only to degree 13, so the estimate is no proof of accuracy
        assert err <= 1e-15 if k <= 13 else err > 1e-12, k


@pytest.mark.parametrize(
    "f, exact",
    [(lambda t: -math.log(t), 1.0), (lambda t: t**-0.5, 2.0)],
    ids=["log", "inverse-sqrt"],
)
def test_adaptive_routine_meets_endpoint_singularities(f, exact):
    assert _gk15(f, [0.0, 1.0], 1e-8, "test integral") == pytest.approx(exact, abs=1e-12)


def test_adaptive_routine_refuses_at_the_panel_cap():
    # 1/t is not integrable at 0: halving the first panel never lowers its estimate
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / t

    with pytest.raises(QuadratureFailure, match=f"after {_MAX_PANELS} panels"):
        _gk15(f, [0.0, 1.0], 1e-8, "test integral")
    assert len(calls) == 15 * (2 * _MAX_PANELS - 1)
    assert 0.0 not in calls


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_adaptive_routine_refuses_a_non_finite_integrand(bad):
    # an error test written "err > bound raises" would return NaN here
    with pytest.raises(QuadratureFailure, match="estimate (nan|inf) exceeds"):
        _gk15(lambda t: bad if 0.3 < t < 0.4 else 1.0, [0.0, 1.0], 1e-8, "test integral")


def test_cached_property_read_on_its_class_is_the_descriptor():
    descriptor = AtomicHerglotz.__dict__["s"]
    assert isinstance(descriptor, herglotz_core.cached_property)
    assert AtomicHerglotz.s is descriptor
    assert AtomicHerglotz.s.__doc__ == "Atom points on the circle, in atom order."
