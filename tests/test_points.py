"""Every point a caller hands the package is read by one rule.

A point of the circle is read by herglotz_core._boundary: it is a
BoundaryPoint, and anything else, an angle included, raises DomainError
naming the argument.  A point of the open disk is read by
herglotz_core._interior: a number (_complex's rule) of modulus below 1,
so a point on or beyond the circle, or NaN, raises DomainError naming the
argument.  None of them may end in a bare AttributeError.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest

from diskflow import herglotz_core
from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    CPTarget,
    DomainError,
    ExtremeCandidate,
    FixedPointConfig,
    GeneratorSpec,
    PiecewiseField,
    caratheodory_min_sharp,
    contact_value,
    cp_experiment,
    cp_extremal_field,
    denominator_herglotz,
    dw_spectral_value,
    estimate_boundary_derivative,
    eval_denominator,
    eval_generator,
    eval_herglotz,
    evolve,
    evolve_with_derivative,
    extract_atom,
    extremal_interior,
    extremal_origin,
    extreme_point_GenF,
    flow_trajectory,
    gk_generator,
    herglotz_kernel,
    integrate_flow,
    integrate_flow_with_derivative,
    julia_quotient_estimate,
    p_star,
    random_strict_field,
    spec_from_denominator,
)

S0 = BoundaryPoint(0.0)
INTERIOR = FixedPointConfig(0.3 + 0.1j, (S0,), (-1.0,))
ORIGIN = FixedPointConfig(0.0, (S0,), (-1.0,))
PAIR = FixedPointConfig(0.0, (S0, BoundaryPoint(math.pi)), (-0.5, -0.5))
SPEC = GeneratorSpec(ORIGIN, AtomicHerglotz(((BoundaryPoint(2.0), 0.5),), 0.25))
FIELD = PiecewiseField(((0.5, SPEC),))
TARGET = CPTarget((math.e,))
MU = ((BoundaryPoint(1.0), 1.0),)
DENOMINATOR = denominator_herglotz(GeneratorSpec(INTERIOR))
# the center of Z, where ell = A > 0
ZETA = INTERIOR.tau / (2.0 * INTERIOR.capA)

# each entry point that reads a boundary point, as (the name its refusal
# gives the point, call with the value in the point's slot)
BOUNDARY_READERS = {
    "AtomicHerglotz atom": ("mass point", lambda x: AtomicHerglotz(((x, 1.0),))),
    "AtomicHerglotz massless atom": ("mass point", lambda x: AtomicHerglotz(((x, 0.0),))),
    "p_star": ("boundary point sigma", lambda x: p_star(SPEC.p, x)),
    "contact_value": ("boundary point sigma", lambda x: contact_value(SPEC.p, x)),
    "extract_atom": ("boundary point sigma", lambda x: extract_atom(SPEC.p, x)),
    "atom_mass_at": ("boundary point sigma", lambda x: SPEC.p.atom_mass_at(x)),
    "herglotz_kernel": ("kernel point s", lambda x: herglotz_kernel(x, 0.1)),
    "same_point": ("boundary point other", lambda x: S0.same_point(x)),
    "FixedPointConfig sigma": ("repelling point", lambda x: FixedPointConfig(0.3, (x,), (-1.0,))),
    "has_skeleton": ("repelling point", lambda x: ORIGIN.has_skeleton(0.0, (x,))),
    "spec_from_denominator": (
        "repelling point", lambda x: spec_from_denominator(INTERIOR.tau, (x,), DENOMINATOR)),
    "caratheodory_min_sharp": ("boundary point tau", lambda x: caratheodory_min_sharp(x, 0.5)),
    "extremal_interior": ("direction sigma", lambda x: extremal_interior(INTERIOR, ZETA, x)),
    "extremal_origin": ("direction sigma", lambda x: extremal_origin(ORIGIN, 0.5, x)),
    "cp_extremal_field": ("repelling point", lambda x: cp_extremal_field(0.0, (x,), TARGET)),
    "cp_experiment": ("repelling point", lambda x: cp_experiment(0.0, (x,), TARGET, FIELD)),
    "random_strict_field": (
        "repelling point",
        lambda x: random_strict_field(np.random.default_rng(0), 0.0, (x,), TARGET)),
    "extreme_point_GenF": (
        "repelling point", lambda x: extreme_point_GenF(0.0, (x,), (-1.0,), 0.0)),
    "ExtremeCandidate free atom": (
        "point of a free atom", lambda x: ExtremeCandidate(PAIR, 0.0, ((x, 0.5),))),
    "gk_generator sigma": (
        "repelling point sigma", lambda x: gk_generator(0.0, x, -1.0, MU, 0.1)),
    "gk_generator measure": (
        "point of the measure", lambda x: gk_generator(0.0, S0, -1.0, ((x, 1.0),), 0.1)),
    "estimate_boundary_derivative": (
        "boundary point sigma", lambda x: estimate_boundary_derivative(SPEC, x, 0.5)),
    "julia_quotient_estimate": (
        "boundary point sigma", lambda x: julia_quotient_estimate(lambda z: z, x)),
}

# values that are no BoundaryPoint: an angle, a point of the circle as a
# complex number, and values that are no number at all
NOT_POINTS = {
    "float": (1.0, "float"),
    "int": (0, "int"),
    "complex": (1j, "complex"),
    "str": ("x", "str"),
    "None": (None, "NoneType"),
}


@pytest.mark.parametrize(
    "reader, value, kind",
    [
        pytest.param(reader, value, kind, id=f"{reader}-{name}")
        for reader in BOUNDARY_READERS
        for name, (value, kind) in NOT_POINTS.items()
    ],
)
def test_every_boundary_reader_refuses_what_is_no_boundary_point(reader, value, kind):
    what, call = BOUNDARY_READERS[reader]
    message = f"a {what} must be a BoundaryPoint, got a {kind}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


def test_a_config_refuses_an_angle_for_a_sigma_at_construction():
    # it built, and dw_spectral_value over it raised a bare AttributeError
    with pytest.raises(DomainError, match="a repelling point must be a BoundaryPoint"):
        FixedPointConfig(0.3, (0.5,), (-1.0,))
    spec = GeneratorSpec(FixedPointConfig(0.3, (BoundaryPoint(0.5),), (-1.0,)))
    assert dw_spectral_value(spec) == pytest.approx(0.91 / eval_denominator(spec, 0.3))


def test_same_point_compares_points_within_the_angle_tolerance():
    # it raised a bare AttributeError on a float
    assert S0.same_point(BoundaryPoint(2.0 * math.pi - 1e-13))
    assert not S0.same_point(BoundaryPoint(1e-11))


def test_a_config_compares_the_points_it_has_read_without_reading_them_again():
    # the distinct-sigma test, has_skeleton and the boundary tau's test
    sigmas = tuple(BoundaryPoint(k + 0.5) for k in range(6))
    with mock.patch.object(herglotz_core, "_boundary", side_effect=AssertionError):
        config = FixedPointConfig(1.0, sigmas, (-1.0,) * 6)
        assert FixedPointConfig(0.3, sigmas, (-1.0,) * 6).has_skeleton(0.3, sigmas)
    assert config.is_boundary and not config.has_skeleton(1.0, sigmas[::-1])


def test_a_boundary_point_reads_through_as_itself():
    class Marked(BoundaryPoint):
        pass

    point = Marked(1.0)
    config = FixedPointConfig(0.3, (point,), (-1.0,))
    assert config.sigmas[0] is point
    assert AtomicHerglotz(((point, 1.0),)).atoms[0][0] is point


# each entry point that reads a point of the open disk, as (the name its
# refusal gives the point, call with the value in the point's slot); the
# evaluation functions take a 1-D array of points too
INTERIOR_READERS = {
    "eval_herglotz": ("point z", lambda x: eval_herglotz(SPEC.p, x)),
    "eval_denominator": ("point z", lambda x: eval_denominator(SPEC, x)),
    "eval_generator": ("point z", lambda x: eval_generator(SPEC, x)),
    "integrate_flow": ("start point", lambda x: integrate_flow(SPEC, x, 0.1)),
    "integrate_flow at t = 0": ("start point", lambda x: integrate_flow(SPEC, x, 0.0)),
    "integrate_flow_with_derivative": (
        "start point", lambda x: integrate_flow_with_derivative(SPEC, x, 0.1)),
    "flow_trajectory": ("start point", lambda x: flow_trajectory(SPEC, x, 0.1)),
    "evolve": ("start point", lambda x: evolve(FIELD, x)),
    "evolve_with_derivative": ("start point", lambda x: evolve_with_derivative(FIELD, x)),
    "gk_generator": ("point z", lambda x: gk_generator(0.0, S0, -1.0, MU, x)),
}
EVALUATORS = ("eval_herglotz", "eval_denominator", "eval_generator")

OFF_THE_DISK = {
    "on the circle": (1.0, "1.0"),
    "on the circle, imaginary": (-1j, "1.0"),
    "beyond the circle": (0.6 + 0.8000001j, None),
    "far out": (1e300, "1e+300"),
    "infinite": (complex(math.inf, 0.0), "inf"),
    "NaN": (math.nan, "nan"),
    "complex NaN": (complex(0.0, math.nan), "nan"),
}


@pytest.mark.parametrize(
    "reader, value, modulus",
    [
        pytest.param(reader, value, modulus, id=f"{reader}-{name}")
        for reader in INTERIOR_READERS
        for name, (value, modulus) in OFF_THE_DISK.items()
    ],
)
def test_every_interior_reader_refuses_a_point_off_the_open_disk(reader, value, modulus):
    what, call = INTERIOR_READERS[reader]
    message = f"a {what} must lie in the open disk, |z|="
    with pytest.raises(DomainError, match=f"^{re.escape(message)}") as info:
        call(value)
    if modulus is not None:
        assert str(info.value).endswith(f"|z|={modulus}")


@pytest.mark.parametrize("reader", EVALUATORS)
@pytest.mark.parametrize(
    "points", [[0.1, 1.0], [0.1, 2j], [math.nan, 0.1]], ids=["on", "beyond", "NaN"]
)
def test_every_evaluator_refuses_an_array_with_a_point_off_the_open_disk(reader, points):
    with pytest.raises(DomainError, match=r"^a point z must lie in the open disk, \|z\|="):
        INTERIOR_READERS[reader][1](np.array(points, dtype=complex))


@pytest.mark.parametrize("reader", INTERIOR_READERS)
def test_every_interior_reader_takes_a_point_just_inside(reader):
    value = INTERIOR_READERS[reader][1](0.999 * np.exp(0.5j))
    assert value is not None
