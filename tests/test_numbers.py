"""Every number a caller hands the package is read by one rule,
herglotz_core._real or _complex: a value that is no number, or no real
number where one belongs, raises DomainError, and so does an int beyond
the floats, whatever entry point it reaches.  None of them may end in a
bare OverflowError, TypeError or ValueError, be parsed from a string or be
taken as 0 or 1 from a bool.
"""

import math

import numpy as np
import pytest

from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    CPTarget,
    DiskRegion,
    DomainError,
    ExtremeCandidate,
    FixedPointConfig,
    GeneratorSpec,
    IntervalRegion,
    PiecewiseField,
    caratheodory_min_sharp,
    convex_combination,
    counterexample_P,
    counterexample_divergence,
    cp_experiment,
    cp_extremal_field,
    denominator_herglotz,
    ell,
    estimate_boundary_derivative,
    eta_chart,
    eval_generator,
    eval_herglotz,
    evolve,
    evolve_with_derivative,
    extremal_origin,
    extreme_point_GenF,
    flow_trajectory,
    gk_dirac_parameter,
    gk_generator,
    harmonic_Q,
    herglotz_kernel,
    integrate_flow,
    integrate_flow_with_derivative,
    interval_I,
    julia_quotient_estimate,
    q_concavity_check,
    q_hessian,
    random_strict_field,
    region_Omega,
    region_Z_omega,
    spec_from_denominator,
)
from diskflow.generator import tau_regime
from diskflow.semiflow import _check_horizon

S0 = BoundaryPoint(0.0)
INTERIOR = FixedPointConfig(0.3 + 0.1j, (S0,), (-1.0,))
ORIGIN = FixedPointConfig(0.0, (S0,), (-1.0,))
PAIR = FixedPointConfig(0.0, (S0, BoundaryPoint(math.pi)), (-0.5, -0.5))
BOUNDARY = FixedPointConfig(1j, (S0,), (-1.0,))
SPEC = GeneratorSpec(ORIGIN, AtomicHerglotz(((BoundaryPoint(2.0), 0.5),), 0.25))
FREE = GeneratorSpec(ORIGIN, AtomicHerglotz(gamma=1.0))
FIELD = PiecewiseField(((0.5, SPEC),))
TARGET = CPTarget((math.e,))
MU = ((BoundaryPoint(1.0), 1.0),)
DENOMINATOR = denominator_herglotz(GeneratorSpec(INTERIOR))

# each reader of a caller's number, as (kind, call with the number in its
# slot); the evaluation functions take a number or a 1-D array of points
READERS = {
    "BoundaryPoint angle": ("real", lambda x: BoundaryPoint(x)),
    "atom mass": ("real", lambda x: AtomicHerglotz(((S0, x),))),
    "gamma": ("real", lambda x: AtomicHerglotz((), x)),
    "counterexample_P y": ("real", lambda x: counterexample_P(x)),
    "counterexample_divergence delta": ("real", lambda x: counterexample_divergence(x)),
    "eval_herglotz point": ("points", lambda x: eval_herglotz(SPEC.p, x)),
    "herglotz_kernel point": ("complex", lambda x: herglotz_kernel(S0, x)),
    "tau_regime tau": ("complex", lambda x: tau_regime(x)),
    "eval_generator point": ("points", lambda x: eval_generator(SPEC, x)),
    "config tau": ("complex", lambda x: FixedPointConfig(x, (S0,), (-1.0,))),
    "config lambda": ("real", lambda x: FixedPointConfig(0.3, (S0,), (x,))),
    "convex_combination weight": ("real", lambda x: convex_combination(SPEC, FREE, x)),
    "spec_from_denominator tau": ("complex", lambda x: spec_from_denominator(x, (S0,), DENOMINATOR)),
    "_check_horizon": ("real", lambda x: _check_horizon(x)),
    "integrate_flow time": ("real", lambda x: integrate_flow(SPEC, 0.3, x)),
    "integrate_flow start": ("complex", lambda x: integrate_flow(SPEC, x, 0.1)),
    "integrate_flow_with_derivative time": (
        "real", lambda x: integrate_flow_with_derivative(SPEC, 0.3, x)),
    "integrate_flow_with_derivative start": (
        "complex", lambda x: integrate_flow_with_derivative(SPEC, x, 0.1)),
    "flow_trajectory time": ("real", lambda x: flow_trajectory(SPEC, 0.3, x)),
    "flow_trajectory start": ("complex", lambda x: flow_trajectory(SPEC, x, 0.1)),
    "flow_trajectory samples": ("real", lambda x: flow_trajectory(SPEC, 0.1, 1.0, samples=x)),
    "estimate_boundary_derivative time": (
        "real", lambda x: estimate_boundary_derivative(SPEC, S0, x)),
    "julia_quotient_estimate map value": (
        "complex", lambda x: julia_quotient_estimate(lambda z: x, S0)),
    "PiecewiseField duration": ("real", lambda x: PiecewiseField(((x, SPEC),))),
    "CPTarget": ("real", lambda x: CPTarget((x,))),
    "harmonic_Q": ("real", lambda x: harmonic_Q([x])),
    "q_hessian": ("real", lambda x: q_hessian([x])),
    "q_concavity_check": ("real", lambda x: q_concavity_check([x])),
    "cp_extremal_field c": ("complex", lambda x: cp_extremal_field(0.0, (S0,), TARGET, c=x)),
    "cp_experiment tau": ("complex", lambda x: cp_experiment(x, (S0,), TARGET, FIELD)),
    "random_strict_field tau": (
        "complex", lambda x: random_strict_field(np.random.default_rng(0), x, (S0,), TARGET)),
    "evolve": ("complex", lambda x: evolve(FIELD, x)),
    "evolve_with_derivative": ("complex", lambda x: evolve_with_derivative(FIELD, x)),
    "ell zeta": ("complex", lambda x: ell(INTERIOR, x)),
    "eta_chart lambda": ("complex", lambda x: eta_chart(INTERIOR, x)),
    "region_Omega zeta": ("complex", lambda x: region_Omega(INTERIOR, x)),
    "region_Z_omega omega": ("complex", lambda x: region_Z_omega(ORIGIN, x)),
    "extremal_origin omega": ("complex", lambda x: extremal_origin(ORIGIN, x, S0)),
    "interval_I zeta": ("complex", lambda x: interval_I(BOUNDARY, x)),
    "DiskRegion center": ("complex", lambda x: DiskRegion(x, 1.0)),
    "DiskRegion radius": ("real", lambda x: DiskRegion(0.0, x)),
    "DiskRegion slack": ("complex", lambda x: DiskRegion(0.0, 1.0).slack(x)),
    "IntervalRegion lo": ("real", lambda x: IntervalRegion(x, 1.0)),
    "IntervalRegion hi": ("real", lambda x: IntervalRegion(0.0, x)),
    "IntervalRegion slack": ("real", lambda x: IntervalRegion(0.0, 1.0).slack(x)),
    "caratheodory_min_sharp a": ("real", lambda x: caratheodory_min_sharp(S0, x)),
    "ExtremeCandidate b": ("real", lambda x: ExtremeCandidate(ORIGIN, x)),
    "ExtremeCandidate free atom mass": (
        "real", lambda x: ExtremeCandidate(PAIR, 0.0, ((BoundaryPoint(1.0), x),))),
    "extreme_point_GenF b": ("real", lambda x: extreme_point_GenF(0.0, (S0,), (-1.0,), x)),
    "gk_dirac_parameter b": ("real", lambda x: gk_dirac_parameter(x, 1.0)),
    "gk_dirac_parameter alpha": ("real", lambda x: gk_dirac_parameter(0.5, x)),
    "gk_generator tau": ("complex", lambda x: gk_generator(x, S0, -1.0, MU, 0.1)),
    "gk_generator z": ("complex", lambda x: gk_generator(0.0, S0, -1.0, MU, x)),
    "gk_generator lambda": ("real", lambda x: gk_generator(0.0, S0, x, MU, 0.1)),
    "gk_generator weight": (
        "real", lambda x: gk_generator(0.0, S0, -1.0, ((BoundaryPoint(1.0), x),), 0.1)),
}

# values no reader takes; a complex value only where a real number belongs
NOT_NUMBERS = {
    "plus 10**400": (10**400, ("real", "complex", "points")),
    "minus 10**400": (-(10**400), ("real", "complex", "points")),
    "minus 10**5000": (-(10**5000), ("real", "complex", "points")),
    "str": ("0.5", ("real", "complex", "points")),
    "bytes": (b"0.5", ("real", "complex", "points")),
    "None": (None, ("real", "complex", "points")),
    "True": (True, ("real", "complex", "points")),
    "numpy True": (np.bool_(True), ("real", "complex", "points")),
    "complex": (0.5 + 0.5j, ("real",)),
    "array": (np.array([0.1, 0.2]), ("real", "complex")),
}


@pytest.mark.parametrize(
    "reader, value",
    [
        pytest.param(reader, value, id=f"{reader}-{name}")
        for reader, (kind, _) in READERS.items()
        for name, (value, kinds) in NOT_NUMBERS.items()
        if kind in kinds
    ],
)
def test_every_reader_refuses_what_is_no_number(reader, value):
    with pytest.raises(DomainError):
        READERS[reader][1](value)


@pytest.mark.parametrize(
    "b, alpha, named",
    [
        (0.5, math.nan, "base mass"),
        (0.5, math.inf, "base mass"),
        (0.5, -math.inf, "base mass"),
        (0.5, 0.0, "base mass"),
        (math.nan, 1.0, "constant b"),
        (math.inf, 1.0, "constant b"),
        (-math.inf, 1.0, "constant b"),
    ],
)
def test_gk_dirac_parameter_refuses_a_base_mass_or_b_off_its_range(b, alpha, named):
    # NaN passed `alpha <= 0` into an angle the caller never gave, and an
    # infinite base mass put the Dirac at pi
    with pytest.raises(DomainError, match=named):
        gk_dirac_parameter(b, alpha)


class _NoFloat:
    """A value that passes the readers' first tests, which float() and
    complex() refuse with TypeError."""


def test_the_readers_refuse_what_float_and_complex_refuse():
    with pytest.raises(DomainError, match="^a height y must be a real number, got a _NoFloat$"):
        counterexample_P(_NoFloat())
    with pytest.raises(DomainError, match="^a point z must be a number, got a _NoFloat$"):
        herglotz_kernel(S0, _NoFloat())
