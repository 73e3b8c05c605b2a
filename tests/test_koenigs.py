"""The closed-form flow of an interior or origin tau against the ODE.

For tau inside the disk the public flows solve h(w) = exp(-lambda t) h(z0)
for the Koenigs function h by Newton, and fall back to the DOP853 solve
semiflow._lone when Newton fails.  Over random_spec draws both must agree
within 1e-10 in the point and 1e-9 relative in the derivative, the residues
behind h must satisfy 2 Re(1/lambda) = sum_j r_j, and a forced fallback must
return the ODE's answer bit for bit.
"""

import cmath
import math

import numpy as np
import pytest

from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    dw_spectral_value,
    integrate_flow,
    integrate_flow_with_derivative,
    random_spec,
)
from diskflow import semiflow

REGIMES = ("interior", "origin")
DRAWS = 200
TIMES = (0.1, 1.0, 3.0)


def draws(regime):
    """(spec, start points): z0 at radius 0.95 and at 1e-6 and 1e-9 from tau."""
    rng = np.random.default_rng(REGIMES.index(regime) + 70)
    for _ in range(DRAWS):
        spec = random_spec(rng, regime)
        tau = spec.config.tau
        u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        yield spec, (0.95 * u, tau + 1e-6 * u, tau + 1e-9 * u)


@pytest.mark.parametrize("regime", REGIMES)
def test_closed_form_meets_the_ode(regime):
    fallbacks = 0
    for spec, starts in draws(regime):
        for z0 in starts:
            for t in TIMES:
                closed = semiflow._closed_form(spec, z0, t, True)
                fallbacks += closed is None
                w, dw = integrate_flow_with_derivative(spec, z0, t)
                if closed is not None:
                    assert [w, dw] == closed
                    assert integrate_flow(spec, z0, t) == w
                (w_ode, dw_ode), _, _ = semiflow._lone(spec, z0, t, True)
                assert abs(w - w_ode) <= 1e-10
                assert abs(dw - dw_ode) <= 1e-9 * abs(dw_ode)
    # the ODE answers at most a handful of the 1800 orbits
    assert fallbacks <= 5


@pytest.mark.parametrize("regime", REGIMES)
def test_residues_sum_to_twice_the_real_part_of_one_over_lambda(regime):
    # the residues of 1/G at tau and 1/conj(tau) are -1/lambda and
    # -1/conj(lambda), and at each atom s_j of p + p0 r_j = 2 m_j/|tau - s_j|^2
    for spec, _ in draws(regime):
        tau = spec.config.tau
        points, masses = spec.denominator_atoms
        residues = [2.0 * m / abs(tau - s) ** 2 for s, m in zip(points.tolist(), masses.tolist())]
        lam = complex(dw_spectral_value(spec))
        assert abs(2.0 * (1.0 / lam).real - math.fsum(residues)) <= 1e-12 * math.fsum(residues)
        if regime == "origin":
            # Re q(0) = sum_j m_j, as every kernel is 1 at the origin
            total = math.fsum(masses.tolist())
            assert abs((1.0 / lam).real - total) <= 1e-12 * total


@pytest.mark.parametrize("regime", REGIMES)
def test_a_newton_failure_returns_the_ode_answer(regime, monkeypatch):
    monkeypatch.setattr(semiflow, "_NEWTON_STEPS", 0)
    for spec, starts in list(draws(regime))[:20]:
        for z0 in starts:
            assert semiflow._closed_form(spec, z0, 1.0, True) is None
            assert integrate_flow_with_derivative(spec, z0, 1.0) == tuple(
                semiflow._lone(spec, z0, 1.0, True)[0]
            )
            assert integrate_flow(spec, z0, 1.0) == semiflow._lone(spec, z0, 1.0, False)[0][0]


def test_start_at_tau_returns_tau_and_the_exponential():
    for spec, _ in draws("interior"):
        tau = spec.config.tau
        lam = complex(dw_spectral_value(spec))
        w, dw = integrate_flow_with_derivative(spec, tau, 0.7)
        assert w == tau and dw == cmath.exp(-lam * 0.7)


def test_a_huge_atom_still_raises_through_the_ode():
    # the residue 2 m / |tau - s|^2 of an atom of mass 1e308 overflows, so
    # the closed form gives up, and the ODE finds the variational right-hand
    # side not finite
    spec = GeneratorSpec(
        FixedPointConfig(0.0, (BoundaryPoint(0.0),), (-2.0,)),
        AtomicHerglotz(((BoundaryPoint(0.3), 1e308),)),
    )
    assert semiflow._closed_form(spec, 0.5 + 0j, 0.1, True) is None
    with pytest.raises(DomainError, match="not finite"):
        integrate_flow_with_derivative(spec, 0.5, 0.1)
