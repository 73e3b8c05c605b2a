"""The closed-form flows against the ODE.

For tau inside the disk the public flows solve h(w) = exp(-lambda t) h(z0)
for the Koenigs function h by Newton, and for tau on the circle
T(w) = T(z0) + t for the Abel function T; both fall back to the DOP853
solve semiflow._lone when Newton fails.  Over random_spec draws the closed
form and the ODE must agree within 1e-10 in the point and 1e-9 relative in
the derivative; an orbit that ends within 1e-4 of the circle is held to a
solve_ivp reference instead, where the closed form must be no farther from
it than the ODE.  The residues behind h must satisfy 2 Re(1/lambda) =
sum_j r_j, those behind T must give the spectral values, and a forced
fallback must return the ODE's answer bit for bit.  The radius ladder and
the interior closed form are pinned by float.hex.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import loop_reference as ref
import verify_reference
from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    DomainError,
    FixedPointConfig,
    GeneratorSpec,
    beta,
    dw_spectral_value,
    estimate_boundary_derivative,
    eval_generator,
    integrate_flow,
    integrate_flow_with_derivative,
    random_spec,
)
from diskflow import semiflow
from test_semiflow import ESCAPING

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
        residues = [2.0 * m / abs(tau - s) ** 2 for s, m in zip(points, masses)]
        lam = complex(dw_spectral_value(spec))
        assert abs(2.0 * (1.0 / lam).real - math.fsum(residues)) <= 1e-12 * math.fsum(residues)
        if regime == "origin":
            # Re q(0) = sum_j m_j, as every kernel is 1 at the origin
            total = math.fsum(masses)
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


# ----------------------------------------------------------------------
# tau on the circle: the Abel function
# ----------------------------------------------------------------------

BOUNDARY = ("boundary_hyperbolic", "boundary_parabolic")


def boundary_draws(regime):
    """(spec, z0) with z0 at radius 0.95."""
    rng = np.random.default_rng(BOUNDARY.index(regime) + 90)
    for _ in range(DRAWS):
        spec = random_spec(rng, regime)
        yield spec, 0.95 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def reference_orbit(spec, z0, t):
    """(phi_t(z0), phi_t'(z0)) from solve_ivp's DOP853 at rtol 1e-13, with G'
    from the per-atom loop of tests/loop_reference.py."""

    def rhs(_, y):
        w = complex(y[0])
        return [complex(eval_generator(spec, w)), ref.eval_generator_derivative(spec, w) * y[1]]

    sol = solve_ivp(rhs, (0.0, t), [z0, 1.0 + 0j], method="DOP853", rtol=1e-13, atol=1e-16)
    assert sol.status == 0, sol.message
    return complex(sol.y[0, -1]), complex(sol.y[1, -1])


@pytest.mark.parametrize("regime", BOUNDARY)
def test_abel_form_meets_the_ode(regime):
    failures = near = 0
    for spec, z0 in boundary_draws(regime):
        for t in TIMES:
            abel = semiflow._abel_flow(spec, z0, t, True)
            failures += abel is None
            closed = semiflow._closed_form(spec, z0, t, True)
            w, dw = integrate_flow_with_derivative(spec, z0, t)
            (w_ode, dw_ode), _, _ = semiflow._lone(spec, z0, t, True)
            if closed is not None:
                assert [w, dw] == closed == abel
                assert integrate_flow(spec, z0, t) == w
            else:
                # the ODE answers where Newton fails or the root lies within
                # _ABEL_GUARD of the circle
                assert (w, dw) == (w_ode, dw_ode)
                assert abel is None or 1.0 - abs(abel[0]) < semiflow._ABEL_GUARD
            if abel is None:
                continue
            w, dw = abel
            if 1.0 - abs(w) >= 1e-4:
                assert abs(w - w_ode) <= 1e-10
                assert abs(dw - dw_ode) <= 1e-9 * abs(dw_ode)
                continue
            # near the circle the ODE's derivative loses digits (up to 1e-5
            # relative at 1 - |w| = 1e-11); the floors are the reference's own
            near += 1
            w_ref, dw_ref = reference_orbit(spec, z0, t)
            assert abs(w - w_ref) <= max(abs(w_ode - w_ref), 1e-15)
            assert abs(dw - dw_ref) <= max(abs(dw_ode - dw_ref), 1e-12 * abs(dw_ref))
    # Newton fails on at most a handful of the 600 orbits
    assert failures <= 5
    if regime == "boundary_hyperbolic":
        # the near-circle branch is exercised: 8 orbits of this seed
        assert near > 0


@pytest.mark.parametrize("regime", BOUNDARY)
def test_abel_coefficients_are_the_spectral_quantities(regime):
    # a hyperbolic tau: no atom at tau, a contact value of zero and
    # P = 1/dw_spectral_value; a parabolic draw: p's atom at tau, 2 m_tau = beta
    for spec, _ in boundary_draws(regime):
        e, m_tau, terms = semiflow._abel(spec)
        big_p = math.fsum(p for _, _, p in terms)
        if regime == "boundary_hyperbolic":
            scale = abs(spec.p.gamma) + math.fsum(abs(p * c.imag) for c, _, p in terms)
            assert m_tau == 0.0 and abs(e) <= 1e-13 * scale
            assert abs(big_p * dw_spectral_value(spec) - 1.0) <= 1e-12
        else:
            assert m_tau > 0.0 and 2.0 * m_tau == beta(spec)


@pytest.mark.parametrize("regime", BOUNDARY)
def test_an_abel_newton_failure_returns_the_ode_answer(regime, monkeypatch):
    monkeypatch.setattr(semiflow, "_NEWTON_STEPS", 0)
    for spec, z0 in list(boundary_draws(regime))[:20]:
        assert semiflow._closed_form(spec, z0, 1.0, True) is None
        assert integrate_flow_with_derivative(spec, z0, 1.0) == tuple(
            semiflow._lone(spec, z0, 1.0, True)[0]
        )
        assert integrate_flow(spec, z0, 1.0) == semiflow._lone(spec, z0, 1.0, False)[0][0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z0", [0.995, 0.999, 0.9999, -0.99])
def test_closed_form_and_ode_meet_tanh_near_the_circle(z0):
    # G = 5 (1 - z^2), T = atanh(z)/5 and phi_t(z) = tanh(5t + atanh z).  The
    # public flow takes the closed form, except from 0.9999, whose orbit ends
    # 6.7e-7 from the circle, within _ABEL_GUARD; the ODE's initial-step
    # probe and first trial stages from the starts near 1 land past |z| = 1
    t = 0.5
    expect = math.tanh(5.0 * t + math.atanh(z0))
    w, dw = semiflow._abel_flow(ESCAPING, complex(z0), t, True)
    # BoundaryPoint(pi) is -1 + 1.2e-16 i, which tilts the orbit by 1e-14
    assert abs(w - expect) <= 1e-13
    assert abs(dw - math.cosh(math.atanh(z0)) ** 2 / math.cosh(5.0 * t + math.atanh(z0)) ** 2) <= 1e-12 * abs(dw)
    (w_ode,), _, _ = semiflow._lone(ESCAPING, complex(z0), t, False)
    assert abs(w_ode - expect) <= 1e-9
    closed = semiflow._closed_form(ESCAPING, complex(z0), t, False)
    assert (closed is None) == (z0 == 0.9999)
    assert integrate_flow(ESCAPING, z0, t) == (w_ode if closed is None else w)


# ----------------------------------------------------------------------
# what the boundary form must leave unchanged, pinned by float.hex
# ----------------------------------------------------------------------

# estimate_boundary_derivative at sigma_1 of the first draw of each regime
# (seed 2024), at t = 0.25 and 1: the radius ladder stays on the ODE
ESTIMATES = {
    "interior": ("0x1.1fad4b0e2ae21p+0", "0x1.9839c056db7c3p+0"),
    "origin": ("0x1.626058d49e1a6p+0", "0x1.d60321548f431p+1"),
    "boundary_hyperbolic": ("0x1.1bbdd944ac691p+0", "0x1.825799b16ddc8p+0"),
    "boundary_parabolic": ("0x1.1a9a03d054af6p+0", "0x1.7c2bb62148837p+0"),
}

# (w, phi') to t = 1 from z0 = 0.9 exp(i U[0, 2 pi]), three draws per regime
# (seed 2025): the Koenigs form is unchanged
ORBITS = {
    "interior": (
        ("0x1.1c533befd8617p-1", "-0x1.8a6857fbf94f6p-2", "0x1.7a8b4b5f422f6p-2", "-0x1.2f6f69944bdd9p-2"),
        ("-0x1.b8c516a65cb0dp-1", "0x1.6357cbc8d9033p-4", "0x1.516c80537062cp+0", "-0x1.8281b6fe3def2p-5"),
        ("0x1.329ce99e6763bp-3", "0x1.a15557a5d340dp-1", "0x1.9a1327f20a33ep+0", "-0x1.e0cfe80adf91bp-4"),
    ),
    "origin": (
        ("-0x1.da29d9fb1524cp-2", "-0x1.3e242dfa896bdp-1", "0x1.bb0532e7c5230p-2", "0x1.9bf10a17a4b25p-3"),
        ("0x1.f8fb9d7277422p-2", "0x1.529799b0bbb7cp-1", "0x1.324e28ba20eecp-1", "-0x1.29d55d17592b9p-3"),
        ("0x1.bd86ca5a06d49p-2", "-0x1.810d3088268bfp-2", "0x1.ca4e8ead428ebp-4", "-0x1.f84df1eb83c0ep-2"),
    ),
}


def test_estimates_stay_bit_for_bit():
    # the pinned specs are draws of the per-sample stream
    rng = np.random.default_rng(2024)
    for regime, pinned in ESTIMATES.items():
        spec = verify_reference.random_spec(rng, regime)
        for t, value in zip((0.25, 1.0), pinned):
            assert estimate_boundary_derivative(spec, spec.config.sigmas[0], t).hex() == value


def test_koenigs_orbits_stay_bit_for_bit():
    rng = np.random.default_rng(2025)
    for regime, pinned in ORBITS.items():
        for parts in pinned:
            spec = verify_reference.random_spec(rng, regime)
            z0 = 0.9 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            w, dw = integrate_flow_with_derivative(spec, z0, 1.0)
            assert (w.real.hex(), w.imag.hex(), dw.real.hex(), dw.imag.hex()) == parts
