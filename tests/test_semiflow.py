"""Semiflow integration tests against a closed-form conjugacy oracle.

The workhorse configuration is tau = 0, one repelling point at 1 with
spectral value -2, free summand zero.  There h(z) = z/(1-z)^2 conjugates
the flow to w -> exp(-4t) w, which pins every quantity tested here."""

import cmath
import math

import numpy as np
import pytest

from diskflow import (
    AtomicHerglotz,
    BoundaryEscape,
    BoundaryPoint,
    DomainError,
    ExtrapolationDivergence,
    FixedPointConfig,
    GeneratorSpec,
    dw_spectral_value,
    estimate_boundary_derivative,
    eval_generator,
    flow_trajectory,
    integrate_flow,
    integrate_flow_with_derivative,
    julia_quotient_estimate,
    random_spec,
)
from diskflow.semiflow import MAX_RHS_CALLS

KOENIGS = GeneratorSpec(
    FixedPointConfig(0.0, (BoundaryPoint(0.0),), (-2.0,)), AtomicHerglotz()
)


def koenigs_map(z):
    return z / (1.0 - z) ** 2


def koenigs_orbit(z, t):
    """(phi_t(z), d phi_t/dz) from h(w) = exp(-4t) h(z) on the branch in the disk.

    With c = exp(-4t) h(z) the point solves c w^2 - (1 + 2c) w + c = 0, whose
    roots multiply to 1.  The root 2c / (1 + 2c + sqrt(1 + 4c)) has no
    cancellation when c is small, so the oracle keeps its digits as t grows.
    """
    decay = math.exp(-4.0 * t)
    c = decay * koenigs_map(z)
    w = 2.0 * c / (1.0 + 2.0 * c + cmath.sqrt(1.0 + 4.0 * c))
    w = min(w, 1.0 / w, key=abs)

    def h_prime(v):
        return (1.0 + v) / (1.0 - v) ** 3

    return w, decay * h_prime(z) / h_prime(w)


def test_spectral_value_of_oracle_case():
    assert dw_spectral_value(KOENIGS) == pytest.approx(4.0, abs=1e-14)


def test_conjugacy_identity_of_generator():
    # h'(z) G(z) = -4 h(z) for the oracle configuration
    for z in (0.5, 0.3 + 0.2j, -0.6j, -0.8):
        h = koenigs_map(z)
        hp = (1.0 + z) / (1.0 - z) ** 3
        assert hp * eval_generator(KOENIGS, z) == pytest.approx(-4.0 * h, rel=1e-12)


def test_flow_against_conjugacy_oracle():
    z0 = 0.5
    got = integrate_flow(KOENIGS, z0, 0.1)
    assert got == pytest.approx(0.43220718724561547, abs=1e-8)
    for t in (0.05, 0.3, 1.0):
        assert integrate_flow(KOENIGS, z0, t) == pytest.approx(
            koenigs_orbit(z0, t)[0], abs=1e-8
        )


def test_flow_zero_time_is_identity():
    assert integrate_flow(KOENIGS, 0.3 + 0.2j, 0.0) == 0.3 + 0.2j


def test_flow_rejects_negative_time_and_outside_start():
    with pytest.raises(DomainError):
        integrate_flow(KOENIGS, 0.3, -0.1)
    with pytest.raises(DomainError):
        integrate_flow(KOENIGS, 1.2, 0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_flow_rejects_non_finite_time(t):
    for flow in (integrate_flow, integrate_flow_with_derivative, flow_trajectory):
        with pytest.raises(DomainError):
            flow(KOENIGS, 0.3, t)


def test_flow_refuses_a_horizon_beyond_the_step_bound():
    # near the attracting tau = 0 stability limits a step to about a time
    # unit, so t = 1e9 needs far more than MAX_RHS_CALLS right-hand sides
    for flow in (integrate_flow, integrate_flow_with_derivative, flow_trajectory):
        with pytest.raises(DomainError, match=f"budget of {MAX_RHS_CALLS} right-hand-side calls"):
            flow(KOENIGS, 0.3, 1e9)


def test_flow_rejects_non_finite_start():
    for z0 in (complex(math.nan, 0.0), complex(math.inf, 0.0), np.array([0.2, 1j * math.nan])):
        with pytest.raises(DomainError):
            integrate_flow(KOENIGS, z0, 0.1)
        with pytest.raises(DomainError):
            integrate_flow_with_derivative(KOENIGS, z0, 0.1)
    with pytest.raises(DomainError):
        flow_trajectory(KOENIGS, complex(0.0, math.nan), 0.1)


def test_flow_derivative_at_fixed_point():
    # dphi_t/dz at the attracting point is exp(-lambda t) with lambda = 4
    for t in (0.1, 0.5):
        phi, dphi = integrate_flow_with_derivative(KOENIGS, 0.0, t)
        assert abs(phi) < 1e-12
        assert dphi == pytest.approx(math.exp(-4.0 * t), abs=1e-8)


def test_flow_derivative_matches_finite_difference():
    z0, t, h = 0.2 + 0.1j, 0.4, 1e-6
    _, dphi = integrate_flow_with_derivative(KOENIGS, z0, t)
    fd = (integrate_flow(KOENIGS, z0 + h, t) - integrate_flow(KOENIGS, z0 - h, t)) / (
        2 * h
    )
    assert dphi == pytest.approx(fd, rel=1e-6)


# ----------------------------------------------------------------------
# batched orbits: an array of start points is one IVP
# ----------------------------------------------------------------------

BATCH = np.array([0.5, 0.3 + 0.2j, -0.6j, -0.8, 0.1 + 0.7j, 0.0])
BATCH_SPECS = [KOENIGS] + [
    random_spec(np.random.default_rng(11), regime)
    for regime in ("interior", "origin", "boundary_hyperbolic", "boundary_parabolic")
]

# tau = 1, one repelling point at -1 with lambda = -10: G(z) = 5 (1 - z^2),
# whose orbits tanh(5t + atanh z) run out to the Denjoy-Wolff point 1
ESCAPING = GeneratorSpec(
    FixedPointConfig(1.0, (BoundaryPoint(math.pi),), (-10.0,)), AtomicHerglotz()
)


@pytest.mark.parametrize("spec", BATCH_SPECS)
def test_batched_orbits_match_one_call_per_point(spec):
    t = 0.5
    batched = integrate_flow(spec, BATCH, t)
    points, derivatives = integrate_flow_with_derivative(spec, BATCH, t)
    assert batched.shape == points.shape == derivatives.shape == BATCH.shape
    for i, z0 in enumerate(BATCH):
        single = integrate_flow(spec, z0, t)
        w, dw = integrate_flow_with_derivative(spec, z0, t)
        assert abs(batched[i] - single) <= 1e-10
        assert abs(points[i] - w) <= 1e-10
        assert abs(derivatives[i] - dw) <= 1e-10


def test_batched_orbit_escape_stops_the_whole_batch():
    # from -0.99 the orbit is still 2e-9 off the circle at t = 2.6, while the
    # orbit from 0.99 crosses the guard radius 1 - 1e-13 near t = 2.53
    t = 2.6
    alone = integrate_flow(ESCAPING, -0.99, t)
    assert alone == pytest.approx(math.tanh(5.0 * t - math.atanh(0.99)), abs=1e-9)
    with pytest.raises(BoundaryEscape):
        integrate_flow(ESCAPING, np.array([-0.99, 0.99]), t)
    with pytest.raises(BoundaryEscape):
        integrate_flow_with_derivative(ESCAPING, np.array([-0.99, 0.99]), t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z0", [0.995, 0.999, 0.9999])
def test_a_trial_stage_off_the_disk_is_a_rejected_step(z0):
    # the orbit tanh(5t + atanh z0) stays inside the disk, but the initial
    # step probe and the first trial stages land past |z| = 1
    t = 0.5
    assert integrate_flow(ESCAPING, z0, t) == pytest.approx(
        math.tanh(5.0 * t + math.atanh(z0)), abs=1e-9
    )


def test_batched_flow_rejects_any_start_outside_the_disk():
    outside = np.array([0.2, 0.5j, 1.0])
    with pytest.raises(DomainError):
        integrate_flow(KOENIGS, outside, 0.3)
    with pytest.raises(DomainError):
        integrate_flow_with_derivative(KOENIGS, outside, 0.3)


def test_batched_flow_at_zero_time_returns_the_start_points():
    w = integrate_flow(KOENIGS, BATCH, 0.0)
    assert np.array_equal(w, BATCH)
    points, derivatives = integrate_flow_with_derivative(KOENIGS, BATCH, 0.0)
    assert np.array_equal(points, BATCH)
    assert np.array_equal(derivatives, np.ones(len(BATCH)))
    assert integrate_flow_with_derivative(KOENIGS, 0.3 + 0.2j, 0.0) == (0.3 + 0.2j, 1.0)


def test_trajectory_shape_and_monotone_times():
    tr = flow_trajectory(KOENIGS, 0.4, 1.0, samples=50)
    assert len(tr.times) == 50
    assert len(tr.points) == 50
    assert tr.times[0] == 0.0 and tr.times[-1] == pytest.approx(1.0)
    assert all(a < b for a, b in zip(tr.times, tr.times[1:]))
    assert tr.points[0] == pytest.approx(0.4)
    assert tr.derivatives is not None
    assert tr.derivatives[0] == pytest.approx(1.0)


@pytest.mark.parametrize("t", [1.0, 5.0])
def test_trajectory_samples_meet_the_oracle(t):
    # every sample point within 1e-10.  The derivative decays like exp(-4t),
    # to 4e-9 at t = 5, where ABS_TOL = 1e-12 rules its error, hence the
    # absolute floors: a dense-output sample within 1e-9 relative, the end
    # point (a step end, not interpolated) within 1e-10 relative
    tr = flow_trajectory(KOENIGS, 0.5, t, samples=200)
    for s, w, dw in zip(tr.times, tr.points, tr.derivatives):
        w_ref, dw_ref = koenigs_orbit(0.5, s)
        assert abs(w - w_ref) <= 1e-10
        assert abs(dw - dw_ref) <= 1e-9 * abs(dw_ref) + 1e-11
    assert abs(tr.derivatives[-1] - dw_ref) <= 1e-10 * abs(dw_ref) + 1e-13
    assert 0 < tr.rhs_calls <= MAX_RHS_CALLS


def test_trajectory_follows_oracle():
    tr = flow_trajectory(KOENIGS, 0.5, 0.5, samples=11)
    for t, w in zip(tr.times, tr.points):
        assert w == pytest.approx(koenigs_orbit(0.5, t)[0] if t else 0.5, abs=1e-7)


# ----------------------------------------------------------------------
# boundary derivative via the Julia quotient
# ----------------------------------------------------------------------


def test_julia_quotient_on_disk_automorphism():
    c = 0.4
    mob = lambda z: (z + c) / (1.0 + c * z)
    s = BoundaryPoint(0.0)
    expect = (1.0 - c) / (1.0 + c)
    assert julia_quotient_estimate(mob, s) == pytest.approx(expect, rel=1e-9)


def test_julia_quotient_estimate_of_squaring():
    # z^2 has angular derivative 2 at 1; its quotient (1+r)^2/(1+r^2) has no
    # first-order error in h = 1 - r
    s = BoundaryPoint(0.0)
    assert julia_quotient_estimate(lambda z: z * z, s) == pytest.approx(2.0, rel=1e-8)


def test_julia_quotient_escape():
    s = BoundaryPoint(0.0)
    with pytest.raises(BoundaryEscape):
        julia_quotient_estimate(lambda z: 1.5 * z, s)


def test_julia_quotient_estimate_divergence_control():
    # z/2 maps 1 into the disk: the quotient grows like 1/h and the last
    # two extrapolants (about 8192.6 and 16384.6) disagree
    s = BoundaryPoint(0.0)
    with pytest.raises(ExtrapolationDivergence):
        julia_quotient_estimate(lambda z: z / 2, s)


def test_boundary_derivative_of_oracle_flow():
    # phi_t'(1) = exp(2t) at the repelling point
    s = BoundaryPoint(0.0)
    t = 0.5
    got = estimate_boundary_derivative(KOENIGS, s, t)
    assert got == pytest.approx(math.exp(1.0), rel=1e-3)


# ----------------------------------------------------------------------
# attraction to the Denjoy-Wolff point
# ----------------------------------------------------------------------


def _disk_draws(samples):
    """Start points uniform on the disk of radius 0.9, from seed 0."""
    draws = np.random.default_rng(0).uniform(size=(samples, 2))
    return 0.9 * np.sqrt(draws[:, 0]) * np.exp(2j * math.pi * draws[:, 1])


def _horocycle(tau, w):
    """|tau - w|^2 / (1 - |w|^2), which Julia's lemma keeps from increasing."""
    return np.abs(tau - w) ** 2 / (1.0 - np.abs(w) ** 2)


def test_attraction_interior_case():
    # Schwarz-Pick: the pseudo-hyperbolic distance to tau = 0, |w|, falls
    z0 = _disk_draws(10)
    after = np.abs(integrate_flow(KOENIGS, z0, 0.5))
    assert np.all(after < np.abs(z0))


def test_attraction_boundary_case():
    c = FixedPointConfig(1.0, (BoundaryPoint(math.pi),), (-1.0,))
    spec = GeneratorSpec(c, AtomicHerglotz())
    z0 = _disk_draws(6)
    assert np.all(_horocycle(1.0, integrate_flow(spec, z0, 2.0)) < _horocycle(1.0, z0))


def test_attraction_boundary_uses_horocycles_not_euclidean_distance():
    # the fourth boundary-regime draw of seed 5 is parabolic; along its third
    # sample orbit the Euclidean distance to tau rises between t = 1 and
    # t = 2, which a distance test reads as failed attraction, while the
    # horocycle quantity |tau - w|^2 / (1 - |w|^2) falls as Julia's lemma says
    rng = np.random.default_rng(5)
    for regime in ("boundary_hyperbolic", "boundary_parabolic") * 2:
        spec = random_spec(rng, regime)
    tau = spec.config.tau
    z0 = _disk_draws(10)
    w1, w2 = (integrate_flow(spec, complex(z0[2]), t) for t in (1.0, 2.0))
    assert abs(w2 - tau) > abs(w1 - tau)
    assert np.all(_horocycle(tau, integrate_flow(spec, z0, 1.0)) < _horocycle(tau, z0))
