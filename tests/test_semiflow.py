"""Semiflow integration tests against a closed-form conjugacy oracle.

The workhorse configuration is tau = 0, one repelling point at 1 with
spectral value -2, free summand zero.  There h(z) = z/(1-z)^2 conjugates
the flow to w -> exp(-4t) w, which pins every quantity tested here."""

import cmath
import math

import numpy as np
import pytest

import verify_reference
from diskflow import (
    AtomicHerglotz,
    BoundaryEscape,
    BoundaryPoint,
    DomainError,
    ExtrapolationDivergence,
    FixedPointConfig,
    GeneratorSpec,
    StepFailure,
    Trajectory,
    dw_spectral_value,
    estimate_boundary_derivative,
    eval_generator,
    flow_trajectory,
    integrate_flow,
    integrate_flow_with_derivative,
    julia_quotient_estimate,
    random_spec,
)
from diskflow import semiflow
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
    budget = f"budget of {MAX_RHS_CALLS} right-hand-side calls"
    with pytest.raises(DomainError, match=budget):
        flow_trajectory(KOENIGS, 0.3, 1e9)
    for derivative in (False, True):
        with pytest.raises(DomainError, match=budget):
            semiflow._lone(KOENIGS, 0.3 + 0j, 1e9, derivative)
    # the closed form answers that horizon: exp(-4t) h(z0) underflows, so
    # the orbit sits on tau and its derivative is 0
    assert abs(integrate_flow(KOENIGS, 0.3, 1e9)) <= 1e-12
    w, dw = integrate_flow_with_derivative(KOENIGS, 0.3, 1e9)
    assert abs(w) <= 1e-12 and dw == 0.0


@pytest.mark.parametrize("z0", ["0.5", b"0.5", None, True, False], ids=repr)
def test_flow_refuses_a_start_point_that_is_no_number(z0):
    # complex("0.5") parses, and a bool is an int: neither is a start point
    for flow in (integrate_flow, integrate_flow_with_derivative, flow_trajectory):
        with pytest.raises(DomainError, match="a start point must be a number"):
            flow(KOENIGS, z0, 0.1)


@pytest.mark.parametrize("bad", [np.True_, np.False_], ids=repr)
def test_flow_refuses_a_numpy_bool_start_point_or_time(bad):
    # np.bool_ is no subclass of bool: np.True_ was read as the start point
    # 1, refused only for its modulus, and as the time 1
    for flow in (integrate_flow, integrate_flow_with_derivative, flow_trajectory):
        with pytest.raises(DomainError, match="a start point must be a number"):
            flow(KOENIGS, bad, 0.1)
        with pytest.raises(DomainError, match="real number"):
            flow(KOENIGS, 0.3, bad)


@pytest.mark.parametrize("t", ["1", b"1", None, True, 1j, 0.5 + 0j, np.complex128(0.5)], ids=repr)
def test_flow_refuses_a_time_that_is_no_real_number(t):
    for flow in (integrate_flow, integrate_flow_with_derivative, flow_trajectory):
        with pytest.raises(DomainError, match="real number"):
            flow(KOENIGS, 0.3, t)


def test_check_horizon_refuses_an_int_beyond_the_floats():
    # 0 <= 10**400 < inf holds, so the range test lets it through to float()
    with pytest.raises(DomainError, match="too large for a float"):
        semiflow._check_horizon(10**400)


def test_flow_refuses_a_start_point_beyond_the_floats():
    for flow in (integrate_flow, integrate_flow_with_derivative, flow_trajectory):
        with pytest.raises(DomainError, match="too large for a float"):
            flow(KOENIGS, 10**400, 1.0)


@pytest.mark.parametrize("t", [np.array([0.5, 1.0]), np.array([0.5])], ids=["two", "one"])
def test_flow_refuses_an_array_time(t):
    # an array's comparison is an array: two elements raised a bare
    # ValueError, one a bare TypeError from float()
    for flow in (integrate_flow, integrate_flow_with_derivative, flow_trajectory):
        with pytest.raises(DomainError, match="real number"):
            flow(KOENIGS, 0.3, t)
    assert integrate_flow(KOENIGS, 0.3, np.array(0.5)) == integrate_flow(KOENIGS, 0.3, 0.5)


def test_flow_takes_numpy_scalars():
    for z0, t in ((np.float64(0.5), np.float32(0.25)), (np.complex128(0.5), np.int64(1))):
        w, dw = integrate_flow_with_derivative(KOENIGS, 0.5, float(t))
        assert integrate_flow(KOENIGS, z0, t) == w
        assert integrate_flow_with_derivative(KOENIGS, z0, t) == (w, dw)
        assert flow_trajectory(KOENIGS, z0, t, samples=2).points[-1] == pytest.approx(w, abs=1e-10)


def test_flow_rejects_non_finite_start():
    for z0 in (complex(math.nan, 0.0), complex(math.inf, 0.0)):
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


@pytest.mark.parametrize(
    "z0",
    [np.array([0.5]), np.array([0.2, 0.5j]), np.array([0.2, 0.5j, 1.0]), np.zeros((2, 2))],
    ids=["length-1", "inside", "one-outside", "2-d"],
)
def test_flow_rejects_an_array_of_start_points(z0):
    for flow in (integrate_flow, integrate_flow_with_derivative, flow_trajectory):
        with pytest.raises(DomainError, match="one start point"):
            flow(KOENIGS, z0, 0.3)


# ----------------------------------------------------------------------
# the radius ladder's array solve: all its orbits are one IVP
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
    batched = semiflow._batch(spec, BATCH, t)[0]
    assert batched.shape == BATCH.shape
    for i, z0 in enumerate(BATCH):
        assert abs(batched[i] - integrate_flow(spec, z0, t)) <= 1e-10


def test_batched_orbit_escape_stops_the_whole_batch():
    # from -0.99 the orbit is still 2e-9 off the circle at t = 2.6, while the
    # orbit from 0.99 crosses the guard radius 1 - 1e-13 near t = 2.53
    t = 2.6
    alone = integrate_flow(ESCAPING, -0.99, t)
    assert alone == pytest.approx(math.tanh(5.0 * t - math.atanh(0.99)), abs=1e-9)
    with pytest.raises(BoundaryEscape):
        semiflow._batch(ESCAPING, np.array([-0.99, 0.99]), t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z0", [0.995, 0.999, 0.9999])
def test_a_trial_stage_off_the_disk_is_a_rejected_step(z0):
    # the orbit tanh(5t + atanh z0) stays inside the disk, but the initial
    # step probe and the first trial stages land past |z| = 1
    t = 0.5
    assert integrate_flow(ESCAPING, z0, t) == pytest.approx(
        math.tanh(5.0 * t + math.atanh(z0)), abs=1e-9
    )


def test_a_dense_output_stage_off_the_disk_is_a_rejected_step():
    # a stub right-hand side that is zero except at the first step's end
    # point: the step has no error estimate and stays at 0.5, but its first
    # dense-output stage, 0.5 - 0.0083 h f_new, lands far off the disk
    calls = []

    def rhs(y):
        calls.append(y)
        # calls 1 and 2 are the first derivative and the initial-step
        # probe, 3 to 13 the stages 1 to 11, call 14 the end point
        return [1e9 + 0j if len(calls) == 14 else 0j]

    y, samples, (rhs_calls, steps, rejected) = semiflow._solve(
        semiflow._Lone, rhs, [0.5 + 0j], 1e-6, [0.0, 5e-7, 1e-6]
    )
    assert rejected == 1
    assert y == [0.5] and samples == [[0.5]] * 3
    assert rhs_calls == len(calls)


def test_a_step_below_ten_ulp_of_t_fails():
    # a stub right-hand side of speed 0.1 up to the wall Re y = 1/2 and 1e30
    # beyond it: every step whose stages cross the wall leaves the disk and
    # is rejected, and the accepted steps close in on the wall until, at
    # t = 5, one of 10 ulp of t would cross it
    calls = []

    def rhs(y):
        calls.append(y)
        return [0.1 + 0j if y[0].real < 0.5 else 1e30 + 0j]

    message = r"^integrator failed at t = 4\.99999\d+: the step fell below 10 ulp of t$"
    with pytest.raises(StepFailure, match=message):
        semiflow._solve(semiflow._Lone, rhs, [0j], 10.0)
    assert len(calls) < 1000  # far within MAX_RHS_CALLS


def test_newton_leaves_a_start_whose_last_step_ends_off_the_disk():
    # the step is already at the stopping size, but its end is not a point
    # of the disk: that start yields no root, and the next start is tried
    # without a residual call
    residuals = []

    def residual(x):
        residuals.append(x)
        return 0.0, 0.0

    starts = [(0.5 + 0j, 0.0, 1e-20), (0.25 + 0j, 1.0, 1e-20)]
    assert semiflow._newton(residual, lambda x: x.real < 0.5, 0j, starts[:1]) is None
    assert semiflow._newton(residual, lambda x: x.real < 0.5, 0j, starts) == 0.25
    assert residuals == []


def test_estimate_at_zero_time_maps_the_ladder_to_itself():
    # phi_0 is the identity, whose angular derivative is 1 everywhere
    for theta in (0.0, 2.0):
        got = estimate_boundary_derivative(KOENIGS, BoundaryPoint(theta), 0.0)
        assert got == pytest.approx(1.0, abs=1e-12)
    assert integrate_flow_with_derivative(KOENIGS, 0.3 + 0.2j, 0.0) == (0.3 + 0.2j, 1.0)


@pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
def test_estimate_rejects_a_bad_horizon(t):
    with pytest.raises(DomainError):
        estimate_boundary_derivative(KOENIGS, BoundaryPoint(0.0), t)


def test_trajectory_refuses_a_horizon_of_zero():
    with pytest.raises(DomainError, match="^a trajectory horizon must be positive, got 0$"):
        flow_trajectory(KOENIGS, 0.4, 0.0)


def test_trajectory_refuses_sequences_of_unequal_length():
    with pytest.raises(ValueError, match="^times and points must have equal length$"):
        Trajectory((0.0, 1.0), (0j,))
    with pytest.raises(ValueError, match="^derivatives must match times in length$"):
        Trajectory((0.0,), (0j,), (1 + 0j, 1 + 0j))


def test_closed_form_hands_the_orbit_to_the_ode_where_it_raises():
    # q(tau) overflows to inf with a mass of 1e308 at distance 0.1 from tau,
    # so lambda = 0, and the Koenigs exponent lambda/conj(lambda) divides by 0
    p = AtomicHerglotz(((BoundaryPoint(0.0), 1e308),))
    spec = GeneratorSpec(FixedPointConfig(0.9, (BoundaryPoint(math.pi),), (-1.0,)), p)
    with pytest.raises(ZeroDivisionError):
        semiflow._koenigs_flow(spec, 0j, 1.0, False)
    assert semiflow._closed_form(spec, 0j, 1.0, False) is None
    w = integrate_flow(spec, 0.0, 1.0)
    assert w == semiflow._lone(spec, 0j, 1.0, False)[0][0]
    assert cmath.isfinite(w) and 0.0 < w.real < 1e-300


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


@pytest.mark.parametrize("t", [5e-324, 1e-320, 1e-310, 0.1, 1.0 / 3.0, 2.0, 7.5], ids=repr)
def test_trajectory_times_are_numpys_linspace(t):
    # the grid is built in plain floats; where t/(samples - 1) underflows
    # to 0 (the subnormal horizons at 10^6 samples) linspace multiplies
    # i/(samples - 1) by t instead, and so must the grid
    for samples in (2, 3, 7, 200) + ((10**6,) if t <= 1e-320 else ()):
        times = flow_trajectory(KOENIGS, 0.3, t, samples=samples).times
        assert all(type(x) is float for x in times)
        expected = np.linspace(0.0, t, samples).tolist()
        assert [x.hex() for x in times] == [x.hex() for x in expected]


@pytest.mark.parametrize("samples", ["5", None, 2.5, 10.0, np.float64(5.0), True], ids=repr)
def test_trajectory_refuses_a_sample_count_that_is_no_integer(samples):
    # all but True failed the range test with a bare TypeError
    with pytest.raises(DomainError, match="samples must be an integer"):
        flow_trajectory(KOENIGS, 0.3, 1.0, samples=samples)


def test_trajectory_takes_a_numpy_integer_sample_count():
    tr = flow_trajectory(KOENIGS, 0.3, 1.0, samples=np.int64(5))
    assert tr == flow_trajectory(KOENIGS, 0.3, 1.0, samples=5)
    assert len(tr.times) == 5


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
    with pytest.raises(BoundaryEscape):
        julia_quotient_estimate(lambda z: 1.0, BoundaryPoint(0.3))


@pytest.mark.parametrize("value", [complex("nan"), complex(0.5, math.nan), complex("inf")])
def test_julia_quotient_refuses_a_value_that_is_not_finite(value):
    # a NaN fails |w| >= 1 as well as |w| < 1: no escape, and no estimate
    s = BoundaryPoint(0.3)
    with pytest.raises(DomainError, match="not finite"):
        julia_quotient_estimate(lambda z: value, s)
    # one bad rung among values inside the disk is enough
    with pytest.raises(DomainError, match="not finite"):
        julia_quotient_estimate(lambda z: value if abs(z) > 0.999 else z / 2, s)


@pytest.mark.parametrize("value", ["0.5", "x", b"0.5", [0.5], None, True], ids=repr)
def test_julia_quotient_refuses_a_map_value_that_is_no_number(value):
    # complex("0.5") parses, a list would broadcast and a bool is an int:
    # none of them is one value of the map
    with pytest.raises(DomainError, match="a map value must be a number|expected one map value"):
        julia_quotient_estimate(lambda z: value, BoundaryPoint(0.3))


def test_julia_quotient_refuses_a_numpy_bool_map_value():
    # np.True_ was read as the value 1 and raised BoundaryEscape
    with pytest.raises(DomainError, match="a map value must be a number"):
        julia_quotient_estimate(lambda z: np.True_, BoundaryPoint(0.3))


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


def _flow_each(spec, z0, t):
    """phi_t at each of the points z0, one orbit at a time."""
    return np.array([integrate_flow(spec, z, t) for z in z0])


def _horocycle(tau, w):
    """|tau - w|^2 / (1 - |w|^2), which Julia's lemma keeps from increasing."""
    return np.abs(tau - w) ** 2 / (1.0 - np.abs(w) ** 2)


def test_attraction_interior_case():
    # Schwarz-Pick: the pseudo-hyperbolic distance to tau = 0, |w|, falls
    z0 = _disk_draws(10)
    after = np.abs(_flow_each(KOENIGS, z0, 0.5))
    assert np.all(after < np.abs(z0))


def test_attraction_boundary_case():
    c = FixedPointConfig(1.0, (BoundaryPoint(math.pi),), (-1.0,))
    spec = GeneratorSpec(c, AtomicHerglotz())
    z0 = _disk_draws(6)
    assert np.all(_horocycle(1.0, _flow_each(spec, z0, 2.0)) < _horocycle(1.0, z0))


def test_attraction_boundary_uses_horocycles_not_euclidean_distance():
    # the fourth boundary-regime draw of seed 5 is parabolic; along its third
    # sample orbit the Euclidean distance to tau rises between t = 1 and
    # t = 2, which a distance test reads as failed attraction, while the
    # horocycle quantity |tau - w|^2 / (1 - |w|^2) falls as Julia's lemma says;
    # the draws are those of the per-sample stream
    rng = np.random.default_rng(5)
    for regime in ("boundary_hyperbolic", "boundary_parabolic") * 2:
        spec = verify_reference.random_spec(rng, regime)
    tau = spec.config.tau
    z0 = _disk_draws(10)
    w1, w2 = (integrate_flow(spec, complex(z0[2]), t) for t in (1.0, 2.0))
    assert abs(w2 - tau) > abs(w1 - tau)
    assert np.all(_horocycle(tau, _flow_each(spec, z0, 1.0)) < _horocycle(tau, z0))
