"""diskflow's DOP853 step loop against scipy's solve_ivp as the reference.

The loop reproduces solve_ivp's DOP853 controller, so on the same problem
both take the same steps.  For random_spec draws of every regime, lone
orbits (with and without the variational equation), the array solve of
scattered orbits and of the radius ladder toward a sigma, and
flow_trajectory samples must meet solve_ivp's values within 1e-12
relative.  A derivative that has decayed far below ABS_TOL is held to a
floor of 1e-14 absolute instead: near the circle the variational equation
amplifies the last-digit differences of the two loops' sums, and its
relative error is then not controlled by either solver.  The right-hand
side calls must equal solve_ivp's nfev wherever no stage left the disk,
and never exceed it: the loop stops a step at its first stage off the
disk, where solve_ivp evaluates every stage of a NaN step.

The reference right-hand side returns NaN off the disk, which rejects the
step in solve_ivp, and its terminal event is the boundary guard.  Its G'
is the per-atom loop of tests/loop_reference.py, applied point by point,
so the variational equation is checked against an unfused formula.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import loop_reference as ref
from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    FixedPointConfig,
    GeneratorSpec,
    eval_generator,
    flow_trajectory,
    random_spec,
    semiflow,
)

REGIMES = ("interior", "origin", "boundary_hyperbolic", "boundary_parabolic")
DRAWS = 50


def scipy_solve(gen, z, t, derivative, t_eval=None):
    """solve_ivp's solution and whether any stage it evaluated left the disk."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = len(z)
    y0 = np.concatenate((z, np.ones(n, dtype=complex))) if derivative else z
    off_disk = False

    def rhs(_, y):
        nonlocal off_disk
        w = y[:n]
        if not np.abs(w).max() < 1.0:
            off_disk = True
            return np.full_like(y, np.nan)
        g = eval_generator(gen, w)
        if derivative:
            dg = np.array([ref.eval_generator_derivative(gen, v) for v in w.tolist()])
            return np.concatenate((g, dg * y[n:]))
        return g

    def escape(_, y):
        return np.abs(y[:n]).max() - (1.0 - semiflow.BOUNDARY_GUARD)

    escape.terminal = True
    escape.direction = 1.0
    with np.errstate(invalid="ignore"):
        sol = solve_ivp(
            rhs,
            (0.0, t),
            y0,
            method="DOP853",
            rtol=semiflow.REL_TOL,
            atol=semiflow.ABS_TOL,
            t_eval=t_eval,
            events=[escape],
        )
    assert sol.status == 0, sol.message
    return sol, off_disk


def assert_close(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected) + 1e-14)


def assert_calls(stats, sol, off_disk, dense=False):
    calls, steps, rejected = stats
    assert calls <= sol.nfev
    if not off_disk:
        assert calls == sol.nfev
        if not dense:
            # the first derivative, the initial-step probe, 12 per attempt
            assert calls == 2 + 12 * (steps + rejected)
            assert steps == len(sol.t) - 1


def draws(regime):
    """(spec, z0, t): start points uniform on the disk of radius 0.95."""
    rng = np.random.default_rng(REGIMES.index(regime) + 16)
    for _ in range(DRAWS):
        spec = random_spec(rng, regime)
        r, angle = 0.95 * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
        yield spec, r * complex(math.cos(angle), math.sin(angle)), float(rng.choice([0.1, 0.5, 1.0, 3.0]))


@pytest.mark.parametrize("regime", REGIMES)
def test_lone_orbits_match_solve_ivp(regime):
    for spec, z0, t in draws(regime):
        for derivative in (False, True):
            y, _, stats = semiflow._lone(spec, z0, t, derivative)
            sol, off_disk = scipy_solve(spec, z0, t, derivative)
            assert_close(y, sol.y[:, -1])
            assert_calls(stats, sol, off_disk)


@pytest.mark.parametrize("regime", REGIMES)
def test_arrays_of_orbits_match_solve_ivp(regime):
    for spec, z0, t in draws(regime):
        z = np.array([z0, 0.5 * z0, -0.3j, 0.8])
        y, _, stats = semiflow._batch(spec, z, t)
        sol, off_disk = scipy_solve(spec, z, t, False)
        assert_close(y, sol.y[:, -1])
        assert_calls(stats, sol, off_disk)


@pytest.mark.parametrize("regime", REGIMES)
def test_the_radius_ladder_matches_solve_ivp(regime):
    # the array estimate_boundary_derivative solves: RADII toward a sigma
    for spec, _, t in draws(regime):
        sigma = spec.config.sigmas[-1]
        z = np.array(semiflow.RADII) * sigma.value
        y, _, stats = semiflow._batch(spec, z, t)
        sol, off_disk = scipy_solve(spec, z, t, False)
        assert_close(y, sol.y[:, -1])
        assert_calls(stats, sol, off_disk)


@pytest.mark.parametrize("regime", REGIMES)
def test_trajectory_samples_match_solve_ivp(regime):
    for spec, z0, t in draws(regime):
        tr = flow_trajectory(spec, z0, t, samples=50)
        sol, off_disk = scipy_solve(spec, z0, t, True, t_eval=np.linspace(0.0, t, 50))
        assert tr.times == tuple(sol.t)
        assert_close(tr.points, sol.y[0])
        assert_close(tr.derivatives, sol.y[1])
        assert_calls((tr.rhs_calls, tr.steps, tr.rejected_steps), sol, off_disk, dense=True)


# tau = 1, one repelling point at -1 with lambda = -10: G(z) = 5 (1 - z^2),
# whose orbits tanh(5t + atanh z0) run out to the Denjoy-Wolff point 1
ESCAPING = GeneratorSpec(
    FixedPointConfig(1.0, (BoundaryPoint(math.pi),), (-10.0,)), AtomicHerglotz()
)


@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
@pytest.mark.parametrize("z0", [0.99, 0.995, 0.999, 0.9999])
def test_trajectory_near_the_circle_meets_the_closed_form(z0, t):
    # the orbit ends as close as 2e-13 to the circle, just inside the guard
    tr = flow_trajectory(ESCAPING, z0, t)
    for s, w, dw in zip(tr.times, tr.points, tr.derivatives):
        x = 5.0 * s + math.atanh(z0)
        assert abs(w - math.tanh(x)) <= 2e-12
        assert abs(dw - 1.0 / (math.cosh(x) ** 2 * (1.0 - z0) * (1.0 + z0))) <= 2e-10
    sol, off_disk = scipy_solve(ESCAPING, z0, t, True, t_eval=np.array(tr.times))
    assert_calls((tr.rhs_calls, tr.steps, tr.rejected_steps), sol, off_disk, dense=True)
