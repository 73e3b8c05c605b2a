"""Numerical semiflow of a generator: the initial value problem

    d/dt phi_t(z) = G(phi_t(z)),   phi_0(z) = z,

solved inside the unit disk, optionally together with the variational
equation d/dt (d phi_t/dz) = G'(phi_t) (d phi_t/dz) for the spatial
derivative along the orbit.

The flow functions, like the generator evaluations (eval_generator and its
derivatives) they call, take one point or a 1-D array of points.  All the
orbits of an array are solved as one system in a single IVP, with one
generator evaluation per right-hand side over every orbit.  Error control
is then joint across the orbits: the solver's step size answers to the
root-mean-square of their scaled error estimates, and the boundary guard
stops the solve when any orbit reaches it.

Boundary spectral data is recovered from the flow without ever evaluating
on the circle: the quotient

    [(1-|z|^2) / |z - sigma|^2] * [|phi(z) - sigma|^2 / (1 - |phi(z)|^2)]

along the radius z = r sigma tends to phi'(sigma) as r -> 1, and a
Richardson step in h = 1 - r removes the first-order error.  The whole
radius ladder is one array of start points, hence one IVP.

The numerics are module constants, not options: DOP853 (the Dormand-Prince
8(5,3) pair with its 7th-order dense output) at REL_TOL = 1e-10 and
ABS_TOL = 1e-12, with no cap on the step, stopped when an orbit comes
within BOUNDARY_GUARD = 1e-13 of the circle, and the Richardson ladder
RADII, r = 1 - 2^-k for k = 4..14, held to ESTIMATE_TOL = 1e-3: its final
two extrapolants must agree within 10 * ESTIMATE_TOL (relative above 1).

Error control chooses every step, so a solve's work is bounded by its
right-hand-side calls, not by its horizon: each solve may make at most
MAX_RHS_CALLS of them and raises DomainError when the budget runs out.
Near an attracting point stability still limits an explicit step to a
time unit or two, so a long horizon costs work in proportion to t.

A trial stage that leaves the disk (or is NaN) is a rejected step, not an
error: the right-hand side returns NaN there, the error norm turns NaN and
the solver shrinks the step.  A right-hand side that is not finite at a
point inside the disk raises DomainError: on a NaN the solver's step
control never ends.

scipy.integrate is imported inside _solve, on the first solve, not with
this module: it takes most of the package's import time, and the closed-form
parts of the package (value regions, inequalities, the Cowen-Pommerenke
region) never integrate.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from ._lazy import np

from .errors import (
    BoundaryEscape,
    DomainError,
    ExtrapolationDivergence,
    StepFailure,
)
from .generator import (
    GeneratorLike,
    eval_generator,
    eval_generator_derivative,
)
from .herglotz_core import BoundaryPoint, _Record

REL_TOL = 1e-10
ABS_TOL = 1e-12
BOUNDARY_GUARD = 1e-13
# most right-hand-side calls one solve makes: 2 to 3 s for one orbit on 2 vCPUs
MAX_RHS_CALLS = 10**5
# most sample points flow_trajectory allocates
MAX_SAMPLES = 10**6
RADII = tuple(1.0 - 2.0**-k for k in range(4, 15))
ESTIMATE_TOL = 1e-3


class Trajectory(_Record):
    """Sampled orbit; derivatives are d phi_t/dz along it when requested.

    rhs_calls counts the right-hand-side calls of the solve behind it.
    """

    def __init__(
        self,
        times: tuple[float, ...],
        points: tuple[complex, ...],
        derivatives: tuple[complex, ...] | None = None,
        rhs_calls: int = 0,
    ) -> None:
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "derivatives", derivatives)
        object.__setattr__(self, "rhs_calls", rhs_calls)
        if len(self.times) != len(self.points):
            raise ValueError("times and points must have equal length")
        if self.derivatives is not None and len(self.derivatives) != len(self.times):
            raise ValueError("derivatives must match times in length")


def _solve(
    rhs: Callable,
    y0: np.ndarray,
    n_orbits: int,
    t_final: float,
    t_eval: np.ndarray | None = None,
):
    """Integrate a system whose first ``n_orbits`` components are orbit points.

    Returns the solution and the number of right-hand-side calls it took,
    at most MAX_RHS_CALLS.
    """
    from scipy.integrate import solve_ivp

    guard = 1.0 - BOUNDARY_GUARD
    calls = 0

    def counted(t: float, y: np.ndarray) -> np.ndarray:
        nonlocal calls
        if calls == MAX_RHS_CALLS:
            raise DomainError(
                f"the solve to t = {t_final!r} ran out of its budget of "
                f"{MAX_RHS_CALLS} right-hand-side calls at t = {float(t)!r}"
            )
        calls += 1
        try:
            return rhs(t, y)
        except DomainError:
            # the generator refuses a stage off the disk, and _pack one that
            # is NaN after such a stage: a NaN value rejects the step
            if not np.abs(y[:n_orbits]).max() < 1.0:
                return np.full_like(y, np.nan)
            raise

    def escape(t: float, y: np.ndarray) -> float:
        return np.abs(y[:n_orbits]).max() - guard

    escape.terminal = True
    escape.direction = 1.0

    # a rejected off-disk stage carries NaN through the solver's arithmetic
    with np.errstate(invalid="ignore"):
        sol = solve_ivp(
            counted,
            (0.0, t_final),
            y0,
            method="DOP853",
            rtol=REL_TOL,
            atol=ABS_TOL,
            t_eval=t_eval,
            events=[escape],
        )
    if sol.status == 1:
        raise BoundaryEscape("orbit reached the boundary guard radius")
    if sol.status != 0:
        raise StepFailure(f"integrator failed: {sol.message}")
    return sol, calls


def _start_points(z0) -> np.ndarray:
    """z0 as a 1-D complex array, checked to lie in the open disk (NaN does not)."""
    z = np.atleast_1d(np.asarray(z0, dtype=complex))
    if z.ndim != 1:
        raise DomainError("start points must be a scalar or a 1-D array")
    radius = np.abs(z).max(initial=0.0)
    if not radius < 1.0:
        raise DomainError(f"initial point must lie in the open disk, |z0|={radius}")
    return z


def _like_input(z0, values: np.ndarray):
    """``values`` (one per start point) shaped like the caller's z0."""
    return values.copy() if np.ndim(z0) else complex(values[0])


def _unpack(y: np.ndarray, n: int):
    """The first n components of a state vector, as the generator's argument.

    A lone orbit is integrated in plain complex arithmetic: its component
    goes in as a Python complex, which the generator evaluates several
    times faster than numpy on a one-element array.
    """
    return complex(y[0]) if n == 1 else y[:n]


def _pack(n: int, *parts) -> np.ndarray:
    """The state vector made of ``parts``, each one value per orbit.

    Every right-hand side is built here, so a non-finite one is refused
    here.  A lone orbit's parts are Python complex numbers, checked without
    numpy's per-call cost; a lone array part is fresh and needs no copy.
    """
    if n == 1:
        finite = all(map(cmath.isfinite, parts))
        y = np.array(parts)
    else:
        y = np.concatenate(parts) if len(parts) > 1 else parts[0]
        finite = np.isfinite(y).all()
    if not finite:
        raise DomainError("the right-hand side of the flow is not finite along the orbit")
    return y


def _flow_rhs(gen: GeneratorLike, n: int) -> Callable:
    """Right-hand side of n orbits."""

    def rhs(_: float, y: np.ndarray) -> np.ndarray:
        return _pack(n, eval_generator(gen, _unpack(y, n)))

    return rhs


def _variational_rhs(gen: GeneratorLike, n: int) -> Callable:
    """Right-hand side of n orbits (first n components) and their derivatives."""

    def rhs(_: float, y: np.ndarray) -> np.ndarray:
        w = _unpack(y, n)
        tangent = eval_generator_derivative(gen, w) * _unpack(y[n:], n)
        return _pack(n, eval_generator(gen, w), tangent)

    return rhs


def integrate_flow(gen: GeneratorLike, z0, t: float):
    """phi_t(z0) for a start point or a 1-D array of them (one IVP)."""
    z = _start_points(z0)
    if not 0.0 <= t < math.inf:
        raise DomainError(f"semigroup time must be finite and nonnegative, got {t!r}")
    n = len(z)
    if t == 0.0 or n == 0:
        return _like_input(z0, z)
    sol, _ = _solve(_flow_rhs(gen, n), z, n, t)
    return _like_input(z0, sol.y[:, -1])


def integrate_flow_with_derivative(gen: GeneratorLike, z0, t: float):
    """(phi_t(z0), d phi_t/dz at z0) via the variational equation.

    For an array of start points both entries are arrays, solved as one IVP.
    """
    z = _start_points(z0)
    if not 0.0 <= t < math.inf:
        raise DomainError(f"semigroup time must be finite and nonnegative, got {t!r}")
    n = len(z)
    ones = np.ones(n, dtype=complex)
    if t == 0.0 or n == 0:
        return _like_input(z0, z), _like_input(z0, ones)
    sol, _ = _solve(_variational_rhs(gen, n), np.concatenate((z, ones)), n, t)
    return _like_input(z0, sol.y[:n, -1]), _like_input(z0, sol.y[n:, -1])


def flow_trajectory(
    gen: GeneratorLike, z0: complex, t: float, samples: int = 200
) -> Trajectory:
    """Orbit and derivative sampled on a uniform time grid of ``samples`` points."""
    z = _start_points(complex(z0))
    if not 0.0 < t < math.inf:
        raise DomainError(f"trajectory horizon must be finite and positive, got {t!r}")
    if not 2 <= samples <= MAX_SAMPLES:
        raise DomainError(f"samples must lie in [2, {MAX_SAMPLES}], got {samples!r}")
    grid = np.linspace(0.0, t, samples)
    y0 = np.concatenate((z, np.ones(1, dtype=complex)))
    sol, calls = _solve(_variational_rhs(gen, 1), y0, 1, t, t_eval=grid)
    return Trajectory(
        tuple(float(s) for s in sol.t),
        tuple(complex(w) for w in sol.y[0]),
        tuple(complex(w) for w in sol.y[1]),
        calls,
    )


def _julia_quotients(sigma: BoundaryPoint, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The quotient at the radial points r sigma, where the map takes values w."""
    if np.abs(w).max() >= 1.0:
        raise BoundaryEscape("map value left the open disk")
    sv = sigma.value
    return ((1.0 - r * r) / np.abs(r * sv - sv) ** 2) * (
        np.abs(w - sv) ** 2 / (1.0 - np.abs(w) ** 2)
    )


def _radial_limit(
    sigma: BoundaryPoint, map_points: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Richardson-extrapolated radial limit of the quotient over RADII.

    ``map_points`` maps the array of the ladder's points r sigma; h = 1 - r
    halves at each step of the ladder.  The final two extrapolants must
    agree within 10 * ESTIMATE_TOL, otherwise the limit is declared
    unreachable.
    """
    r = np.array(RADII)
    quotients = _julia_quotients(sigma, r, map_points(r * sigma.value))
    extrapolated = 2.0 * quotients[1:] - quotients[:-1]
    last, prev = float(extrapolated[-1]), float(extrapolated[-2])
    if abs(last - prev) > 10.0 * ESTIMATE_TOL * max(1.0, abs(last)):
        raise ExtrapolationDivergence(
            f"extrapolants disagree: {prev!r} vs {last!r} at tolerance {ESTIMATE_TOL!r}"
        )
    return last


def julia_quotient_estimate(
    map_fn: Callable[[complex], complex], sigma: BoundaryPoint
) -> float:
    """Radial limit of the quotient of ``map_fn``, which takes one point.

    The limit is Richardson-extrapolated in h = 1 - r over RADII.  The
    final two extrapolants must agree within 10 * ESTIMATE_TOL, otherwise
    the limit is declared unreachable.
    """

    def map_points(z: np.ndarray) -> np.ndarray:
        return np.array([map_fn(complex(point)) for point in z], dtype=complex)

    return _radial_limit(sigma, map_points)


def estimate_boundary_derivative(
    gen: GeneratorLike, sigma: BoundaryPoint, t: float
) -> float:
    """phi_t'(sigma) at a boundary fixed point, from interior orbits only.

    The orbits of the whole radius ladder are solved as one IVP.  The
    estimate is held to ESTIMATE_TOL like julia_quotient_estimate's.
    """
    return _radial_limit(sigma, lambda z: integrate_flow(gen, z, t))

