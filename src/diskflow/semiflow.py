"""Numerical semiflow of a generator: the initial value problem

    d/dt phi_t(z) = G(phi_t(z)),   phi_0(z) = z,

solved inside the unit disk, optionally together with the variational
equation d/dt (d phi_t/dz) = G'(phi_t) (d phi_t/dz) for the spatial
derivative along the orbit.

The flow functions take one start point, read by herglotz_core._interior,
and one time, read by _real and held finite and nonnegative.

integrate_flow and integrate_flow_with_derivative take the orbit from a
closed form instead of the ODE (Bracci, Contreras & Diaz-Madrigal,
Continuous Semigroups of Holomorphic Self-maps of the Unit Disc, 2020;
Elin & Shoikhet, Linearization Models for Complex Dynamical Systems,
2010).  With G = (tau - z)(1 - conj(tau) z)/q, 1/G is rational and its
residues are known.  Where tau lies inside the disk (tau_regime "origin"
or "interior"), the Koenigs function

    h(z) = (z - tau) (1 - conj(tau) z)^(lambda/conj(lambda))
           prod_j (1 - conj(s_j) z)^(-lambda r_j),

over the atoms s_j of q = p + p0 with masses m_j and
r_j = 2 m_j / |tau - s_j|^2, satisfies h(phi_t(z)) = exp(-lambda t) h(z),
and phi_t'(z) = exp(-lambda t) h'(z) / h'(phi_t(z)) (_koenigs_flow).
Where tau lies on the circle, the Abel function

    T(z) = m_tau v^2 + e v + P Log v + sum_j P_j Log(1 - conj(s_j) z),

with v = 1/(conj(tau) (tau - z)), P_j = 2 m_j/|tau - s_j|^2 over the atoms
not at tau, P = sum_j P_j, p's mass m_tau at tau and e = i (contact value)
- m_tau, satisfies T(phi_t(z)) = T(z) + t, and
phi_t'(z) = G(phi_t(z))/G(z) (_abel, _abel_flow); hyperbolic and parabolic
tau share the formula.  Either way phi_t(z) is the one root of that
equation in the disk, found by one damped Newton solve in plain complex
arithmetic (_newton).  Where Newton fails (no convergence within
_NEWTON_STEPS trial points from any start, a root within BOUNDARY_GUARD of
the circle, a value that is not finite) the orbit falls back to the ODE
below, which also raises where the right-hand side is not finite.  So does
an Abel-form orbit that ends within _ABEL_GUARD = 1e-6 of the circle.
flow_trajectory's samples and the radius ladder of
estimate_boundary_derivative always take the ODE; the ladder checks the
spectral formulas, which the closed forms share.

An ODE orbit is integrated in plain complex arithmetic: its state is one
Python complex value, or two with the derivative, and each right-hand side
is one pass over the spec's atoms for G and G' together.

Boundary spectral data is recovered from the flow without ever evaluating
on the circle: the quotient

    [(1-|z|^2) / |z - sigma|^2] * [|phi(z) - sigma|^2 / (1 - |phi(z)|^2)]

along the radius z = r sigma tends to phi'(sigma) as r -> 1, and a
Richardson step in h = 1 - r removes the first-order error.  The orbits of
the whole radius ladder are the one array solve: a numpy vector whose
right-hand side is one fused expression over every orbit and every atom
(generator._array_generator, eval_generator to the last bit without its
domain check, which the stage test already makes), and whose step size
answers to the root-mean-square of the orbits' scaled error estimates.

The numerics are module constants, not options: DOP853 (the Dormand-Prince
8(5,3) pair with its 7th-order dense output, Hairer, Norsett & Wanner,
Solving ODE I, Sec. II.10) at REL_TOL = 1e-10 and ABS_TOL = 1e-12, with no
cap on the step, stopped when an orbit comes within BOUNDARY_GUARD = 1e-13
of the circle, and the Richardson ladder RADII, r = 1 - 2^-k for
k = 4..14, held to ESTIMATE_TOL = 1e-3: its final two extrapolants must
agree within 10 * ESTIMATE_TOL (relative above 1).

The step loop is diskflow's own, _solve, on the tableau of _dop853.  Its
controller is solve_ivp's DOP853 controller to the letter (the
initial step, safety 0.9, step factors 0.2 to 10, exponent -1/8, the
E3/E5 error blend, a minimum step of 10 ulp of t), so it takes the steps
and makes the right-hand-side calls that solve_ivp would.

Error control chooses every step, so a solve's work is bounded by its
right-hand-side calls, not by its horizon: each solve may make at most
MAX_RHS_CALLS of them, the initial-step probe and the dense-output stages
included, and raises DomainError when the budget runs out.  Near an
attracting point stability still limits an explicit step to a time unit or
two, so a long horizon costs work in proportion to t.

A stage that leaves the disk (or is NaN), the initial-step probe and the
dense-output stages included, is not evaluated: it rejects the step, which
is retried at a fifth of its size.  An accepted step that ends within
BOUNDARY_GUARD of the circle raises BoundaryEscape.  A right-hand side
that is not finite at a point inside the disk raises DomainError: on a NaN
the step control would never end.  The stages are tested once per step
attempt, and each initial-step probe call on its own; _solve says why the
radius ladder still raises right after the call that returned the value.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from itertools import chain
from operator import index, mul
from typing import Callable

from ._lazy import np

from . import _dop853
from .errors import (
    BoundaryEscape,
    DomainError,
    ExtrapolationDivergence,
    StepFailure,
)
from .generator import GeneratorSpec, _array_generator, _interior_value, _point_generator
from .herglotz_core import (
    BoundaryPoint,
    _Record,
    _atom_index,
    _boundary,
    _complex,
    _interior,
    _real,
)

REL_TOL = 1e-10
ABS_TOL = 1e-12
BOUNDARY_GUARD = 1e-13
# most right-hand-side calls one solve makes: under a second for one orbit on 2 vCPUs
MAX_RHS_CALLS = 10**5
# most sample points flow_trajectory allocates
MAX_SAMPLES = 10**6
RADII = tuple(1.0 - 2.0**-k for k in range(4, 15))
ESTIMATE_TOL = 1e-3

# trial points the closed-form flow's Newton solve evaluates from each of its
# two start points before it hands the orbit to the ODE
_NEWTON_STEPS = 40
# an Abel-form orbit that ends this close to the circle takes the ODE: there
# 1 - |w|^2 carries more than 1e-10 relative rounding, and the Schwarz-Pick
# check of bench/worker.py, held to 1e-9, reads an exactly rounded answer as
# a failure where the map is nearly an isometry (ROADMAP item 8)
_ABEL_GUARD = 1e-6

# the step-size controller: the next step is the last one times
# SAFETY * error ** EXPONENT, kept within [MIN_FACTOR, MAX_FACTOR]
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EXPONENT = -1.0 / 8.0  # the error estimate is of order 7


class Trajectory(_Record):
    """Sampled orbit; derivatives are d phi_t/dz along it when requested.

    rhs_calls, steps and rejected_steps count the right-hand-side calls, the
    accepted steps and the rejected step attempts of the solve behind it.
    """

    def __init__(
        self,
        times: tuple[float, ...],
        points: tuple[complex, ...],
        derivatives: tuple[complex, ...] | None = None,
        rhs_calls: int = 0,
        steps: int = 0,
        rejected_steps: int = 0,
    ) -> None:
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "derivatives", derivatives)
        object.__setattr__(self, "rhs_calls", rhs_calls)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "rejected_steps", rejected_steps)
        if len(self.times) != len(self.points):
            raise ValueError("times and points must have equal length")
        if self.derivatives is not None and len(self.derivatives) != len(self.times):
            raise ValueError("derivatives must match times in length")


class _Lone:
    """Stage arithmetic of one orbit in plain complex.

    A state is a list of Python complex values, the orbit point first; the
    stages are kept one list per component, so that a stage's input is one
    sum over a row of A per component.
    """

    A = _dop853.A

    @staticmethod
    def stages(y: list[complex]) -> list[list[complex]]:
        return [[0j] * len(_dop853.C) for _ in y]

    @staticmethod
    def combine(y, K, row, h: float) -> list[complex]:
        """y + h sum_j row[j] K_j."""
        return [yc + sum(map(mul, row, kc)) * h for yc, kc in zip(y, K)]

    @staticmethod
    def store(K, s: int, f: list[complex]) -> None:
        for kc, fc in zip(K, f):
            kc[s] = fc

    @staticmethod
    def restart(K) -> None:
        """The end point's derivative becomes the next step's first stage."""
        for kc in K:
            kc[0] = kc[12]

    @staticmethod
    def radius(y: list[complex]) -> float:
        return abs(y[0])

    @staticmethod
    def finite(K) -> bool:
        return all(map(cmath.isfinite, chain.from_iterable(K)))

    @staticmethod
    def scale(y, y_new) -> list[float]:
        return [ABS_TOL + max(abs(a), abs(b)) * REL_TOL for a, b in zip(y, y_new)]

    @staticmethod
    def rms(x, scale) -> float:
        """Root-mean-square of x / scale."""
        total = 0.0
        for xc, sc in zip(x, scale):
            v = xc / sc
            total += v.real * v.real + v.imag * v.imag
        return math.sqrt(total) / len(x) ** 0.5

    @staticmethod
    def difference(a, b) -> list[complex]:
        return [p - q for p, q in zip(a, b)]

    @staticmethod
    def error_norms(y, y_new, K) -> tuple[float, float]:
        """Squared norms of the scaled 5th- and 3rd-order error estimates."""
        err5 = err3 = 0.0
        for sc, kc in zip(_Lone.scale(y, y_new), K):
            e5 = sum(map(mul, _dop853.E5, kc)) / sc
            e3 = sum(map(mul, _dop853.E3, kc)) / sc
            err5 += e5.real * e5.real + e5.imag * e5.imag
            err3 += e3.real * e3.real + e3.imag * e3.imag
        return err5, err3

    @staticmethod
    def interpolant(y, y_new, K, h: float) -> list[list[complex]]:
        """The coefficients of DOP853's 7th-order interpolant over the step."""
        F = []
        for yc, nc, kc in zip(y, y_new, K):
            dy = nc - yc
            F.append(
                [dy, h * kc[0] - dy, 2.0 * dy - h * (kc[12] + kc[0])]
                + [h * sum(map(mul, row, kc)) for row in _dop853.D]
            )
        return F

    @staticmethod
    def interpolate(F, y, xs: list[float]) -> list[list[complex]]:
        """The interpolant at each fraction x in xs of the step from y: the
        state yc + F_0 x + F_1 x (1-x) + F_2 x^2 (1-x) + ... per component,
        summed by Horner's rule from the highest coefficient and from 0j."""
        columns = []
        for yc, (f0, f1, f2, f3, f4, f5, f6) in zip(y, F):
            columns.append([
                yc + ((((((((0j + f6) * x + f5) * (1.0 - x) + f4) * x + f3) * (1.0 - x) + f2) * x
                        + f1) * (1.0 - x) + f0) * x)
                for x in xs
            ])
        return list(map(list, zip(*columns)))


class _Batch:
    """Stage arithmetic of many orbits as one numpy vector, with one matrix
    product per stage, as solve_ivp does it.

    A stage of the radius ladder's eleven orbits is a few microseconds of
    numpy, so each numpy call and per-call wrapper is a good part of it.
    The right-hand side (_batch) is _array_generator's one fused
    expression; the tableau's weights are complex arrays, cast once; the
    norms and reductions call numpy's kernels without their Python
    wrappers; the finiteness test reads the whole stage array, zeroed at
    the start, once per step attempt.  Each computes what the call it
    replaces does, so every value is the same to the last bit.
    """

    def __init__(self) -> None:
        self.A, self.E3, self.E5 = _dop853.arrays()

    @staticmethod
    def stages(y: np.ndarray) -> np.ndarray:
        return np.zeros((len(_dop853.C), len(y)), dtype=complex)

    @staticmethod
    def combine(y, K, row, h: float) -> np.ndarray:
        return y + np.dot(K[: len(row)].T, row) * h

    @staticmethod
    def store(K, s: int, f: np.ndarray) -> None:
        K[s] = f

    @staticmethod
    def restart(K) -> None:
        K[0] = K[12]

    @staticmethod
    def radius(y: np.ndarray) -> float:
        # ndarray.max and .all are these reductions, NaN propagating alike
        return np.maximum.reduce(np.abs(y))

    @staticmethod
    def finite(K: np.ndarray) -> bool:
        return np.logical_and.reduce(np.isfinite(K), axis=None)

    @staticmethod
    def scale(y, y_new) -> np.ndarray:
        return ABS_TOL + np.maximum(np.abs(y), np.abs(y_new)) * REL_TOL

    @staticmethod
    def norm(x: np.ndarray) -> float:
        """The Euclidean norm of a complex vector as np.linalg.norm takes it."""
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def rms(self, x, scale) -> float:
        return self.norm(x / scale) / x.size**0.5

    @staticmethod
    def difference(a, b) -> np.ndarray:
        return a - b

    def error_norms(self, y, y_new, K) -> tuple[float, float]:
        scale = self.scale(y, y_new)
        # squared from the norm, as solve_ivp does
        err5 = self.norm(np.dot(K[:13].T, self.E5) / scale) ** 2
        err3 = self.norm(np.dot(K[:13].T, self.E3) / scale) ** 2
        return err5, err3


def _solve(kind, rhs: Callable, y, t_final: float, grid=()):
    """Integrate y' = rhs(y) from y at t = 0 to t_final with DOP853.

    ``kind`` (_Lone or _Batch) does the arithmetic on states; ``y`` must
    lie inside the disk.  Returns the state at t_final, the states at the
    times of the sorted ``grid`` (a lone orbit's only), taken from the
    dense output, and the counts (rhs_calls, steps, rejected_steps).

    The right-hand side is tested for finiteness once per step attempt,
    over all of K (its older stages passed before), before the attempt is
    accepted or rejected.  For _Batch that raises after the same calls as a
    test of each stage: every row of A ends in a nonzero weight, so a stage
    that is not finite makes the next input not finite, which the stage
    test, reading every orbit, refuses without a call; and E3 and E5 weigh
    the last stage by 0, which turns a NaN or inf there into a NaN error.
    _Lone's stage test reads the orbit point only, so a derivative that is
    not finite lets the rest of the attempt run first.
    """
    K = kind.stages(y)
    A, C = kind.A, _dop853.C
    combine, radius, finite, store = kind.combine, kind.radius, kind.finite, kind.store
    calls = steps = rejected = 0

    def evaluate(s: int, y, at: float):
        """rhs(y) into K[s]; None, and no call, when y is off the disk."""
        nonlocal calls
        if not radius(y) < 1.0:
            return None
        if calls == MAX_RHS_CALLS:
            raise DomainError(
                f"the solve to t = {t_final!r} ran out of its budget of "
                f"{MAX_RHS_CALLS} right-hand-side calls at t = {float(at)!r}"
            )
        calls += 1
        f = rhs(y)
        store(K, s, f)
        return f

    def require_finite() -> None:
        """Raise DomainError unless every stage in K is finite."""
        if not finite(K):
            raise DomainError("the right-hand side of the flow is not finite along the orbit")

    def run_stages(y, t: float, h: float, stages: range):
        """The stages of the step of size h from (t, y): the input of the
        last one, or None at the first whose input is off the disk."""
        for s in stages:
            y_s = combine(y, K, A[s], h)
            if evaluate(s, y_s, t + C[s] * h) is None:
                return None
        return y_s

    # the first step as Hairer, Norsett & Wanner (Sec. II.4) and solve_ivp's
    # select_initial_step choose it, from an Euler probe
    f0 = evaluate(0, y, 0.0)
    require_finite()
    scale = kind.scale(y, y)
    d0, d1 = kind.rms(y, scale), kind.rms(f0, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_final)
    f1 = evaluate(1, combine(y, K, (1.0,), h0), h0)
    require_finite()
    # a probe off the disk leaves the second derivative unestimated
    d2 = 0.0 if f1 is None else kind.rms(kind.difference(f1, f0), scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = max(1e-6, h0 * 1e-3)
    else:
        h_abs = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h_abs, t_final)

    guard = 1.0 - BOUNDARY_GUARD
    t, sampled, samples = 0.0, 0, []
    while t < t_final:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        retried = False
        while True:
            if h_abs < min_step:
                raise StepFailure(
                    f"integrator failed at t = {t!r}: the step fell below 10 ulp of t"
                )
            t_new = min(t + h_abs, t_final)
            h = t_new - t
            # stage 12's input is the step's end point; a stage off the
            # disk counts as an infinite error
            y_new = run_stages(y, t, h, range(1, 13))
            error = math.inf
            if y_new is not None:
                err5, err3 = kind.error_norms(y, y_new, K)
                error = 0.0
                if err5 or err3:
                    error = h * err5 / math.sqrt((err5 + 0.01 * err3) * len(y))
            if error < 1.0:
                if not radius(y_new) < guard:
                    raise BoundaryEscape("orbit reached the boundary guard radius")
                # the step's samples need the interpolant's three stages
                due = bisect_right(grid, t_new)
                if due > sampled and run_stages(y, t, h, range(13, 16)) is None:
                    error = math.inf
            require_finite()
            if error < 1.0:
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error**EXPONENT)
            retried = True
            rejected += 1
        factor = MAX_FACTOR if error == 0.0 else min(MAX_FACTOR, SAFETY * error**EXPONENT)
        h_abs = h * (min(1.0, factor) if retried else factor)
        if due > sampled:
            F = kind.interpolant(y, y_new, K, h)
            samples += kind.interpolate(F, y, [(s - t) / h for s in grid[sampled:due]])
            sampled = due
        steps += 1
        t, y = t_new, y_new
        kind.restart(K)
    return y, samples, (calls, steps, rejected)


def _check_horizon(t) -> float:
    """t read by _real, checked to be finite and nonnegative."""
    t = _real(t, "semigroup time")
    if not 0.0 <= t < math.inf:
        raise DomainError(f"semigroup time must be a finite, nonnegative real number, got {t!r}")
    return t


def _lone(gen: GeneratorSpec, z: complex, t: float, derivative: bool, grid=()):
    """_solve for the orbit of z, with its derivative when ``derivative``."""
    point = _point_generator(gen)
    if derivative:

        def rhs(y: list[complex]) -> list[complex]:
            g, dg = point(y[0])
            return [g, dg * y[1]]

        return _solve(_Lone, rhs, [z, 1.0 + 0j], t, grid)
    return _solve(_Lone, lambda y: [point(y[0])[0]], [z], t, grid)


def _batch(gen: GeneratorSpec, z: np.ndarray, t: float):
    """_solve for the orbits of the points z as one system."""
    return _solve(_Batch(), _array_generator(gen), z, t)


def _koenigs(gen: GeneratorSpec) -> tuple[complex, list[tuple[complex, complex]]]:
    """lambda and the terms (a, c) of the regular part R(z) = sum c Log(1 - a z)
    of log h(z) = Log(z - tau) + R(z), for tau inside the disk.

    The residues of 1/G are -1/lambda at tau, -1/conj(lambda) at
    1/conj(tau) and r_j = 2 m_j / |tau - s_j|^2 at each atom s_j of p + p0,
    so the terms are (conj tau, lambda / conj lambda) and
    (conj s_j, -lambda r_j).
    """
    tau = gen.config.tau
    points, masses = gen.denominator_atoms
    lam = _interior_value(tau, gen.p.gamma, points, masses)
    terms = [(tau.conjugate(), lam / lam.conjugate())]
    terms += [(s.conjugate(), -lam * r) for s, r in _residues(tau, points, masses)]
    return lam, terms


def _residues(tau: complex, points, masses) -> list[tuple[complex, float]]:
    """(s_j, r_j) over atoms s_j of q = p + p0 with masses m_j, away from tau:
    r_j = 2 m_j/|tau - s_j|^2 is the residue of 1/G at s_j, for tau inside
    the disk or on the circle alike."""
    return [(s, 2.0 * m / abs(tau - s) ** 2) for s, m in zip(points, masses)]


def _abel(gen: GeneratorSpec) -> tuple[complex, float, list[tuple[complex, complex, float]]]:
    """(e, m_tau, terms) of the Abel function T of a tau on the circle.

    With |tau| = 1, (tau - z)(1 - conj(tau) z) = conj(tau) (tau - z)^2, so
    1/G = tau q(z)/(tau - z)^2 is rational, and its partial fractions give
    T (T' = 1/G, so T(phi_t(z)) = T(z) + t) in the variable
    v = 1/(conj(tau) (tau - w)):

        T(w) = m_tau v^2 + e v + P Log v + sum_j P_j Log(1 - conj(s_j) w),

    which is a/d + b/d^2 - P Log(conj(tau) d) + ... with d = tau - w,
    a = tau e and b = m_tau tau^2.  m_tau is p's mass at tau, at the atom
    _atom_index finds there, as dw_spectral_value does; p0 has none there.
    The sum runs over the other atoms s_j of q = p + p0, with
    P_j = 2 m_j/|tau - s_j|^2 > 0 (_residues) and P = sum_j P_j; p0's atom
    alpha_k at sigma_k has P_k = 1/|lambda_k|, by the definition of alpha_k.
    e = q_reg(tau) - m_tau, where q_reg(tau) = i gamma +
    sum_j m_j (s_j + tau)/(s_j - tau) is i times the contact value: each
    kernel there is 2 i Im(conj(s_j) tau)/|tau - s_j|^2, so
    q_reg(tau) = i (gamma + sum_j P_j Im(conj(s_j) tau)).  Each Log has an
    argument of positive real part on the disk, so T is single-valued, with
    no regime split: a hyperbolic tau has m_tau = 0, e = 0 up to rounding
    and P = 1/dw_spectral_value; a parabolic one has m_tau = beta/2 > 0 or
    e != 0.

    A term is (1 - conj(s_j) tau, conj(s_j), P_j), so that
    1 - conj(s_j) w = 1 - conj(s_j) tau + conj(s_j) d keeps its digits as w
    nears tau.
    """
    c = gen.config
    tau = c.tau
    atoms = gen.p.atoms
    i = _atom_index(atoms, c.tau_point.theta)
    m_tau = 0.0 if i is None else atoms[i][1]
    points, masses = [], []
    for j, (point, m) in enumerate(atoms):
        if j != i:
            points.append(point.value)
            masses.append(m)
    # p0's residues are read as 1/|lambda_k|: 2 alpha_k/|tau - sigma_k|^2
    # through denominator_atoms rounds otherwise and moves orbits in the last bits
    residues = _residues(tau, points, masses)
    residues += [(sigma.value, 1.0 / abs(lam)) for sigma, lam in zip(c.sigmas, c.lambdas)]
    terms = [(1.0 - s.conjugate() * tau, s.conjugate(), r) for s, r in residues]
    # Im(conj(s_j) tau) = -Im(1 - conj(s_j) tau)
    contact = gen.p.gamma - sum(r * u.imag for u, _, r in terms)
    return 1j * contact - m_tau, m_tau, terms


def _closed_form(gen: GeneratorSpec, z: complex, t: float, derivative: bool):
    """The end state [w] or [w, dw] of the orbit of z from the Koenigs
    function (tau inside the disk, _koenigs_flow) or the Abel function (tau
    on the circle, _abel_flow), or None where the ODE must take over.

    None when _newton converges from none of the form's starts, when the
    root lies within BOUNDARY_GUARD (the Koenigs form) or _ABEL_GUARD (the
    Abel form) of the circle, or when a coefficient, a log term, a residual
    or the derivative is not finite.
    """
    if gen.config.regime == "boundary":
        flow, guard = _abel_flow, _ABEL_GUARD
    else:
        flow, guard = _koenigs_flow, BOUNDARY_GUARD
    try:
        end = flow(gen, z, t, derivative)
    except (ArithmeticError, ValueError):
        # a log of zero, an overflow, or a non-finite wrap
        return None
    if end is None or not abs(end[0]) < 1.0 - guard:
        return None
    return end if cmath.isfinite(end[-1]) else None


def _koenigs_flow(gen: GeneratorSpec, z: complex, t: float, derivative: bool):
    """_closed_form for tau inside the disk, or None where Newton fails.

    w is the one root in the disk of F(w) = log h(w) - log h(z) + lambda t,
    taken modulo 2 pi i.  Newton's step on F, -F (w - tau) / (1 + (w - tau)
    R'(w)), is G(w) F(w) / lambda; it starts from the better residual of z
    and of the linear model at tau, tau + exp(L - R(tau)) with
    L = log h(z) - lambda t.  dw = exp(R(z) - R(w) - lambda t)
    (1 + (z - tau) R'(z)) / (1 + (w - tau) R'(w)) is
    exp(-lambda t) h'(z) / h'(w) written through the regular part, so a w
    near tau divides no two small values.
    """
    tau = gen.config.tau
    lam, terms = _koenigs(gen)
    if z == tau:
        return [tau, cmath.exp(-lam * t)] if derivative else [tau]

    def regular(w: complex) -> tuple[complex, complex]:
        """(R(w), R'(w))."""
        r = dr = 0j
        for a, c in terms:
            u = 1.0 - a * w
            r += c * cmath.log(u)
            dr -= c * a / u
        return r, dr

    def with_step(w: complex, f: complex, dr: complex) -> tuple[complex, complex]:
        """(f, Newton's step at w) for the residual f = F(w) and dr = R'(w)."""
        d = w - tau
        return f, -f * d / (1.0 + d * dr)

    def residual(w: complex) -> tuple[complex, complex]:
        """(F(w), Newton's step at w)."""
        r, dr = regular(w)
        return with_step(w, _wrapped(cmath.log(w - tau) + r - target), dr)

    r_z, dr_z = regular(z)
    target = cmath.log(z - tau) + r_z - lam * t
    guess = tau + cmath.exp(target - regular(tau)[0])
    if guess == tau:
        # |w - tau| is below the resolution of tau
        w = tau
    else:
        starts = [(guess, *residual(guess)), (z, *with_step(z, _wrapped(lam * t), dr_z))]
        w = _newton(residual, lambda w: abs(w) < 1.0, tau, starts)
        if w is None:
            return None
    if not derivative:
        return [w]
    r_w, dr_w = regular(w)
    dw = cmath.exp(r_z - r_w - lam * t) * (1.0 + (z - tau) * dr_z) / (1.0 + (w - tau) * dr_w)
    return [w, dw]


def _wrapped(f: complex) -> complex:
    """f with its imaginary part reduced modulo 2 pi into [-pi, pi]."""
    return complex(f.real, math.remainder(f.imag, 2.0 * math.pi))


def _abel_flow(gen: GeneratorSpec, z: complex, t: float, derivative: bool):
    """_closed_form for tau on the circle, or None where Newton fails.

    w is the root of F = T(w) - T(z) - t for the Abel function T of _abel,
    solved in its variable v = 1/(conj(tau) (tau - w)).  v keeps the
    relative accuracy of tau - w, and it maps the disk onto the half-plane
    Re v > 1/2, so a step along an orbit that runs close to the circle
    stays inside, where in tau - w it would leave the disk.  Newton's step
    in v is -F v^2 / Y(v), with Y(v) = v^2 dT/dv = v^2 q(w).  The starts
    are z, where F = -t, and the root of T's leading term at tau alone:
    m_tau v^2 + e v = K where p has an atom at tau, P Log v = K where it
    has none, with K = T(z) + t - sum_j P_j Log(1 - conj(s_j) tau).  The
    derivative needs no variational equation:
    phi_t'(z) = G(w)/G(z) = Y(v_z)/Y(v_w).
    """
    tau = gen.config.tau
    tau_bar = tau.conjugate()
    e, m_tau, terms = _abel(gen)
    big_p = sum(p for _, _, p in terms)
    weighted = [(c, s_bar, p, p * s_bar) for c, s_bar, p in terms]

    def abel(v: complex) -> tuple[complex, complex]:
        """(T(w), Y(v))."""
        d = 1.0 / (tau_bar * v)
        r = y = 0j
        for c, s_bar, p, p_s_bar in weighted:
            u = c + s_bar * d
            r += p * cmath.log(u)
            y += p_s_bar / u
        return (
            v * (e + m_tau * v) + big_p * cmath.log(v) + r,
            v * (v * (e + 2.0 * m_tau * v) + big_p) - tau * y,
        )

    def residual(v: complex) -> tuple[complex, complex]:
        """(F, Newton's step) at v."""
        value, y = abel(v)
        f = value - target
        return f, -f * v * v / y

    def inside(v: complex) -> bool:
        return v.real > 0.5

    v_z = 1.0 / (tau_bar * (tau - z))
    t_z, y_z = abel(v_z)
    target = t_z + t
    starts = [(v_z, complex(-t), t * v_z * v_z / y_z)]
    k = target - sum(p * cmath.log(c) for c, _, p in terms)
    if m_tau:
        guesses = [(cmath.sqrt(e * e + 4.0 * m_tau * k) - e) / (2.0 * m_tau)]
    else:
        # cmath.exp overflows past 709
        guesses = [cmath.exp(k / big_p)] if k.real < 700.0 * big_p else []
    starts += [(v, *residual(v)) for v in guesses if inside(v)]
    v_w = _newton(residual, inside, 0j, starts)
    if v_w is None:
        return None
    w = tau - 1.0 / (tau_bar * v_w)
    return [w, y_z / abel(v_w)[1]] if derivative else [w]


def _newton(residual: Callable, inside: Callable, center: complex, starts):
    """Damped Newton's root of a closed form's residual F, or None.

    ``starts`` holds (x, F(x), Newton's step at x) triples, and residual(x)
    gives the last two at x; inside(x) says whether x stands for a point of
    the open disk.  The starts are tried in order of |F|, each for at most
    _NEWTON_STEPS trial points.  A step whose end is off the disk (a NaN
    is), at ``center`` or does not lower |F| is halved.  The solve is
    accurate relative to the distance from ``center``: tau for the Koenigs
    form, whose log h has its pole there, 0 for the Abel form's v.  A
    Newton step of at most 1e-14 |x - center| (plus 1e-15 |center|, where x
    resolves no less) ends the solve, and so does a step halved to that
    size: near a root, only rounding keeps |F| from falling.
    """
    for x, f, step in sorted(starts, key=lambda start: abs(start[1])):
        for _ in range(_NEWTON_STEPS):
            trial = x + step
            if abs(step) <= 1e-14 * abs(x - center) + 1e-15 * abs(center):
                if inside(trial):
                    return trial
                break
            if inside(trial) and trial != center:
                f_trial, step_trial = residual(trial)
                if abs(f_trial) < abs(f):
                    x, f, step = trial, f_trial, step_trial
                    continue
            step *= 0.5
    return None


def _orbit(gen: GeneratorSpec, z: complex, t: float, derivative: bool) -> list[complex]:
    """The end state of the orbit of z: the closed form of _closed_form, or
    the ODE of _lone where the closed form fails."""
    end = _closed_form(gen, z, t, derivative)
    return end if end is not None else _lone(gen, z, t, derivative)[0]


def integrate_flow(gen: GeneratorSpec, z0, t: float) -> complex:
    """phi_t(z0) for one start point z0."""
    t = _check_horizon(t)
    z = _interior(z0, "start point")
    return z if t == 0.0 else _orbit(gen, z, t, False)[0]


def integrate_flow_with_derivative(gen: GeneratorSpec, z0, t: float) -> tuple[complex, complex]:
    """(phi_t(z0), d phi_t/dz at z0)."""
    t = _check_horizon(t)
    z = _interior(z0, "start point")
    if t == 0.0:
        return z, 1.0 + 0j
    w, dw = _orbit(gen, z, t, True)
    return w, dw


def flow_trajectory(gen: GeneratorSpec, z0: complex, t: float, samples: int = 200) -> Trajectory:
    """Orbit and derivative sampled on a uniform time grid of ``samples`` points.

    ``samples`` is read through operator.index, so a numpy integer counts
    and a float, string or None raises DomainError; a bool reads as 0 or 1,
    below the least count of 2.
    """
    z = _interior(z0, "start point")
    t = _check_horizon(t)
    if t == 0.0:
        raise DomainError("a trajectory horizon must be positive, got 0")
    try:
        count = index(samples)
    except TypeError:
        count = 0
    if not 2 <= count <= MAX_SAMPLES:
        # no value printed: an int of more than 4300 digits has no repr
        raise DomainError(f"samples must be an integer in [2, {MAX_SAMPLES}]")
    # np.linspace(0.0, t, samples) in plain floats, its zero-step case included
    ticks = range(count)
    step = t / ticks[-1]
    grid = [i * step if step else i / ticks[-1] * t for i in ticks[:-1]] + [t]
    _, states, stats = _lone(gen, z, t, True, grid)
    return Trajectory(
        tuple(grid),
        tuple(w for w, _ in states),
        tuple(dw for _, dw in states),
        *stats,
    )


def _julia_quotients(sigma: BoundaryPoint, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The quotient at the radial points r sigma, where the map takes values w.

    A value that is not finite raises DomainError, one with |w| >= 1
    BoundaryEscape: a NaN fails every comparison, so it is caught by the
    test that w lies inside, not by one that it lies outside.
    """
    if not np.abs(w).max() < 1.0:
        if not np.isfinite(w).all():
            raise DomainError("map value is not finite")
        raise BoundaryEscape("map value left the open disk")
    sv = sigma.value
    return ((1.0 - r * r) / np.abs(r * sv - sv) ** 2) * (
        np.abs(w - sv) ** 2 / (1.0 - np.abs(w) ** 2)
    )


def _radial_limit(
    sigma: BoundaryPoint, map_points: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Richardson-extrapolated radial limit of the quotient over RADII.

    sigma is read by _boundary, and ``map_points`` maps the array of the
    ladder's points r sigma; h = 1 - r halves at each step of the ladder.
    The final two extrapolants must agree within 10 * ESTIMATE_TOL,
    otherwise the limit is declared unreachable.
    """
    sigma, r = _boundary(sigma, "boundary point sigma"), np.array(RADII)
    quotients = _julia_quotients(sigma, r, map_points(r * sigma.value))
    extrapolated = 2.0 * quotients[1:] - quotients[:-1]
    last, prev = float(extrapolated[-1]), float(extrapolated[-2])
    if abs(last - prev) > 10.0 * ESTIMATE_TOL * max(1.0, abs(last)):
        raise ExtrapolationDivergence(
            f"extrapolants disagree: {prev!r} vs {last!r} at tolerance {ESTIMATE_TOL!r}"
        )
    return last


def julia_quotient_estimate(map_fn: Callable[[complex], complex], sigma: BoundaryPoint) -> float:
    """Radial limit of the quotient of ``map_fn``, which takes one point.

    Each map value is read by _complex and must be finite (DomainError)
    and inside the disk (BoundaryEscape); the limit is _radial_limit's.
    """

    def map_points(z: np.ndarray) -> np.ndarray:
        return np.array([_complex(map_fn(complex(point)), "map value") for point in z])

    return _radial_limit(sigma, map_points)


def estimate_boundary_derivative(
    gen: GeneratorSpec, sigma: BoundaryPoint, t: float
) -> float:
    """phi_t'(sigma) at a boundary fixed point, from interior orbits only.

    The orbits of the whole radius ladder are solved as one IVP.  The
    estimate is held to ESTIMATE_TOL like julia_quotient_estimate's.
    """
    t = _check_horizon(t)
    return _radial_limit(sigma, lambda z: _batch(gen, z, t)[0] if t else z)

