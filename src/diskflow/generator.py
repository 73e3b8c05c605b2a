"""Infinitesimal generators with a prescribed Denjoy-Wolff point and
boundary repelling fixed points.

A configuration fixes the attracting point tau (|tau| <= 1), the repelling
boundary points sigma_1..sigma_n and target spectral values lambda_k < 0.
Every generator of the class arises as

    G(z) = (tau - z)(1 - conj(tau) z) / (p(z) + p0(z)),

where p is any Herglotz function and p0 is the configuration's base
function, the atomic Herglotz function with mass alpha_k at sigma_k,
alpha_k = |tau - sigma_k|^2 / (2 |lambda_k|).  The actual spectral value at
sigma_k is lambda_k exactly when p carries no atom there, and moves toward
zero as mass accumulates at sigma_k.

GeneratorSpec, a configuration with its p, is the one generator kind:
every evaluation, spectral value and conversion takes one.  The zero field
G = 0 has no denominator and so no spec.

The regime of a configuration is where tau sits: at the origin, inside the
disk, or on the circle.  tau_regime alone decides it, with the single
tolerance BOUNDARY_TOL = 1e-12 on |tau| and on |tau| - 1.

The eval_* functions take a scalar point or a 1-D array of points; a point
outside the open disk raises DomainError.  G' has one formula, the fused
(u' - G q')/q of _point_generator, which an orbit's variational equation
reads one point at a time.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import Callable

from ._lazy import np

from .errors import DegenerateConfig, DomainError
from .herglotz_core import (
    AtomicHerglotz,
    BoundaryPoint,
    ANGLE_TOL,
    RationalHerglotz,
    _Record,
    _arc_zeros,
    _one_real,
    _require_mass_sum,
    angle_gap,
    circle_angle,
    extract_atom,
    kernel_sum,
    p_star,
    point_kernel_sum,
    require_interior,
)

BOUNDARY_TOL = 1e-12

# |contact value| below this reads as zero when classifying a boundary
# Denjoy-Wolff point as hyperbolic; designed inputs cancel to ~1e-16 while
# generic random ones sit far above.
CONTACT_TOL = 1e-9


def tau_regime(tau: complex) -> str:
    """Where a Denjoy-Wolff point sits: "origin", "interior" or "boundary".

    |tau| <= BOUNDARY_TOL is the origin, ||tau| - 1| <= BOUNDARY_TOL the
    circle, and every other point of the disk is interior.  A point beyond
    the circle, or NaN, has no regime and raises DomainError.
    """
    radius = abs(tau)
    if not radius <= 1.0 + BOUNDARY_TOL:
        raise DomainError(f"|tau| must not exceed 1, got {radius}")
    if radius <= BOUNDARY_TOL:
        return "origin"
    if abs(radius - 1.0) <= BOUNDARY_TOL:
        return "boundary"
    return "interior"


def config_sums(
    tau: complex, points: list[complex], lambdas
) -> tuple[tuple[float, ...], float, float, float]:
    """(alphas, A, B, S) of a configuration given as plain numbers.

    ``points`` are the repelling points sigma_k as complex numbers.  Returns
    alpha_k = |tau - sigma_k|^2 / (2 |lambda_k|), A = sum alpha_k,
    B = sum Im(conj(sigma_k) tau) / |lambda_k| and S = sum 1/|lambda_k|,
    each summed in the order of the sigma_k.
    """
    alphas = tuple([abs(tau - s) ** 2 / (2.0 * abs(v)) for s, v in zip(points, lambdas)])
    cap_b = sum([(s.conjugate() * tau).imag / abs(v) for s, v in zip(points, lambdas)])
    return alphas, sum(alphas), cap_b, sum([1.0 / abs(v) for v in lambdas])


class FixedPointConfig(_Record):
    """(tau, sigma_1..sigma_n, lambda_1..lambda_n) with derived quantities."""

    def __init__(
        self, tau: complex, sigmas: tuple[BoundaryPoint, ...], lambdas: tuple[float, ...]
    ) -> None:
        object.__setattr__(self, "tau", complex(tau))
        object.__setattr__(self, "sigmas", tuple(sigmas))
        object.__setattr__(self, "lambdas", tuple(float(v) for v in lambdas))
        if not cmath.isfinite(self.tau) or not all(map(math.isfinite, self.lambdas)):
            raise DomainError("tau and the spectral values must be finite")
        if len(self.sigmas) == 0:
            raise DegenerateConfig("at least one repelling boundary point is required")
        if len(self.sigmas) != len(self.lambdas):
            raise DegenerateConfig("sigmas and lambdas must have equal length")
        if any(not v < 0.0 for v in self.lambdas):
            raise DegenerateConfig("repelling spectral values must be negative")
        regime = self.regime  # DomainError beyond the circle
        for i in range(len(self.sigmas)):
            for j in range(i + 1, len(self.sigmas)):
                if self.sigmas[i].same_point(self.sigmas[j]):
                    raise DegenerateConfig("repelling boundary points must be distinct")
        if regime == "boundary":
            tau_bp = BoundaryPoint.from_complex(self.tau)
            if any(tau_bp.same_point(s) for s in self.sigmas):
                raise DegenerateConfig("tau must not coincide with a repelling point")

    @property
    def n(self) -> int:
        return len(self.sigmas)

    @cached_property
    def regime(self) -> str:
        return tau_regime(self.tau)

    @property
    def is_origin(self) -> bool:
        return self.regime == "origin"

    @property
    def is_boundary(self) -> bool:
        return self.regime == "boundary"

    def has_skeleton(self, tau: complex, sigmas: tuple[BoundaryPoint, ...]) -> bool:
        """True when tau (within BOUNDARY_TOL) and the repelling points, in
        order, are this configuration's."""
        return (
            abs(self.tau - tau) <= BOUNDARY_TOL
            and len(sigmas) == self.n
            and all(a.same_point(b) for a, b in zip(self.sigmas, sigmas))
        )

    @cached_property
    def _sums(self) -> tuple[tuple[float, ...], float, float, float]:
        return config_sums(self.tau, [s.value for s in self.sigmas], self.lambdas)

    @cached_property
    def alphas(self) -> tuple[float, ...]:
        return self._sums[0]

    @cached_property
    def capA(self) -> float:
        """Sum of the alpha_k; also Re of the base function at the origin."""
        return self._sums[1]

    @cached_property
    def capB(self) -> float:
        return self._sums[2]

    @cached_property
    def inv_lambda_sum(self) -> float:
        return self._sums[3]

    @cached_property
    def base_herglotz(self) -> AtomicHerglotz:
        """p0: mass alpha_k at sigma_k, no imaginary constant."""
        return AtomicHerglotz(tuple(zip(self.sigmas, self.alphas)), 0.0)


# the default p: one object serves every spec, as it is immutable
_NO_ATOMS = AtomicHerglotz()


class GeneratorSpec(_Record):
    """A generator of the class over ``config`` selected by a Herglotz p."""

    def __init__(self, config: FixedPointConfig, p: AtomicHerglotz = _NO_ATOMS) -> None:
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "p", p)

    @cached_property
    def denominator_atoms(self) -> tuple[list[complex], list[float]]:
        """Atom points and masses of p + p0, as plain lists, for kernel_sum.

        The atoms of p and p0 stand side by side, unmerged, so the
        denominator costs one kernel call and no atom surgery.
        """
        atoms = self.p.atoms + self.config.base_herglotz.atoms
        return [point.value for point, _ in atoms], [mass for _, mass in atoms]


def _mobius_factor(tau: complex, z):
    return (tau - z) * (1.0 - tau.conjugate() * z)


def denominator_herglotz(spec: GeneratorSpec) -> RationalHerglotz:
    """p + p0 as a single rational Herglotz function (atoms merged).

    p's atoms and the pairs (sigma_k, alpha_k) are merged in one
    normalization, not through base_herglotz, which would normalize p0's
    atoms first: the sigma_k are distinct, so that gives the same atoms."""
    c = spec.config
    return RationalHerglotz(spec.p.atoms + tuple(zip(c.sigmas, c.alphas)), spec.p.gamma)


def eval_denominator(spec: GeneratorSpec, z):
    """p + p0 at interior points."""
    require_interior(z)
    return 1j * spec.p.gamma + kernel_sum(*spec.denominator_atoms, z, 0)


def eval_generator(gen: GeneratorSpec, z):
    return _mobius_factor(gen.config.tau, z) / eval_denominator(gen, z)


def _point_generator(spec: GeneratorSpec) -> Callable[[complex], tuple[complex, complex]]:
    """z -> (G(z), G'(z)) at one interior point, in plain complex arithmetic.

    The atoms of p + p0 are read once, and each call makes one pass over
    them for the denominator q and its derivative.  G equals
    eval_generator(spec, z) to the last bit.  There is no domain check: the
    caller keeps z inside the disk.
    """
    tau = spec.config.tau
    tau_bar = tau.conjugate()
    du_at_0 = -(1.0 + abs(tau) ** 2)
    constant = 1j * spec.p.gamma
    atoms = list(zip(*spec.denominator_atoms))

    def values(z: complex) -> tuple[complex, complex]:
        q = half_dq = 0j
        for s, m in atoms:
            u = s - z
            q += m * ((s + z) / u)
            half_dq += m * s / (u * u)
        q += constant
        g = (tau - z) * (1.0 - tau_bar * z) / q
        # G' = (u' q - u q') / q^2 = (u' - G q') / q
        return g, (du_at_0 + 2.0 * tau_bar * z - 2.0 * g * half_dq) / q

    return values


def _array_generator(spec: GeneratorSpec) -> Callable[[np.ndarray], np.ndarray]:
    """z -> G(z) at a 1-D array of interior points: _point_generator's numpy
    twin, for the radius ladder's array solve.

    tau, conj(tau), i gamma and the atoms of p + p0, as arrays, are built
    once; each call is eval_generator's operations in its order, so it equals
    eval_generator(spec, z) to the last bit.  There is no domain check: the
    caller keeps z inside the disk.
    """
    tau = spec.config.tau
    tau_bar = tau.conjugate()
    constant = 1j * spec.p.gamma
    s, m = map(np.array, spec.denominator_atoms)

    def values(z: np.ndarray) -> np.ndarray:
        zc = z[:, None]
        return (tau - z) * (1.0 - tau_bar * z) / (constant + ((s + zc) / (s - zc)) @ m)

    return values


def _spectral_value(
    regime: str, tau: complex, gamma: float, atoms, q_points, q_masses, s: float
) -> tuple[complex | float, float]:
    """(dw_spectral_value, beta) from plain numbers: p's atoms as (angle, mass)
    pairs, the atoms of p + p0 as denominator_atoms lays them out (p's
    first) and s = sum_k 1/|lambda_k|.  beta is 0 for interior tau."""
    if regime != "boundary":
        q_tau = 1j * gamma + point_kernel_sum(q_points, q_masses, tau, 0)
        return (1.0 - abs(tau) ** 2) / q_tau, 0.0
    theta = circle_angle(cmath.phase(tau))
    mass = next((m for t, m in atoms if angle_gap(t, theta) <= ANGLE_TOL), 0.0)
    if mass > 0.0:
        return 0.0, 2.0 * mass
    point = complex(math.cos(theta), math.sin(theta))
    if abs(_contact(gamma, q_points, q_masses, point)) > CONTACT_TOL:
        return 0.0, 0.0
    n = len(atoms)
    return _hyperbolic_value(point, q_points[:n], q_masses[:n], s), 0.0


# _spectral_value's boundary arithmetic, in operators only, so that
# value_regions runs it on numpy columns too


def _contact(gamma, q_points, q_masses, point):
    """The denominator's contact value at the boundary point tau, over i."""
    return gamma + point_kernel_sum(q_points, q_masses, point, 0).imag


def _hyperbolic_value(point, p_points, p_masses, s):
    """1/(p#(tau) + s), p#(tau) = Re(-tau p'(tau)) = 2 sum_j m_j/|s_j - tau|^2."""
    sharp = (-point * point_kernel_sum(p_points, p_masses, point, 1)).real
    return 1.0 / (sharp + s)


def _spec_spectral_value(spec: GeneratorSpec) -> tuple[complex | float, float]:
    """_spectral_value of a spec: (lambda, beta)."""
    c, p, q = spec.config, spec.p, spec.denominator_atoms
    atoms = [(point.theta, mass) for point, mass in p.atoms]
    return _spectral_value(c.regime, c.tau, p.gamma, atoms, *q, c.inv_lambda_sum)


def dw_spectral_value(gen: GeneratorSpec) -> complex | float:
    """Spectral value at the Denjoy-Wolff point.

    Interior tau: the complex number (1-|tau|^2) / (p(tau) + p0(tau)),
    with nonnegative real part.  Boundary tau: a real value >= 0; it is
    zero when p carries an atom at tau or the denominator's contact value
    there is not zero within CONTACT_TOL, and 1/(p#(tau) + sum_k 1/|lambda_k|) otherwise.
    """
    return _spec_spectral_value(gen)[0]


def brfp_spectral_value(spec: GeneratorSpec, k: int) -> float:
    """Actual spectral value at sigma_k (0-based index).

    Equals lambda_k exactly when p has no atom at sigma_k; an atom of mass
    m relaxes it to -|lambda_k| / (1 + m/alpha_k), still negative.
    """
    config = spec.config
    if not 0 <= k < config.n:
        raise DomainError(f"index {k} out of range for {config.n} fixed points")
    mass = p_star(spec.p, config.sigmas[k]) / 2.0
    return -abs(config.lambdas[k]) / (1.0 + mass / config.alphas[k])


def beta(spec: GeneratorSpec) -> float:
    """Parabolic third-order coefficient at a boundary Denjoy-Wolff point.

    Equals the denominator's atom functional at tau, which reduces to
    p_star of p there (the base function is holomorphic across tau).
    """
    if not spec.config.is_boundary:
        raise DomainError("beta is defined for a boundary Denjoy-Wolff point only")
    return _spec_spectral_value(spec)[1]


def spec_from_denominator(
    tau: complex, sigmas: tuple[BoundaryPoint, ...], q: RationalHerglotz
) -> GeneratorSpec:
    """Recover a fixed-point spec from a denominator function q = p + p0.

    Each sigma_k must carry an atom of q within ANGLE_TOL (that is what
    makes it a repelling fixed point); extract_atom splits it off, its
    mass determines the spectral value, and the remaining atoms plus the
    imaginary constant form p.  convex_combination keeps each sigma_k's
    atom at a point of its inputs, so no wider tolerance is needed.
    """
    lambdas = []
    p = q
    for s in sigmas:
        mass, p = extract_atom(p, s)
        if mass == 0.0:
            raise DegenerateConfig(
                f"denominator lacks an atom at angle {s.theta}; not a repelling point"
            )
        lambdas.append(-abs(tau - s.value) ** 2 / (2.0 * mass))
    return GeneratorSpec(FixedPointConfig(tau, tuple(sigmas), tuple(lambdas)), p)


def convex_combination(
    first: GeneratorSpec, second: GeneratorSpec, weight: float
) -> GeneratorSpec:
    """Pointwise convex combination, reconstructed in fixed-point form.

    Both specs must share tau and the repelling set.  With denominators q_a,
    q_b and w = weight, 1/q_c = w/q_a + (1 - w)/q_b, so q_c = q_a q_b/N with
    N = w q_b + (1 - w) q_a, rational Herglotz on the atoms of both.  Each
    atom q_a and q_b share (the sigma_k, and free atoms both carry) stays,
    with mass 1/(w/m_a + (1 - w)/m_b).  The zero kappa of N on each arc,
    from the arc solve of `reciprocal`, is an atom with the residue form
    1/(2 (w p#_a/f_a^2 + (1 - w) p#_b/f_b^2)) for mass, where q = i f and
    p# = -f' on the circle, read off the solve's last matrix and multiplied
    out so that f = 0 gives 0.  The equal form -f_a f_b/(2 p#_N) is avoided:
    beside an atom of weight about w in N it reads an O(1) mass from an
    offset of size about w.  The f of the function of larger weight in N is
    first moved to kappa by one Newton step of N: read an ulp from kappa it
    is noise where that function is near its own zero.  The masses must sum
    to Re q_c(0) within `reciprocal`'s bound, else DomainError.  A weight
    whose 1 - weight rounds to 1 (0 too) returns ``second``, 1 ``first``.
    The weight is read as semiflow reads a time: a string, bytes, None, a
    bool (numpy's too), a complex value or an array raises DomainError, as
    does a number outside [0, 1] or NaN, and any other is taken as
    float(weight).
    """
    try:
        real = _one_real(weight) and 0.0 <= weight <= 1.0
    except TypeError:
        real = False
    if not real:
        raise DomainError(f"weight must be a real number in [0, 1], got {weight!r}")
    weight = float(weight)
    ca, cb = first.config, second.config
    if not ca.has_skeleton(cb.tau, cb.sigmas):
        raise DegenerateConfig("specs must share tau and the repelling set")
    # where 1 - weight rounds to 1 the mix is second to rounding
    if 1.0 - weight == 1.0:
        return second
    if weight == 1.0:
        return first
    qa, qb = denominator_herglotz(first), denominator_herglotz(second)
    rows = [(p.theta, p, m, 0.0) for p, m in qa.atoms] + [(p.theta, p, 0.0, m) for p, m in qb.atoms]
    union: list[list] = []  # N's atoms, merged as AtomicHerglotz merges: [angle, point, m_a, m_b]
    for theta, point, ma, mb in sorted(rows, key=lambda row: row[0]):
        if union and theta - union[-1][0] <= ANGLE_TOL:
            union[-1][2:] = [union[-1][2] + ma, union[-1][3] + mb]
        else:
            union.append([theta, point, ma, mb])
    if len(union) > 1 and union[0][0] + math.tau - union[-1][0] <= ANGLE_TOL:
        union[0][2:] = [x + y for x, y in zip(union[0][2:], union.pop()[2:])]
    a, ma, mb = ([row[k] for row in union] for k in (0, 2, 3))
    v = 1.0 - weight
    mn = [v * x + weight * y for x, y in zip(ma, mb)]
    t, _, sums, _ = _arc_zeros(a, mn, v * qa.gamma + weight * qb.gamma, (ma, mb))
    total_a, total_b = qa.total_mass, qb.total_mass
    atoms = []
    for theta, fa, sa, fb, sb in zip(t, *sums[0], *sums[1]):
        fa, fb = qa.gamma + fa, qb.gamma + fb
        sa, sb = total_a + sa, total_b + sb  # 2 p#
        # f_N/(2 p#_N), kappa - t over 2; 0/0 and x/0 are NaN, as in the arc solve
        den = v * sa + weight * sb
        step = (v * fa + weight * fb) / den if den else math.nan
        fa, fb = (fa, fb - sb * step) if weight >= v else (fa - sa * step, fb)
        # a zero both functions share (a spec mixed with itself) has 0/0: mass 0
        den = max(weight * sa * (fb * fb) + v * sb * (fa * fa), math.ulp(0.0))
        atoms.append((BoundaryPoint(theta), fa * fa * (fb * fb) / den))
    atoms += [(pt, 1.0 / (weight / x + v / y)) for _, pt, x, y in union if x and y]
    c0 = 1.0 / (weight / complex(qa.total_mass, qa.gamma) + v / complex(qb.total_mass, qb.gamma))
    q = RationalHerglotz(tuple(atoms), c0.imag)
    _require_mass_sum("convex_combination: the masses of q_c", q.total_mass, "Re(q_c(0))", c0.real)
    return spec_from_denominator(ca.tau, ca.sigmas, q)
