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
from operator import index, itemgetter
from typing import Callable

from ._lazy import np

from .errors import DegenerateConfig, DomainError
from .herglotz_core import (
    AtomicHerglotz,
    BoundaryPoint,
    ANGLE_TOL,
    RationalHerglotz,
    _Record,
    _arc_record,
    _arc_zeros,
    _atom_index,
    _boundary,
    _complex,
    _real,
    _require_mass_sum,
    _same_point,
    cached_property,
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
    radius = abs(_complex(tau, "Denjoy-Wolff point"))
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


def _check_spectral_values(tau: complex, n: int, lambdas: tuple[float, ...]) -> None:
    """FixedPointConfig's checks of tau's finiteness and of the spectral
    values read as floats, in its order, for n repelling points."""
    if not cmath.isfinite(tau) or not all(map(math.isfinite, lambdas)):
        raise DomainError("tau and the spectral values must be finite")
    if n == 0:
        raise DegenerateConfig("at least one repelling boundary point is required")
    if n != len(lambdas):
        raise DegenerateConfig("sigmas and lambdas must have equal length")
    if any(not v < 0.0 for v in lambdas):
        raise DegenerateConfig("repelling spectral values must be negative")


# what FixedPointConfig._require says a function of each regime requires
_REQUIRED = dict(origin="tau = 0", interior="an interior Denjoy-Wolff point",
                 boundary="a boundary Denjoy-Wolff point")


class FixedPointConfig(_Record):
    """(tau, sigma_1..sigma_n, lambda_1..lambda_n) with derived quantities."""

    tau_point: BoundaryPoint | None = None  # a boundary tau's circle point, set by __init__

    def __init__(
        self, tau: complex, sigmas: tuple[BoundaryPoint, ...], lambdas: tuple[float, ...]
    ) -> None:
        object.__setattr__(self, "tau", _complex(tau, "Denjoy-Wolff point"))
        object.__setattr__(self, "lambdas", tuple([_real(v, "spectral value") for v in lambdas]))
        object.__setattr__(self, "sigmas", tuple([_boundary(s, "repelling point") for s in sigmas]))
        _check_spectral_values(self.tau, len(self.sigmas), self.lambdas)
        regime = self.regime  # DomainError beyond the circle
        if any(_same_point(s, t) for i, s in enumerate(self.sigmas) for t in self.sigmas[i + 1 :]):
            raise DegenerateConfig("repelling boundary points must be distinct")
        if regime == "boundary":
            tau_point = BoundaryPoint.from_complex(self.tau)
            object.__setattr__(self, "tau_point", tau_point)
            if any(_same_point(tau_point, s) for s in self.sigmas):
                raise DegenerateConfig("tau must not coincide with a repelling point")

    def _with_lambdas(self, lambdas: tuple[float, ...]) -> "FixedPointConfig":
        """This configuration's tau, sigmas, regime and tau_point with the
        spectral values ``lambdas``, plain floats: only they are checked, as
        __init__ checks them."""
        _check_spectral_values(self.tau, len(self.sigmas), lambdas)
        config = object.__new__(FixedPointConfig)
        config.__dict__.update(tau=self.tau, sigmas=self.sigmas, lambdas=lambdas, regime=self.regime)
        config.__dict__["tau_point"] = self.tau_point
        return config

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

    def _require(self, regime: str, what: str, origin: str = "") -> None:
        """The package's one regime refusal, of a function ``what`` defined
        for ``regime`` alone: DomainError "<what> requires ...", or at tau = 0,
        for a function with a twin ``origin`` there, DegenerateConfig naming it."""
        if self.regime != regime:
            if origin and self.regime == "origin":
                raise DegenerateConfig(f"use {origin} for tau = 0")
            raise DomainError(f"{what} requires {_REQUIRED[regime]}")

    def has_skeleton(self, tau: complex, sigmas: tuple[BoundaryPoint, ...]) -> bool:
        """True when tau (within BOUNDARY_TOL) and the repelling points, in
        order, are this configuration's; sigmas are read by _boundary."""
        sigmas = [_boundary(s, "repelling point") for s in sigmas]
        return (
            abs(self.tau - tau) <= BOUNDARY_TOL
            and len(sigmas) == self.n
            and all(map(_same_point, self.sigmas, sigmas))
        )

    @cached_property
    def _sums(self) -> tuple[tuple[float, ...], float, float, float]:
        """config_sums; DomainError where a lambda_k gives an alpha_k beyond
        the floats (inf or 0)."""
        sums = config_sums(self.tau, [s.value for s in self.sigmas], self.lambdas)
        for v, alpha in zip(self.lambdas, sums[0]):
            if not 0.0 < alpha < math.inf:
                message = f"the spectral value {v!r} gives the base mass alpha = {alpha!r};"
                raise DomainError(message + " it must be finite and positive")
        return sums

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
    q = eval_denominator(gen, z)  # first: it checks z
    return _mobius_factor(gen.config.tau, z) / q


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


def _interior_value(tau: complex, gamma: float, q_points, q_masses) -> complex:
    """dw_spectral_value (1 - |tau|^2)/q(tau) for tau inside the disk, from
    the constant and the atoms of q = p + p0; in operators only, so that
    value_regions runs it on numpy columns too."""
    q_tau = 1j * gamma + point_kernel_sum(q_points, q_masses, tau, 0)
    return (1.0 - abs(tau) ** 2) / q_tau


# the boundary spectral value's arithmetic, in operators only, so that
# value_regions runs it on numpy columns too


def _contact(gamma, q_points, q_masses, point):
    """The denominator's contact value at the boundary point tau, over i."""
    return gamma + point_kernel_sum(q_points, q_masses, point, 0).imag


def _hyperbolic_value(point, p_points, p_masses, s):
    """1/(p#(tau) + s), p#(tau) = Re(-tau p'(tau)) = 2 sum_j m_j/|s_j - tau|^2."""
    sharp = (-point * point_kernel_sum(p_points, p_masses, point, 1)).real
    return 1.0 / (sharp + s)


def _spec_spectral_value(spec: GeneratorSpec) -> tuple[complex | float, float]:
    """(dw_spectral_value, beta) of a spec; beta is 0 for tau inside the disk."""
    c, p, q = spec.config, spec.p, spec.denominator_atoms
    if c.regime != "boundary":
        return _interior_value(c.tau, p.gamma, *q), 0.0
    tau = c.tau_point
    b = p_star(p, tau)
    if b > 0.0:  # p has an atom at tau
        return 0.0, b
    if abs(_contact(p.gamma, *q, tau.value)) > CONTACT_TOL:
        return 0.0, 0.0
    return _hyperbolic_value(tau.value, p.s, p.m, c.inv_lambda_sum), 0.0


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
    m relaxes it to -|lambda_k| / (1 + m/alpha_k), still negative, and
    where that quotient is too small for a float (it would read -0.0) the
    value raises DomainError.  A k that is a bool, no integer or outside
    [0, n) raises DomainError.
    """
    config = spec.config
    try:
        k = -1 if isinstance(k, bool) else index(k)
    except TypeError:
        k = -1
    if not 0 <= k < config.n:
        raise DomainError(f"a fixed-point index must be an integer in [0, {config.n})")
    mass = spec.p.atom_mass_at(config.sigmas[k])
    value = -abs(config.lambdas[k]) / (1.0 + mass / config.alphas[k])
    if not value < 0.0:
        raise DomainError(
            f"the atom of mass {mass!r} at repelling point {k} relaxes its spectral value"
            f" {config.lambdas[k]!r} below the smallest float"
        )
    return value


def beta(spec: GeneratorSpec) -> float:
    """Parabolic third-order coefficient at a boundary Denjoy-Wolff point.

    Equals the denominator's atom functional at tau, which reduces to
    p_star of p there (the base function is holomorphic across tau).
    """
    spec.config._require("boundary", "beta")
    return _spec_spectral_value(spec)[1]


def _split_denominator(
    tau: complex, sigmas: tuple[BoundaryPoint, ...], q: RationalHerglotz
) -> tuple[tuple[float, ...], AtomicHerglotz]:
    """(lambdas, p) of a denominator q = p + p0 over tau and the sigma_k.

    Each sigma_k in turn takes the first atom of q left within ANGLE_TOL,
    as extract_atom would, whose mass m_k gives lambda_k = -|tau - sigma_k|^2
    / (2 m_k); DegenerateConfig where none is left.  The atoms left and q's
    constant form p, a subsequence of q's normalized atoms, so p is built
    by AtomicHerglotz._kept, with no second normalization.
    """
    lambdas, atoms = [], list(q.atoms)
    for s in sigmas:
        i = _atom_index(atoms, _boundary(s, "repelling point").theta)
        if i is None:
            message = f"denominator lacks an atom at angle {s.theta}; not a repelling point"
            raise DegenerateConfig(message)
        lambdas.append(-abs(tau - s.value) ** 2 / (2.0 * atoms[i][1]))
        del atoms[i]
    return tuple(lambdas), AtomicHerglotz._kept(tuple(atoms), q.gamma)


def spec_from_denominator(
    tau: complex, sigmas: tuple[BoundaryPoint, ...], q: RationalHerglotz
) -> GeneratorSpec:
    """Recover a fixed-point spec from a denominator function q = p + p0.

    Each sigma_k must carry an atom of q within ANGLE_TOL (that is what
    makes it a repelling fixed point), whose mass gives its spectral value;
    the atoms left and q's constant form p, as q holds them
    (_split_denominator).  tau is read by _complex before the split, and the
    configuration is checked as any is.
    """
    tau = _complex(tau, "Denjoy-Wolff point")
    lambdas, p = _split_denominator(tau, sigmas, q)
    return GeneratorSpec(FixedPointConfig(tau, tuple(sigmas), lambdas), p)


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
    p# = -f' on the circle, read off the solve's last cotangents and multiplied
    out so that f = 0 gives 0.  The equal form -f_a f_b/(2 p#_N) is avoided:
    beside an atom of weight about w in N it reads an O(1) mass from an
    offset of size about w.  The f of the function of larger weight in N is
    first moved to kappa by one Newton step of N: read an ulp from kappa it
    is noise where that function is near its own zero.  The masses must sum
    to Re q_c(0) within `reciprocal`'s bound, else DomainError.  A weight
    whose 1 - weight rounds to 1 (0 too) returns ``second``, 1 ``first``.
    The weight is read by herglotz_core._real, and one outside [0, 1] or
    NaN raises DomainError.

    N's atoms are each spec's p and (sigma_k, alpha_k), merged in one sweep
    with no q_a or q_b built: as those merge, unless a p has an atom within
    ANGLE_TOL of one of its own sigma_k at another angle.  An alpha_k beyond
    the floats raises DomainError, and so, before the arc solve, does a
    merged mass of q_a or q_b, or their sum, that overflows, and after it
    a zero's mass whose residue form overflows to inf or NaN (a p atom
    near 1e130 or more beside an atom-free twin).  q_c is the one
    record the mix builds, by herglotz_core._arc_record from N's shared atoms
    and zeros in angle order, which normalizes them only where the sweep
    would move them.
    _split_denominator reads the lambda_k and p off it (each sigma_k's atom
    sits at a point of the inputs, so ANGLE_TOL finds it), and the config
    is first's with the new lambda_k, of which only those are checked
    (FixedPointConfig._with_lambdas).
    """
    weight = _real(weight, "weight")
    if not 0.0 <= weight <= 1.0:
        raise DomainError(f"weight must be a real number in [0, 1], got {weight!r}")
    ca, cb = first.config, second.config
    if not ca.has_skeleton(cb.tau, cb.sigmas):
        raise DegenerateConfig("specs must share tau and the repelling set")
    # where 1 - weight rounds to 1 the mix is second to rounding
    if 1.0 - weight == 1.0:
        return second
    if weight == 1.0:
        return first
    qa, qb = (s.p.atoms + tuple(zip(s.config.sigmas, s.config.alphas)) for s in (first, second))
    rows = [(x.theta, m, 0.0) for x, m in qa if m] + [(x.theta, 0.0, m) for x, m in qb if m]
    union: list[list] = []  # N's atoms, merged as AtomicHerglotz merges: [angle, m_a, m_b]
    for theta, ma, mb in sorted(rows, key=itemgetter(0)):
        if union and theta - union[-1][0] <= ANGLE_TOL:
            union[-1][1:] = [union[-1][1] + ma, union[-1][2] + mb]
        else:
            union.append([theta, ma, mb])
    if len(union) > 1 and union[0][0] + math.tau - union[-1][0] <= ANGLE_TOL:
        union[0][1:] = [x + y for x, y in zip(union[0][1:], union.pop()[1:])]
    a, ma, mb = ([row[k] for row in union] for k in range(3))
    ga, gb = first.p.gamma, second.p.gamma
    total_a, total_b = sum(ma), sum(mb)  # the masses of q_a and q_b, as total_mass sums them
    if not max(total_a, total_b) < math.inf:  # a merged mass or the sum overflowed
        raise DomainError(
            "convex_combination: the masses of q_a or q_b, merged within ANGLE_TOL or summed,"
            " exceed the largest float"
        )
    v = 1.0 - weight
    mn = [v * x + weight * y for x, y in zip(ma, mb)]
    t, _, sums, _ = _arc_zeros(a, mn, v * ga + weight * gb, (ma, mb))
    atoms = []  # in angle order: each shared atom, then the zero on the arc after it
    for a_k, x, y, theta, fa, sa, fb, sb in zip(a, ma, mb, t, *sums[0], *sums[1]):
        if x and y:
            atoms.append((a_k, 1.0 / (weight / x + v / y)))
        fa, fb = ga + fa, gb + fb
        sa, sb = total_a + sa, total_b + sb  # 2 p#
        # f_N/(2 p#_N), kappa - t over 2; 0/0 and x/0 are NaN, as in the arc solve
        den = v * sa + weight * sb
        step = (v * fa + weight * fb) / den if den else math.nan
        fa, fb = (fa, fb - sb * step) if weight >= v else (fa - sa * step, fb)
        # a zero both functions share (a spec mixed with itself) has 0/0: mass 0
        den = max(weight * sa * (fb * fb) + v * sb * (fa * fa), math.ulp(0.0))
        atoms.append((theta, fa * fa * (fb * fb) / den))
    c0 = 1.0 / (weight / complex(total_a, ga) + v / complex(total_b, gb))
    try:
        q = _arc_record(atoms, c0.imag)
    except DomainError:  # only the fallback of _arc_record raises; a clean mix never does
        if all(m < math.inf for _, m in atoms):
            raise
        raise DomainError(
            "convex_combination: the mass of a zero of N on q_c overflows in its residue"
            " form f_a^2 f_b^2/den"
        ) from None
    _require_mass_sum("convex_combination: the masses of q_c", q.total_mass, "Re(q_c(0))", c0.real)
    lambdas, p = _split_denominator(ca.tau, ca.sigmas, q)
    return GeneratorSpec(ca._with_lambdas(lambdas), p)
