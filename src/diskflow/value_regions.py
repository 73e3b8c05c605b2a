"""Sharp value regions for generators with prescribed fixed-point data.

The basic observable is G(0).  Over a fixed configuration it fills the
closed disk Z with center tau/(2A) and radius |tau|/(2A), A = sum alpha_k.
Fibering over a point zeta of Z refines this: the Denjoy-Wolff spectral
value lambda = lambda(G) ranges over a second explicit region (a disk for
interior tau, an interval for boundary tau), and for each region an
explicit one-parameter family of generators realizes the whole boundary.

Charts.  Interior tau uses eta = (1-|tau|^2)/lambda, which equals the
denominator value p(tau) + p0(tau); the region Omega_zeta is a disk in
eta.  tau = 0 uses lambda itself for the first-order region and
G''(0)/(2 lambda^2) for the second-order one.  Boundary tau works with
lambda directly (real, nonnegative) and with the parabolic coefficient
beta when lambda = 0.

The chart variable ell(zeta) = tau/zeta - A recurs everywhere: it is the
value at 0 of the free Herglotz summand p of any generator with G(0) =
zeta, so Re ell >= 0 characterizes membership of zeta in Z.

Sampling and the inequality suite.  The sharp inequalities are closed
forms in (tau, sigma_k, lambda_k, the atoms of p, gamma), so `verify` never
builds objects for its random generators.  One draw law, _draw_raw, draws
a generator's plain numbers, and one record function, _raw_records,
evaluates every inequality and region membership on them.  random_spec
builds its objects from the same draw, and inequality_suite reads a spec
into the same numbers, so the object API and `verify` share one sampler
and one suite.  The record function repeats the generator functions'
arithmetic operation for operation, on Python floats and complex numbers,
so both paths give the same floats to the last bit.
"""

from __future__ import annotations

import cmath
import math

from ._lazy import np

from .errors import DegenerateConfig, DivisionByZero, DomainError
from .generator import (
    CONTACT_TOL,
    FixedPointConfig,
    GeneratorSpec,
    _mobius_factor,
    _quotient_second_derivative,
    config_sums,
    dw_spectral_value,
    eval_generator_second_derivative,
    tau_regime,
)
from .herglotz_core import (
    ANGLE_TOL,
    AtomicHerglotz,
    BoundaryPoint,
    _Record,
    angle_gap,
    circle_angle,
    point_kernel_sum,
)

TWO_PI = 2.0 * math.pi

# Membership slack below which a requested point is treated as outside the
# region; charts are exact rationals of the input, so honest members sit
# at worst a few ulps negative.
EDGE_TOL = 1e-10


class DiskRegion(_Record):
    """Closed disk |w - center| <= radius."""

    def __init__(self, center: complex, radius: float) -> None:
        object.__setattr__(self, "center", complex(center))
        object.__setattr__(self, "radius", float(radius))
        if self.radius < 0.0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")

    def slack(self, w: complex) -> float:
        """radius - distance to center; nonnegative inside, zero on the rim."""
        return self.radius - abs(complex(w) - self.center)

    def sample_boundary(self, n: int) -> tuple[complex, ...]:
        return tuple(
            self.center + self.radius * cmath.exp(2j * math.pi * k / n) for k in range(n)
        )


class IntervalRegion(_Record):
    """Closed interval [lo, hi] on the real line."""

    def __init__(self, lo: float, hi: float) -> None:
        object.__setattr__(self, "lo", float(lo))
        object.__setattr__(self, "hi", float(hi))
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def slack(self, x: float) -> float:
        return min(x - self.lo, self.hi - x)

    def sample(self, n: int) -> tuple[float, ...]:
        if n <= 1:
            return (self.lo,)
        return tuple(self.lo + (self.hi - self.lo) * k / (n - 1) for k in range(n))


def ell(config: FixedPointConfig, zeta: complex) -> complex:
    """Chart variable tau/zeta - A; equals p(0) for any generator with
    G(0) = zeta.  Re ell >= 0 iff zeta lies in Z."""
    zeta = complex(zeta)
    if zeta == 0:
        raise DivisionByZero("the ell chart is singular at zeta = 0")
    return config.tau / zeta - config.capA


def _ell_in_Z(config: FixedPointConfig, zeta: complex) -> complex:
    """ell(zeta), after checking that zeta lies in Z within EDGE_TOL."""
    lz = ell(config, zeta)
    if lz.real < -EDGE_TOL:
        raise DomainError(f"zeta lies outside Z (Re ell = {lz.real:.3e})")
    return lz


def region_Z(config: FixedPointConfig) -> DiskRegion:
    """Range of G(0): the closed disk with center tau/(2A), radius |tau|/(2A)."""
    if config.is_origin:
        raise DegenerateConfig("Z degenerates to {0} for tau = 0")
    two_a = 2.0 * config.capA
    return DiskRegion(config.tau / two_a, abs(config.tau) / two_a)


# ----------------------------------------------------------------------
# interior tau != 0: the eta chart
# ----------------------------------------------------------------------


def eta_chart(config: FixedPointConfig, lam: complex) -> complex:
    """eta = (1 - |tau|^2)/lambda, the denominator value at tau."""
    lam = complex(lam)
    if lam == 0:
        raise DivisionByZero("eta chart is singular at lambda = 0")
    return (1.0 - abs(config.tau) ** 2) / lam


def region_Omega(config: FixedPointConfig, zeta: complex) -> DiskRegion:
    """Spectral-value region over G(0) = zeta, interior tau != 0.

    Returned in the eta chart.  For zeta = 0 the fiber contains only the
    zero field, so the region is the lambda-chart singleton {0}, returned
    as DiskRegion(0, 0); genuine eta-chart disks always have Re center > 0,
    so the marker is unambiguous.
    """
    if config.is_boundary:
        raise DomainError("region_Omega requires an interior Denjoy-Wolff point")
    if config.is_origin:
        raise DegenerateConfig("use region_Omega_origin for tau = 0")
    zeta = complex(zeta)
    if zeta == 0:
        return DiskRegion(0.0, 0.0)
    lz = _ell_in_Z(config, zeta)
    re_l = max(lz.real, 0.0)
    t2 = abs(config.tau) ** 2
    one_m = 1.0 - t2
    # p(tau) sweeps a disk as p varies with p(0) = ell fixed; the constant
    # offset p0(tau) = (1-|tau|^2) S/2 + i B shifts it.
    center = complex(
        (1.0 + t2) / one_m * re_l + one_m * config.inv_lambda_sum / 2.0,
        lz.imag + config.capB,
    )
    radius = 2.0 * abs(config.tau) / one_m * re_l
    return DiskRegion(center, radius)


def extremal_interior(
    config: FixedPointConfig, zeta: complex, sigma: BoundaryPoint
) -> GeneratorSpec:
    """The unique generator over zeta whose eta sits on the boundary circle
    of region_Omega at the direction determined by sigma.

    Defined for interior tau != 0 and zeta in the interior of Z minus the
    origin.  The free summand is a single atom of mass Re ell at sigma plus
    the imaginary constant Im ell; as sigma runs over the circle the value
    eta traces the whole boundary of Omega_zeta.
    """
    if config.is_boundary:
        raise DomainError("extremal_interior requires an interior Denjoy-Wolff point")
    if config.is_origin:
        raise DegenerateConfig("use extremal_origin for tau = 0")
    lz = ell(config, zeta)
    if lz.real <= 0.0:
        raise DomainError("zeta must lie in the interior of Z")
    p = AtomicHerglotz(((sigma, lz.real),), lz.imag)
    return GeneratorSpec(config, p)


def extremal_boundary_of_Z(config: FixedPointConfig, zeta: complex) -> GeneratorSpec:
    """The only generator with G(0) = zeta when zeta lies on the boundary
    circle of Z: the free summand degenerates to the constant i Im ell."""
    lz = ell(config, zeta)
    if abs(lz.real) > EDGE_TOL:
        raise DomainError(f"zeta is not on the boundary of Z (Re ell = {lz.real:.3e})")
    return GeneratorSpec(config, AtomicHerglotz((), lz.imag))


# ----------------------------------------------------------------------
# tau = 0: first- and second-order regions
# ----------------------------------------------------------------------


def region_Omega_origin(config: FixedPointConfig) -> DiskRegion:
    """Range of lambda(G) for tau = 0: the disk |lambda - r| <= r with
    r = 1/sum_k |lambda_k|^{-1}.  Stated in the lambda chart itself."""
    if not config.is_origin:
        raise DomainError("region_Omega_origin requires tau = 0")
    r = 1.0 / config.inv_lambda_sum
    return DiskRegion(complex(r, 0.0), r)


def region_Z_omega(config: FixedPointConfig, omega: complex) -> DiskRegion:
    """Second-order region over a spectral value omega, tau = 0.

    The observable is G''(0)/(2 omega^2); over all generators with
    lambda(G) = omega it fills the disk centered at sum_k conj(sigma_k) /
    |lambda_k| with radius 2 Re(1/omega) - sum_k |lambda_k|^{-1}.  The
    fiber over omega = 0 is the zero field alone, which has no second
    order chart; that input is rejected.
    """
    if not config.is_origin:
        raise DomainError("region_Z_omega requires tau = 0")
    omega = complex(omega)
    if omega == 0:
        raise DomainError("the fiber over omega = 0 is the zero field only")
    radius = 2.0 * (1.0 / omega).real - config.inv_lambda_sum
    if radius < -EDGE_TOL:
        raise DomainError("omega lies outside the spectral-value disk")
    center = sum(
        s.value.conjugate() / abs(v) for s, v in zip(config.sigmas, config.lambdas)
    )
    return DiskRegion(center, max(radius, 0.0))


def origin_curvature_chart(spec: GeneratorSpec) -> complex:
    """G''(0)/(2 lambda^2) for a tau = 0 spec, via the generator itself."""
    if not spec.config.is_origin:
        raise DomainError("the curvature chart is defined for tau = 0")
    lam = dw_spectral_value(spec)
    if lam == 0:
        raise DivisionByZero("curvature chart is singular at lambda = 0")
    return eval_generator_second_derivative(spec, 0.0) / (2.0 * lam * lam)


def extremal_origin(
    config: FixedPointConfig, omega: complex, sigma: BoundaryPoint
) -> GeneratorSpec:
    """Generator with tau = 0 and lambda(G) = omega whose curvature chart
    value lies on the boundary of region_Z_omega, direction sigma.

    Requires omega interior to the spectral disk.  Free summand: atom of
    mass Re(1/omega) - S/2 at sigma plus the matching imaginary constant.
    """
    if not config.is_origin:
        raise DomainError("extremal_origin requires tau = 0")
    omega = complex(omega)
    if omega == 0:
        raise DomainError("the fiber over omega = 0 is the zero field only")
    lhat = 1.0 / omega - config.inv_lambda_sum / 2.0
    if lhat.real <= 0.0:
        raise DomainError("omega must lie in the interior of the spectral disk")
    p = AtomicHerglotz(((sigma, lhat.real),), lhat.imag)
    return GeneratorSpec(config, p)


# ----------------------------------------------------------------------
# boundary tau: the spectral interval and the parabolic coefficient
# ----------------------------------------------------------------------


def interval_I(config: FixedPointConfig, zeta: complex) -> IntervalRegion:
    """Range of lambda(G) over G(0) = zeta for boundary tau.

    Interior zeta != 0: the interval [0, f] with
    f = 2 Re w / (|w|^2 + 2 Re w * S), w = ell + i B.  On the boundary
    circle of Z the fiber collapses: it is {1/S} at the single point where
    1/conj(zeta) = sum_k (tau - sigma_k)/|lambda_k| and {0} elsewhere.
    The fiber over zeta = 0 is the zero field, giving {0}.
    """
    if not config.is_boundary:
        raise DomainError("interval_I requires a boundary Denjoy-Wolff point")
    zeta = complex(zeta)
    if zeta == 0:
        return IntervalRegion(0.0, 0.0)
    lz = _ell_in_Z(config, zeta)
    s = config.inv_lambda_sum
    if lz.real > EDGE_TOL:
        w = lz + 1j * config.capB
        top = 2.0 * w.real
        return IntervalRegion(0.0, top / (abs(w) ** 2 + top * s))
    pivot = sum(
        (config.tau - p.value) / abs(v) for p, v in zip(config.sigmas, config.lambdas)
    )
    gap = abs(1.0 / zeta.conjugate() - pivot)
    if gap <= 1e-8 * max(1.0, abs(pivot)):
        return IntervalRegion(1.0 / s, 1.0 / s)
    return IntervalRegion(0.0, 0.0)


def extremal_hyperbolic(config: FixedPointConfig, zeta: complex) -> GeneratorSpec:
    """The unique generator attaining the top of interval_I(config, zeta).

    Requires boundary tau and zeta interior to Z.  The free summand is a
    single atom of mass Re ell placed at caratheodory_min_sharp's minimizer
    sigma = -tau (1+ia)/(1-ia) with a = -(Im ell + B)/Re ell, plus the
    constant i Im ell; this choice simultaneously pins G(0) = zeta and
    cancels the denominator's contact value at tau, and it minimizes the
    boundary functional p# there.
    """
    if not config.is_boundary:
        raise DomainError("extremal_hyperbolic requires a boundary Denjoy-Wolff point")
    lz = ell(config, zeta)
    if lz.real <= 0.0:
        raise DomainError("zeta must lie in the interior of Z")
    a = -(lz.imag + config.capB) / lz.real
    _, sigma = caratheodory_min_sharp(BoundaryPoint.from_complex(config.tau), a)
    p = AtomicHerglotz(((sigma, lz.real),), lz.imag)
    return GeneratorSpec(config, p)


def parabolic_region(config: FixedPointConfig, zeta: complex) -> IntervalRegion:
    """Range of the parabolic coefficient beta over G(0) = zeta: the
    interval [0, 2 Re ell], boundary tau."""
    if not config.is_boundary:
        raise DomainError("parabolic_region requires a boundary Denjoy-Wolff point")
    lz = _ell_in_Z(config, zeta)
    return IntervalRegion(0.0, 2.0 * max(lz.real, 0.0))


def extremal_parabolic(config: FixedPointConfig, zeta: complex) -> GeneratorSpec:
    """Generator attaining beta = 2 Re ell over G(0) = zeta: the free
    summand puts all its mass directly at tau."""
    if not config.is_boundary:
        raise DomainError("extremal_parabolic requires a boundary Denjoy-Wolff point")
    lz = _ell_in_Z(config, zeta)
    tau_bp = BoundaryPoint.from_complex(config.tau)
    p = AtomicHerglotz(((tau_bp, max(lz.real, 0.0)),), lz.imag)
    return GeneratorSpec(config, p)


# ----------------------------------------------------------------------
# the unconstrained spectral range and the contact minimization
# ----------------------------------------------------------------------


def lambda_range(
    config: FixedPointConfig,
) -> tuple[DiskRegion | IntervalRegion, GeneratorSpec]:
    """Range of lambda(G) over the whole class, with a maximizing generator.

    Interior tau: the disk |lambda - r| <= r, r = 1/S; the constant free
    summand i(-B) makes the denominator value at tau real and attains the
    extreme right point lambda = 2r.  Boundary tau: the interval [0, r],
    with the same constant attaining lambda = r.
    """
    r = 1.0 / config.inv_lambda_sum
    extremal = GeneratorSpec(config, AtomicHerglotz((), -config.capB))
    if config.is_boundary:
        return IntervalRegion(0.0, r), extremal
    return DiskRegion(complex(r, 0.0), r), extremal


def caratheodory_min_sharp(tau: BoundaryPoint, a: float) -> tuple[float, BoundaryPoint]:
    """Minimum of p#(tau) over unit-mass atomic p with contact tilt a.

    Constraints: sum of masses 1 and sum m_j Im K_{s_j}(tau) = a.  Each
    atom contributes mass * (1 + c^2)/2 to p#(tau) where c is its tilt
    Im K_s(tau), so by strict convexity the minimum is (1 + a^2)/2,
    attained only by the single atom with tilt exactly a, located at
    -tau (1+ia)/(1-ia).
    """
    minimum = (1.0 + a * a) / 2.0
    sigma = BoundaryPoint.from_complex(-tau.value * (1.0 + 1j * a) / (1.0 - 1j * a))
    return minimum, sigma


# ----------------------------------------------------------------------
# inequality suite
# ----------------------------------------------------------------------


class InequalityRecord(_Record):
    """One verified inequality lhs <= rhs; slack = rhs - lhs."""

    def __init__(self, name: str, lhs: float, rhs: float) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


# the records _raw_records adds to the suite: G(0) in Z and lambda(G) in
# the range of lambda_range, each stated with its region's slack
_MEMBERSHIPS = ("origin_in_Z", "spectral_in_range")


def _point(theta: float) -> complex:
    """The point e^{i theta} as BoundaryPoint(theta).value computes it."""
    return complex(math.cos(theta), math.sin(theta))


def _raw_records(raw) -> list[tuple[str, float, float]]:
    """Every sharp inequality of one generator, as (name, lhs, rhs) triples.

    ``raw`` is a generator as plain numbers, in the layout _draw_raw
    returns: (regime, tau, sigma angles, lambdas, p's atoms as sorted
    (angle, mass) pairs, gamma), where the regime is tau_regime(tau).  The
    triples are the records of inequality_suite followed by the
    _MEMBERSHIPS.  Each value is computed by the same operations, in the same
    order, as the generator functions compute it on the spec, so both give
    the same floats to the last bit; no object is built.
    """
    regime, tau, sig_angles, lambdas, atoms, gamma = raw
    sig_points = [_point(t) for t in sig_angles]
    alphas, a_cap, b_cap, s = config_sums(tau, sig_points, lambdas)
    p_points = [_point(t) for t, _ in atoms]
    p_masses = [m for _, m in atoms]
    # the denominator p + p0 as GeneratorSpec.denominator_atoms lays it out:
    # p's atoms, then p0's, which are the (distinct) sigma_k sorted by angle
    base = sorted(range(len(sig_angles)), key=sig_angles.__getitem__)
    q_points = p_points + [sig_points[k] for k in base]
    q_masses = p_masses + [alphas[k] for k in base]
    w0 = 1j * gamma + point_kernel_sum(q_points, q_masses, 0j, 0)  # tau/G(0) when tau != 0

    if regime == "boundary":
        # lam = dw_spectral_value(spec): zero when p has an atom at tau or
        # the denominator's contact value at tau does not vanish
        tau_theta = circle_angle(cmath.phase(tau))
        tau_mass = next((m for t, m in atoms if angle_gap(t, tau_theta) <= ANGLE_TOL), 0.0)
        lam = 0.0
        if tau_mass == 0.0:
            tau_point = _point(tau_theta)
            contact = gamma + point_kernel_sum(q_points, q_masses, tau_point, 0).imag
            if not abs(contact) > CONTACT_TOL:
                sharp = (-tau_point * point_kernel_sum(p_points, p_masses, tau_point, 1)).real
                lam = 1.0 / (sharp + s)
        records = [("origin_ratio_real", a_cap, w0.real), ("boundary_spectral_cap", lam, 1.0 / s)]
        ratio = w0.real - a_cap
        if lam > 0.0:
            lhs = ratio**2 + (w0.imag + b_cap) ** 2
            records.append(("hyperbolic_window", lhs, 2.0 * (1.0 / lam - s) * ratio))
        else:
            b = 2.0 * tau_mass  # beta(spec): p_star of p at tau
            records.append(("parabolic_floor", 0.0, b))
            records.append(("parabolic_cap", b, 2.0 * ratio))
    else:
        # lam = dw_spectral_value(spec) = (1 - |tau|^2) / (p + p0)(tau)
        lam = (1.0 - abs(tau) ** 2) / (1j * gamma + point_kernel_sum(q_points, q_masses, tau, 0))
        inv = 1.0 / lam
        records = [("spectral_reciprocal_floor", s, 2.0 * inv.real)]
        if regime == "origin":
            # origin_curvature_chart: G''(0) / (2 lambda^2)
            dq = point_kernel_sum(q_points, q_masses, 0j, 1)
            ddq = point_kernel_sum(q_points, q_masses, 0j, 2)
            chart = _quotient_second_derivative(tau, 0.0, w0, dq, ddq) / (2.0 * lam * lam)
            center = sum(p.conjugate() / abs(v) for p, v in zip(sig_points, lambdas))
            records.append(("curvature_window", abs(chart - center), 2.0 * inv.real - s))
        else:
            t = abs(tau)
            one_m = 1.0 - t * t
            records.append(("origin_ratio_real", a_cap, w0.real))
            ratio = w0.real - a_cap
            mid = (one_m * inv).real - one_m * s / 2.0
            records.append(("harnack_lower", (1.0 - t) / (1.0 + t) * ratio, mid))
            records.append(("harnack_upper", mid, (1.0 + t) / (1.0 - t) * ratio))
            tilt = abs((one_m * inv - w0).imag - b_cap)
            records.append(("spectral_tilt", tilt, 2.0 * t / one_m * ratio))

    # memberships, as lhs <= rhs with the region's slack: G(0) in region_Z,
    # lambda in lambda_range (a disk, or an interval for boundary tau)
    if regime != "origin":
        zeta = _mobius_factor(tau, 0.0) / w0
        two_a = 2.0 * a_cap
        records.append(("origin_in_Z", abs(zeta - tau / two_a), abs(tau) / two_a))
    r = 1.0 / s
    if regime != "boundary":
        records.append(("spectral_in_range", abs(lam - complex(r, 0.0)), r))
    elif lam - 0.0 <= r - lam:
        records.append(("spectral_in_range", 0.0, lam))
    else:
        records.append(("spectral_in_range", lam, r))
    return records


def inequality_suite(spec: GeneratorSpec) -> list[InequalityRecord]:
    """Evaluate every sharp inequality applying to this spec's regime.

    Each record states lhs <= rhs.  All slacks are nonnegative for any
    valid spec up to roundoff; the extremal constructors achieve zero
    slack in their matching record.  The spec is read into plain numbers
    and evaluated by _raw_records, the suite `verify` runs.
    """
    config, p = spec.config, spec.p
    raw = (
        config.regime,
        config.tau,
        [point.theta for point in config.sigmas],
        config.lambdas,
        [(point.theta, mass) for point, mass in p.atoms],
        p.gamma,
    )
    return [InequalityRecord(*r) for r in _raw_records(raw) if r[0] not in _MEMBERSHIPS]


# ----------------------------------------------------------------------
# random specs
# ----------------------------------------------------------------------

REGIMES = ("interior", "origin", "boundary_hyperbolic", "boundary_parabolic")


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi), bit for bit and in a third of the time: numpy
    computes lo + (hi - lo) * u from the one draw u that rng.random() makes."""
    return lo + (hi - lo) * rng.random()


def _uniforms(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    """k draws of _uniform in one call; rng.random(k) makes the same k draws."""
    return [lo + (hi - lo) * u for u in rng.random(k).tolist()]


def _distinct_angles(
    rng: np.random.Generator,
    count: int,
    min_gap: float,
    avoid=(),
    avoid_gap: float = 0.0,
) -> list[float]:
    """count uniform angles, by rejection: each farther than min_gap from
    those accepted before it and than avoid_gap from every angle in avoid.

    The draws still missing are made in one call; rejection needs at least
    that many more, so the stream is the same as drawing one at a time.
    """
    chosen: list[float] = []
    while len(chosen) < count:
        for theta in _uniforms(rng, 0.0, TWO_PI, count - len(chosen)):
            if all(angle_gap(theta, c) > min_gap for c in chosen) and all(
                angle_gap(theta, c) > avoid_gap for c in avoid
            ):
                chosen.append(theta)
    return chosen


def _draw_raw(rng: np.random.Generator, regime: str):
    """Draw one generator of the given regime as plain numbers.

    Returns (tau_regime(tau), tau, sigma angles, lambdas, atoms, gamma),
    with p's atoms as (angle, mass) pairs sorted as AtomicHerglotz sorts
    them; they are drawn at least 1e-6 apart, so none merge.  Angles lie
    in [0, 2*pi), where BoundaryPoint keeps them unchanged.

    Law: n uniform on {1..4}; repelling angles uniform with pairwise gap
    > 1e-6; lambda_k = -exp(U[-2,2]); tau uniform on the disk (interior),
    0 (origin), or uniform on the circle off the repelling set (boundary
    regimes); p gets 0..3 atoms with masses exp(U[-3,1]) and constant
    U[-5,5].  The hyperbolic regime then retunes the constant so the
    denominator's contact value at tau vanishes; the parabolic regime adds
    an atom at tau instead.
    """
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    n = int(rng.integers(1, 5))
    sig_angles = _distinct_angles(rng, n, 1e-6)
    lambdas = [-math.exp(x) for x in _uniforms(rng, -2.0, 2.0, n)]

    if regime == "origin":
        tau: complex = 0.0 + 0.0j
        tau_angle: tuple[float, ...] = ()
    elif regime == "interior":
        while True:
            tau = math.sqrt(rng.random()) * cmath.exp(1j * _uniform(rng, 0.0, TWO_PI))
            if abs(tau) > 1e-6:
                break
        tau_angle = ()
    else:
        theta = _distinct_angles(rng, 1, 0.0, avoid=sig_angles, avoid_gap=1e-3)[0]
        tau = _point(theta)
        tau_angle = (theta,)

    n_atoms = int(rng.integers(0, 4))
    atom_angles = _distinct_angles(rng, n_atoms, 1e-6, avoid=tau_angle, avoid_gap=1e-3)
    atoms = sorted(zip(atom_angles, map(math.exp, _uniforms(rng, -3.0, 1.0, n_atoms))))
    gamma = _uniform(rng, -5.0, 5.0)

    if regime == "boundary_hyperbolic":
        # gamma cancels B and the atoms' contact value at tau, which is
        # contact_value's i (0.0 + Im of the kernel sum) for p = atoms alone
        tau_point = _point(circle_angle(cmath.phase(tau)))
        cap_b = config_sums(tau, [_point(t) for t in sig_angles], lambdas)[2]
        contact = point_kernel_sum([_point(t) for t, _ in atoms], [m for _, m in atoms], tau_point, 0)
        gamma = -cap_b - (0.0 + contact.imag)
    elif regime == "boundary_parabolic":
        atoms.append((circle_angle(cmath.phase(tau)), math.exp(_uniform(rng, -3.0, 1.0))))
        atoms.sort()

    return tau_regime(tau), tau, sig_angles, lambdas, atoms, gamma


def random_spec(rng: np.random.Generator, regime: str = "interior") -> GeneratorSpec:
    """Draw a random spec of the given regime, by the law of _draw_raw."""
    _, tau, sig_angles, lambdas, atoms, gamma = _draw_raw(rng, regime)
    config = FixedPointConfig(tau, tuple(BoundaryPoint(t) for t in sig_angles), lambdas)
    p = AtomicHerglotz(tuple((BoundaryPoint(t), m) for t, m in atoms), gamma)
    return GeneratorSpec(config, p)
