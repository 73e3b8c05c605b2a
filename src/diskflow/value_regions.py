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
builds objects for its random generators.  One sampler, _draw_columns,
draws many generators of one regime as numpy columns by the law its
docstring states; `verify` checks its blocks, and random_spec builds its
objects from row 0 of a one-row block.  One record arithmetic, _records,
evaluates every inequality and region membership: _spec_records on the
numbers a spec holds (for inequality_suite), _column_records on a column
block (for `verify`), where the tests on lambda's value become row masks.
Each quantity the records share with the object API (lambda, beta, the
curvature chart, the disks of Z, region_Z_omega and lambda_range) has one
plain-number function that both call; it is written with operators only,
so it takes numpy columns unchanged.
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
    _contact,
    _hyperbolic_value,
    _interior_value,
    _mobius_factor,
    _spec_spectral_value,
    config_sums,
    dw_spectral_value,
    eval_denominator,
)
from .herglotz_core import (
    ANGLE_TOL,
    AtomicHerglotz,
    BoundaryPoint,
    _Record,
    _boundary,
    _complex,
    _real,
    point_kernel_sum,
)

TWO_PI = 2.0 * math.pi

# Membership slack below which a requested point is treated as outside the
# region; charts are exact rationals of the input, so honest members sit
# at worst a few ulps negative.
EDGE_TOL = 1e-10


class DiskRegion(_Record):
    """Closed disk |w - center| <= radius; a non-finite center or radius
    raises DomainError, a negative radius ValueError."""

    def __init__(self, center: complex, radius: float) -> None:
        object.__setattr__(self, "center", _complex(center, "disk center"))
        object.__setattr__(self, "radius", _real(radius, "disk radius"))
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)):
            raise DomainError(f"a disk region must be finite, got {self.center} and {self.radius}")
        if self.radius < 0.0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")

    def slack(self, w: complex) -> float:
        """radius - distance to center; nonnegative inside, zero on the rim."""
        return self.radius - abs(_complex(w, "point w") - self.center)

    def sample_boundary(self, n: int) -> tuple[complex, ...]:
        return tuple(
            self.center + self.radius * cmath.exp(2j * math.pi * k / n) for k in range(n)
        )


class IntervalRegion(_Record):
    """Closed interval [lo, hi] on the real line; a non-finite end raises
    DomainError, lo > hi ValueError."""

    def __init__(self, lo: float, hi: float) -> None:
        object.__setattr__(self, "lo", _real(lo, "interval end"))
        object.__setattr__(self, "hi", _real(hi, "interval end"))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"an interval region must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def slack(self, x: float) -> float:
        x = _real(x, "point x")
        return min(x - self.lo, self.hi - x)

    def sample(self, n: int) -> tuple[float, ...]:
        if n <= 1:
            return (self.lo,)
        return tuple(self.lo + (self.hi - self.lo) * k / (n - 1) for k in range(n))


def _chart(observed: str, value: complex, chart: str, image: complex) -> complex:
    """``image``, the chart value of an observation, where it and the
    observed value are finite; otherwise DomainError naming the observation."""
    if not (cmath.isfinite(value) and cmath.isfinite(image)):
        raise DomainError(f"{observed} must be finite with a finite {chart}, got {value!r}")
    return image


def ell(config: FixedPointConfig, zeta: complex) -> complex:
    """Chart variable tau/zeta - A; equals p(0) for any generator with
    G(0) = zeta.  Re ell >= 0 iff zeta lies in Z.  A zeta or an ell that is
    not finite raises DomainError (_chart)."""
    zeta = _complex(zeta, "point zeta")
    if zeta == 0:
        raise DivisionByZero("the ell chart is singular at zeta = 0")
    return _chart("zeta = G(0)", zeta, "ell = tau/zeta - A", config.tau / zeta - config.capA)


def _ell_in_Z(config: FixedPointConfig, zeta: complex) -> complex:
    """ell(zeta), after checking that zeta lies in Z within EDGE_TOL."""
    lz = ell(config, zeta)
    if not lz.real >= -EDGE_TOL:  # NaN is not in Z
        raise DomainError(f"zeta lies outside Z (Re ell = {lz.real:.3e})")
    return lz


def _z_disk(tau: complex, a_cap: float) -> tuple[complex, float]:
    """Center tau/(2A) and radius |tau|/(2A) of Z."""
    two_a = 2.0 * a_cap
    return tau / two_a, abs(tau) / two_a


def region_Z(config: FixedPointConfig) -> DiskRegion:
    """Range of G(0): the closed disk with center tau/(2A), radius |tau|/(2A)."""
    if config.is_origin:
        raise DegenerateConfig("Z degenerates to {0} for tau = 0")
    return DiskRegion(*_z_disk(config.tau, config.capA))


# ----------------------------------------------------------------------
# interior tau != 0: the eta chart
# ----------------------------------------------------------------------


def eta_chart(config: FixedPointConfig, lam: complex) -> complex:
    """eta = (1 - |tau|^2)/lambda, the denominator value at tau.  A lambda
    or an eta that is not finite raises DomainError (_chart)."""
    lam = _complex(lam, "spectral value lambda")
    if lam == 0:
        raise DivisionByZero("eta chart is singular at lambda = 0")
    eta = (1.0 - abs(config.tau) ** 2) / lam
    return _chart("lambda", lam, "eta = (1 - |tau|^2)/lambda", eta)


def region_Omega(config: FixedPointConfig, zeta: complex) -> DiskRegion:
    """Spectral-value region over G(0) = zeta, interior tau != 0.

    Returned in the eta chart.  For zeta = 0 the fiber contains only the
    zero field, so the region is the lambda-chart singleton {0}, returned
    as DiskRegion(0, 0); genuine eta-chart disks always have Re center > 0,
    so the marker is unambiguous.
    """
    config._require("interior", "region_Omega", "region_Omega_origin")
    zeta = _complex(zeta, "point zeta")
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
    config._require("interior", "extremal_interior", "extremal_origin")
    lz = ell(config, zeta)
    if lz.real <= 0.0:
        raise DomainError("zeta must lie in the interior of Z")
    p = AtomicHerglotz(((_boundary(sigma, "direction sigma"), lz.real),), lz.imag)
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
    config._require("origin", "region_Omega_origin")
    return DiskRegion(*_lambda_disk(config.inv_lambda_sum))


def _inverse(omega: complex) -> complex:
    """1/omega of an observed spectral value omega, tau = 0.  The fiber over
    omega = 0 is the zero field alone, which has no second-order chart, and
    an omega or a 1/omega that is not finite raises DomainError (_chart)."""
    omega = _complex(omega, "spectral value omega")
    if omega == 0:
        raise DomainError("the fiber over omega = 0 is the zero field only")
    return _chart("omega = lambda(G)", omega, "1/omega", 1.0 / omega)


def _z_omega_disk(points, lambdas, inv: complex, s: float) -> tuple[complex, float]:
    """Center and radius of region_Z_omega, unclamped, from inv = 1/omega;
    points are the sigma_k."""
    center = sum(p.conjugate() / abs(v) for p, v in zip(points, lambdas))
    return center, 2.0 * inv.real - s


def region_Z_omega(config: FixedPointConfig, omega: complex) -> DiskRegion:
    """Second-order region over a spectral value omega, tau = 0.

    The observable is G''(0)/(2 omega^2); over all generators with
    lambda(G) = omega it fills the disk centered at sum_k conj(sigma_k) /
    |lambda_k| with radius 2 Re(1/omega) - sum_k |lambda_k|^{-1}.  The
    fiber over omega = 0 is the zero field alone, which has no second
    order chart; that input is rejected.
    """
    config._require("origin", "region_Z_omega")
    points = [s.value for s in config.sigmas]
    center, radius = _z_omega_disk(points, config.lambdas, _inverse(omega), config.inv_lambda_sum)
    if radius < -EDGE_TOL:
        raise DomainError("omega lies outside the spectral-value disk")
    return DiskRegion(center, max(radius, 0.0))


def _curvature_chart(tau: complex, q_points, q_masses, q0: complex, lam: complex) -> complex:
    """G''(0)/(2 lambda^2) for G = u/q, from the atoms of q = p + p0 and q(0)."""
    dq = point_kernel_sum(q_points, q_masses, 0j, 1)
    ddq = point_kernel_sum(q_points, q_masses, 0j, 2)
    u, du, ddu = _mobius_factor(tau, 0.0), -(1.0 + abs(tau) ** 2), 2.0 * tau.conjugate()
    return ((ddu * q0 - u * ddq) * q0 - 2.0 * dq * (du * q0 - u * dq)) / q0**3 / (2.0 * lam * lam)


def origin_curvature_chart(spec: GeneratorSpec) -> complex:
    """G''(0)/(2 lambda^2) for a tau = 0 spec."""
    spec.config._require("origin", "origin_curvature_chart")
    lam = dw_spectral_value(spec)
    if lam == 0:
        raise DivisionByZero("curvature chart is singular at lambda = 0")
    q_points, q_masses = spec.denominator_atoms
    return _curvature_chart(spec.config.tau, q_points, q_masses, eval_denominator(spec, 0.0), lam)


def extremal_origin(
    config: FixedPointConfig, omega: complex, sigma: BoundaryPoint
) -> GeneratorSpec:
    """Generator with tau = 0 and lambda(G) = omega whose curvature chart
    value lies on the boundary of region_Z_omega, direction sigma.

    Requires omega interior to the spectral disk.  Free summand: atom of
    mass Re(1/omega) - S/2 at sigma plus the matching imaginary constant.
    """
    config._require("origin", "extremal_origin")
    lhat = _inverse(omega) - config.inv_lambda_sum / 2.0
    if lhat.real <= 0.0:
        raise DomainError("omega must lie in the interior of the spectral disk")
    p = AtomicHerglotz(((_boundary(sigma, "direction sigma"), lhat.real),), lhat.imag)
    return GeneratorSpec(config, p)


# ----------------------------------------------------------------------
# boundary tau: the spectral interval and the parabolic coefficient
# ----------------------------------------------------------------------


def interval_I(config: FixedPointConfig, zeta: complex) -> IntervalRegion:
    """Range of lambda(G) over G(0) = zeta for boundary tau.

    Interior zeta != 0: the interval [0, f] with
    f = 2 Re w / (|w|^2 + 2 Re w * S), w = ell + i B, read with both terms
    over |w| where the denominator overflows.  On the boundary
    circle of Z the fiber collapses: it is {1/S} at the single point where
    1/conj(zeta) = sum_k (tau - sigma_k)/|lambda_k| and {0} elsewhere.
    The fiber over zeta = 0 is the zero field, giving {0}.
    """
    config._require("boundary", "interval_I")
    zeta = _complex(zeta, "point zeta")
    if zeta == 0:
        return IntervalRegion(0.0, 0.0)
    lz = _ell_in_Z(config, zeta)
    s = config.inv_lambda_sum
    if lz.real > EDGE_TOL:
        w = lz + 1j * config.capB
        top, half = 2.0 * w.real, abs(0.5 * w)  # |w|/2 is a float however large w is
        den = abs(w) ** 2 + top * s if half < 5e153 else math.inf
        if den < math.inf:
            return IntervalRegion(0.0, top / den)
        x = w.real / half  # f with both terms over |w|, where their sum overflows
        return IntervalRegion(0.0, x / (2.0 * half + x * s))
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
    config._require("boundary", "extremal_hyperbolic")
    lz = ell(config, zeta)
    if lz.real <= 0.0:
        raise DomainError("zeta must lie in the interior of Z")
    a = -(lz.imag + config.capB) / lz.real
    _, sigma = caratheodory_min_sharp(config.tau_point, a)
    p = AtomicHerglotz(((sigma, lz.real),), lz.imag)
    return GeneratorSpec(config, p)


def parabolic_region(config: FixedPointConfig, zeta: complex) -> IntervalRegion:
    """Range of the parabolic coefficient beta over G(0) = zeta: the
    interval [0, 2 Re ell], boundary tau."""
    config._require("boundary", "parabolic_region")
    lz = _ell_in_Z(config, zeta)
    return IntervalRegion(0.0, 2.0 * max(lz.real, 0.0))


def extremal_parabolic(config: FixedPointConfig, zeta: complex) -> GeneratorSpec:
    """Generator attaining beta = 2 Re ell over G(0) = zeta: the free
    summand puts all its mass directly at tau."""
    config._require("boundary", "extremal_parabolic")
    lz = _ell_in_Z(config, zeta)
    p = AtomicHerglotz(((config.tau_point, max(lz.real, 0.0)),), lz.imag)
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
    center, r = _lambda_disk(config.inv_lambda_sum)
    extremal = GeneratorSpec(config, AtomicHerglotz((), -config.capB))
    if config.is_boundary:
        return IntervalRegion(0.0, r), extremal
    return DiskRegion(center, r), extremal


def _lambda_disk(s: float) -> tuple[complex, float]:
    """Center r and radius r = 1/S of lambda_range's disk (interval [0, r])."""
    r = 1.0 / s
    return r + 0j, r


def caratheodory_min_sharp(tau: BoundaryPoint, a: float) -> tuple[float, BoundaryPoint]:
    """Minimum of p#(tau) over unit-mass atomic p with contact tilt a.

    Constraints: sum of masses 1 and sum m_j Im K_{s_j}(tau) = a.  Each
    atom contributes mass * (1 + c^2)/2 to p#(tau) where c is its tilt
    Im K_s(tau), so by strict convexity the minimum is (1 + a^2)/2,
    attained only by the single atom with tilt exactly a, located at
    -tau (1+ia)/(1-ia).
    """
    tau, a = _boundary(tau, "boundary point tau"), _real(a, "tilt a")
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


# the records of _spec_records that inequality_suite leaves out: G(0) in Z
# and lambda(G) in the range of lambda_range, each stated with its region's slack
_MEMBERSHIPS = ("origin_in_Z", "spectral_in_range")


def _spec_records(spec: GeneratorSpec) -> list[tuple[str, float, float]]:
    """Every sharp inequality of a spec, as (name, lhs, rhs) triples: the
    records of inequality_suite followed by the _MEMBERSHIPS, from _records
    on the numbers the spec holds."""
    c, p, q = spec.config, spec.p, spec.denominator_atoms
    sig_points = [s.value for s in c.sigmas]
    lam, b = _spec_spectral_value(spec)
    records = _records(c.regime, c.tau, sig_points, c.lambdas, c._sums, *q, p.gamma, lam, b)
    return [(name, lhs, rhs) for name, lhs, rhs, rows in records if rows]


def _records(regime, tau, sig_points, lambdas, sums, q_points, q_masses, gamma, lam, b):
    """The records of _spec_records as (name, lhs, rhs, rows), from one
    generator's plain numbers or one regime's numpy columns, laid out as
    _spec_records reads them off a spec.  ``rows`` is where a record applies:
    True, or a test of lambda's value, a bool for one generator and a row
    mask for columns; a record whose test is False is not evaluated.
    """
    _, a_cap, b_cap, s = sums
    w0 = 1j * gamma + point_kernel_sum(q_points, q_masses, 0j, 0)  # tau/G(0) when tau != 0
    lam_center, r = _lambda_disk(s)
    ratio = w0.real - a_cap

    if regime == "boundary":
        records = [
            ("origin_ratio_real", a_cap, w0.real, True),
            ("boundary_spectral_cap", lam, r, True),
        ]
        hyperbolic, parabolic = lam > 0.0, lam <= 0.0
        if hyperbolic is not False:
            lhs = ratio**2 + (w0.imag + b_cap) ** 2
            records.append(("hyperbolic_window", lhs, 2.0 * (1.0 / lam - s) * ratio, hyperbolic))
        if parabolic is not False:
            records.append(("parabolic_floor", 0.0, b, parabolic))
            records.append(("parabolic_cap", b, 2.0 * ratio, parabolic))
    else:
        inv = 1.0 / lam
        records = [("spectral_reciprocal_floor", s, 2.0 * inv.real, True)]
        if regime == "origin":
            chart = _curvature_chart(tau, q_points, q_masses, w0, lam)
            center, radius = _z_omega_disk(sig_points, lambdas, inv, s)
            records.append(("curvature_window", abs(chart - center), radius, True))
        else:
            t = abs(tau)
            one_m = 1.0 - t * t
            records.append(("origin_ratio_real", a_cap, w0.real, True))
            mid = (one_m * inv).real - one_m * s / 2.0
            records.append(("harnack_lower", (1.0 - t) / (1.0 + t) * ratio, mid, True))
            records.append(("harnack_upper", mid, (1.0 + t) / (1.0 - t) * ratio, True))
            tilt = abs((one_m * inv - w0).imag - b_cap)
            records.append(("spectral_tilt", tilt, 2.0 * t / one_m * ratio, True))

    # memberships, as lhs <= rhs with the region's slack: G(0) in region_Z,
    # lambda in lambda_range (a disk, or an interval for boundary tau, whose
    # nearer end gives the record)
    if regime != "origin":
        center, radius = _z_disk(tau, a_cap)
        records.append(("origin_in_Z", abs(_mobius_factor(tau, 0.0) / w0 - center), radius, True))
    if regime != "boundary":
        records.append(("spectral_in_range", abs(lam - lam_center), r, True))
    else:
        records.append(("spectral_in_range", 0.0, lam, lam - 0.0 <= r - lam))
        records.append(("spectral_in_range", lam, r, lam - 0.0 > r - lam))
    return records


def inequality_suite(spec: GeneratorSpec) -> list[InequalityRecord]:
    """Evaluate every sharp inequality applying to this spec's regime.

    Each record states lhs <= rhs.  All slacks are nonnegative for any
    valid spec up to roundoff; the extremal constructors achieve zero
    slack in their matching record.  _spec_records evaluates them on the
    record arithmetic (_records) that `verify` runs on its column blocks.
    """
    return [InequalityRecord(*r) for r in _spec_records(spec) if r[0] not in _MEMBERSHIPS]


# ----------------------------------------------------------------------
# random generators
# ----------------------------------------------------------------------

REGIMES = ("interior", "origin", "boundary_hyperbolic", "boundary_parabolic")

# sigma slots and atom slots of a column row: n <= 4 repelling points, and
# p's at most 3 free atoms plus the parabolic draw's atom at tau
SLOTS = 4
# where a padded slot sits: off the closed disk, so that its zero mass adds
# an exact 0 to every kernel sum
PAD_POINT = 2.0


def _near(a, b, gap):
    """angle_gap(a, b) <= gap, elementwise; false where an angle is NaN.

    Every angle must lie in [0, 2*pi) or be NaN, as the column draws give
    them: then |a - b| < 2*pi, which angle_gap's exact remainder by 2*pi
    returns unchanged, so it is left out.
    """
    d = abs(a - b)
    return (d <= gap) | (TWO_PI - d <= gap)


def _points(angles):
    """e^{i theta} of a column of angles in [0, 2*pi), as BoundaryPoint.value
    computes it; a NaN (padded) angle gives PAD_POINT."""
    pads = np.isnan(angles)
    if not pads.any():
        # no pads, as in the boundary regimes' tau column: no gather or scatter
        points = np.empty(angles.shape, complex)
        points.real = np.cos(angles)
        points.imag = np.sin(angles)
        return points
    points = np.full(angles.size, PAD_POINT, complex)
    # cos and sin run on the drawn angles alone, gathered into one
    # contiguous temporary; by index, since a boolean mask into the strided
    # .real and .imag views took twice as long
    drawn = np.flatnonzero(~pads)
    theta = angles.take(drawn)
    points.real[drawn] = np.cos(theta)
    points.imag[drawn] = np.sin(theta)
    return points.reshape(angles.shape)


def _column_points(tau, sig_angles, lambdas, atom_angles):
    """The sigma points and atom points of a column block, each a list of
    columns, and config_sums of its configurations."""
    sig_points = list(_points(sig_angles).T)
    sums = config_sums(tau, sig_points, list(lambdas.T))
    return sig_points, list(_points(atom_angles).T), sums


def _angle_columns(rng, rows: int, slots: int, min_gap: float, avoid=None, avoid_gap=0.0):
    """(rows, slots) uniform angles in [0, 2*pi), by rejection: a row
    redraws a slot alone while it lies within min_gap of the row's earlier
    slots or within avoid_gap of an angle in its row of ``avoid``, whose
    NaN entries are ignored."""
    angles = np.empty((rows, slots))
    for k in range(slots):
        # every row first, by slices; then the rejected rows, by index
        todo, count = slice(None), rows
        while count:
            theta = TWO_PI * rng.random(count)
            angles[todo, k] = theta
            redo = _near(theta[:, None], angles[todo, :k], min_gap).any(1)
            if avoid is not None:
                redo |= _near(theta[:, None], avoid[todo], avoid_gap).any(1)
            todo = np.flatnonzero(redo) if isinstance(todo, slice) else todo[redo]
            count = todo.size
    return angles


def _draw_columns(rng: np.random.Generator, regime: str, rows: int):
    """Draw ``rows`` generators of one regime as numpy columns.

    Law, for each row: n uniform on {1..4}; repelling angles uniform with
    pairwise gap > 1e-6; lambda_k = -exp(U[-2,2]); tau uniform on the disk
    with |tau| > 1e-6 (interior), 0 (origin), or uniform on the circle more
    than 1e-3 from every sigma_k (boundary regimes); p gets 0..3 atoms,
    more than 1e-6 apart and 1e-3 from a boundary tau, with masses
    exp(U[-3,1]) and constant U[-5,5].  The hyperbolic regime then retunes
    the constant so the denominator's contact value at tau vanishes; the
    parabolic regime adds an atom at tau instead.  Each quantity is drawn
    for every row at once, and a row that breaks an angle gap redraws just
    the offending slot.

    Returns (tau_regime, tau, tau's angle, sigma angles, lambdas, atom
    angles, masses, gamma, points).  tau's angle is the drawn angle of a
    boundary tau, None for the other regimes.  The sigma angles, lambdas,
    atom angles and masses are (rows, SLOTS) arrays in draw order: p's free
    atoms fill the first slots, and the last slot holds the parabolic draw's
    atom at tau.  A padded slot has angle NaN and zero weight: lambda =
    -inf, or mass 0.  points is the block's _column_points, which the
    hyperbolic retune reads and _column_records takes over.
    """
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    pads = np.arange(SLOTS) >= rng.integers(1, 5, rows)[:, None]
    sig_angles = _angle_columns(rng, rows, SLOTS, 1e-6)
    sig_angles[pads] = np.nan
    lambdas = np.where(pads, -np.inf, -np.exp(-2.0 + 4.0 * rng.random((rows, SLOTS))))

    tau_angle = None
    if regime == "origin":
        tau = np.zeros(rows, complex)
    elif regime == "interior":
        tau = np.empty(rows, complex)
        todo = np.arange(rows)
        while todo.size:
            radius = np.sqrt(rng.random(todo.size))
            tau[todo] = radius * np.exp(1j * (TWO_PI * rng.random(todo.size)))
            todo = todo[abs(tau[todo]) <= 1e-6]
    else:
        tau_angle = _angle_columns(rng, rows, 1, 0.0, avoid=sig_angles, avoid_gap=1e-3)[:, 0]
        tau = _points(tau_angle)

    atom_angles = np.full((rows, SLOTS), np.nan)
    masses = np.zeros((rows, SLOTS))
    free = SLOTS - 1
    atom_pads = np.arange(free) >= rng.integers(0, 4, rows)[:, None]
    avoid = None if tau_angle is None else tau_angle[:, None]
    atom_angles[:, :free] = _angle_columns(rng, rows, free, 1e-6, avoid, 1e-3)
    atom_angles[:, :free][atom_pads] = np.nan
    masses[:, :free] = np.where(atom_pads, 0.0, np.exp(-3.0 + 4.0 * rng.random((rows, free))))
    gamma = -5.0 + 10.0 * rng.random(rows)

    if regime == "boundary_parabolic":
        atom_angles[:, free] = tau_angle
        masses[:, free] = np.exp(-3.0 + 4.0 * rng.random(rows))
    points = _column_points(tau, sig_angles, lambdas, atom_angles)
    if regime == "boundary_hyperbolic":
        _, atom_points, (_, _, cap_b, _) = points
        gamma = -cap_b - _contact(0.0, atom_points, list(masses.T), tau)
    kind = regime if regime in ("origin", "interior") else "boundary"
    return kind, tau, tau_angle, sig_angles, lambdas, atom_angles, masses, gamma, points


def random_spec(rng: np.random.Generator, regime: str = "interior") -> GeneratorSpec:
    """Draw a random spec of the given regime: row 0 of a one-row
    _draw_columns block, whose docstring states the law in full.

    Law: n uniform on {1..4} repelling points with lambda_k = -exp(U[-2,2]);
    tau uniform on the disk, 0, or uniform on the circle; p with 0..3 atoms
    of mass exp(U[-3,1]) and constant U[-5,5], retuned so that lambda > 0
    (boundary_hyperbolic) or given an atom at tau (boundary_parabolic).
    """
    _, tau, _, sig_angles, lambdas, atom_angles, masses, gamma, _ = _draw_columns(rng, regime, 1)
    sig, atoms = ~np.isnan(sig_angles[0]), ~np.isnan(atom_angles[0])
    sigmas = tuple(BoundaryPoint(t) for t in sig_angles[0][sig].tolist())
    config = FixedPointConfig(complex(tau[0]), sigmas, lambdas[0][sig].tolist())
    pairs = zip(atom_angles[0][atoms].tolist(), masses[0][atoms].tolist())
    p = AtomicHerglotz(tuple((BoundaryPoint(t), m) for t, m in pairs), float(gamma[0]))
    return GeneratorSpec(config, p)


# ----------------------------------------------------------------------
# verify's records
# ----------------------------------------------------------------------


def _column_spectral_value(
    regime, tau, tau_angle, gamma, atom_angles, masses, q_points, q_masses, s
):
    """_spec_spectral_value of every row of a column block, with its tests
    on values as row masks: an atom of p at tau, then the contact value.
    q's first atoms are p's, one per column of masses."""
    if regime != "boundary":
        return _interior_value(tau, gamma, q_points, q_masses), 0.0
    # p's atoms lie more than 1e-6 apart, so at most one is within ANGLE_TOL of tau
    mass = np.where(_near(atom_angles, tau_angle[:, None], ANGLE_TOL), masses, 0.0).max(1)
    at_tau = mass > 0.0
    hyperbolic = ~at_tau & ~(abs(_contact(gamma, q_points, q_masses, tau)) > CONTACT_TOL)
    atoms = masses.shape[1]
    lam = _hyperbolic_value(tau, q_points[:atoms], q_masses[:atoms], s)
    return np.where(hyperbolic, lam, 0.0), np.where(at_tau, 2.0 * mass, 0.0)


def _column_records(columns):
    """_records of every row of a _draw_columns block.

    Returns (name, lhs, rhs, rows) with lhs and rhs columns over all rows
    and rows True or the mask of the rows a record applies to.  A row
    outside its record's mask may hold inf or NaN there.
    """
    regime, tau, tau_angle, _, lambdas, atom_angles, masses, gamma, points = columns
    lambda_columns = list(lambdas.T)
    sig_points, atom_points, sums = points
    # the last atom slot, the parabolic draw's, is padded in every row
    # outside boundary_parabolic, where it would add exact zeros to every sum
    atoms = SLOTS if masses[:, -1].any() else SLOTS - 1
    atom_angles, masses = atom_angles[:, :atoms], masses[:, :atoms]
    # the denominator p + p0: p's atoms, then the sigma_k with their alphas
    q_points = atom_points[:atoms] + sig_points
    q_masses = list(masses.T) + list(sums[0])
    # a row outside a branch may divide by zero there: an atom at tau, or lambda = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lam, b = _column_spectral_value(
            regime, tau, tau_angle, gamma, atom_angles, masses, q_points, q_masses, sums[3]
        )
        records = _records(
            regime, tau, sig_points, lambda_columns, sums, q_points, q_masses, gamma, lam, b
        )

    def column(side):  # only a side that is one float for all rows (0.0) is broadcast
        return side if isinstance(side, np.ndarray) else np.broadcast_to(side, tau.shape)

    return [(name, column(lhs), column(rhs), rows) for name, lhs, rhs, rows in records]
