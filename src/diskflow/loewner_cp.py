"""Time-dependent fields and the spectral region of their time-T maps.

A PiecewiseField is a finite concatenation of generator specs over a
shared fixed-point skeleton, each active for a positive duration.  When
every segment's repelling spectral moduli sum to 1 the field is strict;
sub-normalized fields (sum <= 1) are admitted too.

For the evolution over the whole horizon [0, T]:

  * boundary_log_derivative(field, k) = log phi_T'(sigma_k), computed
    from the spectral formula as sum_i d_i |lambda_k(segment_i)|;
  * psi_tau(field) = -log phi_T'(tau) = sum_i d_i lambda(segment_i).

Prescribing phi_T'(sigma_k) = a_k with sum_k log a_k = T pins the
repelling data; psi_tau then ranges over an explicit disk (interior tau)
or interval (boundary tau) whose size is the harmonic-type mean
r(A) = 1 / sum_k (log a_k)^{-1}.  The boundary of the disk is traced by
the one-segment fields of cp_extremal_field with purely imaginary
parameter, and r(A) itself is attained in the boundary-tau case.  The
concavity of the harmonic mean Q drives the argument; q_hessian and
q_concavity_check expose it for direct inspection.
"""

from __future__ import annotations

import cmath
import math

from ._lazy import np

from .errors import DegenerateConfig, DomainError, NormalizationError, TargetMismatch
from .generator import (
    FixedPointConfig,
    GeneratorSpec,
    brfp_spectral_value,
    dw_spectral_value,
    tau_regime,
)
from .herglotz_core import (
    AtomicHerglotz,
    BoundaryPoint,
    _Record,
    _boundary,
    _complex,
    _real,
    angle_gap,
    cached_property,
    contact_value,
    herglotz_kernel,
)
from .semiflow import integrate_flow, integrate_flow_with_derivative
from .value_regions import DiskRegion, IntervalRegion

TWO_PI = 2.0 * math.pi

NORMALIZATION_TOL = 1e-12
# a field realizes a target when each log phi_T'(sigma_k) is within this
TARGET_TOL = 1e-9
# random draws per sampled property in q_concavity_check
CONCAVITY_DRAWS = 50
# least spectral fraction of a random_strict_field segment at each sigma_k
ROW_FLOOR = 0.01
# random_strict_field aims this far (4 ulps of 1) above a floor it lifts a draw to
_FLOOR_MARGIN = 4.0 * 2.0**-52


def _modulus_sum(spec: GeneratorSpec) -> float:
    """Sum of a segment's repelling spectral moduli |lambda_k|."""
    return sum(abs(brfp_spectral_value(spec, k)) for k in range(spec.config.n))


class PiecewiseField(_Record):
    """Concatenation of generator specs over one fixed-point skeleton.

    segments is a tuple of (duration, spec) pairs, run in order.  All
    segments must share tau and the repelling set.  strict=True demands
    each segment's actual repelling spectral moduli sum to exactly 1
    (within 1e-12); strict=False relaxes this to <= 1.
    """

    def __init__(
        self, segments: tuple[tuple[float, GeneratorSpec], ...], strict: bool = True
    ) -> None:
        segments = tuple([(_real(d, "segment duration"), s) for d, s in segments])
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "strict", strict)
        if not self.segments:
            raise DomainError("a field needs at least one segment")
        if any(not 0.0 < d < math.inf for d, _ in self.segments):
            raise DomainError("segment durations must be positive and finite")
        head = self.segments[0][1].config
        for _, spec in self.segments[1:]:
            if not spec.config.has_skeleton(head.tau, head.sigmas):
                raise DegenerateConfig("segments must share tau and the repelling set")
        for _, spec in self.segments:
            total = _modulus_sum(spec)
            if self.strict and abs(total - 1.0) > NORMALIZATION_TOL:
                raise NormalizationError(
                    f"strict field needs spectral moduli summing to 1, got {total!r}"
                )
            if not self.strict and total > 1.0 + NORMALIZATION_TOL:
                raise NormalizationError(
                    f"spectral moduli must not exceed 1, got {total!r}"
                )


class CPTarget(_Record):
    """Prescribed boundary derivatives a_k = phi_T'(sigma_k), all > 1."""

    def __init__(self, a: tuple[float, ...]) -> None:
        object.__setattr__(self, "a", tuple([_real(v, "target derivative") for v in a]))
        if not self.a:
            raise DomainError("at least one target derivative is required")
        if any(not 1.0 < v < math.inf for v in self.a):
            raise DomainError("target boundary derivatives must be finite and exceed 1")

    @cached_property
    def log_values(self) -> tuple[float, ...]:
        return tuple(math.log(v) for v in self.a)

    @cached_property
    def horizon(self) -> float:
        """T = sum_k log a_k, the forced total duration of a strict field."""
        return sum(self.log_values)


def evolve(field: PiecewiseField, z0: complex) -> complex:
    """The time-T map of the field applied to z0, segment by segment."""
    for duration, spec in field.segments:
        z0 = integrate_flow(spec, z0, duration)
    return z0


def evolve_with_derivative(field: PiecewiseField, z0: complex) -> tuple[complex, complex]:
    """Time-T map and its z-derivative via the chain rule over segments."""
    deriv = 1.0 + 0.0j
    for duration, spec in field.segments:
        z0, v = integrate_flow_with_derivative(spec, z0, duration)
        deriv *= v
    return z0, deriv


def boundary_log_derivative(field: PiecewiseField, k: int) -> float:
    """log phi_T'(sigma_k) from the spectral formula; brfp_spectral_value reads k."""
    return sum(-brfp_spectral_value(spec, k) * d for d, spec in field.segments)


def psi_tau(field: PiecewiseField) -> complex:
    """-log phi_T'(tau) = integral of the Denjoy-Wolff spectral value."""
    return sum(complex(dw_spectral_value(spec)) * d for d, spec in field.segments)


# ----------------------------------------------------------------------
# the harmonic-type mean and its concavity
# ----------------------------------------------------------------------


def harmonic_Q(x) -> float:
    """Q(x) = 1 / sum_j 1/x_j on positive vectors."""
    vals = [_real(v, "coordinate") for v in x]
    if not vals or any(not 0.0 < v < math.inf for v in vals):
        raise DomainError("Q requires a nonempty positive finite vector")
    return 1.0 / sum(1.0 / v for v in vals)


def q_hessian(x) -> np.ndarray:
    """Hessian of Q at x: 2Q^3/(x_j^2 x_k^2) off-diagonal and
    2Q^3/x_j^4 - 2Q^2/x_j^3 on it.  Negative semidefinite with kernel
    spanned by x itself (Q is 1-homogeneous)."""
    vec = np.asarray([_real(v, "coordinate") for v in x], dtype=float)
    if vec.size == 0 or not np.all((0.0 < vec) & (vec < math.inf)):
        raise DomainError("Q requires a nonempty positive finite vector")
    q = 1.0 / np.sum(1.0 / vec)
    inv2 = 1.0 / vec**2
    h = 2.0 * q**3 * np.outer(inv2, inv2)
    h[np.diag_indices_from(h)] -= 2.0 * q**2 / vec**3
    return h


class ConcavityReport(_Record):
    def __init__(
        self,
        max_eigenvalue: float,
        abs_det: float,
        det_scale: float,
        min_midpoint_gap: float,
        min_strict_gap: float,
        max_ray_residual: float,
        concave: bool,
    ) -> None:
        object.__setattr__(self, "max_eigenvalue", max_eigenvalue)
        object.__setattr__(self, "abs_det", abs_det)
        object.__setattr__(self, "det_scale", det_scale)
        object.__setattr__(self, "min_midpoint_gap", min_midpoint_gap)
        object.__setattr__(self, "min_strict_gap", min_strict_gap)
        object.__setattr__(self, "max_ray_residual", max_ray_residual)
        object.__setattr__(self, "concave", concave)


def q_concavity_check(x, rng: np.random.Generator | None = None) -> ConcavityReport:
    """Spectral and sampling evidence that Q is concave, strictly so on
    the simplex.

    Checks the Hessian at x (eigenvalues <= 0, determinant 0 by
    homogeneity), random midpoint gaps Q((u+v)/2) - (Q(u)+Q(v))/2 >= 0,
    strict positivity of the gap for distinct simplex points, and the
    exact equality along rays v = t u, each from CONCAVITY_DRAWS draws.
    Each simplex point is half a flat Dirichlet draw, half the barycenter.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    vec = np.asarray([_real(v, "coordinate") for v in x], dtype=float)
    n = vec.size
    h = q_hessian(vec)
    eigs = np.linalg.eigvalsh(h)
    max_eig = float(eigs[-1])
    abs_det = abs(float(np.linalg.det(h)))
    det_scale = float(max(1.0, np.abs(h).max()) ** n)

    def q_of(v: np.ndarray) -> float:
        return 1.0 / float(np.sum(1.0 / v))

    min_mid = math.inf
    for _ in range(CONCAVITY_DRAWS):
        u = vec * np.exp(rng.uniform(-1.0, 1.0, n))
        v = vec * np.exp(rng.uniform(-1.0, 1.0, n))
        min_mid = min(min_mid, q_of((u + v) / 2.0) - (q_of(u) + q_of(v)) / 2.0)

    min_strict = 0.0
    if n >= 2:
        pairs = 0.5 * (rng.dirichlet(np.ones(n), size=(2, CONCAVITY_DRAWS)) + 1.0 / n)
        min_strict = min(
            q_of((u + v) / 2.0) - (q_of(u) + q_of(v)) / 2.0 for u, v in zip(*pairs)
        )

    max_ray = 0.0
    for _ in range(CONCAVITY_DRAWS):
        u = vec * np.exp(rng.uniform(-1.0, 1.0, n))
        t = math.exp(rng.uniform(-1.0, 1.0))
        gap = q_of((u + t * u) / 2.0) - (q_of(u) + q_of(t * u)) / 2.0
        max_ray = max(max_ray, abs(gap))

    concave = max_eig <= 1e-9 and min_mid >= -1e-12
    return ConcavityReport(
        max_eig, abs_det, det_scale, min_mid, min_strict, max_ray, concave
    )


# ----------------------------------------------------------------------
# the spectral region of the time-T map
# ----------------------------------------------------------------------


def cp_region(target: CPTarget) -> DiskRegion:
    """Range of psi_tau over strict fields realizing the target, interior
    tau: the disk |w - r| <= r with r = 1/sum_k (log a_k)^{-1}."""
    r = harmonic_Q(target.log_values)
    return DiskRegion(complex(r, 0.0), r)


def cp_region_boundary(target: CPTarget) -> IntervalRegion:
    """Boundary-tau variant: psi_tau is real and fills [0, r]."""
    return IntervalRegion(0.0, harmonic_Q(target.log_values))


_GOLDEN_STEP = TWO_PI * (1.0 - 2.0 / (1.0 + math.sqrt(5.0)))


def _skeleton_angles(config: FixedPointConfig) -> tuple[float, ...]:
    """Angles the atoms of a free summand avoid: each sigma_k, and tau on the circle."""
    tau = () if config.tau_point is None else (config.tau_point.theta,)
    return tuple(s.theta for s in config.sigmas) + tau


def _target_sigmas(sigmas, target: CPTarget) -> tuple[BoundaryPoint, ...]:
    """The repelling points, each read by _boundary, one per target derivative."""
    sigmas = tuple([_boundary(s, "repelling point") for s in sigmas])
    if len(sigmas) != len(target.a):
        raise DomainError("one target derivative per repelling point is required")
    return sigmas


def _free_angle(avoid: tuple[float, ...], start: float) -> float:
    """First angle of a golden-ratio walk from ``start`` 0.05 clear of ``avoid``."""
    theta = start % TWO_PI
    for _ in range(256):
        if all(angle_gap(theta, a) > 0.05 for a in avoid):
            return theta
        theta = (theta + _GOLDEN_STEP) % TWO_PI
    raise DegenerateConfig("could not place an atom away from the fixed points")


def cp_extremal_field(
    tau: complex,
    sigmas: tuple[BoundaryPoint, ...],
    target: CPTarget,
    c: complex = 0.0,
) -> PiecewiseField:
    """One-segment strict field realizing the target, indexed by c with
    Re c >= 0.

    Interior tau: the free summand is chosen with p(tau) = c exactly, so
    purely imaginary c traces the full boundary circle of cp_region and
    Re c > 0 moves strictly inside.  Boundary tau: the free summand gets
    contact value zero and p#(tau) = Re c at tau, so c = 0 attains the
    top r of the interval; Im c has no effect there and is ignored.
    """
    c = _complex(c, "parameter c")
    if c.real < 0.0:
        raise DomainError("the parameter must have nonnegative real part")
    sigmas = _target_sigmas(sigmas, target)
    t_total = target.horizon
    lambdas = tuple(-lv / t_total for lv in target.log_values)
    config = FixedPointConfig(tau, sigmas, lambdas)
    tau = config.tau

    avoid = _skeleton_angles(config)
    if config.is_boundary:
        if c.real == 0.0:
            p = AtomicHerglotz((), -config.capB)
        else:
            spot = BoundaryPoint(_free_angle(avoid, config.tau_point.theta + math.pi))
            mass = c.real * abs(spot.value - tau) ** 2 / 2.0
            tilt = contact_value(AtomicHerglotz(((spot, mass),), 0.0), config.tau_point).imag
            p = AtomicHerglotz(((spot, mass),), -config.capB - tilt)
    else:
        start = math.pi if config.is_origin else cmath.phase(-tau)
        if c.real == 0.0:
            p = AtomicHerglotz((), c.imag)
        else:
            spot = BoundaryPoint(_free_angle(avoid, start))
            kernel = herglotz_kernel(spot, tau)
            mass = c.real / kernel.real
            p = AtomicHerglotz(((spot, mass),), c.imag - mass * kernel.imag)
    return PiecewiseField(((t_total, GeneratorSpec(config, p)),), strict=True)


def cp_experiment(
    tau: complex,
    sigmas: tuple[BoundaryPoint, ...],
    target: CPTarget,
    field: PiecewiseField,
) -> tuple[complex, float]:
    """Check a field against the target and locate psi_tau in the region.

    The field must share (tau, sigmas) and realize log phi_T'(sigma_k) =
    log a_k within TARGET_TOL; otherwise TargetMismatch.  Returns
    (psi_tau, slack) with slack measured to the region boundary, so
    psi_tau lies in the region when slack >= 0.
    """
    tau = _complex(tau, "Denjoy-Wolff point")
    sigmas = _target_sigmas(sigmas, target)
    if not field.segments[0][1].config.has_skeleton(tau, sigmas):
        raise DomainError("field does not match the requested tau and repelling set")
    for k, log_a in enumerate(target.log_values):
        realized = boundary_log_derivative(field, k)
        if not abs(realized - log_a) <= TARGET_TOL:
            raise TargetMismatch(
                f"field realizes log derivative {realized!r} at point {k}, "
                f"target {log_a!r}"
            )
    point = psi_tau(field)
    if tau_regime(tau) == "boundary":
        slack = cp_region_boundary(target).slack(point.real)
    else:
        slack = cp_region(target).slack(point)
    return point, slack


def _flat_dirichlet(rng, count: int) -> list[float]:
    """A flat Dirichlet draw of ``count`` parts: -log(1 - U) for each of
    ``count`` rng.random() draws, normalized to sum 1."""
    weights = [-math.log(1.0 - rng.random()) for _ in range(count)]
    total = sum(weights)
    return [w / total for w in weights]


def random_strict_field(
    rng,
    tau: complex,
    sigmas: tuple[BoundaryPoint, ...],
    target: CPTarget,
) -> PiecewiseField:
    """Random strict field realizing the target boundary derivatives.

    Every draw is one rng.random() float U, in plain floats, so the CLI's
    random.Random stream and a numpy Generator both serve.  The field has
    m = 1 + floor(4U) segments; each part is one draw, never retried.
    Durations are a flat Dirichlet partition of the horizon T (m
    normalized -log(1 - U) draws), mixed with the equal split T/m by the
    least weight that lifts the shortest to 1e-3 T when it is shorter.
    Each segment's spectral fractions are a flat Dirichlet row, shifted
    uniformly so the duration-weighted column sums hit log a_k exactly.
    When a fraction is below ROW_FLOOR, the rows become share + s (rows -
    share), with share_k = log a_k / T and the largest s < 1 that puts
    every fraction a few ulps above the floor; the column sums stay exact
    at any s.  A draw that meets both floors is used as drawn.  Each
    segment then gets a free summand of floor(3U) atoms, at angles 2 pi U
    redrawn while within 1e-3 of the skeleton, with masses exp(-3 + 4U),
    and the constant -5 + 10U.

    A column's fractions average to share_k over the durations, so a
    target whose smallest share is not above ROW_FLOOR has no such field
    and raises DomainError before any draw.
    """
    sigmas = _target_sigmas(sigmas, target)
    n = len(sigmas)
    log_a = target.log_values
    t_total = target.horizon
    share = [v / t_total for v in log_a]
    if not min(share) > ROW_FLOOR:
        raise DomainError(
            f"no strict field has every spectral fraction >= {ROW_FLOOR}: "
            f"the smallest target share log a_k / sum log a_j is {min(share)!r}"
        )
    m = 1 + int(4.0 * rng.random())
    parts = _flat_dirichlet(rng, m)
    durations = [p * t_total for p in parts]
    if min(durations) < 1e-3 * t_total:
        least = min(parts)
        lift = (1e-3 + _FLOOR_MARGIN - least) / (1.0 / m - least)
        durations = [(p + lift * (1.0 / m - p)) * t_total for p in parts]
    rows = [_flat_dirichlet(rng, n) for _ in range(m)]
    shift = [
        (log_a[k] - sum(d * row[k] for d, row in zip(durations, rows))) / t_total
        for k in range(n)
    ]
    rows = [[x + c for x, c in zip(row, shift)] for row in rows]
    low = [(share[k], x) for row in rows for k, x in enumerate(row) if x < ROW_FLOOR]
    if low:
        s = min((sh - ROW_FLOOR - _FLOOR_MARGIN) / (sh - x) for sh, x in low)
        rows = [[sh + s * (x - sh) for sh, x in zip(share, row)] for row in rows]

    configs = [FixedPointConfig(tau, sigmas, tuple([-x for x in row])) for row in rows]
    avoid = _skeleton_angles(configs[0])

    segments = []
    for duration, config in zip(durations, configs):
        atoms = []
        for _ in range(int(3.0 * rng.random())):
            while True:
                theta = TWO_PI * rng.random()
                if all(angle_gap(theta, a) > 1e-3 for a in avoid):
                    break
            atoms.append((BoundaryPoint(theta), math.exp(-3.0 + 4.0 * rng.random())))
        gamma = -5.0 + 10.0 * rng.random()
        segments.append((duration, GeneratorSpec(config, AtomicHerglotz(tuple(atoms), gamma))))
    return PiecewiseField(tuple(segments), strict=True)
