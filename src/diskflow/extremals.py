"""Extreme points of the convex generator classes.

Two convex families appear.  With both the repelling set F and the
spectral values pinned, a generator can only be extreme when its free
Herglotz summand is an imaginary constant plus at most n-1 boundary
atoms; ExtremeCandidate packages that necessary form.  With the spectral
values released (only the normalization sum |lambda_k| = 1 retained), the
extreme points are known completely: exactly the generators whose free
summand is an imaginary constant, up to absorbing stray atoms sitting on
F into the configuration itself.

For the single repelling point class there is an integral form: a convex
mixture of elementary fields indexed by a probability measure on the
circle.  gk_generator evaluates such a mixture directly and matches the
candidate family when the measure is a single Dirac.
"""

from __future__ import annotations

import math

from .errors import DegenerateConfig, DomainError, NormalizationError, WeightError
from .generator import (
    FixedPointConfig,
    GeneratorSpec,
    brfp_spectral_value,
    tau_regime,
)
from .herglotz_core import (
    AtomicHerglotz, BoundaryPoint, _Record, _boundary, _complex, _interior, _real, extract_atom
)


class ExtremeCandidate(_Record):
    """Necessary form of an extreme point with all spectral data pinned:
    free summand i*b plus at most n-1 atoms off the repelling set."""

    def __init__(
        self,
        config: FixedPointConfig,
        b: float,
        free_atoms: tuple[tuple[BoundaryPoint, float], ...] = (),
    ) -> None:
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "b", _real(b, "constant b"))
        object.__setattr__(self, "free_atoms", tuple(free_atoms))
        if not math.isfinite(self.b):
            raise DomainError(f"the imaginary constant b must be finite, got {self.b}")
        if len(self.free_atoms) > self.config.n - 1:
            raise DomainError(
                f"at most {self.config.n - 1} free atoms allowed, got {len(self.free_atoms)}"
            )
        for point, mass in self.free_atoms:
            point, mass = _boundary(point, "point of a free atom"), _real(mass, "free atom mass")
            if not 0.0 <= mass < math.inf:
                raise WeightError("free atom masses must be finite and nonnegative")
            if any(point.same_point(s) for s in self.config.sigmas):
                raise DegenerateConfig(
                    "free atoms must avoid the repelling set; masses there belong "
                    "to the configuration"
                )


def extreme_candidate_generator(candidate: ExtremeCandidate) -> GeneratorSpec:
    return GeneratorSpec(
        candidate.config, AtomicHerglotz(candidate.free_atoms, candidate.b)
    )


def canonical_form(spec: GeneratorSpec) -> GeneratorSpec:
    """Absorb free-summand atoms sitting on the repelling set.

    An atom of mass m at sigma_k adds to the base mass there, which is the
    same generator over the configuration with lambda_k relaxed to the
    actual spectral value; the returned spec has no p-atoms on F.
    """
    config = spec.config
    p = spec.p
    new_lambdas = []
    for k, sigma in enumerate(config.sigmas):
        new_lambdas.append(brfp_spectral_value(spec, k))
        _, p = extract_atom(p, sigma)
    new_config = FixedPointConfig(config.tau, config.sigmas, tuple(new_lambdas))
    return GeneratorSpec(new_config, p)


def extreme_point_GenF(
    tau: complex,
    sigmas: tuple[BoundaryPoint, ...],
    lambdas: tuple[float, ...],
    b: float,
) -> GeneratorSpec:
    """An extreme point of the normalized class over the repelling set F.

    The class consists of generators whose repelling spectral values on F
    sum to -1 in modulus; its extreme points are exactly those whose free
    summand is an imaginary constant.  The requested spectral values must
    satisfy the normalization.
    """
    total = sum(abs(v) for v in lambdas)
    if abs(total - 1.0) > 1e-12:
        raise NormalizationError(
            f"spectral moduli must sum to 1, got {total!r}"
        )
    config = FixedPointConfig(tau, tuple(sigmas), tuple(lambdas))
    return GeneratorSpec(config, AtomicHerglotz((), b))


def is_extreme_GenF(spec: GeneratorSpec) -> bool:
    """Extremality test in the normalized class over F = spec's repelling set.

    True iff, after canonicalization, the free summand is a pure imaginary
    constant and the actual spectral moduli sum to 1 within 1e-10.
    """
    canonical = canonical_form(spec)
    if not canonical.p.is_trivial():
        return False
    total = sum(abs(v) for v in canonical.config.lambdas)
    return abs(total - 1.0) <= 1e-10


def gk_dirac_parameter(b: float, alpha: float) -> BoundaryPoint:
    """Circle parameter of the Dirac mixture matching the constant i*b
    candidate over a single repelling point with base mass alpha.

    alpha must be positive and finite and b finite, else DomainError.  The
    point (iy - 1)/(iy + 1), y = b/alpha, has angle 2 atan2(alpha, b)."""
    b, alpha = _real(b, "constant b"), _real(alpha, "base mass")
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"base mass must be positive and finite, got {alpha}")
    if not math.isfinite(b):
        raise DomainError(f"the constant b must be finite, got {b}")
    return BoundaryPoint(2.0 * math.atan2(alpha, b))


def gk_generator(
    tau: complex,
    sigma: BoundaryPoint,
    lam: float,
    mu: tuple[tuple[BoundaryPoint, float], ...],
    z: complex,
) -> complex:
    """Evaluate the mixture generator for one repelling point sigma.

    mu is a finite probability measure on the circle given as (point,
    weight) pairs; weights must be nonnegative and sum to 1.  The field is

        (|lam| / |sigma-tau|^2) (tau-z)(1-conj(tau) z)(1-conj(sigma) z)
            * sum_j w_j (1-kappa_j) / (1 - kappa_j conj(sigma) z),

    a convex mixture in the measure.  A Dirac at gk_dirac_parameter(b,
    alpha) reproduces the candidate generator with free summand i*b.
    """
    tau = _complex(tau, "Denjoy-Wolff point")
    tau_regime(tau)  # DomainError beyond the circle or at NaN
    z = _interior(z, "point z")
    lam = _real(lam, "spectral value")
    if not -math.inf < lam < 0.0:
        raise DomainError("the repelling spectral value must be negative and finite")
    sv = _boundary(sigma, "repelling point sigma").value
    if abs(tau - sv) <= 1e-12:
        raise DegenerateConfig("tau must differ from the repelling point")
    weights = [_real(w, "weight") for _, w in mu]
    if any(not w >= 0.0 for w in weights):
        raise WeightError("measure weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise WeightError(f"measure weights must sum to 1, got {sum(weights)!r}")
    mix = 0.0 + 0.0j
    for (point, _), w in zip(mu, weights):
        kappa = _boundary(point, "point of the measure").value
        mix += w * (1.0 - kappa) / (1.0 - kappa * sv.conjugate() * z)
    front = abs(lam) / abs(sv - tau) ** 2
    return front * (tau - z) * (1.0 - tau.conjugate() * z) * (1.0 - sv.conjugate() * z) * mix
