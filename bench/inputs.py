"""Input laws of the `orbits` and `rational` workloads.

Every draw is made here from a numpy Generator seeded by the benchmark, and
diskflow only receives the finished objects.  The generic generator law is
the one `random_spec` documents (n uniform on 1..4, lambda_k = -exp(U[-2,2]),
0..3 free atoms with masses exp(U[-3,1]), constant U[-5,5], four regimes),
re-implemented so that a change to the library's sampler cannot change the
benchmark's inputs.  Each draw keeps its plain parameters for the references.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from diskflow import (
    AtomicHerglotz,
    BoundaryPoint,
    CPTarget,
    FixedPointConfig,
    GeneratorSpec,
    PiecewiseField,
    RationalHerglotz,
)

TWO_PI = 2.0 * math.pi
REGIMES = ("interior", "origin", "boundary_hyperbolic", "boundary_parabolic")


def circle_gap(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _angles(rng: np.random.Generator, count: int, gap: float, avoid=(), avoid_gap: float = 0.0) -> list[float]:
    chosen: list[float] = []
    while len(chosen) < count:
        t = float(rng.uniform(0.0, TWO_PI))
        if all(circle_gap(t, c) > gap for c in chosen) and all(circle_gap(t, c) > avoid_gap for c in avoid):
            chosen.append(t)
    return chosen


@dataclass(frozen=True)
class Draw:
    """Plain parameters of one generator and the diskflow spec built from them."""

    regime: str
    tau: complex
    sigmas: tuple[float, ...]
    lambdas: tuple[float, ...]
    p_thetas: tuple[float, ...]
    p_masses: tuple[float, ...]
    gamma: float

    @property
    def params(self) -> tuple:
        return (self.tau, self.sigmas, self.lambdas, self.p_thetas, self.p_masses, self.gamma)

    def spec(self) -> GeneratorSpec:
        config = FixedPointConfig(self.tau, tuple(BoundaryPoint(t) for t in self.sigmas), self.lambdas)
        atoms = tuple((BoundaryPoint(t), m) for t, m in zip(self.p_thetas, self.p_masses))
        return GeneratorSpec(config, AtomicHerglotz(atoms, self.gamma))

    def alpha(self, k: int) -> float:
        return abs(self.tau - cmath.exp(1j * self.sigmas[k])) ** 2 / (2.0 * abs(self.lambdas[k]))


def generic(rng: np.random.Generator, regime: str) -> Draw:
    """One generator of the generic law in the given regime."""
    n = int(rng.integers(1, 5))
    sigmas = _angles(rng, n, 1e-6)
    lambdas = tuple(-math.exp(x) for x in rng.uniform(-2.0, 2.0, n))
    tau_angle: tuple[float, ...] = ()
    if regime == "origin":
        tau = 0j
    elif regime == "interior":
        tau = 0j
        while abs(tau) <= 1e-6:
            tau = math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    else:
        tau_angle = (_angles(rng, 1, 0.0, avoid=sigmas, avoid_gap=1e-3)[0],)
        tau = cmath.exp(1j * tau_angle[0])
    k = int(rng.integers(0, 4))
    thetas = _angles(rng, k, 1e-6, avoid=tau_angle, avoid_gap=1e-3)
    masses = [math.exp(x) for x in rng.uniform(-3.0, 1.0, k)]
    gamma = float(rng.uniform(-5.0, 5.0))
    if regime == "boundary_hyperbolic":
        # cancel the denominator's contact value at tau: the free atoms tilt it
        # by sum m Im K_s(tau), the base function by B = sum Im(conj(sigma) tau)/|lambda|
        tilt = sum(m * ((cmath.exp(1j * t) + tau) / (cmath.exp(1j * t) - tau)).imag for t, m in zip(thetas, masses))
        cap_b = sum((cmath.exp(-1j * s) * tau).imag / abs(v) for s, v in zip(sigmas, lambdas))
        gamma = -cap_b - tilt
    elif regime == "boundary_parabolic":
        thetas.append(tau_angle[0])
        masses.append(math.exp(rng.uniform(-3.0, 1.0)))
    return Draw(regime, tau, tuple(sigmas), lambdas, tuple(thetas), tuple(masses), gamma)


def disk_point(rng: np.random.Generator, radius: float) -> complex:
    return complex(radius * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, TWO_PI)))


def koenigs(rng: np.random.Generator) -> Draw:
    """tau = 0, one repelling point, p = 0: the closed-form orbit case."""
    return Draw("koenigs", 0j, (float(rng.uniform(0.0, TWO_PI)),), (-math.exp(rng.uniform(-1.0, 1.0)),), (), (), 0.0)


# Estimates are drawn where the fixed Julia-quotient ladder reaches its
# asymptotic regime: a heavy enough base atom, nothing else near sigma_k, a
# moderate total stretch |lambda_k| t, and a moderate imaginary constant (the
# hyperbolic regime's contact-value cancellation can push it into the
# hundreds, and the orbits then turn too fast near the circle).
ESTIMATE_MIN_ALPHA = 0.1
ESTIMATE_CLEARANCE = 0.2
ESTIMATE_MAX_STRETCH = 1.0
ESTIMATE_MAX_GAMMA = 10.0


def estimate_input(rng: np.random.Generator, regime: str, t: float) -> tuple[Draw, int, int]:
    """(draw, k, rejected draws) for one boundary-derivative estimate at sigma_k."""
    rejected = 0
    while True:
        d = generic(rng, regime)
        k = int(rng.integers(0, len(d.sigmas)))
        s = d.sigmas[k]
        others = [a for i, a in enumerate(d.sigmas) if i != k] + list(d.p_thetas)
        if d.tau != 0 and abs(abs(d.tau) - 1.0) < 1e-12:
            others.append(cmath.phase(d.tau))
        if (
            d.alpha(k) >= ESTIMATE_MIN_ALPHA
            and all(circle_gap(s, a) > ESTIMATE_CLEARANCE for a in others)
            and abs(d.lambdas[k]) * t <= ESTIMATE_MAX_STRETCH
            and abs(d.gamma) <= ESTIMATE_MAX_GAMMA
        ):
            return d, k, rejected
        rejected += 1


@dataclass(frozen=True)
class FieldDraw:
    tau: complex
    segments: tuple[tuple[float, Draw], ...]
    field: PiecewiseField


def strict_field(rng: np.random.Generator) -> FieldDraw:
    """A random strict field over an interior tau and three repelling points.

    The segment law is the one `random_strict_field` documents: 1..4
    segments with Dirichlet durations summing to T = sum log a_k, Dirichlet
    spectral rows shifted so the duration-weighted column sums equal log a_k,
    and 0..2 free atoms per segment away from the skeleton.
    """
    tau = disk_point(rng, 0.8)
    sigmas = tuple(_angles(rng, 3, 0.2))
    target = CPTarget(tuple(math.exp(x) for x in rng.uniform(0.6, 1.2, 3)))
    log_a = np.asarray(target.log_values)
    horizon = target.horizon
    m = int(rng.integers(1, 5))
    while True:
        durations = rng.dirichlet(np.ones(m)) * horizon
        if durations.min() < 1e-3 * horizon:
            continue
        rows = rng.dirichlet(np.ones(3), size=m)
        rows = rows + (log_a - durations @ rows)[None, :] / horizon
        if rows.min() >= 0.01:
            break
    segments = []
    for i in range(m):
        k = int(rng.integers(0, 3))
        thetas = _angles(rng, k, 0.0, avoid=sigmas, avoid_gap=1e-3)
        masses = tuple(math.exp(x) for x in rng.uniform(-3.0, 1.0, k))
        draw = Draw("interior", tau, sigmas, tuple(-rows[i]), tuple(thetas), masses, float(rng.uniform(-5.0, 5.0)))
        segments.append((float(durations[i]), draw))
    field = PiecewiseField(tuple((d, draw.spec()) for d, draw in segments), strict=True)
    return FieldDraw(tau, tuple(segments), field)


# ----------------------------------------------------------------------
# rational Herglotz functions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RationalDraw:
    thetas: tuple[float, ...]
    masses: tuple[float, ...]
    gamma: float

    def herglotz(self) -> RationalHerglotz:
        return RationalHerglotz(tuple((BoundaryPoint(t), m) for t, m in zip(self.thetas, self.masses)), self.gamma)


def spread_rational(rng: np.random.Generator, degree: int) -> RationalDraw:
    """Atoms one per arc of width 2 pi/degree, jittered within the middle half
    of the arc, so neighbours stay at least pi/degree apart."""
    thetas = (np.arange(degree) + rng.uniform(0.25, 0.75, degree)) * TWO_PI / degree + rng.uniform(0.0, TWO_PI)
    return RationalDraw(tuple(float(t) % TWO_PI for t in thetas), tuple(math.exp(x) for x in rng.uniform(-3.0, 1.0, degree)), float(rng.uniform(-5.0, 5.0)))


def uniform_rational(rng: np.random.Generator, degree: int) -> RationalDraw:
    """Atoms uniform on the circle, masses exp(U[-3,1]), gamma U[-5,5]."""
    thetas = rng.uniform(0.0, TWO_PI, degree)
    return RationalDraw(tuple(float(t) for t in thetas), tuple(math.exp(x) for x in rng.uniform(-3.0, 1.0, degree)), float(rng.uniform(-5.0, 5.0)))


def shared_skeleton_pair(rng: np.random.Generator) -> tuple[Draw, Draw, float]:
    """Two interior specs over one (tau, sigmas) with |tau| <= 0.8, and a weight.

    Atoms sit on six jittered slots, one per sixth of the circle within the
    middle half of its arc, so any two are at least pi/6 apart: 1..4 slots
    hold the repelling points, and each spec puts its free atoms on a random
    subset of the others.  (Near the circle, or with atoms nearly colliding,
    the reciprocal round trip inside convex_combination loses accuracy.)
    """
    slots = [float(t) % TWO_PI for t in (np.arange(6) + rng.uniform(0.25, 0.75, 6)) * TWO_PI / 6 + rng.uniform(0.0, TWO_PI)]
    order = rng.permutation(6)
    n = int(rng.integers(1, 5))
    sigmas, free = tuple(slots[i] for i in order[:n]), order[n:]
    tau = 0j
    while abs(tau) <= 1e-6:
        tau = disk_point(rng, 0.8)
    pair = []
    for _ in range(2):
        lambdas = tuple(-math.exp(x) for x in rng.uniform(-2.0, 2.0, n))
        picked = rng.choice(free, size=int(rng.integers(0, len(free) + 1)), replace=False)
        masses = tuple(math.exp(x) for x in rng.uniform(-3.0, 1.0, len(picked)))
        pair.append(Draw("interior", tau, sigmas, lambdas, tuple(slots[i] for i in picked), masses, float(rng.uniform(-5.0, 5.0))))
    return pair[0], pair[1], float(rng.uniform(0.05, 0.95))


def generic_pair(rng: np.random.Generator) -> tuple[Draw, Draw, float]:
    """Two generic interior specs over the first one's skeleton, and a weight."""
    first = generic(rng, "interior")
    other = generic(rng, "interior")
    lambdas = tuple(-math.exp(x) for x in rng.uniform(-2.0, 2.0, len(first.sigmas)))
    second = Draw("interior", first.tau, first.sigmas, lambdas, other.p_thetas, other.p_masses, other.gamma)
    return first, second, float(rng.uniform(0.05, 0.95))
