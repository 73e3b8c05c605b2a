"""Superseded reciprocal solves, kept as references for the code that replaced them.

`reciprocal` is the complex-kernel arc solve `reciprocal` used before the
cotangent form.  Each iteration put the iterates on the circle, z = e^{it},
and summed the order-0 and order-1 complex kernels there:
f(t) = gamma + Im kernel_sum(z, 0) and f'(t) = Re(z kernel_sum(z, 1)) = -p#(z).
The bracket, the Newton safeguard, the stopping widths, the iteration bound,
the mass check and the output are those of `herglotz_core.reciprocal`, which
evaluates the same f and p# as real cotangent sums.

`convex_combination` is the mix `generator.convex_combination` built before
it read the mix's denominator off one arc solve: 1/q_c = w/q_a + (1 - w)/q_b
through three calls of `herglotz_core.reciprocal`, on q_a, on q_b and on the
weighted mean of their reciprocals.
"""

import numpy as np

from diskflow import BoundaryPoint, DomainError, RationalHerglotz, herglotz_core
from diskflow.generator import denominator_herglotz, spec_from_denominator
from diskflow.herglotz_core import (
    _ARC_STEPS,
    _ARC_TOL,
    _MASS_TOL,
    _NEWTON_STEPS,
    TWO_PI,
    kernel_sum,
)


def reciprocal(p):
    lo = np.array([point.theta for point, _ in p.atoms])
    hi = np.append(lo[1:], lo[0] + TWO_PI)
    t = (lo + hi) / 2.0
    done = np.zeros(len(lo), dtype=bool)
    for iteration in range(_ARC_STEPS):
        z = np.exp(1j * t)
        f = p.gamma + kernel_sum(p.s, p.m, z, 0).imag
        slope = (z * kernel_sum(p.s, p.m, z, 1)).real
        lo = np.where(f >= 0.0, t, lo)
        hi = np.where(f <= 0.0, t, hi)
        newton = t - f / slope
        done |= (np.abs(newton - t) <= _ARC_TOL) | (hi - lo <= _ARC_TOL)
        if done.all():
            break
        use_newton = (lo < newton) & (newton < hi) & (iteration < _NEWTON_STEPS)
        t = np.where(done, t, np.where(use_newton, newton, (lo + hi) / 2.0))
    z = np.exp(1j * t)
    sharp = -(z * kernel_sum(p.s, p.m, z, 1)).real
    masses = [1.0 / (2.0 * ps) for ps in sharp.tolist()]
    inverse = 1.0 / complex(p.total_mass, p.gamma)
    if not abs(sum(masses) - inverse.real) <= _MASS_TOL * inverse.real:  # NaN fails
        raise DomainError(
            f"reciprocal: the masses of 1/p sum to {sum(masses)!r}, not Re(1/p(0)) = "
            f"{inverse.real!r}; the relative mismatch exceeds {_MASS_TOL:g}"
        )
    new_atoms = tuple((BoundaryPoint(theta), m) for theta, m in zip(t.tolist(), masses))
    return RationalHerglotz(new_atoms, inverse.imag)


def convex_combination(first, second, weight):
    ra = herglotz_core.reciprocal(denominator_herglotz(first))
    rb = herglotz_core.reciprocal(denominator_herglotz(second))
    mixed = RationalHerglotz(
        tuple((pt, weight * m) for pt, m in ra.atoms)
        + tuple((pt, (1.0 - weight) * m) for pt, m in rb.atoms),
        weight * ra.gamma + (1.0 - weight) * rb.gamma,
    )
    config = first.config
    return spec_from_denominator(config.tau, config.sigmas, herglotz_core.reciprocal(mixed))
