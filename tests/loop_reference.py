"""Per-atom loop versions of the Herglotz and generator evaluations.

These are the straightforward sums the array kernel replaced, one atom at a
time and one point at a time.  They serve as references for the kernel's
summation, which runs in another order.
"""

from diskflow import DomainError
from diskflow.herglotz_core import AtomAtPoint


def _kernel(point, z):
    sv = point.value
    return (sv + z) / (sv - z)


def _interior(z):
    if abs(z) >= 1.0:
        raise DomainError(f"evaluation point must lie in the open disk, |z|={abs(z)}")


def eval_herglotz(p, z):
    _interior(z)
    total = complex(0.0, p.gamma)
    for point, mass in p.atoms:
        total += mass * _kernel(point, z)
    return total


def herglotz_derivative_circle(p, w):
    """p' by direct summation, valid anywhere off the atom set."""
    total = 0.0 + 0.0j
    for point, mass in p.atoms:
        sv = point.value
        total += mass * 2.0 * sv / (sv - w) ** 2
    return total


def herglotz_derivative(p, z):
    _interior(z)
    return herglotz_derivative_circle(p, z)


def herglotz_second_derivative(p, z):
    _interior(z)
    total = 0.0 + 0.0j
    for point, mass in p.atoms:
        sv = point.value
        total += mass * 4.0 * sv / (sv - z) ** 3
    return total


def p_sharp(p, sigma):
    sv = sigma.value
    total = 0.0
    for point, mass in p.atoms:
        if point.same_point(sigma):
            return float("inf")
        total += mass / abs(point.value - sv) ** 2
    return 2.0 * total


def contact_value(p, sigma):
    sv = sigma.value
    total = complex(0.0, p.gamma)
    for point, mass in p.atoms:
        if point.same_point(sigma):
            raise AtomAtPoint(f"p carries an atom at angle {sigma.theta}")
        total += mass * _kernel(point, sv)
    return complex(0.0, total.imag)


def reciprocal_masses(p, zeros):
    """Masses 1/(2 p#(kappa)) of 1/p at the zeros kappa of p."""
    masses = []
    for kappa in zeros:
        kv = kappa.value
        sharp = (-kv * herglotz_derivative_circle(p, kv)).real
        masses.append(1.0 / (2.0 * sharp))
    return masses


def _denominator(spec, z):
    return eval_herglotz(spec.p, z) + eval_herglotz(spec.config.base_herglotz, z)


def _denominator_derivative(spec, z, order):
    d = herglotz_derivative if order == 1 else herglotz_second_derivative
    return d(spec.p, z) + d(spec.config.base_herglotz, z)


def _mobius(tau, z):
    return (tau - z) * (1.0 - tau.conjugate() * z)


def _mobius_d1(tau, z):
    return -(1.0 + abs(tau) ** 2) + 2.0 * tau.conjugate() * z


def eval_generator(gen, z):
    _interior(z)
    return _mobius(gen.config.tau, z) / _denominator(gen, z)


def eval_generator_derivative(gen, z):
    _interior(z)
    tau = gen.config.tau
    u, du = _mobius(tau, z), _mobius_d1(tau, z)
    q, dq = _denominator(gen, z), _denominator_derivative(gen, z, 1)
    return (du * q - u * dq) / q**2


def eval_generator_second_derivative(gen, z):
    _interior(z)
    tau = gen.config.tau
    u, du, ddu = _mobius(tau, z), _mobius_d1(tau, z), 2.0 * tau.conjugate()
    q = _denominator(gen, z)
    dq = _denominator_derivative(gen, z, 1)
    ddq = _denominator_derivative(gen, z, 2)
    return ((ddu * q - u * ddq) * q - 2.0 * dq * (du * q - u * dq)) / q**3

