"""Independent references the benchmark checks diskflow's outputs against.

Everything here works on plain numbers (angles, masses, complex points), never
on diskflow objects, and is written from the formulas in the paper and the
README rather than from the library's code:

    p(z)  = sum_j m_j (s_j + z)/(s_j - z) + i gamma
    p0(z) = sum_k alpha_k (sigma_k + z)/(sigma_k - z),  alpha_k = |tau - sigma_k|^2 / (2|lambda_k|)
    G(z)  = (tau - z)(1 - conj(tau) z) / (p(z) + p0(z))

The closed-form orbit is the Koenigs case tau = 0, one repelling point sigma,
p = 0, where k(u) = u/(1-u)^2 conjugates the flow of u = conj(sigma) z to
k(u_t) = exp(-2|lambda| t) k(u_0).
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def herglotz(thetas, masses, gamma: float, z) -> np.ndarray:
    """p(z) for atoms at exp(i theta_j) with masses m_j, vectorised over z."""
    z = np.asarray(z, dtype=complex)
    s = np.exp(1j * np.asarray(thetas, dtype=float))
    m = np.asarray(masses, dtype=float)
    kernel = (s[:, None] + z.ravel()[None, :]) / (s[:, None] - z.ravel()[None, :])
    return (m @ kernel + 1j * gamma).reshape(z.shape)


def alphas(tau: complex, sigma_thetas, lambdas) -> np.ndarray:
    sig = np.exp(1j * np.asarray(sigma_thetas, dtype=float))
    return np.abs(tau - sig) ** 2 / (2.0 * np.abs(np.asarray(lambdas, dtype=float)))


def denominator(tau, sigma_thetas, lambdas, p_thetas, p_masses, gamma, z) -> np.ndarray:
    """q(z) = p(z) + p0(z)."""
    p0 = herglotz(sigma_thetas, alphas(tau, sigma_thetas, lambdas), 0.0, z)
    return herglotz(p_thetas, p_masses, gamma, z) + p0


def generator(tau, sigma_thetas, lambdas, p_thetas, p_masses, gamma, z) -> np.ndarray:
    """G(z) of the fixed-point representation."""
    z = np.asarray(z, dtype=complex)
    q = denominator(tau, sigma_thetas, lambdas, p_thetas, p_masses, gamma, z)
    return (tau - z) * (1.0 - np.conj(tau) * z) / q


def dw_spectral_value(tau, sigma_thetas, lambdas, p_thetas, p_masses, gamma) -> complex:
    """lambda = -G'(tau) = (1 - |tau|^2) / q(tau) for an interior tau."""
    q = denominator(tau, sigma_thetas, lambdas, p_thetas, p_masses, gamma, np.array([tau]))
    return complex((1.0 - abs(tau) ** 2) / q[0])


def koenigs_orbit(sigma_theta: float, lam: float, z0: complex, t: float) -> tuple[complex, complex]:
    """(phi_t(z0), phi_t'(z0)) for tau = 0, one repelling point, p = 0."""
    sigma = cmath.exp(1j * sigma_theta)
    u0 = z0 / sigma
    c = math.exp(-2.0 * abs(lam) * t) * u0 / (1.0 - u0) ** 2
    if c == 0:
        return 0j, complex(math.exp(-2.0 * abs(lam) * t))
    # c (1-u)^2 = u  <=>  c u^2 - (2c+1) u + c = 0; the two roots multiply to
    # 1, so exactly one lies in the disk
    disc = cmath.sqrt(4.0 * c + 1.0)
    roots = ((2.0 * c + 1.0 - disc) / (2.0 * c), (2.0 * c + 1.0 + disc) / (2.0 * c))
    u = min(roots, key=abs)

    def k_prime(v: complex) -> complex:
        return (1.0 + v) / (1.0 - v) ** 3

    du = math.exp(-2.0 * abs(lam) * t) * k_prime(u0) / k_prime(u)
    return sigma * u, du


def pseudo_hyperbolic(w: complex, tau: complex) -> float:
    return abs((w - tau) / (1.0 - tau.conjugate() * w))


def horocycle(w: complex, tau: complex) -> float:
    """|tau - w|^2 / (1 - |w|^2); non-increasing along orbits attracted to a boundary tau."""
    return abs(tau - w) ** 2 / (1.0 - abs(w) ** 2)


def schwarz_pick_ratio(z0: complex, w: complex, dw: complex) -> float:
    """|phi'(z0)| (1-|z0|^2)/(1-|phi(z0)|^2), at most 1 for every self-map of the disk."""
    return abs(dw) * (1.0 - abs(z0) ** 2) / (1.0 - abs(w) ** 2)


def match_atoms(thetas_a, masses_a, thetas_b, masses_b, tol: float) -> bool:
    """Same atom count, and each atom of a has a partner in b within ``tol`` in
    angle and ``tol * max(1, m)`` in mass (the tolerances of README claim 2)."""
    if len(thetas_a) != len(thetas_b):
        return False
    unused = list(range(len(thetas_b)))
    for ta, ma in zip(thetas_a, masses_a):
        best = None
        for i in unused:
            d = abs(ta - thetas_b[i]) % (2.0 * math.pi)
            d = min(d, 2.0 * math.pi - d)
            if d <= tol and abs(masses_b[i] - ma) <= tol * max(1.0, ma):
                best = i
                break
        if best is None:
            return False
        unused.remove(best)
    return True
