"""Finite-atomic Herglotz functions and their boundary functionals.

A Herglotz function is holomorphic on the unit disk with nonnegative real
part.  Everything in this package works with the finite-atomic subclass

    p(z) = sum_j m_j * (s_j + z)/(s_j - z) + i*gamma,

where the s_j are distinct points of the unit circle, m_j >= 0, and gamma
is real.  The kernel K_s(z) = (s+z)/(s-z) maps the disk onto the right
half-plane, so Re p >= 0 is automatic.  The module provides evaluation,
the mass functional p_star, contact values, atom surgery, reciprocals
within the rational class, and the two integrals of the decay/divergence
counterexample.  Those run one adaptive Gauss-Kronrod routine (QUADPACK's
G7K15 pair) in plain floats, so the counterexample needs nothing beyond
the standard library.

Atoms a caller hands in are sorted by angle, those within ANGLE_TOL
merged, whatever order they come in.  Consecutive atoms bound the arcs of
the circle on which p is purely imaginary; one arc solve finds the one zero
on each arc, for reciprocal and for generator.convex_combination, which
reads a mix's denominator off a single such solve.  It needs p only on the
circle, where each kernel is i cot((t - a_j)/2), so it solves on real
cotangent sums over the atom angles.  At up to _PLAIN_ATOMS atoms it solves
one arc at a time in plain floats, above that every arc at once on numpy
arrays: a pass on arrays costs about 37 numpy calls whatever the size,
which at a few atoms outweighs the n^2 tangents of the plain loop.  Both
paths return plain lists.  The zeros come in angle order, one per arc, so
_arc_record builds the result from them without a second sort and merge
wherever the sweep would keep them as they are.

All other evaluation goes through one kernel, kernel_sum, over the atom
points and masses cached on each function as plain lists.  It sums the
order-k z-derivatives of the kernels,

    sum_j m_j K_{s_j}^(k)(z),   K_s^(0) = (s+z)/(s-z),   K_s^(k) = 2 k! s/(s-z)^(k+1),

so p = i*gamma + (k=0), p' = (k=1), p'' = (k=2), and the boundary
functionals are the same sums at a point of the circle, such as
p#(sigma) = Re(-sigma p'(sigma)) = 2 sum_j m_j/|s_j - sigma|^2.  The evaluation
functions take a scalar or a 1-D array of points.

The package's value objects (boundary points, Herglotz functions,
configurations, specs, regions, records) derive from _Record: immutable,
with the fields, equality, hash and repr a frozen dataclass would give
them, the fields being the parameters of each class's own __init__.  The
dataclasses module is not used because a start that only evaluates a
region would pay for it: importing it loads inspect, ast, dis and
tokenize, and decorating the classes executes about 80 generated methods,
together about 25 of the 35 ms that importing diskflow.cli took.
"""

from __future__ import annotations

import cmath
import heapq
import math
from operator import itemgetter

from ._lazy import np

from .errors import AtomAtPoint, DomainError, QuadratureFailure

TWO_PI = 2.0 * math.pi

# Angular tolerance for identifying boundary points; two atoms closer than
# this are considered the same point and their masses are merged.
ANGLE_TOL = 1e-12


def _real(value, what: str) -> float:
    """value, a real number the caller handed in, as a Python float.

    Every number the package reads from its caller (an angle, a mass, a
    time, a weight, a spectral value) is read here or by _complex, by one
    rule: strings and bytes, which float() parses, None, bools (numpy's
    too), arrays of one or more dimensions and, here, complex values raise
    DomainError, and so does a value float() refuses or overflows on (an
    int beyond the floats).  A numpy value is read when its dtype is a
    number's, told without loading numpy.  Range and finiteness checks stay
    with the callers.  ``what`` names the value in the message, which never
    formats the value itself: Python refuses to print an int of more than
    4300 digits.
    """
    if value.__class__ is float:
        return value
    if not _refused(value, "iuf") and not isinstance(value, complex):
        try:
            return float(value)
        except OverflowError:
            raise _refusal(value, what, "real number", overflow=True) from None
        except TypeError:
            pass
    raise _refusal(value, what, "real number")


def _complex(value, what: str) -> complex:
    """value, a number the caller handed in, as a Python complex: _real's
    rule, with complex values read."""
    if value.__class__ is complex:
        return value
    if not _refused(value, "iufc"):
        try:
            return complex(value)
        except OverflowError:
            raise _refusal(value, what, "number", overflow=True) from None
        except TypeError:
            pass
    raise _refusal(value, what, "number")


def _boundary(value, what: str) -> "BoundaryPoint":
    """value, a point of the circle the caller handed in, by one rule: it is a
    BoundaryPoint, and anything else, an angle too, raises DomainError."""
    if isinstance(value, BoundaryPoint):
        return value
    raise _refusal(value, what, "BoundaryPoint")


def _interior(z, what: str) -> complex:
    """z read by _complex, refused unless it lies in the open disk (NaN does not)."""
    z = _complex(z, what)
    if not abs(z) < 1.0:
        raise DomainError(f"a {what} must lie in the open disk, |z|={abs(z)}")
    return z


def _refused(value, kinds: str) -> bool:
    """Whether _real or _complex refuses value before converting it: a
    string, bytes, a bool or None, or a value with a dtype whose kind is not
    one of ``kinds`` or with one or more dimensions."""
    if isinstance(value, (str, bytes, bytearray, bool, type(None))):
        return True
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    return (kind is not None and kind not in kinds) or getattr(value, "ndim", 0) != 0


def _refusal(value, what: str, kind: str, overflow: bool = False) -> DomainError:
    """The DomainError of a value that is no ``kind``, or that overflowed."""
    if overflow:
        return DomainError(f"a {what} must be finite, got a number too large for a float")
    if getattr(value, "ndim", 0):
        got = f"; expected one {what}, got an array of shape {value.shape}"
    else:
        got = f", got a {type(value).__name__}"
    return DomainError(f"a {what} must be a {kind}{got}")


class cached_property:
    """functools.cached_property without its lock, as Python 3.12 has it.

    On 3.11 the first read of each cached value takes an RLock, about
    0.9 us, and a mix of two fresh specs makes such first reads inside the
    call: each config's alphas and the sums they come from.  The package
    caches values computed from immutable fields, so two threads that both
    miss compute equal values, and either may stay.  As a non-data
    descriptor it is asked only on a miss: afterwards the value stored in
    the instance dict is found first.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def angle_gap(a: float, b: float) -> float:
    """Distance between the angles a and b around the circle, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _atom_index(atoms, theta: float) -> int | None:
    """Index of the first of ``atoms``, (point, mass) pairs, whose point lies
    within ANGLE_TOL of the angle theta, or None."""
    for i, (point, _) in enumerate(atoms):
        # angle_gap(point.theta, theta) <= ANGLE_TOL, without the call
        d = abs(point.theta - theta) % TWO_PI
        if d <= ANGLE_TOL or TWO_PI - d <= ANGLE_TOL:
            return i
    return None


class _Record:
    """Immutable value object whose fields are the parameters of its __init__.

    ``__init__`` sets each field with object.__setattr__; cached_property
    still works, since it writes the instance dict directly.  Only
    AtomicHerglotz._kept, _arc_record and FixedPointConfig._with_lambdas
    build a record around its __init__, from fields already checked as it
    would check them.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def circle_angle(theta: float) -> float:
    """theta reduced to [0, 2*pi), as BoundaryPoint stores it.

    theta is read by _real; a non-finite angle names no point of the
    circle and raises DomainError.
    """
    t = _real(theta, "boundary angle")
    if not math.isfinite(t):
        raise DomainError(f"a boundary angle must be finite, got {t}")
    t %= TWO_PI
    if t >= TWO_PI:  # guard against rounding in the modulo itself
        t -= TWO_PI
    return t


class BoundaryPoint(_Record):
    """A point of the unit circle stored as an angle in [0, 2*pi).

    Storing the angle keeps |value| = 1 exact by construction.  Equality is
    tolerance-based: two points are equal when their angles differ by an
    integer multiple of 2*pi within 1e-12.
    """

    def __init__(self, theta: float) -> None:
        object.__setattr__(self, "theta", circle_angle(theta))

    @classmethod
    def from_complex(cls, w: complex) -> "BoundaryPoint":
        """Radial projection of a nonzero complex number onto the circle."""
        if w == 0:
            raise DomainError("cannot project 0 onto the unit circle")
        return cls(cmath.phase(w))

    @property
    def value(self) -> complex:
        return complex(math.cos(self.theta), math.sin(self.theta))

    def same_point(self, other: "BoundaryPoint") -> bool:
        """Whether other, read by _boundary, is this point within ANGLE_TOL."""
        return _same_point(self, _boundary(other, "boundary point other"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundaryPoint):
            return NotImplemented
        return _same_point(self, other)

    # Tolerance equality admits no finer consistent hash.
    def __hash__(self) -> int:
        return 0


def _same_point(s: BoundaryPoint, t: BoundaryPoint) -> bool:
    """BoundaryPoint.same_point of two points already read, unchecked."""
    return angle_gap(s.theta, t.theta) <= ANGLE_TOL


class AtomicHerglotz(_Record):
    """A Herglotz function given by finitely many boundary atoms plus i*gamma.

    Construction normalizes the atoms so that they depend only on the
    multiset given, not its order.  Masses and gamma are read by _real;
    negative masses are rejected, and so are non-finite masses and a
    non-finite gamma.  Zero masses are dropped, the rest sorted by (angle,
    mass) and swept once: an atom within ANGLE_TOL of its group's first
    angle adds its mass to the group, which keeps that angle.  The last
    group joins the first when they are within ANGLE_TOL across 2*pi.  The
    angles are thus strictly increasing, and consecutive atoms bound the
    arcs `reciprocal` solves on.
    """

    # The normalization stays a method of its own, looked up on the instance:
    # the benchmark's tracer wraps AtomicHerglotz.__post_init__ to count it.
    def __init__(
        self, atoms: tuple[tuple[BoundaryPoint, float], ...] = (), gamma: float = 0.0
    ) -> None:
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "gamma", gamma)
        self.__post_init__()

    def __post_init__(self) -> None:
        atoms = []
        for point, mass in self.atoms:
            point = point if point.__class__ is BoundaryPoint else _boundary(point, "mass point")
            m = _real(mass, "mass")
            if not 0.0 <= m < math.inf:
                raise DomainError(f"atom mass must be finite and nonnegative, got {m}")
            if m != 0.0:
                atoms.append((point.theta, m, point))
        atoms.sort(key=itemgetter(0, 1))
        merged: list[tuple[BoundaryPoint, float]] = []  # (first point, summed mass)
        first = -math.inf  # angle of the current group's first atom
        for theta, m, point in atoms:
            if theta - first <= ANGLE_TOL:
                merged[-1] = (merged[-1][0], merged[-1][1] + m)
            else:
                first = theta
                merged.append((point, m))
        if len(merged) > 1 and merged[0][0].theta + TWO_PI - first <= ANGLE_TOL:
            merged[0] = (merged[0][0], merged[0][1] + merged.pop()[1])
        object.__setattr__(self, "atoms", tuple(merged))
        gamma = _real(self.gamma, "constant gamma")
        object.__setattr__(self, "gamma", gamma)
        if not math.isfinite(gamma):
            raise DomainError(f"the imaginary constant must be finite, got {self.gamma}")

    @classmethod
    def _kept(cls, atoms: tuple[tuple[BoundaryPoint, float], ...], gamma: float) -> AtomicHerglotz:
        """The record of class cls of atoms that __post_init__ would return
        as they are, in their order, and of a finite float gamma, with no
        second normalization.  Atoms a normalized record keeps are such:
        dropping atoms only widens the gaps between angles, across 2*pi too,
        so each stays above ANGLE_TOL.  _arc_record checks its atoms so.
        """
        p = object.__new__(cls)
        p.__dict__.update(atoms=atoms, gamma=gamma)
        return p

    @property
    def total_mass(self) -> float:
        return sum(self.m)

    # The atom lists are built on first use: many functions are built (and
    # merged, split, compared) without ever being evaluated.
    @cached_property
    def s(self) -> list[complex]:
        """Atom points on the circle, in atom order."""
        return [point.value for point, _ in self.atoms]

    @cached_property
    def m(self) -> list[float]:
        """Atom masses, in atom order."""
        return [mass for _, mass in self.atoms]

    def atom_mass_at(self, sigma: BoundaryPoint) -> float:
        i = _atom_index(self.atoms, _boundary(sigma, "boundary point sigma").theta)
        return 0.0 if i is None else self.atoms[i][1]

    def is_trivial(self) -> bool:
        """True when p is a purely imaginary constant."""
        return not self.atoms


class RationalHerglotz(AtomicHerglotz):
    """Atomic Herglotz function with at least one atom, all masses positive.

    These are rational of degree m (the number of atoms) with simple poles
    on the unit circle; the class is closed under pointwise reciprocal.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.atoms:
            raise DomainError("RationalHerglotz requires at least one atom of positive mass")


def herglotz_kernel(s: BoundaryPoint, z: complex) -> complex:
    z = _complex(z, "point z")
    sv = _boundary(s, "kernel point s").value
    return (sv + z) / (sv - z)


def kernel_sum(s: list[complex], m: list[float], z, order: int):
    """sum_j m_j K_{s_j}^(order)(z), the order-th derivative of the kernel sum.

    ``s`` and ``m`` are atom points and masses as plain lists.  For an
    array z the sum is taken at every point at once, over the atoms as
    arrays, and has the shape of z.  A single point, told from an array
    without loading numpy, is summed in plain complex arithmetic by
    point_kernel_sum: numpy's per-call cost on a few atoms makes one point
    two to three times slower than the loop, and the object API evaluates
    single points (G(0) for the value regions, p or its contact value at
    one point).  Order 0 keeps the kernel (s+z)/(s-z) itself rather than
    2s/(s-z) - 1, which rounds worse.  There is no domain check: the sum is
    finite off the atoms, which is what contact_value needs on the circle.
    """
    if isinstance(z, (int, float, complex)) or not isinstance(z, np.ndarray):
        return point_kernel_sum(s, m, complex(z), order)
    s, m, zc = np.asarray(s), np.asarray(m), z[..., None]
    if order == 0:
        return ((s + zc) / (s - zc)) @ m
    return (s / (s - zc) ** (order + 1)) @ m * (2.0 * math.factorial(order))


def point_kernel_sum(s: list[complex], m: list[float], z: complex, order: int) -> complex:
    """kernel_sum at the single point z, atom by atom in plain complex
    arithmetic: kernel_sum's scalar case, which callers that hold atoms
    outside a Herglotz function (`verify`'s samples) call directly."""
    total = 0j
    if order == 0:
        for sj, mj in zip(s, m):
            total += mj * ((sj + z) / (sj - z))
        return total
    for sj, mj in zip(s, m):
        total += mj * sj / (sj - z) ** (order + 1)
    return total * (2.0 * math.factorial(order))


def require_interior(z) -> None:
    """_interior's check of one point z, or of the largest |z| of an array."""
    if not isinstance(z, (int, float, complex)) and isinstance(z, np.ndarray):
        z = np.abs(z).max(initial=0.0)
    _interior(z, "point z")


def eval_herglotz(p: AtomicHerglotz, z):
    """Evaluate p at interior points."""
    require_interior(z)
    return 1j * p.gamma + kernel_sum(p.s, p.m, z, 0)


def p_star(p: AtomicHerglotz, sigma: BoundaryPoint) -> float:
    """Angular limit of (1 - conj(sigma) z) p(z): twice the atom mass at sigma."""
    return 2.0 * p.atom_mass_at(sigma)


def contact_value(p: AtomicHerglotz, sigma: BoundaryPoint) -> complex:
    """Angular limit of p at sigma, purely imaginary for atom-free sigma."""
    if p.atom_mass_at(sigma) > 0.0:
        raise AtomAtPoint(f"p carries an atom at angle {sigma.theta}")
    # the limit is purely imaginary; drop the rounding residue
    return complex(0.0, p.gamma + kernel_sum(p.s, p.m, sigma.value, 0).imag)


def extract_atom(p: AtomicHerglotz, sigma: BoundaryPoint) -> tuple[float, AtomicHerglotz]:
    """Split off the atom at sigma; returns (mass, remainder without it).

    Only the first atom within ANGLE_TOL, whose mass atom_mass_at reads, is
    removed, so the mass and the remainder's total_mass add up to p's.  The
    remainder keeps p's other atoms as they are, so it is built by
    AtomicHerglotz._kept, with no second normalization."""
    i = _atom_index(p.atoms, _boundary(sigma, "boundary point sigma").theta)
    if i is None:
        return 0.0, p
    return p.atoms[i][1], AtomicHerglotz._kept(p.atoms[:i] + p.atoms[i + 1 :], p.gamma)


# ----------------------------------------------------------------------
# reciprocal within the rational class
# ----------------------------------------------------------------------

# Absolute stopping width of the arc solve: f(t) is read through t - a_j,
# which rounds at the scale of the angles (up to 4*pi), not of t, so a test
# relative to t is never met near 0.
_ARC_TOL = 4.0 * math.ulp(TWO_PI)
_NEWTON_STEPS = 32
_ARC_STEPS = _NEWTON_STEPS + 53  # the bound derived in reciprocal
# reciprocal's mass-identity bound; clean inputs read at most 3.2e-10, relative
_MASS_TOL = 1e-8


def reciprocal(p: RationalHerglotz) -> RationalHerglotz:
    """Pointwise reciprocal 1/p, again rational Herglotz of the same degree.

    The atoms of 1/p sit at the zeros of p on the circle.  At e^{it} each
    kernel is K_{s_j}(e^{it}) = i cot((t - a_j)/2), a_j the angle of s_j, so
    p(e^{it}) = i f(t) with the real function

        f(t) = gamma + sum_j m_j c_j,       c_j = cot((t - a_j)/2),
        f'(t) = -(M/2 + sum_j (m_j/2) c_j^2) = -p#(e^{it}) < 0,

    M the total mass.  On each arc between consecutive atoms (the last round
    to the first too) f falls strictly from +inf to -inf and has exactly
    one zero: the disk form of Chebotarev's theorem, which _arc_zeros
    solves, in plain floats at up to _PLAIN_ATOMS atoms and on numpy arrays
    above.  Each iteration forms the cotangents of the iterate against
    every atom and reads f and f' from them.

    Each arc starts from its midpoint.  The next point is the Newton step
    of f with the arc's two poles divided out when it stays inside the
    arc's sign bracket, else the bracket's midpoint (Brent's safeguard); an
    arc stops when its step or its bracket is within _ARC_TOL.  The loop
    needs no failure path: only the first _NEWTON_STEPS iterations may take
    a Newton step, so each evaluation from iteration _NEWTON_STEPS + 1 on
    halves the bracket.  A bracket is at most 2*pi wide and a midpoint
    rounds by at most 0.9e-15 (half a unit at 8*pi, halved), so k halvings
    leave at most 2*pi/2**k + 1.8e-15, below _ARC_TOL (3.6e-15) from k = 52
    on: the loop ends within _NEWTON_STEPS + 53 iterations.

    Each zero kappa gets mass 1/(2 p#(kappa)), p# from the last iteration,
    and the imaginary constant is fixed by matching 1/p at the origin.  A
    zero within ulps of an atom (a tiny mass beside large ones, or two atoms
    about 1e-9 apart) gets a wrong mass, so DomainError is raised when the
    masses miss Re(1/p(0)) = M/(M^2 + gamma^2) by more than _MASS_TOL
    relative.  An overflow reaches the masses as NaN or 0, and a p# of 0
    (masses that halve to 0) as an infinite mass; where that changes their
    sum, it fails the same check.  A p without atoms (1/(i gamma) has
    none) raises DomainError before any solve.  The zeros come in angle
    order, one per arc, so _arc_record builds 1/p from them without a
    second sort and merge, and hands them to RationalHerglotz only where
    that would merge or refuse them.
    """
    if not p.atoms:
        raise DomainError("reciprocal needs at least one atom: 1/p has an atom at each zero of p")
    t, sharp, _, _ = _arc_zeros([pt.theta for pt, _ in p.atoms], p.m, p.gamma)
    masses = [1.0 / (2.0 * ps) if ps else math.inf for ps in sharp]
    inverse = 1.0 / complex(p.total_mass, p.gamma)
    _require_mass_sum("reciprocal: the masses of 1/p", sum(masses), "Re(1/p(0))", inverse.real)
    return _arc_record(list(zip(t, masses)), inverse.imag)


def _arc_record(atoms: list[tuple[float, float]], gamma: float) -> RationalHerglotz:
    """RationalHerglotz(tuple((BoundaryPoint(t), m) for t, m in atoms), gamma)
    for one or more (angle, mass) pairs in increasing angle order, as the
    arc solve returns its zeros: only the last angle may pass 2*pi.

    Such a last angle t < 4*pi becomes t - 2*pi, exact (Sterbenz) and equal
    to circle_angle(t), at the front.  Where then the angles are floats in
    [0, 2*pi) (not -0.0) whose gaps, across 2*pi too, exceed ANGLE_TOL, the
    masses floats in (0, inf) and gamma a finite float, __post_init__ would
    keep the atoms as they are, and the points and the record are built
    around their __init__.  Anything else goes to RationalHerglotz as given,
    with its merges, checks and messages.
    """
    given = atoms
    if TWO_PI <= atoms[-1][0] < 2.0 * TWO_PI:
        atoms = [(atoms[-1][0] - TWO_PI, atoms[-1][1]), *atoms[:-1]]
    first, last = atoms[0][0], atoms[-1][0]
    kept, prev = [], -math.inf
    valid = gamma.__class__ is float and math.isfinite(gamma) and math.copysign(1.0, first) == 1.0
    # __post_init__'s wrap test, then its sweep's, each group's first angle the one before
    if valid and last < TWO_PI and first + TWO_PI - last > ANGLE_TOL:
        for t, m in atoms:
            if not (t.__class__ is m.__class__ is float and t - prev > ANGLE_TOL and 0.0 < m < math.inf):
                break
            point = object.__new__(BoundaryPoint)
            point.__dict__["theta"] = prev = t
            kept.append((point, m))
        else:
            return RationalHerglotz._kept(tuple(kept), gamma)
    return RationalHerglotz(tuple((BoundaryPoint(t), m) for t, m in given), gamma)


# At up to this many atoms _arc_zeros solves in plain floats, above it on
# numpy arrays.  A pass of the array loop makes about 37 numpy calls, whose
# per-call cost sets its time at a few atoms; a pass of the plain loop costs
# n tangents per arc, n^2 in all.  On 30 reciprocal inputs per degree (the
# `rational` benchmark's spread law, one CPU of a 2-vCPU host, medians of
# 9) a solve took 70 against 131 us at 8 atoms, 135 against 131 us at 12,
# 152 against 133 us at 13 and 170 against 130 us at 14.  The two break
# even near 12 there; on the host where this bound was set they broke even
# at 13.  Moving it would change which loop solves, and the pinned digests.
_PLAIN_ATOMS = 12


def _arc_zeros(a: list[float], m: list[float], gamma: float, rows=()):
    """`reciprocal`'s arc solve for atoms at angles ``a`` (increasing, in
    [0, 2*pi)), masses ``m`` and constant gamma.  It returns, as lists, the
    zero after each a_j, p# at the zeros, for each mass list r of ``rows``
    the pair (sum_j r_j c_j, sum_j r_j c_j^2) at each zero, c_j the last
    cotangents, and the count of passes.

    The step on arc k is Newton's on g = f sin((t - a_k)/2) sin((a_{k+1} - t)/2),
    which has f's zero and no pole (secular-equation solvers divide out the
    poles beside a root alike): r/(1 - r (c_k + c_{k+1})/2), with r = f/p#
    f's own step and c_k, c_{k+1} the cotangents at those two atoms.
    |r| <= 1 + 2|gamma|/M, so r c does not overflow where f c would.  An
    arc stops when the smaller of its Newton step and its bracket is within
    _ARC_TOL: fmin, not minimum, so that a NaN Newton step still lets the
    bracket stop the arc.  The pass past _ARC_STEPS, which the bound never
    reaches, only evaluates: the caller reads p# at the returned zeros.

    At up to _PLAIN_ATOMS atoms _plain_arc_zeros solves one arc at a time in
    plain floats, each arc's passes ending when it stops; above,
    _array_arc_zeros solves every arc at once on numpy arrays, until the
    last arc stops.  numpy's per-call cost, not the arithmetic, sets the
    time of an array pass at a few atoms, hence the plain loop there.  An
    arc's iterates do not depend on the other arcs, so the count of passes
    is the most any arc takes on either path.  The two loops are written
    line for line alike.
    """
    if len(a) <= _PLAIN_ATOMS:
        return _plain_arc_zeros(a, m, gamma, rows)
    return _array_arc_zeros(a, m, gamma, rows)


def _plain_arc_zeros(a: list[float], m: list[float], gamma: float, rows):
    """_arc_zeros in plain floats, one arc at a time.  Python's division
    raises where numpy's gives inf or NaN, so a p# or a pole-divided
    denominator of 0 makes the Newton step NaN, which numpy's inf or NaN
    there would also have sent to the bracket's midpoint."""
    tan = math.tan
    a_half = [x / 2.0 for x in a]  # halving is exact, so t/2 - a/2 rounds as (t - a)/2
    half = [x / 2.0 for x in m]
    half_total = math.fsum(half)
    atoms = list(zip(a_half, m, half))
    n = len(a)
    zeros, sharps, cots, passes = [], [], [], 0
    for k, lo, hi in zip(range(n), a, a[1:] + [a[0] + TWO_PI]):
        t = (lo + hi) / 2.0
        for iteration in range(_ARC_STEPS + 1):
            x = t / 2.0
            cot, f, sharp = [], 0.0, 0.0
            for aj, mj, hj in atoms:
                c = 1.0 / tan(x - aj)
                cot.append(c)
                f += mj * c
                sharp += hj * (c * c)
            f += gamma
            sharp += half_total
            if f >= 0.0:
                lo = t
            if f <= 0.0:
                hi = t
            step = f / sharp if sharp else math.nan
            pole = 1.0 - step * (cot[k] + cot[(k + 1) % n]) / 2.0
            newton = t + step / pole if pole else math.nan
            done = abs(newton - t) <= _ARC_TOL or hi - lo <= _ARC_TOL
            if done or iteration == _ARC_STEPS:
                break
            trial = (lo + hi) / 2.0
            if iteration < _NEWTON_STEPS and lo < newton < hi:
                trial = newton
            t = trial
        zeros.append(t)
        sharps.append(sharp)
        cots.append(cot)
        passes = max(passes, iteration + 1)
    sums = []
    for r in rows:
        linear, square = [], []
        for cot in cots:
            s1 = s2 = 0.0
            for rj, c in zip(r, cot):
                s1 += rj * c
                s2 += rj * (c * c)
            linear.append(s1)
            square.append(s2)
        sums.append((linear, square))
    return zeros, sharps, sums, passes


def _array_arc_zeros(a: list[float], m: list[float], gamma: float, rows):
    """_arc_zeros on numpy arrays, every arc at once.  The cotangent matrix
    (a row per arc) and its square fill two buffers made once per solve,
    and the sign bracket is updated in place; an arc that has stopped keeps
    its iterate, and is evaluated there again until the last arc stops."""
    lo, hi, m = np.array(a), np.array(a[1:] + [a[0] + TWO_PI]), np.array(m)
    a_half = lo / 2.0  # halving is exact, so t/2 - a/2 rounds as (t - a)/2
    half = m / 2.0
    half_total = half.sum()
    t = (lo + hi) / 2.0
    n = len(a)
    cot, square = np.empty((n, n)), np.empty((n, n))
    done = np.zeros(n, dtype=bool)
    ends = n * np.arange(n) + (np.arange(n) + [[0], [1]]) % n  # flat (k, k), (k, k + 1 mod n)
    for iteration in range(_ARC_STEPS + 1):
        np.subtract((t / 2.0)[:, None], a_half, cot)
        np.tan(cot, cot)
        np.divide(1.0, cot, cot)
        f = gamma + cot @ m
        np.multiply(cot, cot, square)
        sharp = half_total + square @ half
        np.copyto(lo, t, where=f >= 0.0)
        np.copyto(hi, t, where=f <= 0.0)
        step = f / sharp
        newton = t + step / (1.0 - step * np.add.reduce(cot.take(ends)) / 2.0)
        done |= np.fmin(abs(newton - t), hi - lo) <= _ARC_TOL
        if np.logical_and.reduce(done) or iteration == _ARC_STEPS:
            break
        trial = (lo + hi) / 2.0
        if iteration < _NEWTON_STEPS:
            trial = np.where((lo < newton) & (newton < hi), newton, trial)
        np.copyto(t, trial, where=~done)
    sums = [((cot @ r).tolist(), (square @ r).tolist()) for r in map(np.array, rows)]
    return t.tolist(), sharp.tolist(), sums, iteration + 1


def _require_mass_sum(what: str, total: float, target: str, value: float) -> None:
    """Raise DomainError unless total is value within _MASS_TOL relative."""
    if not abs(total - value) <= _MASS_TOL * value:  # NaN fails
        raise DomainError(
            f"{what} sum to {total!r}, not {target} = {value!r}; "
            f"the relative mismatch exceeds {_MASS_TOL:g}"
        )


# ----------------------------------------------------------------------
# decay/divergence counterexample quadrature
# ----------------------------------------------------------------------

# QUADPACK's qk15 rule (Piessens et al. 1983): the 15-point Kronrod
# abscissae on [-1, 1] with their weights, largest first and 0 last, and the
# weights of the 7-point Gauss rule on every other abscissa (1, 3, 5, 7).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_MAX_PANELS = 500  # QUADPACK's subinterval limit, 500 in both quadratures
# Both integrals are refined to an estimated error of 1e-12 (relative above
# 1).  QUADPACK's QAGP met the pinned decay values to 5e-14 when asked for
# 1e-10, as it extrapolates toward the log singularity at t = 0; bisection
# alone, stopped at 1e-10, is off them by up to 1.3e-11.
_QUAD_TOL = 1e-12


def _gk15_panel(f, a: float, b: float) -> tuple[float, float]:
    """(K15, |K15 - G7|) of f over [a, b]: the integral and its error estimate."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    kronrod = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        pair = f(center - dx) + f(center + dx)
        kronrod += _WGK[j] * pair
        if j % 2:
            gauss += _WG[j // 2] * pair
    return kronrod * half, abs(kronrod - gauss) * half


def _gk15(f, edges: list[float], bound: float, name: str) -> float:
    """Adaptive Gauss-Kronrod (G7K15) integral of f over edges[0]..edges[-1].

    The consecutive edges are the first panels, so a breakpoint tells the
    rule where f changes scale; f is evaluated only inside the panels, never
    at an edge.  The panel with the largest error estimate is halved until
    the summed estimate is at most _QUAD_TOL * max(1, |integral|), or until
    there are _MAX_PANELS panels.  An estimate then above bound, or a NaN
    one (f was NaN or infinite somewhere), raises QuadratureFailure.
    """
    heap = []
    for a, b in zip(edges, edges[1:]):
        value, err = _gk15_panel(f, a, b)
        heap.append((-err, a, b, value))
    heapq.heapify(heap)
    while True:
        total = math.fsum(panel[3] for panel in heap)
        err = math.fsum(-panel[0] for panel in heap)
        if err <= _QUAD_TOL * max(1.0, abs(total)) or len(heap) >= _MAX_PANELS:
            break
        _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            value, e = _gk15_panel(f, lo, hi)
            heapq.heappush(heap, (-e, lo, hi, value))
    if not err <= bound:  # NaN is no estimate
        raise QuadratureFailure(
            f"{name} error estimate {err:.2e} exceeds {bound:g} after {len(heap)} panels"
        )
    return total


_E_INV = math.exp(-1.0)


def counterexample_P(y: float) -> float:
    """P(iy)/(2i) = integral over (0, 1/e) of y / ((t^2+y^2) log(1/t)) dt.

    The integrand peaks on the scale t ~ y; the quadrature is told about
    that scale through breakpoints.  Tends to 0 as y -> 0 even though the
    generating measure fails the reciprocal-integrability test.
    """
    y = _real(y, "height y")
    if not 0.0 < y < 1.0:
        raise DomainError(f"y must lie in (0,1), got {y}")

    def integrand(t: float) -> float:
        return y / ((t * t + y * y) * math.log(1.0 / t))

    breakpoints = sorted({min(y, 0.9 * _E_INV), min(10.0 * y, 0.9 * _E_INV)})
    return _gk15(integrand, [0.0, *breakpoints, _E_INV], 1e-8, "decay integral")


def counterexample_divergence(delta: float) -> float:
    """Integral over (delta, 1/e) of dt / (t log(1/t)), evaluated by quadrature.

    Substituting s = log(1/t) turns this into the integral of 1/s over
    [1, log(1/delta)], which adaptive quadrature handles at any delta in
    (0, 1/e); the closed form is log log(1/delta).  Grows without bound as
    delta -> 0.
    """
    delta = _real(delta, "cutoff delta")
    if not 0.0 < delta < _E_INV:
        raise DomainError(f"delta must lie in (0, 1/e), got {delta}")
    upper = math.log(1.0 / delta)
    return _gk15(lambda s: 1.0 / s, [1.0, upper], 1e-9, "divergence integral")
