"""The value objects keep the behaviour of frozen dataclasses.

Each of the fourteen record classes is built positionally and by keyword,
with its defaults; compares and hashes by its fields, and only against an
object of its own class; refuses assignment and deletion; rejects unknown,
repeated and missing arguments with TypeError; and prints as
``Name(field=value, ...)``.  The expected repr strings are those the frozen
dataclass versions of these classes printed.  BoundaryPoint keeps its
tolerance equality and constant hash, and the cached_property attributes
still compute once and leave equality alone.
"""

import math

import pytest

from diskflow.extremals import ExtremeCandidate
from diskflow.generator import (
    TRIVIAL_GENERATOR,
    BerksonPortaSpec,
    FixedPointConfig,
    GeneratorSpec,
)
from diskflow.herglotz_core import AtomicHerglotz, BoundaryPoint, RationalHerglotz
from diskflow.loewner_cp import ConcavityReport, CPTarget, PiecewiseField
from diskflow.semiflow import Trajectory
from diskflow.value_regions import DiskRegion, IntervalRegion, InequalityRecord

ATOMS = ((BoundaryPoint(1.0), 0.25), (BoundaryPoint(0.0), 2.0))
P = AtomicHerglotz(ATOMS, -0.5)
CONFIG = FixedPointConfig(0.5, (BoundaryPoint(0.0),), (-1.0,))
ORIGIN = FixedPointConfig(0j, (BoundaryPoint(0.0),), (-1.0,))
PAIR = FixedPointConfig(0j, (BoundaryPoint(0.0), BoundaryPoint(math.pi)), (-1.0, -1.0))
SEGMENTS = ((1.0, GeneratorSpec(ORIGIN)),)

# class, field names in order, positional arguments, arguments giving an unequal object
RECORDS = [
    (BoundaryPoint, ("theta",), (0.5,), (1.5,)),
    (AtomicHerglotz, ("atoms", "gamma"), (ATOMS, -0.5), (ATOMS, 0.5)),
    (RationalHerglotz, ("atoms", "gamma"), (ATOMS, 1.5), (ATOMS[:1], 1.5)),
    (
        FixedPointConfig,
        ("tau", "sigmas", "lambdas"),
        (0.5, (BoundaryPoint(0.0),), (-1.0,)),
        (0.5, (BoundaryPoint(0.0),), (-2.0,)),
    ),
    (GeneratorSpec, ("config", "p"), (CONFIG, P), (ORIGIN, P)),
    (BerksonPortaSpec, ("tau", "pstar", "const"), (0.25j, P, 1.0), (0.25j, P, 2.0)),
    (DiskRegion, ("center", "radius"), (1 + 0j, 0.5), (1 + 0j, 0.25)),
    (IntervalRegion, ("lo", "hi"), (0.0, 2.0), (0.0, 3.0)),
    (InequalityRecord, ("name", "lhs", "rhs"), ("x", 1.0, 2.0), ("y", 1.0, 2.0)),
    (PiecewiseField, ("segments", "strict"), (SEGMENTS, True), (SEGMENTS, False)),
    (CPTarget, ("a",), ((math.e, 3.0),), ((math.e, 4.0),)),
    (
        ConcavityReport,
        (
            "max_eigenvalue",
            "abs_det",
            "det_scale",
            "min_midpoint_gap",
            "min_strict_gap",
            "max_ray_residual",
            "concave",
        ),
        (0.0, 1e-17, 1.0, 0.1, 0.2, 0.0, True),
        (0.0, 1e-17, 1.0, 0.1, 0.2, 0.0, False),
    ),
    (
        Trajectory,
        ("times", "points", "derivatives", "rhs_calls"),
        ((0.0, 1.0), (0.5, 0.25j), (1.0, 0.5), 7),
        ((0.0, 1.0), (0.5, 0.25j), (1.0, 0.5), 8),
    ),
    (
        ExtremeCandidate,
        ("config", "b", "free_atoms"),
        (PAIR, 0.5, ((BoundaryPoint(1.0), 0.5),)),
        (PAIR, 0.5, ()),
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

# classes whose every field has a default, so that no argument is missing
ALL_DEFAULT = (AtomicHerglotz, RationalHerglotz)


@pytest.mark.parametrize("cls, names, args, other", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, args, other):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    mixed = cls(args[0], **dict(zip(names[1:], args[1:])))
    assert by_position == by_keyword == mixed
    assert hash(by_position) == hash(by_keyword) == hash(mixed)
    for name in names:
        assert getattr(by_position, name) == getattr(by_keyword, name)


@pytest.mark.parametrize("cls, names, args, other", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, args, other):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert a != "not a record"
    assert len({a, b}) == 1


def test_defaults_are_those_of_the_dataclasses():
    assert AtomicHerglotz() == AtomicHerglotz((), 0.0)
    assert AtomicHerglotz().atoms == () and AtomicHerglotz().gamma == 0.0
    assert GeneratorSpec(CONFIG).p == AtomicHerglotz()
    assert GeneratorSpec(CONFIG) == GeneratorSpec(CONFIG, AtomicHerglotz())
    assert BerksonPortaSpec(0.0) == TRIVIAL_GENERATOR
    assert BerksonPortaSpec(0.25j) == BerksonPortaSpec(0.25j, AtomicHerglotz(), 0.0)
    assert PiecewiseField(SEGMENTS).strict is True
    trajectory = Trajectory((0.0,), (0.5,))
    assert trajectory.derivatives is None and trajectory.rhs_calls == 0
    assert ExtremeCandidate(PAIR, 0.5).free_atoms == ()


def test_equality_requires_the_same_class():
    atomic, rational = AtomicHerglotz(ATOMS, 1.5), RationalHerglotz(ATOMS, 1.5)
    assert atomic.atoms == rational.atoms and atomic.gamma == rational.gamma
    assert rational != atomic
    assert atomic != rational
    assert not rational == atomic


@pytest.mark.parametrize("cls, names, args, other", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls, names, args, other):
    record = cls(*args)
    before = [getattr(record, name) for name in names]
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == before


@pytest.mark.parametrize("cls, names, args, other", RECORDS, ids=IDS)
def test_bad_arguments_raise_type_error(cls, names, args, other):
    with pytest.raises(TypeError):
        cls(*args, unknown=1.0)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    if cls not in ALL_DEFAULT:
        with pytest.raises(TypeError):
            cls()


REPRS = [
    (BoundaryPoint(0.5), "BoundaryPoint(theta=0.5)"),
    (BoundaryPoint(-math.pi / 2), "BoundaryPoint(theta=4.71238898038469)"),
    (
        P,
        "AtomicHerglotz(atoms=((BoundaryPoint(theta=0.0), 2.0), "
        "(BoundaryPoint(theta=1.0), 0.25)), gamma=-0.5)",
    ),
    (
        RationalHerglotz(ATOMS, 1.5),
        "RationalHerglotz(atoms=((BoundaryPoint(theta=0.0), 2.0), "
        "(BoundaryPoint(theta=1.0), 0.25)), gamma=1.5)",
    ),
    (AtomicHerglotz(), "AtomicHerglotz(atoms=(), gamma=0.0)"),
    (
        GeneratorSpec(CONFIG),
        "GeneratorSpec(config=FixedPointConfig(tau=(0.5+0j), "
        "sigmas=(BoundaryPoint(theta=0.0),), lambdas=(-1.0,)), "
        "p=AtomicHerglotz(atoms=(), gamma=0.0))",
    ),
    (
        BerksonPortaSpec(0.25j, const=1),
        "BerksonPortaSpec(tau=0.25j, pstar=AtomicHerglotz(atoms=(), gamma=0.0), const=1.0)",
    ),
    (DiskRegion(1, 0.5), "DiskRegion(center=(1+0j), radius=0.5)"),
    (IntervalRegion(0, 2), "IntervalRegion(lo=0.0, hi=2.0)"),
    (InequalityRecord("x", 1.0, 2.0), "InequalityRecord(name='x', lhs=1.0, rhs=2.0)"),
    (CPTarget((math.e, 3)), "CPTarget(a=(2.718281828459045, 3.0))"),
    (
        ConcavityReport(0.0, 1e-17, 1.0, 0.1, 0.2, 0.0, True),
        "ConcavityReport(max_eigenvalue=0.0, abs_det=1e-17, det_scale=1.0, "
        "min_midpoint_gap=0.1, min_strict_gap=0.2, max_ray_residual=0.0, concave=True)",
    ),
    (
        Trajectory((0.0, 1.0), (0.5, 0.25j)),
        "Trajectory(times=(0.0, 1.0), points=(0.5, 0.25j), derivatives=None, rhs_calls=0)",
    ),
    (
        ExtremeCandidate(CONFIG, 0),
        "ExtremeCandidate(config=FixedPointConfig(tau=(0.5+0j), "
        "sigmas=(BoundaryPoint(theta=0.0),), lambdas=(-1.0,)), b=0.0, free_atoms=())",
    ),
    (
        PiecewiseField(SEGMENTS),
        "PiecewiseField(segments=((1.0, GeneratorSpec(config=FixedPointConfig(tau=0j, "
        "sigmas=(BoundaryPoint(theta=0.0),), lambdas=(-1.0,)), "
        "p=AtomicHerglotz(atoms=(), gamma=0.0))),), strict=True)",
    ),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_matches_the_dataclass_repr(record, text):
    assert repr(record) == text


def test_cached_properties_compute_once_and_leave_equality_alone():
    p = AtomicHerglotz(ATOMS, -0.5)
    assert p.s is p.s and p.m is p.m
    assert p.s.tolist() == [1 + 0j, complex(math.cos(1.0), math.sin(1.0))]
    assert p.m.tolist() == [2.0, 0.25]
    assert p == P and hash(p) == hash(P)
    spec = GeneratorSpec(CONFIG, p)
    points, masses = spec.denominator_atoms
    assert spec.denominator_atoms[0] is points
    assert masses.tolist() == [2.0, 0.25, *CONFIG.alphas]
    assert spec == GeneratorSpec(CONFIG, P)
    target = CPTarget((math.e, math.e**2))
    assert target.horizon == pytest.approx(3.0, rel=1e-15)
    assert target == CPTarget((math.e, math.e**2))


def test_boundary_point_keeps_tolerance_equality_and_constant_hash():
    assert BoundaryPoint(0.0) == BoundaryPoint(1e-13)
    assert BoundaryPoint(0.0) == BoundaryPoint(2 * math.pi - 1e-13)
    assert BoundaryPoint(0.0) != BoundaryPoint(1e-9)
    assert {hash(BoundaryPoint(t)) for t in (0.0, 1.0, 3.0, -2.0)} == {0}
    assert len({BoundaryPoint(0.0), BoundaryPoint(1e-13), BoundaryPoint(1.0)}) == 2
