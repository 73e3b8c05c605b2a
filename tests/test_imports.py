"""Every module of the package uses each name it imports, every public name
it defines has a caller, none imports scipy or dataclasses, every
third-party module it imports is a declared runtime dependency, and numpy
loads on first use.

No linter ships with the project, so this is the unused-import check: a
name bound by an import at any level of a module under src/diskflow/ must
be read somewhere in that module.  A name that __init__.py imports from a
module counts as used there, since the package re-exports it.

A public top-level function or class of a module must be read somewhere
else: in the package outside its own definition, in bench/, or in the
acceptance tests.  The few that await a caller are listed in
AWAITING_CALLER with the reason each stays.

No module imports scipy, at any level: importing scipy.integrate took
most of the package's start-up time.  The semiflow integrates with its own
DOP853 loop and the counterexample integrals with their own Gauss-Kronrod
routine.  A fresh interpreter running counterexample, region,
cowen-pommerenke, verify and flow must not load it, and counterexample,
run first, loads no numpy submodule either.  pyproject.toml declares numpy
as the one runtime dependency: every third-party module a module imports
must be declared there, and scipy must not be.

numpy is bound once, in _lazy, which registers a lazy numpy module when
nothing has imported numpy yet; every other module takes np from there and
none has a numpy import statement, since on Python 3.11 one executes the
lazy module.  A fresh interpreter that imports diskflow and diskflow.cli
and runs region for every kind and format loads no numpy submodule, and
neither argparse, gettext nor locale, since the command line is read from
cli.COMMANDS by the module's own parser, nor random, which only the two
seeded commands import.  That interpreter starts without site (-S), which
on many hosts imports random before any user code.  cowen-pommerenke then
runs in plain floats and loads no numpy submodule either; verify loads
numpy but not numpy.random, since both commands draw from the standard
library's random.Random; flow runs last, and every command succeeds.  Every
scalar path runs in plain numbers: a fresh interpreter that runs the README's
flow example, lone orbits and evolutions with their derivatives (tau inside
the disk and on the circle), dw_spectral_value and eval_generator at one
point loads no numpy submodule; estimate_boundary_derivative, whose radius
ladder is an array solve, then loads numpy and succeeds.  After its first use
np is the plain numpy module in every diskflow module, and a numpy imported
before diskflow is used as it is.  Asked for a module that is not installed,
_lazy raises ModuleNotFoundError and registers nothing.

Only three private constructors build a record around its __init__, with
a __new__ call: AtomicHerglotz._kept, for the atoms a normalized record
keeps, herglotz_core._arc_record, for the points of zeros an arc solve
returns in angle order once it has checked them as the atoms' sweep would,
and FixedPointConfig._with_lambdas, for a validated configuration with new
spectral values.

Only herglotz_core's two number readers, _real and _complex, have an
except clause for OverflowError: every number a caller hands the package
is read by them, so no other module decides what a number is.  Likewise no
module but herglotz_core compares angle_gap(...) with ANGLE_TOL: an atom at
a point is found by herglotz_core._atom_index alone.

Only FixedPointConfig.__init__ projects a Denjoy-Wolff point tau onto the
circle (a from_complex or circle_angle(cmath.phase(...)) of tau), as its
tau_point, and only FixedPointConfig._require refuses a function's input
for where tau sits (a raise naming a regime, or an if on the regime that
raises); region_Z, which serves two regimes, keeps its own test.

Only herglotz_core tests a value for BoundaryPoint, in its reader
_boundary (and in the atoms' fast path and BoundaryPoint's equality), and
only its reader _interior raises the refusal of a point off the open disk:
every point a caller hands the package is read by them.

No module but cli imports gc or atexit, at any level: only a program run
of the CLI, which ends its process, tells the collections at exit to skip
its heap; a library call leaves the collector and the exit to its caller.

No module has a dataclasses import statement at any level: importing
dataclasses loads inspect, ast, dis and tokenize, and decorating a class
executes generated code, which a start that only evaluates a region should
not pay.  The value objects derive from herglotz_core._Record instead.  The
fresh interpreter that runs region also checks that dataclasses and inspect
stay unloaded.
"""

import ast
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diskflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def _reexported() -> dict[str, set[str]]:
    """Module name -> the names __init__.py imports from it."""
    names: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            names.setdefault(node.module, set()).update(a.name for a in node.names)
    return names


def unused_imports(source: str, exempt: set[str] = frozenset()) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exempt
    )


def test_checker_flags_an_unused_import():
    source = "import cmath\nimport math\nfrom x import a, b as c\nprint(math.pi, c)\n"
    assert unused_imports(source) == ["line 1: cmath", "line 3: a"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    exempt = _reexported().get(path.stem, set())
    assert unused_imports(path.read_text(), exempt) == []


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded, and attributes taken, anywhere in tree outside skip."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if child is skip:
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                found.add(child.id)
            elif isinstance(child, ast.Attribute):
                found.add(child.attr)
            visit(child)

    visit(tree)
    return found


def unread_definitions(package: dict[str, str], readers: list[str]) -> list[str]:
    """module.name of each public top-level def or class that nothing reads.

    ``package`` maps module names to sources; a definition of one of them
    (not __init__) is read when another part of the package, or one of the
    ``readers`` sources, loads its name or takes it as an attribute.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    outside = set().union(*(_reads(ast.parse(source)) for source in readers))
    unread = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        elsewhere = outside.union(*(r for m, r in reads.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and node.name not in _reads(tree, node):
                unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_checker_flags_a_name_only_tests_would_call():
    package = {
        "a": (
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class _Private:\n    pass\n"
        ),
        "b": "from .a import used\ndef called():\n    return used()\ndef unused():\n    pass\n",
        "__init__": "from .b import unused\n",
    }
    assert unread_definitions(package, ["import b\nb.called()\n"]) == ["a.recursive", "b.unused"]


_EXTREMALS = (
    "extreme points of the normalized class, for verify to show its records "
    "attained; the benchmark tracer wraps this module"
)
# Public names that only tests call yet, each with the reason it stays.
AWAITING_CALLER = {
    "extreme_candidate_generator": _EXTREMALS,
    "extreme_point_GenF": _EXTREMALS,
    "is_extreme_GenF": _EXTREMALS,
    "gk_dirac_parameter": _EXTREMALS,
    "gk_generator": _EXTREMALS,
    "inequality_suite": "the object form of verify's records, to check them at the extremals",
    "denominator_herglotz": "q = p + p0 as one record, the form a spec's reciprocal is taken in",
    "spec_from_denominator": (
        "denominator_herglotz's inverse; convex_combination shares its split, "
        "_split_denominator, and builds its config from the validated skeleton"
    ),
}


def test_every_public_name_has_a_caller():
    package = {path.stem: path.read_text() for path in ALL_MODULES}
    readers = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    unread = unread_definitions(package, readers)
    assert {name.split(".")[1] for name in unread} == set(AWAITING_CALLER), unread


def imports_of(source: str, package: str, in_functions: bool) -> list[str]:
    """Import statements of package or its submodules; with ``in_functions``
    false, only those that run when the module is imported (outside functions)."""
    found: list[str] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if not in_functions and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            found.extend(
                f"line {child.lineno}: {m}" for m in modules if m.split(".")[0] == package
            )
            visit(child)

    visit(ast.parse(source))
    return found


def test_checker_flags_an_import_time_scipy_import():
    source = (
        "import scipy.integrate\n"
        "from scipy import optimize\n"
        "import scipyx\n"
        "class A:\n"
        "    from scipy.integrate import quad\n"
        "def f():\n"
        "    from scipy.integrate import solve_ivp\n"
        "    return solve_ivp\n"
    )
    assert imports_of(source, "scipy", in_functions=False) == [
        "line 1: scipy.integrate",
        "line 2: scipy",
        "line 5: scipy.integrate",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_imports_scipy_only_inside_functions(path):
    assert imports_of(path.read_text(), "scipy", in_functions=False) == []


def test_no_module_imports_scipy():
    importers = {path.stem: imports_of(path.read_text(), "scipy", in_functions=True)
                 for path in ALL_MODULES}
    assert {stem: found for stem, found in importers.items() if found} == {}


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the modules source imports, at any level or through
    _lazy("name"), that are neither relative nor in the standard library."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_lazy"
            and isinstance(node.args[0], ast.Constant)
        ):
            found.add(node.args[0].value.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"__future__"}


def test_checker_finds_third_party_imports():
    source = (
        "import math, numpy.linalg\n"
        "from . import _lazy\n"
        "from .errors import DomainError\n"
        "def f():\n"
        "    from scipy.integrate import quad\n"
        "    import importlib.util\n"
        "mpl = _lazy('matplotlib.pyplot')\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy", "matplotlib"}


def test_imported_modules_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0] for req in project["dependencies"]}
    imported = set().union(*(third_party_imports(path.read_text()) for path in ALL_MODULES))
    assert "numpy" in imported  # through _lazy
    assert imported <= declared, imported - declared
    assert "scipy" not in declared


def test_checker_flags_a_numpy_import_at_any_level():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "import numpyx\n"
        "from ._lazy import np\n"
        "class A:\n"
        "    from numpy import pi\n"
        "def f():\n"
        "    import numpy.linalg\n"
        "    return numpy.linalg\n"
    )
    assert imports_of(source, "numpy", in_functions=True) == [
        "line 1: numpy",
        "line 2: numpy.random",
        "line 6: numpy",
        "line 8: numpy.linalg",
    ]


# On Python 3.11 an import statement for numpy reads the lazy module's
# __spec__, which executes numpy: every module takes np from _lazy, and
# _lazy finds numpy by name.
@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_has_no_numpy_import_statement(path):
    assert imports_of(path.read_text(), "numpy", in_functions=True) == []


def test_checker_flags_a_dataclasses_import_at_any_level():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import dataclassesx\n"
        "from .herglotz_core import _Record\n"
        "class A:\n"
        "    import dataclasses as dc\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "    return replace\n"
    )
    assert imports_of(source, "dataclasses", in_functions=True) == [
        "line 1: dataclasses",
        "line 2: dataclasses",
        "line 6: dataclasses",
        "line 8: dataclasses",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_has_no_dataclasses_import_statement(path):
    assert imports_of(path.read_text(), "dataclasses", in_functions=True) == []


def test_checker_flags_a_gc_or_atexit_import():
    source = (
        "import gc, atexit\n"
        "from gc import freeze\n"
        "import gcx, atexitx\n"
        "def f():\n"
        "    import atexit as exit_hooks\n"
        "    return exit_hooks\n"
    )
    assert imports_of(source, "gc", in_functions=True) == ["line 1: gc", "line 2: gc"]
    assert imports_of(source, "atexit", in_functions=True) == ["line 1: atexit", "line 5: atexit"]


# A library call leaves the interpreter's collector and its exit to the
# caller: only the CLI, when it is the program, touches them.
EXIT_MODULES = {"cli": ["gc", "atexit"]}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_only_the_cli_imports_gc_or_atexit(path):
    source = path.read_text()
    found = [m for m in ("gc", "atexit") if imports_of(source, m, in_functions=True)]
    assert found == EXIT_MODULES.get(path.stem, [])


def overflow_handlers(source: str) -> list[str]:
    """Each except clause of source that names OverflowError, alone or in a
    tuple, as "line N: f" with f the innermost function holding it."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                names = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(isinstance(n, ast.Name) and n.id == "OverflowError" for n in names):
                    found.append(f"line {child.lineno}: {where}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_an_overflow_handler():
    source = (
        "try:\n    x = float(10**400)\nexcept OverflowError:\n    pass\n"
        "def f(v):\n"
        "    try:\n        return float(v)\n"
        "    except (TypeError, OverflowError):\n        raise\n"
        "    except ArithmeticError:\n        pass\n"
        "class A:\n"
        "    def g(self, v):\n"
        "        try:\n            return complex(v)\n        except OverflowError:\n"
        "            return None\n"
    )
    assert overflow_handlers(source) == ["line 3: <module>", "line 8: f", "line 16: g"]


# What counts as a number, and an int beyond the floats refused as
# DomainError, is decided in one place: herglotz_core's two readers.
@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_only_the_number_readers_handle_overflow(path):
    found = overflow_handlers(path.read_text())
    if path.stem != "herglotz_core":
        assert found == []
    else:
        assert sorted(line.split(": ")[1] for line in found) == ["_complex", "_real"]


def angle_tests(source: str) -> list[str]:
    """Each comparison of source between a call of angle_gap and ANGLE_TOL,
    either bare or as a module attribute, as "line N"."""

    def name(node: ast.AST) -> str | None:
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            gap = any(isinstance(s, ast.Call) and name(s.func) == "angle_gap" for s in sides)
            if gap and any(name(s) == "ANGLE_TOL" for s in sides):
                found.append(f"line {node.lineno}")
    return found


def test_checker_flags_an_angle_test():
    source = (
        "def f(atoms, theta):\n"
        "    for p, m in atoms:\n"
        "        if angle_gap(p.theta, theta) <= ANGLE_TOL:\n"
        "            return m\n"
        "    return next(m for t, m in atoms if hc.ANGLE_TOL >= hc.angle_gap(t, theta))\n"
        "ok = angle_gap(0.0, 1.0) > 1e-3 and abs(0.1) <= ANGLE_TOL\n"
    )
    assert angle_tests(source) == ["line 3", "line 5"]


# Whether an atom sits at a point is decided in one place:
# herglotz_core._atom_index.
OUTSIDE_CORE = [p for p in ALL_MODULES if p.stem != "herglotz_core"]


@pytest.mark.parametrize("path", OUTSIDE_CORE, ids=[p.stem for p in OUTSIDE_CORE])
def test_only_herglotz_core_tests_an_angle_against_angle_tol(path):
    assert angle_tests(path.read_text()) == []


def point_checks(source: str) -> list[str]:
    """Each test of a value for BoundaryPoint in source (an isinstance or
    issubclass call naming the class, or a comparison with it) and each
    raise whose message says a point "must lie in the open disk", as
    "line N: f" with f the innermost function holding it."""
    found: list[str] = []

    def names(node: ast.AST) -> list[str]:
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        return [n.id if isinstance(n, ast.Name) else getattr(n, "attr", None) for n in nodes]

    def check(node: ast.AST) -> bool:
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "isinstance", "issubclass"
        ):
            return len(node.args) == 2 and "BoundaryPoint" in names(node.args[1])
        if isinstance(node, ast.Compare):
            return any("BoundaryPoint" in names(side) for side in [node.left, *node.comparators])
        return isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and "must lie in the open disk" in str(n.value)
            for n in ast.walk(node)
        )

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if check(child):
                found.append(f"line {child.lineno}: {where}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_a_point_check():
    source = (
        "def f(sigma, z):\n"
        "    if not isinstance(sigma, (hc.BoundaryPoint, float)):\n"
        "        raise TypeError\n"
        "    if type(sigma) is not BoundaryPoint or issubclass(type(z), BoundaryPoint):\n"
        "        pass\n"
        "    if abs(z) >= 1.0:\n"
        "        raise DomainError(f'a point must lie in the open disk, |z|={abs(z)}')\n"
        "ok = isinstance(z, complex) and sigma == other\n"
        "raise BoundaryEscape('map value left the open disk')\n"
    )
    assert point_checks(source) == ["line 2: f", "line 4: f", "line 4: f", "line 7: f"]


# What counts as a point is decided in one place: herglotz_core's readers
# _boundary (a BoundaryPoint) and _interior (a number inside the open disk);
# the atoms' fast path and BoundaryPoint's equality test the class too.
POINT_CHECKS = {"herglotz_core": ["__eq__", "__post_init__", "_boundary", "_interior"]}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_only_the_point_readers_check_a_point(path):
    found = point_checks(path.read_text())
    assert sorted(line.split(": ")[1] for line in found) == POINT_CHECKS.get(path.stem, [])


def record_builders(source: str) -> list[str]:
    """Each call of a __new__ attribute in source, object.__new__ or a
    class's, as "line N: f" with f the innermost function holding it."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "__new__":
                found.append(f"line {child.lineno}: {where}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_a_record_built_around_its_init():
    source = (
        "p = object.__new__(A)\n"
        "def f(cls):\n"
        "    q = cls.__new__(cls)\n"
        "    return super().__new__(cls), new(cls)\n"
    )
    assert record_builders(source) == ["line 1: <module>", "line 3: f", "line 4: f"]


# A record built around its __init__ skips that __init__'s checks, which
# is sound only where every field is already checked: the atoms a
# normalized Herglotz record keeps, the points of arc zeros checked as the
# atoms' sweep checks them, and a validated configuration's skeleton with
# new spectral values.
RECORD_BUILDERS = {"herglotz_core": ["_arc_record", "_kept"], "generator": ["_with_lambdas"]}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_only_the_private_constructors_build_a_record_around_its_init(path):
    found = record_builders(path.read_text())
    assert sorted(line.split(": ")[1] for line in found) == RECORD_BUILDERS.get(path.stem, [])


def tau_projections(source: str) -> list[str]:
    """Each projection of a Denjoy-Wolff point tau onto the circle in source:
    a from_complex call or a circle_angle(cmath.phase(...)) whose argument
    is tau itself, a name or an attribute called tau, as "line N: f" with f
    the innermost function holding it."""
    found: list[str] = []

    def is_tau(node: ast.AST) -> bool:
        return getattr(node, "id", None) == "tau" or getattr(node, "attr", None) == "tau"

    def called(node: ast.AST) -> str | None:
        if isinstance(node, ast.Call) and len(node.args) == 1:
            return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        return None

    def projects(node: ast.AST) -> bool:
        name = called(node)
        if name == "from_complex":
            return is_tau(node.args[0])
        inner = node.args[0] if name == "circle_angle" else None
        return called(inner) == "phase" and is_tau(inner.args[0])

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if projects(child):
                found.append(f"line {child.lineno}: {where}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_a_tau_projection():
    source = (
        "def f(config, tau, w):\n"
        "    a = BoundaryPoint.from_complex(config.tau)\n"
        "    b = circle_angle(cmath.phase(tau)), circle_angle(phase(config.tau))\n"
        "    return from_complex(-tau.value * w), circle_angle(cmath.phase(w)), from_complex(w)\n"
        "t = BoundaryPoint.from_complex(tau)\n"
    )
    assert tau_projections(source) == ["line 2: f", "line 3: f", "line 3: f", "line 5: <module>"]


# A boundary tau is turned into a point of the circle in one place, where
# FixedPointConfig.__init__ sets tau_point, which every other reader takes.
TAU_PROJECTIONS = {"generator": ["__init__"]}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_only_the_config_projects_tau_onto_the_circle(path):
    found = tau_projections(path.read_text())
    assert sorted(line.split(": ")[1] for line in found) == TAU_PROJECTIONS.get(path.stem, [])


# the words a refusal uses when it names where tau must sit
_REGIME_WORDS = ("Denjoy-Wolff point", "tau = 0")
# what a test reads when it asks where tau sits
_REGIME_READS = ("regime", "is_origin", "is_boundary", "tau_regime")


def regime_refusals(source: str) -> list[str]:
    """Each refusal of a regime in source, as "line N: f" with f the
    innermost function holding it: a raise whose message names a regime
    (_REGIME_WORDS), and an if statement whose test reads the regime
    (_REGIME_READS, as an attribute or a call) and whose body raises."""
    found: list[str] = []

    def names_regime(node: ast.AST) -> bool:
        return isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and isinstance(n.value, str)
            and any(word in n.value for word in _REGIME_WORDS)
            for n in ast.walk(node)
        )

    def reads_regime(node: ast.AST) -> bool:
        return isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body) and any(
            getattr(n, "attr", None) in _REGIME_READS
            or (isinstance(n, ast.Call) and getattr(n.func, "id", None) in _REGIME_READS)
            for n in ast.walk(node.test)
        )

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if names_regime(child) or reads_regime(child):
                found.append(f"line {child.lineno}: {where}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_a_regime_refusal():
    source = (
        "def f(config, spec, tau):\n"
        "    if not config.is_boundary:\n"
        "        raise DomainError('f needs a circle point')\n"
        "    if spec.config.regime == 'origin' or tau_regime(tau) == 'interior':\n"
        "        return None\n"
        "    if tau_regime(tau) != 'origin':\n"
        "        x = 1\n"
        "        raise ValueError\n"
        "    raise DegenerateConfig(f'use g for tau = 0, got {tau}')\n"
        "def g(regime, what):\n"
        "    if regime != 'boundary' and what:\n"
        "        raise DomainError(f'{what} requires a boundary Denjoy-Wolff point')\n"
        "    raise DomainError('the regime of tau')\n"
    )
    assert regime_refusals(source) == ["line 2: f", "line 6: f", "line 9: f", "line 12: g"]


# Whether tau sits where a function needs it is refused in one place,
# FixedPointConfig._require; region_Z keeps its own test, since it serves
# two regimes and refuses only the third.
REGIME_REFUSALS = {"generator": ["_require"], "value_regions": ["region_Z"]}


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_every_regime_refusal_comes_from_the_one_guard(path):
    found = regime_refusals(path.read_text())
    assert sorted({line.split(": ")[1] for line in found}) == REGIME_REFUSALS.get(path.stem, [])


def test_lazy_raises_for_a_missing_module():
    from diskflow import _lazy

    name = "diskflow_test_no_such_module"
    with pytest.raises(ModuleNotFoundError) as info:
        _lazy._lazy(name)
    assert info.value.name == name
    assert name not in sys.modules


def _fresh(script: str, *args: str, bare: bool = False) -> dict:
    """Run script in a fresh interpreter on src/; its last line of output, as
    JSON.  A bare interpreter runs without site (-S), with numpy's directory
    on its path in place of the site directories."""
    env = dict(os.environ)
    path = [str(PACKAGE.parent), env.get("PYTHONPATH")]
    if bare:
        numpy_dir = importlib.util.find_spec("numpy").submodule_search_locations[0]
        path.append(os.path.dirname(numpy_dir))
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    res = subprocess.run(
        [sys.executable, *(["-S"] if bare else []), "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


_SESSION = """
import json, sys
import diskflow, diskflow.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

region, cp, flow, out = sys.argv[1:]
after_import = scipy_modules()
counterexample_code = diskflow.cli.main(["counterexample", "--out", out])
after_counterexample = scipy_modules() + sorted(m for m in sys.modules if m.startswith("numpy."))
codes = [
    diskflow.cli.main(["region", "--config", region, "--out", out]),
    diskflow.cli.main(["cowen-pommerenke", "--config", cp, "--out", out]),
    diskflow.cli.main(["verify", "--samples", "20", "--out", out]),
]
after_commands = scipy_modules()
flow_code = diskflow.cli.main(["flow", "--config", flow, "--out", out])
print(json.dumps({
    "after_import": after_import,
    "counterexample_code": counterexample_code,
    "after_counterexample": after_counterexample,
    "codes": codes,
    "after_commands": after_commands,
    "flow_code": flow_code,
    "after_flow": "scipy.integrate" in sys.modules,
}))
"""


_CP_CONFIG = {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0, math.pi],
              "target": [math.e, math.e], "fields": 4, "sweep": 4}
_FLOW_CONFIG = {"generator": {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0], "lambdas": [-2.0]},
                "z0": {"re": 0.5, "im": 0.0}, "t": 0.1}


def test_no_command_loads_scipy(tmp_path):
    configs = {
        "region": {"kind": "interior", "tau": {"re": 0.5, "im": 0.0},
                   "sigmas": [0.0], "lambdas": [-1.0]},
        "cp": _CP_CONFIG,
        "flow": _FLOW_CONFIG,
    }
    paths = []
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths.append(str(path))
    report = _fresh(_SESSION, *paths, str(tmp_path / "out"))
    assert report["after_import"] == []
    # the counterexample integrals run in plain floats: no scipy, no numpy
    assert report["counterexample_code"] == 0
    assert report["after_counterexample"] == []
    assert report["codes"] == [0, 0, 0]
    assert report["after_commands"] == []
    # flow integrates with diskflow's own step loop and still loads no scipy
    assert report["flow_code"] == 0
    assert report["after_flow"] is False


# The lazy numpy module sits in sys.modules before numpy loads, so a loaded
# numpy shows as its submodules; dataclasses, inspect and the rest show by
# name.  The session runs bare (-S), so none of them is loaded at its start.
_NUMPY_SESSION = """
import json, sys

def loaded():
    return sorted(
        m for m in sys.modules
        if m.startswith("numpy.")
        or m in ("dataclasses", "inspect", "argparse", "gettext", "locale", "random")
    )

regions, cp, flow, out = sys.argv[1:]
report = {"bare random": "random" in sys.modules}
import diskflow
report["import diskflow"] = loaded()
import diskflow.cli
report["import diskflow.cli"] = loaded()
report["region codes"] = [
    diskflow.cli.main(["region", "--format", fmt, "--config", path, "--out", out])
    for path in json.loads(regions)
    for fmt in ("json", "csv", "svg")
]
report["region"] = loaded()
report["cowen-pommerenke code"] = diskflow.cli.main(
    ["cowen-pommerenke", "--config", cp, "--out", out]
)
report["cowen-pommerenke"] = loaded()
report["verify code"] = diskflow.cli.main(["verify", "--samples", "20", "--out", out])
report["numpy"] = type(sys.modules["numpy"]).__name__
report["loaded"] = "numpy.linalg" in sys.modules
report["numpy.random"] = "numpy.random" in sys.modules
report["flow code"] = diskflow.cli.main(["flow", "--config", flow, "--out", out])
print(json.dumps(report))
"""


def test_import_and_region_do_not_load_numpy(tmp_path):
    from test_golden_cli import CASES

    regions = []
    for name, _, config, _ in CASES:
        if name.startswith("region-"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            regions.append(str(path))
    assert len(regions) == 4
    cp = tmp_path / "cp.json"
    cp.write_text(json.dumps(_CP_CONFIG))
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps(_FLOW_CONFIG))
    report = _fresh(_NUMPY_SESSION, json.dumps(regions), str(cp), str(flow),
                    str(tmp_path / "out"), bare=True)
    # without site the interpreter has not loaded random, so the checks bite
    assert report["bare random"] is False
    assert report["import diskflow"] == []
    assert report["import diskflow.cli"] == []
    assert report["region codes"] == [0] * 12
    assert report["region"] == []
    # cowen-pommerenke draws its fields from random.Random in plain floats
    assert report["cowen-pommerenke code"] == 0
    assert report["cowen-pommerenke"] == ["random"]
    # verify loads numpy on first use, and draws from the same source
    assert report["verify code"] == 0
    assert report["numpy"] == "module"
    assert report["loaded"] is True
    assert report["numpy.random"] is False
    assert report["flow code"] == 0


_SCALAR_SESSION = """
import cmath, json, math, sys
import diskflow.cli
from diskflow import (
    AtomicHerglotz, BoundaryPoint, FixedPointConfig, GeneratorSpec, PiecewiseField,
    dw_spectral_value, estimate_boundary_derivative, eval_generator,
    evolve_with_derivative, integrate_flow_with_derivative,
)

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

flow, out = sys.argv[1:]
report = {"flow code": diskflow.cli.main(["flow", "--config", flow, "--out", out])}
free = AtomicHerglotz(((BoundaryPoint(2.0), 0.5),), 0.25)
specs = {
    "interior": GeneratorSpec(FixedPointConfig(0.3 + 0.2j, (BoundaryPoint(0.0),), (-1.0,)), free),
    "boundary": GeneratorSpec(FixedPointConfig(1.0, (BoundaryPoint(3.0),), (-1.0,)), free),
}
for name, spec in specs.items():
    w, dw = integrate_flow_with_derivative(spec, 0.3j, 0.7)
    v, dv = evolve_with_derivative(PiecewiseField(((0.4, spec), (0.3, spec))), 0.3j)
    values = [w, dw, dw_spectral_value(spec), eval_generator(spec, 0.2 - 0.1j)]
    report[name] = {
        "complex": all(type(x) is complex for x in values[:2] + values[3:]),
        "finite": all(cmath.isfinite(x) for x in values),
        "semigroup": max(abs(v - w), abs(dv - dw) / abs(dw)),
    }
report["scalar paths"] = numpy_modules()
estimate = estimate_boundary_derivative(specs["interior"], BoundaryPoint(0.0), 0.5)
report["estimate error"] = abs(estimate / math.exp(0.5) - 1.0)
report["ladder"] = "numpy.linalg" in sys.modules
print(json.dumps(report))
"""

_README_FLOW = {
    "generator": {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0], "lambdas": [-2.0],
                  "p": {"atoms": [{"theta": 3.14159, "mass": 0.5}], "gamma": 0.0}},
    "z0": {"re": 0.5, "im": 0.0}, "t": 0.1,
}


def test_scalar_paths_do_not_load_numpy(tmp_path):
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps(_README_FLOW))
    report = _fresh(_SCALAR_SESSION, str(flow), str(tmp_path / "out"))
    assert report["flow code"] == 0
    for name in ("interior", "boundary"):
        assert report[name]["complex"] is True and report[name]["finite"] is True
        # phi_0.3 after phi_0.4 is phi_0.7, derivative included
        assert report[name]["semigroup"] <= 1e-9
    assert report["scalar paths"] == []
    # phi_t'(sigma) = exp(|lambda| t) at the repelling point, read off the ladder
    assert report["estimate error"] <= 1e-3
    assert report["ladder"] is True


_FIRST_USE = """
import json, math, sys, types
if sys.argv[1] == "numpy":
    import numpy
from diskflow import _lazy, herglotz_core as hc, semiflow

report = {"bound": _lazy.np is sys.modules["numpy"],
          "plain before": type(hc.np) is types.ModuleType}
p = hc.RationalHerglotz(((hc.BoundaryPoint(0.0), 1.0),))
w = hc.eval_herglotz(p, 0.5)
report["value"] = [w.real, w.imag]
report["plain after a point"] = type(hc.np) is types.ModuleType
report["reciprocal"] = [(a.theta, m) for a, m in hc.reciprocal(p).atoms]
report["plain after few atoms"] = type(hc.np) is types.ModuleType
# 13 atoms at the 13th roots of unity: 1/p has mass 1/169 at each root of -1
many = hc.RationalHerglotz(tuple((hc.BoundaryPoint(2.0 * math.pi * k / 13), 1.0) for k in range(13)))
report["many"] = [(a.theta, m) for a, m in hc.reciprocal(many).atoms][0]
report["plain"] = type(hc.np) is types.ModuleType
report["shared"] = semiflow.np is hc.np is sys.modules["numpy"]
print(json.dumps(report))
"""


@pytest.mark.parametrize("first", ["numpy", "diskflow"])
def test_lazy_numpy_is_the_plain_module_after_first_use(first):
    report = _fresh(_FIRST_USE, first)
    assert report["bound"] is True
    # numpy imported first (as the benchmark worker does) is used as it is
    assert report["plain before"] is (first == "numpy")
    assert report["value"] == [3.0, 0.0]
    # one point is summed in plain floats: numpy waits for an array kernel
    assert report["plain after a point"] is (first == "numpy")
    assert report["reciprocal"] == [pytest.approx([math.pi, 1.0], rel=1e-12)]
    # the arc solve of a few atoms runs in plain floats too; above
    # herglotz_core._PLAIN_ATOMS it is an array kernel
    assert report["plain after few atoms"] is (first == "numpy")
    assert report["many"] == pytest.approx([math.pi / 13, 1.0 / 169], rel=1e-12)
    # no proxy is left on the hot path once numpy has loaded
    assert report["plain"] is True
    assert report["shared"] is True
