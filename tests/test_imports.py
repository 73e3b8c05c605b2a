"""Every module of the package uses each name it imports.

No linter ships with the project, so this is the unused-import check: a
name bound by an import at any level of a module under src/diskflow/ must
be read somewhere in that module.  A name that __init__.py imports from a
module counts as used there, since the package re-exports it.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "diskflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
