"""Each module keeps its private names: no module of the package imports a
``_name`` from another (dunder names such as ``__version__`` are public).
And a module imports from the package at module level only, never inside a
function body."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chebydev"


def _from_package(node: ast.AST) -> bool:
    """Whether node imports from the package: a relative import, or an
    absolute one of or from chebydev."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "chebydev" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and bool(
        node.level or (node.module or "").split(".")[0] == "chebydev")


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private name a module imports from the package,
    by a relative import or by an absolute one from chebydev."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and _from_package(node)):
            continue
        found += [(node.lineno, alias.name) for alias in node.names
                  if alias.name.startswith("_")
                  and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_private_imports():
    source = ("from . import __version__\n"
              "from .supnorm import (SearchPlan,\n    _grid_values)\n"
              "from chebydev.signatures import _group_orbits\n"
              "from numpy.linalg import _umath_linalg\n"
              "def f():\n    from .polycore import _plain\n")
    assert private_imports(source) == [(2, "_grid_values"), (4, "_group_orbits"),
                                       (7, "_plain")]


def function_imports(source: str) -> list[int]:
    """The lines of the imports from the package inside a function body."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if _from_package(node)})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_function_level_imports():
    source = ("from .polycore import Poly\n"
              "import numpy\n"
              "def f():\n    from .polycore import Poly\n    import json\n"
              "    def g():\n        import chebydev.cli\n"
              "class C:\n    def m(self):\n        from chebydev import supnorm\n")
    assert function_imports(source) == [4, 7, 10]
