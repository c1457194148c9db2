"""Each module keeps its private names: no module of the package imports a
``_name`` from another (dunder names such as ``__version__`` are public)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chebydev"


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private name a module imports from the package,
    by a relative import or by an absolute one from chebydev."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "chebydev"):
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
              "from chebydev.signatures import _split_by_sign\n"
              "from numpy.linalg import _umath_linalg\n"
              "def f():\n    from .polycore import _plain\n")
    assert private_imports(source) == [(2, "_grid_values"), (4, "_split_by_sign"),
                                       (7, "_plain")]
