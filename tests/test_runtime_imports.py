"""The package imports nothing but the standard library, itself and its
runtime dependencies.

Every ``import`` in ``src/polyhelix``, at module level or inside a function,
must name a standard library module, ``polyhelix`` (a relative import) or a
distribution listed in ``pyproject.toml``'s ``[project] dependencies``, and
that list is numpy alone.  Packages the tests need (mpmath, sympy,
hypothesis, pytest) belong to the ``test`` extra and must not reach the
package.  ``classify`` decides every system exactly and imports no numpy at
all.  No module imports another one's private (underscore-prefixed) names:
a data layout, such as ``ratpoly``'s packed monomial, stays behind the
methods of the module that owns it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyhelix"


def _runtime_dependencies() -> set[str]:
    """The import names of ``[project] dependencies``."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[\w.-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["dependencies"]
    }


def _imports(path: Path):
    """(top-level module, line) of each absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0], node.lineno


def test_runtime_dependencies_are_numpy_alone():
    assert _runtime_dependencies() == {"numpy"}


def test_package_imports_only_the_standard_library_and_its_dependencies():
    allowed = set(sys.stdlib_module_names) | _runtime_dependencies() | {"polyhelix"}
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    stray = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in files
        for module, line in _imports(path)
        if module not in allowed
    ]
    assert stray == []


def test_classify_imports_no_numpy():
    # anywhere in the module: at its top, inside a function or under
    # TYPE_CHECKING
    path = PACKAGE / "classify.py"
    assert [line for module, line in _imports(path) if module == "numpy"] == []


def _package_import(node: ast.ImportFrom) -> bool:
    """Whether a ``from ... import`` names a module of the package."""
    return bool(node.level) or node.module.partition(".")[0] == "polyhelix"


def test_no_module_imports_another_ones_private_names():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    private = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and _package_import(node)
        for alias in node.names
        # a dunder such as __version__ is public
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
