"""Module-layout guards for the package source.

Each module reaches its siblings only through their public names, and only at
module level.  The package needs nothing beyond the standard library: numpy and
scipy are imported nowhere in it, not even inside a function; the tests use
them as referees of the quadrature and ODE oracles.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vfdielectric"
MODULES = sorted(PACKAGE.glob("*.py"))


def _sibling_imports(node: ast.AST):
    """Every ``from <sibling> import ...`` statement below ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.ImportFrom) and (
            child.level > 0 or (child.module or "").split(".")[0] == "vfdielectric"
        ):
            yield child


def _where(path: Path, node: ast.ImportFrom) -> str:
    return f"{path.name}:{node.lineno} from {'.' * node.level}{node.module or ''}"


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "constants.py", "species.py"}


def test_no_private_name_imported_from_a_sibling():
    offenders = [
        f"{_where(path, node)} import {alias.name}"
        for path in MODULES
        for node in _sibling_imports(ast.parse(path.read_text("utf-8")))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []


def test_no_sibling_import_inside_a_function():
    offenders = [
        _where(path, node)
        for path in MODULES
        for function in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _sibling_imports(function)
    ]
    assert offenders == []


def test_no_numpy_or_scipy_import():
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.split(".")[0] in ("numpy", "scipy")
    ]
    assert offenders == []
