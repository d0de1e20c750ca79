"""Module-layout guards for the package source.

Each module reaches its siblings only through their public names, and only at
module level; numpy and scipy stay importable inside functions, which is how
the CLI avoids loading them on paths that never compute with them.
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
