"""Module-layout guards for the package source.

Each module reaches its siblings only through their public names, and only at
module level.  Every ``__all__`` entry is defined, and the package root imports
nothing: each public name is imported from its module.  The package needs
nothing beyond the standard library: numpy and scipy are imported nowhere in
it, not even inside a function; the tests use them as referees of the
quadrature and ODE oracles.  Nor is ``dataclasses``: ``quantity.Record`` is
the record base.  Only the charge-fraction modules import ``fractions``.
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


def _imports_of(forbidden: set[str]) -> list[str]:
    """Every absolute import in the package of a module named in ``forbidden``."""
    return [
        f"{path.name}:{node.lineno} {name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.split(".")[0] in forbidden
    ]


def test_no_numpy_or_scipy_import():
    assert _imports_of({"numpy", "scipy"}) == []


def test_no_dataclasses_import():
    # dataclasses loads inspect, ast, dis and tokenize, and each decorated class
    # execs generated code: a cost every cold command would pay
    assert _imports_of({"dataclasses"}) == []


def test_only_charge_fractions_import_fractions():
    # Dimension exponents are ints; a species' charge fraction, parsed in
    # constants and tabled in species, is the one Fraction left
    offenders = [where for where in _imports_of({"fractions"})
                 if where.split(":")[0] not in {"constants.py", "species.py"}]
    assert offenders == []


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names bound at module level: definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _dunder_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_every_all_entry_is_defined():
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text("utf-8"))
        exported = _dunder_all(tree) or []
        offenders += [f"{path.name}: {name}" for name in exported
                      if name not in _top_level_names(tree)]
    assert offenders == []


def test_package_root_imports_nothing():
    # each public name has one import path, its module, and importing one
    # module does not load its siblings through the package root
    init = PACKAGE / "__init__.py"
    offenders = [f"{init.name}:{node.lineno}"
                 for node in ast.walk(ast.parse(init.read_text("utf-8")))
                 if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []
