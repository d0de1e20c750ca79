"""Module-layout guards for the package source.

Each module reaches its siblings only through their public names, and only at
module level, except ``cli.py``: its commands import the modules they run in
their first lines, so a cold command loads only those.  Every ``__all__`` entry is defined, and the package root imports
nothing: each public name is imported from its module.  The package needs
nothing beyond the standard library: numpy and scipy are imported nowhere in
it, not even inside a function; the tests use them as referees of the
quadrature and ODE oracles.  Nor is ``dataclasses``: ``quantity.Record`` is
the record base.  Only the charge-fraction fallback imports ``fractions``, and
only the parser builder ``argparse``, each inside its function.  Nor
are ``importlib``, ``pathlib``, ``typing`` or ``threading``: ``os`` and the
package's own loader read the data files, and ``collections.abc`` serves the
annotations.  Every species, built-in or from a file, is built by
``constants.build_species``: no other code constructs a ``SpeciesSpec``, a
plain record with no checks of its own, and ``species`` neither converts a
width nor words a constants error itself.  No other module turns a charge
fraction into a charge or a mass into a reduced mass: the spec holds both.
Only ``species.resonant_frequency`` and ``verify``'s unit oscillator build an
``OscillatorSpec``: a species' kinematics hold its ``omega0`` alone.  Every
module-level import is used.  Every public function has a caller in the
package or in ``perfbench``, apart from three kept on purpose.  Only
``cli.main`` writes standard output, once.  Only ``quantity.py`` reaches
``Quantity``'s slot descriptors.
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
    # cli.py is the exception: each command imports the modules it runs, and
    # tests/test_cli_process.py checks the exact set each command loads
    offenders = [
        _where(path, node)
        for path in MODULES
        if path.name != "cli.py"
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
    # execs generated code for several methods: a cost every cold command would
    # pay.  Record generates only each class's __init__
    assert _imports_of({"dataclasses"}) == []


def _innermost_functions(tree: ast.AST) -> dict[ast.AST, str]:
    """The name of the innermost function each node of ``tree`` is in; a
    node at module level is not a key."""
    enclosing = {}
    for function in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing.update(dict.fromkeys(ast.walk(function), function.name))
    return enclosing


def _importers_of(module: str) -> list[tuple[str, str | None]]:
    """Each import of ``module`` in the package, as (file, the innermost
    function it is in, or None at module level)."""
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text("utf-8"))
        enclosing = _innermost_functions(tree)
        sites += [(path.name, enclosing.get(node)) for node in ast.walk(tree)
                  if (isinstance(node, ast.Import) and module in [a.name for a in node.names])
                  or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == module)]
    return sites


def test_only_charge_fractions_import_fractions():
    # Dimension exponents are ints, and charge_ratio reads a charge fraction
    # such as "2/3" with int(): only the values it cannot read go to Fraction()
    assert _importers_of("fractions") == [("constants.py", "charge_ratio")]


def test_only_the_parser_builder_imports_argparse():
    # a canonical argv is parsed without argparse, which loads gettext and locale
    assert _importers_of("argparse") == [("cli.py", "_build_parser")]


def _is_sys_attribute(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_only_cli_main_writes_stdout():
    # each command returns its whole output and cli.main writes it once, so
    # an error leaves stdout empty; print may only word the stderr error line
    writes, prints = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text("utf-8"))
        enclosing = _innermost_functions(tree)
        writes += [(path.name, enclosing.get(node)) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr.startswith("write")
                   and _is_sys_attribute(node.value, "stdout")]
        prints += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
                   and not any(k.arg == "file" and _is_sys_attribute(k.value, "stderr")
                               for k in node.keywords)]
    assert writes == [("cli.py", "main")]
    assert prints == []


def test_no_importlib_pathlib_typing_or_threading_import():
    # with site off, importlib.resources (which loads pathlib, tempfile, shutil
    # and urllib.parse) and typing were a third of the package's cold import,
    # yet the four served one bundled read, four annotations and one lock
    assert _imports_of({"importlib", "pathlib", "typing", "threading"}) == []


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


def _calls_of(name: str, node: ast.AST) -> list[ast.Call]:
    """Every call below ``node`` of a function or class named ``name``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and (getattr(call.func, "id", None) == name or getattr(call.func, "attr", None) == name)]


def test_only_the_builder_constructs_a_species_spec():
    # the built-in species and a file's records once had a builder each, and
    # their e_min disagreed in the last bits
    tree = ast.parse((PACKAGE / "constants.py").read_text("utf-8"))
    builders = [function for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef) and function.name == "build_species"]
    inside = {(call.lineno, call.col_offset) for builder in builders
              for call in _calls_of("SpeciesSpec", builder)}
    assert len(builders) == 1 and inside
    offenders = [f"{path.name}:{call.lineno}"
                 for path in MODULES
                 for call in _calls_of("SpeciesSpec", ast.parse(path.read_text("utf-8")))
                 if path.name != "constants.py" or (call.lineno, call.col_offset) not in inside]
    assert offenders == []
    # so the builder's checks are the only ones: the spec once repeated ten of
    # them in a __post_init__, with __slots__ and __reduce__ to keep its ratio
    spec = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SpeciesSpec")
    members = [node for node in spec.body if not isinstance(node, (ast.AnnAssign, ast.Expr))]
    assert [ast.unparse(node).partition("\n")[0] for node in members] == []


def test_only_constants_derives_a_species_charge_or_reduced_mass():
    # build_species computes q = e n/d and mu = m/2 once; the solver once
    # derived both again for every lepton term of every evaluation of F
    offenders = []
    for path in MODULES:
        if path.name == "constants.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                sides = (node.left, node.right)
                if (any(getattr(side, "attr", None) == "constituent_mass" for side in sides)
                        and any(isinstance(side, ast.Constant) and isinstance(side.value, (int, float))
                                for side in sides)):
                    offenders.append(f"{path.name}:{node.lineno} scales constituent_mass")
            if "charge_ratio" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None)):
                offenders.append(f"{path.name}:{node.lineno} names charge_ratio")
    assert offenders == []


def test_only_resonant_frequency_and_the_seeded_draws_build_an_oscillator_spec():
    # a species' kinematics once nested an OscillatorSpec whose checks repeated
    # ones already made, only for the table and the solver to read omega0
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text("utf-8"))
        enclosing = _innermost_functions(tree)
        sites += [(path.name, enclosing.get(call)) for call in _calls_of("OscillatorSpec", tree)]
    assert sites == [("species.py", "resonant_frequency"),
                     ("verify.py", "check_quadrature_vs_analytic")]


def test_every_module_level_import_is_used():
    # a deletion can leave an import behind; a name is used if its module
    # reads it or lists it in __all__
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text("utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        used.update(_dunder_all(tree) or [])
        offenders += [f"{path.name}:{node.lineno} {name}"
                      for node in tree.body
                      if isinstance(node, ast.Import)
                      or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                      for name in ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                      if name not in used]
    assert offenders == []


def test_species_imports_neither_width_rate_nor_constants_error():
    tree = ast.parse((PACKAGE / "species.py").read_text("utf-8"))
    imported = {alias.name for node in _sibling_imports(tree) for alias in node.names}
    assert "build_species" in imported
    assert imported.isdisjoint({"width_rate", "ConstantsError"})


# Public functions that only tests call, each kept for a reason
_KEPT_WITHOUT_A_CALLER = {
    "serialize_constants": "the JSON round-trip contract: it writes what load_constants reads",
    "report_from_dict": "the JSON round-trip contract: it reads back a report's JSON",
    "dipole_expectation_static": "the paper's static dipole, which a trajectory's period average equals",
}


def test_every_public_function_has_a_caller():
    # a public function that only its own tests reach is deleted; perfbench's
    # layer timings count as a caller, since they call the package by name
    perfbench = PACKAGE.parents[1] / "perfbench"
    callers = MODULES + [p for p in sorted(perfbench.glob("*.py")) if not p.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text("utf-8")) for path in callers}
    public = {node.name: (path, node)
              for path in MODULES
              for node in trees[path].body
              if isinstance(node, ast.FunctionDef) and node.name in (_dunder_all(trees[path]) or [])}
    assert set(_KEPT_WITHOUT_A_CALLER) <= set(public)

    def called_outside(name, path, function):
        return any(caller != path or not function.lineno <= call.lineno <= function.end_lineno
                   for caller, tree in trees.items() for call in _calls_of(name, tree))

    offenders = [f"{path.name}: {name}" for name, (path, function) in public.items()
                 if name not in _KEPT_WITHOUT_A_CALLER and not called_outside(name, path, function)]
    assert offenders == []


def test_only_quantity_reaches_the_slot_descriptors():
    # Quantity.value.__set__ and Quantity.dim.__set__ write a Quantity past its
    # immutability; only quantity's own constructors may, so every other module
    # builds one through Quantity() or the arithmetic
    offenders = [f"{path.name}:{node.lineno} Quantity.{node.attr}"
                 for path in MODULES
                 if path.name != "quantity.py"
                 for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(node, ast.Attribute) and node.attr in ("value", "dim")
                 and isinstance(node.value, ast.Name) and node.value.id == "Quantity"]
    assert offenders == []
