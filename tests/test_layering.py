"""The solver layer imports nothing of the Monte Carlo harness or the CLI,
and every public name of the package has a reader."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "barenheat")
SOLVER = ("grids", "stepper", "noise", "nonlinearity", "expressions", "theory", "errors")
HARNESS = {"diagnostics", "cli", "config", "multiplicative"}


def imported_modules(name, package=PACKAGE):
    """The barenheat modules that module ``name`` of ``package`` imports, read
    from its syntax tree: relative imports, ``from . import m`` and absolute
    ``barenheat.m``."""
    with open(os.path.join(package, f"{name}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("barenheat.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "barenheat" and not module.startswith("barenheat."):
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return found


def test_the_reader_sees_every_kind_of_import(tmp_path):
    source = ("import numpy\nimport barenheat.cli\nfrom . import config\n"
              "from .grids import cg\nfrom barenheat import diagnostics\n"
              "from barenheat.multiplicative import picard_solve\n")
    (tmp_path / "probe.py").write_text(source, encoding="utf-8")
    assert imported_modules("probe", str(tmp_path)) == {
        "cli", "config", "grids", "diagnostics", "multiplicative"}


@pytest.mark.parametrize("name", SOLVER)
def test_solver_module_imports_no_harness_module(name):
    assert not imported_modules(name) & HARNESS


def names_read(node):
    """The names that the syntax tree ``node`` reads: bare names, attributes
    and the names of ``from`` imports."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            found |= {alias.name for alias in child.names}
    return found


def unread_public_names(package=PACKAGE):
    """``module.name`` of each public top-level function or class of
    ``package`` that ``__init__`` does not re-export (``_DIAGNOSTICS_NAMES``
    included) and that no statement of the package other than its own
    definition reads."""
    trees = {}
    for file in sorted(os.listdir(package)):
        if file.endswith(".py"):
            with open(os.path.join(package, file), encoding="utf-8") as handle:
                trees[file[:-3]] = ast.parse(handle.read())
    exported = names_read(trees["__init__"])
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and "_DIAGNOSTICS_NAMES" in names_read(node):
            exported |= set(ast.literal_eval(node.value))
    reads = [(statement, names_read(statement))
             for tree in trees.values() for statement in tree.body]
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in exported
            and not any(node.name in names for statement, names in reads if statement is not node)]


def test_the_unread_name_finder_sees_every_kind_of_reader(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import shown\n_DIAGNOSTICS_NAMES = ('lazy',)\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "def shown(): pass\ndef lazy(): pass\ndef local(): pass\nTABLE = {'k': local}\n"
        "def imported(): pass\ndef called(): pass\n"
        "def dead(): return dead()\nclass Dead: pass\ndef _private(): pass\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import imported\nfrom . import a\na.called()\n",
                                   encoding="utf-8")
    assert unread_public_names(str(tmp_path)) == ["a.dead", "a.Dead"]


def test_every_public_name_is_exported_or_read():
    assert unread_public_names() == []
