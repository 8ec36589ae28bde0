"""The solver layer imports nothing of the Monte Carlo harness or the CLI."""

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
