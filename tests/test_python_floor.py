"""The code keeps to Python 3.10, the floor ``pyproject.toml`` declares.

Every ``.py`` file under ``src/``, ``tools/``, ``tests/`` and ``demos/``
must parse with the 3.10 grammar (``except*`` and PEP 695 type parameters
need 3.11 and 3.12), and must not use a standard-library feature that
first shipped in 3.11, from the fixed list below.  The check runs on any
interpreter, so the floor holds where no 3.10 interpreter with numpy is at
hand.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKED = ("src", "tools", "tests", "demos")
# Python 3.11+ standard-library features, as (module, name); a module with
# name None is new itself, and a builtin has module None.
FEATURES = {("tomllib", None), (None, "ExceptionGroup"), ("typing", "Self"),
            ("enum", "StrEnum"), ("datetime", "UTC"), ("asyncio", "TaskGroup")}
NEW_BUILTINS = {name for module, name in FEATURES if module is None}


def sources():
    for top in CHECKED:
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                path = os.path.join(folder, name)
                if name.endswith(".py") and path != os.path.abspath(__file__):
                    yield os.path.relpath(path, ROOT)


def newer_features(tree):
    """The 3.11+ features of ``FEATURES`` that a parsed module uses."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {(alias.name.split(".")[0], None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            found |= {(top, None)} | {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add((node.value.id, node.attr))
        elif isinstance(node, ast.Name) and node.id in NEW_BUILTINS:
            found.add((None, node.id))
    return found & FEATURES


def test_the_code_parses_as_python_3_10_without_newer_stdlib_features():
    paths = list(sources())
    assert all(any(path.startswith(top + os.sep) for path in paths) for top in CHECKED)
    offenders = {}
    for path in paths:
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path, feature_version=(3, 10))
        except SyntaxError as exc:
            offenders[path] = exc.msg
            continue
        features = newer_features(tree)
        if features:
            offenders[path] = sorted(map(str, features))
    assert not offenders
