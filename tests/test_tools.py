"""The repository tools under ``tools/``."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
on two lines."""

# A comment line.
import os  # a trailing comment


def f(x):
    """Function docstring."""
    # Another comment.
    return (x +
            1)


class C:
    """Class docstring,
    on two lines."""

    y = """a string that is
    no docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, the two lines of the return, class and the two lines of y.
    assert load_tool("code_lines").code_lines(SAMPLE) == 7


def test_code_lines_lists_every_module(capsys):
    assert load_tool("code_lines").main([]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["code", "lines", "module"]
    package = os.path.join(ROOT, "src", "barenheat")
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert [line.split()[2] for line in lines] == modules + ["total"]
    for column in (0, 1):
        counts = [int(line.split()[column]) for line in lines]
        assert counts[-1] == sum(counts[:-1])
    # The physical lines are what `cat src/barenheat/*.py | wc -l` counts.
    newlines = []
    for name in modules:
        with open(os.path.join(package, name), "rb") as handle:
            newlines.append(handle.read().count(b"\n"))
    assert [int(line.split()[1]) for line in lines] == newlines + [sum(newlines)]
