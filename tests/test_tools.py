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
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(name for name in os.listdir(os.path.join(ROOT, "src", "barenheat"))
                     if name.endswith(".py"))
    assert [line.split()[1] for line in lines] == modules + ["total"]
    counts = [int(line.split()[0]) for line in lines]
    assert counts[-1] == sum(counts[:-1])
