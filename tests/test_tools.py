"""The repository tools under ``tools/``."""

import hashlib
import importlib.util
import json
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


def test_verdict_digest_reads_the_verdict_and_the_counters(tmp_path):
    solver = {"inner_iterations": 12, "worst_factor_over_bound": 0.0123}
    summary = {"check_name": "energy_boundedness", "pass": True, "statistic": 1.25,
               "iteration_wall_times": [0.5], "warnings": []}
    manifest = {"command": "mc", "solver": solver, "wall_time_seconds": 0.75}

    def digest(summary, manifest):
        (tmp_path / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return load_tool("csv_digests").verdict_digest(str(tmp_path))

    expected = hashlib.sha256(json.dumps(
        {"pass": True, "solver": solver, "statistic": 1.25}, sort_keys=True).encode()).hexdigest()
    assert digest(summary, manifest) == expected
    # Wall times and other keys leave it; a verdict, statistic or counter moves it.
    assert digest({**summary, "iteration_wall_times": [0.25]},
                  {**manifest, "wall_time_seconds": 0.5, "created_utc": "x"}) == expected
    assert digest({**summary, "pass": False}, manifest) != expected
    assert digest({**summary, "statistic": 1.5}, manifest) != expected
    assert digest(summary, {**manifest, "solver": {**solver, "inner_iterations": 13}}) != expected
