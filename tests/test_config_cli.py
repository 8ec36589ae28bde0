import csv
import json
import os

import re

import numpy as np
import pytest

import barenheat as bh
from barenheat import config as config_module
from barenheat import stepper
from barenheat.cli import main
from barenheat.config import _KEYS, parse_config
from barenheat.errors import ConfigValidationError, InvalidConfigError

MINIMAL = """\
[mesh]
dimension = 1
cells = 16
lengths = 1.0

[time]
horizon = 1.0
steps = 16

[initial]
theta0 = cos(pi*x)
chi0 = cos(pi*x)

[nonlinearity]
kind = linear
c = 1.0

[noise]
kind = additive
expression = cos(pi*x)*(1+t)
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL))
        assert config.paths == 64
        assert config.seed == 0
        assert config.inner_tol == 1e-11
        assert config.steps == 16
        assert config.nonlinearity.lipschitz == 1.0
        assert config.nonlinearity_report.passed
        assert config.ops.node_count == 17

    def test_contraction_violation_named(self, tmp_path):
        text = MINIMAL.replace("horizon = 1.0", "horizon = 3.0").replace(
            "steps = 16", "steps = 1"
        )
        with pytest.raises(ConfigValidationError, match="contraction"):
            parse_config(write_config(tmp_path, text))

    def test_solvability_violation_named(self, tmp_path):
        # Large coercivity satisfies the contraction bound, dt = 1 does not
        # satisfy solvability.
        text = MINIMAL.replace("steps = 16", "steps = 1").replace("c = 1.0", "c = 3.0")
        with pytest.raises(ConfigValidationError, match="dt < 1"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="unknown key"):
            parse_config(write_config(tmp_path, MINIMAL + "speling = 1\n"))

    def test_lone_default_section_is_an_unknown_section(self, tmp_path):
        # configparser's own default section would be dropped without a word.
        with pytest.raises(ConfigValidationError) as excinfo:
            parse_config(write_config(tmp_path, "[DEFAULT]\nseed = 5\n"))
        assert excinfo.value.violations == ["unknown section [DEFAULT]"]

    def test_default_section_beside_others_is_one_violation(self, tmp_path):
        # ... and its keys would be reported once in every other section.
        with pytest.raises(ConfigValidationError) as excinfo:
            parse_config(write_config(tmp_path, "[DEFAULT]\nseed = 5\n\n" + MINIMAL))
        assert excinfo.value.violations == ["unknown section [DEFAULT]"]

    def test_time_dependent_initial_data_rejected(self, tmp_path):
        text = MINIMAL.replace("theta0 = cos(pi*x)", "theta0 = t*x")
        with pytest.raises(ConfigValidationError, match="theta0"):
            parse_config(write_config(tmp_path, text))

    def test_bad_expression_rejected(self, tmp_path):
        text = MINIMAL.replace("expression = cos(pi*x)*(1+t)", "expression = sin(x)")
        with pytest.raises(ConfigValidationError, match="expression"):
            parse_config(write_config(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            parse_config(str(tmp_path / "absent.ini"))

    def test_malformed_file(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="parse error"):
            parse_config(write_config(tmp_path, "no section header\n"))

    def test_picard_weight_condition(self, tmp_path):
        text = MINIMAL.replace(
            "kind = additive\nexpression = cos(pi*x)*(1+t)\n",
            "kind = multiplicative\nmap = affine\nscale = 0.5\nweight = 1.0\n",
        )
        with pytest.raises(ConfigValidationError, match="weight"):
            parse_config(write_config(tmp_path, text))
        # The same file passes with the override.
        config = parse_config(write_config(tmp_path, text), override_picard_condition=True)
        assert config.picard.override_condition

    def test_dt_levels_must_divide_horizon(self, tmp_path):
        text = MINIMAL + "\n[study]\nkind = self\n"
        with pytest.raises(ConfigValidationError, match="divide"):
            parse_config(write_config(tmp_path, text), dt_levels=[0.3])

    def test_flag_overrides(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL), paths=7, seed=99)
        assert config.paths == 7
        assert config.seed == 99

    def test_empty_file_is_all_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, ""))
        assert config.nonlinearity.name == "linear(c=1.0)"
        assert config.noise_kind == "additive"
        assert config.integrand == "0"
        assert config.horizon == 1.0

    def test_malformed_values_become_named_violations(self, tmp_path):
        text = MINIMAL.replace("cells = 16", "cells = abc").replace(
            "horizon = 1.0", "horizon = fast"
        )
        with pytest.raises(ConfigValidationError) as excinfo:
            parse_config(write_config(tmp_path, text))
        joined = "\n".join(excinfo.value.violations)
        assert "mesh" in joined and "horizon" in joined


EVERY_KEY = {
    "mesh": {"dimension": "2", "cells": "4, 2", "lengths": "2.0, 0.5"},
    "time": {"horizon": "0.5", "steps": "8", "dt_levels": "0.25, 0.125"},
    "initial": {"theta0": "x*y", "chi0": "1 + x"},
    "nonlinearity": {"kind": "ramp", "inner_slope": "2.0", "outer_slope": "0.5",
                     "knee": "0.7", "lipschitz": "2.5", "coercivity": "0.4"},
    "noise": {"kind": "multiplicative", "map": "affine", "scale": "0.02",
              "offset": "cos(pi*x)", "lipschitz": "0.03", "weight": "9.0",
              "picard_tolerance": "1e-7", "picard_max_iterations": "12",
              "expression": "x", "expression_hat": "y", "gain": "0.5"},
    "monte_carlo": {"paths": "5", "seed": "77"},
    "tolerances": {"inner": "1e-10", "newton": "1e-11"},
    "study": {"kind": "self", "slope_threshold": "0.3"},
    "output": {"directory": "elsewhere"},
}

# The keys EVERY_KEY sets but its kinds do not read, read by other kinds.
OTHER_KINDS = {
    "c": {"nonlinearity": {"kind": "linear", "c": "2.0"}},
    "a": {"nonlinearity": {"kind": "saturating", "a": "2.0"}},
    "gain": {"noise": {"kind": "multiplicative", "map": "damped", "gain": "0.02",
                       "weight": "9.0"}},
    "expression": {"noise": {"kind": "additive", "expression": "x*(1+t)",
                             "expression_hat": "y"}},
}


def render(sections):
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


def every_key_config(tmp_path, **sections):
    return write_config(tmp_path, render({**EVERY_KEY, **sections}))


class TestKeyTable:
    """One table names every key with its parser and default."""

    def test_every_key_reaches_its_field(self, tmp_path):
        config = parse_config(every_key_config(tmp_path))
        ops = bh.build_operators(2, (4, 2), (2.0, 0.5))
        assert np.array_equal(config.ops.coordinates, ops.coordinates)
        assert (config.horizon, config.steps, config.dt_levels) == (0.5, 8, [0.25, 0.125])
        assert np.array_equal(config.theta0, bh.evaluate_on_mesh("x*y", ops))
        assert np.array_equal(config.chi0, bh.evaluate_on_mesh("1 + x", ops))
        nl = config.nonlinearity
        assert (nl.name, nl.lipschitz, nl.coercivity) == (
            "ramp(s_in=2.0, s_out=0.5, knee=0.7)", 2.5, 0.4)
        assert config.nonlinearity_report.passed
        assert (config.noise_kind, config.integrand, config.integrand_hat) == (
            "multiplicative", None, None)
        noise_map = config.noise_map
        assert (noise_map.kind, noise_map.scale, noise_map.lipschitz) == ("affine", 0.02, 0.03)
        assert np.array_equal(noise_map.offset, bh.evaluate_on_mesh("cos(pi*x)", ops))
        assert config.picard == bh.PicardConfig(weight=9.0, tolerance=1e-7, max_iterations=12)
        assert (config.paths, config.seed) == (5, 77)
        assert (config.inner_tol, config.newton_tol) == (1e-10, 1e-11)
        assert (config.study_kind, config.slope_threshold) == ("self", 0.3)
        assert config.output_directory == "elsewhere"

    def test_keys_of_the_other_kinds_reach_their_fields(self, tmp_path):
        config = parse_config(every_key_config(tmp_path, **OTHER_KINDS["c"]))
        assert config.nonlinearity.name == "linear(c=2.0)"
        config = parse_config(every_key_config(tmp_path, **OTHER_KINDS["a"]))
        assert config.nonlinearity.name == "saturating(a=2.0)"
        config = parse_config(every_key_config(tmp_path, **OTHER_KINDS["gain"]))
        assert (config.noise_map.kind, config.noise_map.lipschitz) == ("pointwise", 0.02)
        config = parse_config(every_key_config(tmp_path, **OTHER_KINDS["expression"]))
        assert (config.integrand, config.integrand_hat, config.noise_map) == ("x*(1+t)", "y", None)

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in _KEYS.items()
        for key, (parse, _) in keys.items() if parse is not str
    ])
    def test_malformed_number_is_one_named_violation(self, tmp_path, section, key):
        sections = OTHER_KINDS.get(key, {})
        sections = {**sections, section: {**sections.get(section, EVERY_KEY[section]),
                                          key: "abc"}}
        with pytest.raises(ConfigValidationError) as excinfo:
            parse_config(every_key_config(tmp_path, **sections))
        assert len(excinfo.value.violations) == 1
        assert excinfo.value.violations[0].startswith(f"key {key!r} in section [{section}]: ")

    def test_sample_in_the_module_docstring_names_every_key(self):
        sample = config_module.__doc__.split("::", 1)[1]
        blocks = dict(re.findall(r"\[(\w+)\]\n(.*?)(?=\n\s*\[|\Z)", sample, re.S))
        assert set(blocks) == set(_KEYS)
        for section, keys in _KEYS.items():
            for key in keys:
                assert re.search(rf"\b{key} =", blocks[section]), (section, key)


NON_FINITE = [
    ("time", "horizon", {"time": {"horizon": "nan", "dt_levels": "0.25"}}),
    ("time", "horizon", {"time": {"horizon": "inf", "dt_levels": "0.25"}}),
    ("time", "dt_levels", {"time": {"dt_levels": "nan"}}),
    ("mesh", "lengths", {"mesh": {"lengths": "nan"}}),
    ("tolerances", "inner", {"tolerances": {"inner": "nan"}}),
    ("tolerances", "newton", {"tolerances": {"newton": "inf"}}),
    ("study", "slope_threshold", {"study": {"slope_threshold": "nan"}}),
    ("nonlinearity", "a", {"nonlinearity": {"kind": "saturating", "a": "inf"}}),
]


@pytest.mark.parametrize("section, key, sections", NON_FINITE)
def test_non_finite_number_is_a_named_violation(tmp_path, section, key, sections):
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_config(write_config(tmp_path, render(sections)))
    value = sections[section][key]
    assert excinfo.value.violations == [
        f"key {key!r} in section [{section}]: {value!r} is not a finite number"]


@pytest.mark.parametrize("dt", ["1e-320", "0", "-0.25"])
def test_dt_level_that_cannot_divide_is_a_violation(tmp_path, dt):
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_config(write_config(tmp_path, f"[time]\ndt_levels = {dt}\n"))
    assert excinfo.value.violations == [
        f"dt level {float(dt)} does not divide the horizon T = 1.0"]


def test_zero_steps_is_a_violation(tmp_path):
    with pytest.raises(ConfigValidationError, match="steps must be >= 1, got 0"):
        parse_config(write_config(tmp_path, MINIMAL.replace("steps = 16", "steps = 0")))


def test_integrand_of_time_degree_four_fails_validation(tmp_path):
    text = MINIMAL.replace("expression = cos(pi*x)*(1+t)", "expression = cos(pi*x)*t^4")
    with pytest.raises(ConfigValidationError, match="noise expression: time degree 4"):
        parse_config(write_config(tmp_path, text))
    text = MINIMAL.replace("expression = cos(pi*x)*(1+t)", "expression = cos(pi*x)*t^3")
    assert parse_config(write_config(tmp_path, text)).integrand == "cos(pi*x)*t^3"


def rejection(call):
    """What an InvalidConfigError from ``call()`` says, or None; the
    violations of a config, one a line."""
    try:
        call()
    except ConfigValidationError as exc:
        return "\n".join(exc.violations)
    except InvalidConfigError as exc:
        return str(exc)
    return None


class TestPreconditionsAgree:
    """The config validator and the solvers reject the same inputs, in the same words."""

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_steps_config_rejected_exactly_when_the_stepper_rejects(self, tmp_path, c):
        nl = bh.linear(c)
        outcomes = set()
        # Four steps of dt each: horizon / steps is dt again, bit for bit.
        for dt in (0.5, 0.99, 1.0, 1.01, 1.0 + c - 0.01, 1.0 + c, 1.0 + c + 0.01):
            text = MINIMAL.replace("horizon = 1.0", f"horizon = {4 * dt!r}").replace(
                "steps = 16", "steps = 4").replace("c = 1.0", f"c = {c!r}")
            path = write_config(tmp_path, text)
            grid = bh.build_time_grid(4 * dt, 4)
            expected = rejection(lambda: stepper.check_step_preconditions(grid.dt, nl))
            assert rejection(lambda: parse_config(path)) == expected
            outcomes.add(expected.split(" violates")[1] if expected else None)
        contraction = f" the contraction requirement dt < 1 + coercivity(alpha) = {1.0 + c}"
        assert outcomes == {None, " the solvability requirement dt < 1", contraction}

    def test_picard_threshold_agrees_just_below_and_above(self, tmp_path):
        scale = 0.5
        constants = bh.compute_stability_constant(1.0, 1.0, 1.0)
        threshold = 4.0 * constants.stability_constant * scale**2
        for weight, accepted in ((threshold * (1 - 1e-12), False), (threshold * (1 + 1e-12), True)):
            text = MINIMAL.replace(
                "kind = additive\nexpression = cos(pi*x)*(1+t)\n",
                f"kind = multiplicative\nmap = affine\nscale = {scale}\nweight = {weight!r}\n",
            )
            path = write_config(tmp_path, text)
            grid = bh.build_time_grid(1.0, 16)
            ops = bh.build_operators(1, 16, 1.0)
            chi0 = bh.evaluate_on_mesh("cos(pi*x)", ops)

            def solve():
                bh.picard_solve(chi0, chi0, bh.affine_map(scale), bh.sample_path(grid, 0, 0),
                                grid, ops, bh.linear(1.0), bh.PicardConfig(weight=weight))

            config_says = rejection(lambda: parse_config(path))
            assert config_says == rejection(solve)
            assert (config_says is None) == accepted

    def test_threshold_without_constants_is_one_more_violation(self, tmp_path):
        text = MINIMAL.replace("horizon = 1.0", "horizon = -1.0").replace(
            "kind = additive\nexpression = cos(pi*x)*(1+t)\n",
            "kind = multiplicative\nmap = affine\nscale = 0.5\nweight = 100\n",
        )
        with pytest.raises(ConfigValidationError) as excinfo:
            parse_config(write_config(tmp_path, text))
        joined = "\n".join(excinfo.value.violations)
        assert "horizon must be positive" in joined and "stability constants need" in joined


def run_cli(*args):
    return main(list(args))


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestCli:
    def test_solve_zero_data(self, tmp_path):
        text = MINIMAL.replace("theta0 = cos(pi*x)", "theta0 = 0").replace(
            "chi0 = cos(pi*x)", "chi0 = 0"
        ).replace("expression = cos(pi*x)*(1+t)", "expression = 0")
        config = write_config(tmp_path, text)
        outdir = str(tmp_path / "out")
        assert run_cli("solve", "--config", config, "--out", outdir, "--threads", "1") == 0
        rows = read_rows(os.path.join(outdir, "trajectory.csv"))
        assert rows[0][:3] == ["step", "t", "l2_theta"]
        assert len(rows) == 18
        for row in rows[1:]:
            assert float(row[2]) == 0.0 and float(row[4]) == 0.0
        assert os.path.exists(os.path.join(outdir, "summary.json"))
        assert os.path.exists(os.path.join(outdir, "manifest.json"))

    def test_no_output_on_validation_failure(self, tmp_path):
        text = MINIMAL.replace("steps = 16", "steps = 1").replace(
            "horizon = 1.0", "horizon = 3.0"
        )
        config = write_config(tmp_path, text)
        outdir = str(tmp_path / "never")
        assert run_cli("solve", "--config", config, "--out", outdir) == 1
        assert not os.path.exists(outdir)

    def test_constants_summary(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        outdir = str(tmp_path / "out")
        assert run_cli("constants", "--config", config, "--out", outdir) == 0
        summary = json.load(open(os.path.join(outdir, "summary.json")))
        expected = bh.compute_stability_constant(1.0, 1.0, 1.0)
        assert summary["statistic"] == pytest.approx(expected.stability_constant, rel=1e-15)
        assert summary["gronwall_exponent"] == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_threads_default_to_one(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        outdir = str(tmp_path / "out")
        assert run_cli("constants", "--config", config, "--out", outdir) == 0
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["threads"] == 1

    def test_seed_env_takes_precedence(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, MINIMAL)
        out_a = str(tmp_path / "a")
        monkeypatch.setenv("SOLVER_SEED", "12345")
        assert run_cli("solve", "--config", config, "--out", out_a, "--seed", "1") == 0
        manifest = json.load(open(os.path.join(out_a, "manifest.json")))
        assert manifest["seed"] == 12345
        assert manifest["seed_source"] == "env"
        monkeypatch.delenv("SOLVER_SEED")
        out_b = str(tmp_path / "b")
        assert run_cli("solve", "--config", config, "--out", out_b, "--seed", "1") == 0
        manifest_b = json.load(open(os.path.join(out_b, "manifest.json")))
        assert manifest_b["seed"] == 1
        assert manifest_b["seed_source"] == "flag"
        # Different seeds change the sampled path, hence the trajectory body.
        body_a = open(os.path.join(out_a, "trajectory.csv"), "rb").read()
        body_b = open(os.path.join(out_b, "trajectory.csv"), "rb").read()
        assert body_a != body_b

    def test_converge_with_dt_list_flag(self, tmp_path):
        config = write_config(tmp_path, MINIMAL + "\n[study]\nslope_threshold = 0.0\n")
        outdir = str(tmp_path / "out")
        code = run_cli(
            "converge", "--config", config, "--out", outdir,
            "--dt-list", "0.25,0.125,0.0625", "--paths", "4", "--threads", "1",
        )
        assert code == 0
        rows = read_rows(os.path.join(outdir, "rates.csv"))
        assert len(rows) == 4  # header + one row per level

    def test_failed_check_exits_two(self, tmp_path):
        config = write_config(tmp_path, MINIMAL + "\n[study]\nslope_threshold = 5.0\n")
        outdir = str(tmp_path / "out")
        code = run_cli(
            "converge", "--config", config, "--out", outdir,
            "--dt-list", "0.25,0.125,0.0625", "--paths", "4", "--threads", "1",
        )
        assert code == 2
        summary = json.load(open(os.path.join(outdir, "summary.json")))
        assert summary["pass"] is False

    def test_stability_command(self, tmp_path):
        config = write_config(
            tmp_path, MINIMAL + "expression_hat = cos(pi*x)\n"
        )
        outdir = str(tmp_path / "out")
        code = run_cli(
            "stability", "--config", config, "--out", outdir,
            "--paths", "4", "--threads", "1",
        )
        assert code == 0
        rows = read_rows(os.path.join(outdir, "stability.csv"))
        assert rows[0] == ["t", "lhs", "lhs_se", "rhs", "ratio"]
        assert len(rows) == 18

    def test_contraction_command(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        outdir = str(tmp_path / "out")
        code = run_cli(
            "contraction", "--config", config, "--out", outdir,
            "--dt-list", "0.25,0.125", "--paths", "2", "--threads", "1",
        )
        assert code == 0
        rows = read_rows(os.path.join(outdir, "contraction.csv"))
        assert len(rows) == 3
        for row in rows[1:]:
            assert float(row[2]) <= float(row[1]) * (1 + 1e-6)

    def test_picard_command(self, tmp_path):
        text = MINIMAL.replace(
            "kind = additive\nexpression = cos(pi*x)*(1+t)\n",
            "kind = multiplicative\nmap = affine\nscale = 0.01\nweight = 1.0\n",
        )
        config = write_config(tmp_path, text)
        outdir = str(tmp_path / "out")
        assert run_cli("picard", "--config", config, "--out", outdir) == 0
        rows = read_rows(os.path.join(outdir, "picard.csv"))
        assert rows[0] == ["iteration", "W_difference", "ratio", "wall_time"]
        # Wall times stay out of the reproducible body unless --timings.
        assert all(row[3] == "0.0" for row in rows[1:])
        summary = json.load(open(os.path.join(outdir, "summary.json")))
        assert summary["pass"] is True
        assert len(summary["iteration_wall_times"]) == summary["iterations"]
        # The solver counters describe the trajectory that picard wrote.
        solver = json.load(open(os.path.join(outdir, "manifest.json")))["solver"]
        inner = [int(row[7]) for row in read_rows(os.path.join(outdir, "trajectory.csv"))[1:]]
        assert solver["inner_iterations"] == sum(inner) > 0
        assert solver["newton_iterations"] == solver["inner_iterations"]

    @pytest.mark.parametrize("cap, recorded", [(1, True), (0, False)])
    def test_runtime_failure_is_recorded(self, tmp_path, capsys, cap, recorded):
        # One Picard iteration cannot converge: a failure after the config
        # was accepted.  A cap of 0 fails validation and writes nothing.
        text = MINIMAL.replace(
            "kind = additive\nexpression = cos(pi*x)*(1+t)\n",
            "kind = multiplicative\nmap = affine\nscale = 0.01\nweight = 1.0\n"
            f"picard_max_iterations = {cap}\n",
        )
        config = write_config(tmp_path, text)
        outdir = str(tmp_path / "out")
        assert run_cli("picard", "--config", config, "--out", outdir) == 1
        stderr = capsys.readouterr().err.splitlines()
        assert stderr[0].startswith("error: ")
        if not recorded:
            assert not os.path.exists(outdir)
            return
        assert len(stderr) == 1
        assert sorted(os.listdir(outdir)) == ["manifest.json", "summary.json"]
        summary = json.load(open(os.path.join(outdir, "summary.json")))
        assert summary["pass"] is False and summary["warnings"] == []
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["error"] == {
            "type": "NonConvergenceError",
            "message": stderr[0][len("error: "):],
            "step": None, "path_id": None, "row": None,
        }
        assert stderr[0].startswith("error: picard iteration did not converge in 1 iterations")
        assert manifest["command"] == "picard" and "solver" not in manifest

    def test_failure_record_names_step_and_path(self, tmp_path, monkeypatch):
        def failing_run(*args, **kwargs):
            raise bh.NonFiniteError("a solve met NaN", residual=float("nan"), step=3,
                                    path_id=0, row=0)

        monkeypatch.setattr("barenheat.diagnostics.run_additive", failing_run)
        outdir = str(tmp_path / "out")
        assert run_cli("solve", "--config", write_config(tmp_path, MINIMAL),
                       "--out", outdir) == 1
        error = json.load(open(os.path.join(outdir, "manifest.json")))["error"]
        assert (error["type"], error["step"], error["path_id"], error["row"]) == (
            "NonFiniteError", 3, 0, 0)

    def test_solve_manifest_counts_the_solver_work(self, tmp_path):
        text = MINIMAL.replace("kind = linear\nc = 1.0", "kind = saturating\na = 2.0")
        config = write_config(tmp_path, text)
        outdir = str(tmp_path / "out")
        assert run_cli("solve", "--config", config, "--out", outdir, "--seed", "3") == 0
        solver = json.load(open(os.path.join(outdir, "manifest.json")))["solver"]
        parsed = parse_config(config)
        grid = bh.build_time_grid(parsed.horizon, parsed.steps)
        integrand = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, parsed.ops)
        reports = bh.run_additive(parsed.theta0, parsed.chi0, integrand,
                                  bh.sample_path(grid, 3, 0), grid, parsed.ops,
                                  parsed.nonlinearity).reports
        assert solver == {
            "inner_iterations": sum(r.inner_iterations for r in reports),
            "newton_iterations": sum(r.newton_iterations for r in reports),
            "max_line_search_halvings": max(r.line_search_halvings for r in reports),
            "worst_factor_over_bound": max(
                max(r.contraction_factors, default=0.0) / r.factor_bound for r in reports),
            "worst_newton_residual": max(r.newton_residual for r in reports),
        }
        assert 0.0 < solver["worst_factor_over_bound"] <= 1.0

    def test_failed_conformance_check_is_a_summary_warning(self, tmp_path, capsys):
        text = MINIMAL.replace("kind = linear\nc = 1.0",
                               "kind = saturating\na = 2.0\nlipschitz = 1.5")
        config = write_config(tmp_path, text)
        outdir = str(tmp_path / "out")
        assert run_cli("solve", "--config", config, "--out", outdir) == 0
        warnings = json.load(open(os.path.join(outdir, "summary.json")))["warnings"]
        assert len(warnings) == 1 and "conformance" in warnings[0]
        assert f"warning: {warnings[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["additive.ini", "multiplicative.ini"])
    def test_demo_configs_have_no_warnings(self, tmp_path, name):
        config = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos", "configs", name)
        outdir = str(tmp_path / "out")
        assert run_cli("constants", "--config", config, "--out", outdir) == 0
        assert json.load(open(os.path.join(outdir, "summary.json")))["warnings"] == []

    @pytest.mark.parametrize("dt_list, reason", [
        ("nan", "'nan' is not a finite number"),
        ("abc", "could not convert string to float: 'abc'"),
    ])
    def test_malformed_dt_list_names_its_key(self, tmp_path, capsys, dt_list, reason):
        outdir = str(tmp_path / "out")
        assert run_cli("converge", "--config", write_config(tmp_path, MINIMAL), "--out", outdir,
                       "--dt-list", dt_list) == 1
        assert f"key 'dt_levels' in section [time]: {reason}" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("env, flag, file_seed, shown", [
        ("-1", None, "0", "-1"),
        (None, str(2**64), "0", str(2**64)),
        (None, None, "-3", "-3"),
        ("abc", "1", "0", "invalid literal for int() with base 10: 'abc'"),
    ])
    def test_one_seed_check_covers_env_flag_and_file(self, tmp_path, capsys, monkeypatch,
                                                     env, flag, file_seed, shown):
        if env is not None:
            monkeypatch.setenv("SOLVER_SEED", env)
        config = write_config(tmp_path, MINIMAL + f"\n[monte_carlo]\nseed = {file_seed}\n")
        outdir = str(tmp_path / "out")
        argv = ["solve", "--config", config, "--out", outdir]
        assert run_cli(*argv, *(["--seed", flag] if flag else [])) == 1
        assert shown in capsys.readouterr().err
        assert not os.path.exists(outdir)

    def test_mc_command(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        outdir = str(tmp_path / "out")
        code = run_cli(
            "mc", "--config", config, "--out", outdir,
            "--dt-list", "0.125,0.0625", "--paths", "4", "--threads", "1",
        )
        assert code == 0
        rows = read_rows(os.path.join(outdir, "energy.csv"))
        assert rows[0] == ["dt", "statistic", "standard_error"]
        assert len(rows) == 3
