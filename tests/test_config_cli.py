import csv
import json
import os

import pytest

import barenheat as bh
from barenheat.cli import main
from barenheat.config import parse_config
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
