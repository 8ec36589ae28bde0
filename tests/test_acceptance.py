"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import barenheat as bh

MESH_CELLS = 64  # 65 nodes


def criterion(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ops():
    return bh.build_operators(1, MESH_CELLS, 1.0)


@pytest.fixture(scope="module")
def nl():
    return bh.linear(1.0)


@pytest.fixture(scope="module")
def cos_data(ops):
    return bh.evaluate_on_mesh("cos(pi*x)", ops)


@pytest.fixture(scope="module")
def noisy_setup(ops, nl, cos_data):
    """The standard noisy configuration used across the criteria."""
    return bh.AdditiveSetup(
        ops=ops, nonlinearity=nl, theta0=cos_data, chi0=cos_data,
        integrand="cos(pi*x)*(1+t)",
    )


def assert_weak_identities(traj, path, integrand, ops, nl, label):
    conservation, balance = bh.weak_identity_defects(traj, path, integrand, ops, nl)
    worst = max(conservation.max(), balance.max()) if conservation.size else 0.0
    assert worst <= 1e-10, f"weak identity defect {worst:.2e} in {label}"
    return worst


def test_criterion_1_inner_contraction_bound(ops, nl, noisy_setup):
    """Every per-step squared-difference ratio obeys 1/(2(2/dt - 1/2))."""
    horizon = 8.0
    worst_excess = -math.inf
    identity_worst = 0.0
    for steps in (16, 32, 64):
        grid = bh.build_time_grid(horizon, steps)
        integrand = bh.discretize_integrand(noisy_setup.integrand, grid, ops)
        bound = bh.contraction_factor_bound(nl, grid.dt)
        assert bound == pytest.approx(1.0 / (2.0 * (2.0 / grid.dt - 0.5)))
        for pid in range(16):
            path = bh.sample_path(grid, 2024, pid)
            traj = bh.simulate(noisy_setup, grid, path, integrand=integrand)
            for report in traj.reports:
                for factor in report.contraction_factors:
                    worst_excess = max(worst_excess, factor - bound)
            identity_worst = max(
                identity_worst,
                assert_weak_identities(traj, path, integrand, ops, nl, f"N={steps}"),
            )
    assert identity_worst <= 1e-10
    criterion(
        "criterion 1 inner contraction bound",
        worst_excess <= 1e-6,
        f"max(factor - bound) = {worst_excess:.3e} over dt in (0.5, 0.25, 0.125), 16 paths",
    )


def test_criterion_2_per_step_conservation(ops, nl, noisy_setup, cos_data):
    """The test-function-one identities hold to 1e-10 relative everywhere."""
    worst = 0.0
    # Standard noisy run.
    grid = bh.build_time_grid(1.0, 64)
    integrand = bh.discretize_integrand(noisy_setup.integrand, grid, ops)
    for pid in range(8):
        path = bh.sample_path(grid, 7, pid)
        traj = bh.simulate(noisy_setup, grid, path, integrand=integrand)
        worst = max(worst, assert_weak_identities(traj, path, integrand, ops, nl, "noisy"))
    # Deterministic and constant-noise runs.
    for expr in ("0", "1"):
        integrand = bh.discretize_integrand(expr, grid, ops)
        path = bh.sample_path(grid, 8, 0)
        traj = bh.run_additive(np.ones(65), np.zeros(65), integrand, path, grid, ops, nl)
        worst = max(worst, assert_weak_identities(traj, path, integrand, ops, nl, expr))
    # Nonlinear saturating run.
    sat = bh.saturating(0.25)
    integrand = bh.discretize_integrand(noisy_setup.integrand, grid, ops)
    path = bh.sample_path(grid, 9, 0)
    traj = bh.run_additive(cos_data, cos_data, integrand, path, grid, ops, sat)
    worst = max(worst, assert_weak_identities(traj, path, integrand, ops, sat, "saturating"))
    criterion(
        "criterion 2 per-step conservation",
        worst <= 1e-10,
        f"worst relative defect {worst:.3e} <= 1e-10",
    )


def test_criterion_3_ode_reduction(ops, nl):
    """Constant data without noise reproduces theta_{n+1} = theta_n/(1+dt/2)."""
    worst_recursion = 0.0
    worst_limit_margin = math.inf
    for exponent in (4, 5, 6, 7, 8):
        steps = 2**exponent
        grid = bh.build_time_grid(1.0, steps)
        integrand = bh.discretize_integrand("0", grid, ops)
        path = bh.sample_path(grid, 1, 0)
        traj = bh.run_additive(np.ones(65), np.zeros(65), integrand, path, grid, ops, nl)
        reference = 1.0
        for n in range(1, steps + 1):
            reference /= 1.0 + grid.dt / 2.0
            worst_recursion = max(worst_recursion, np.abs(traj.theta[n] - reference).max())
        limit_error = abs(float(traj.theta[-1][0]) - math.exp(-0.5))
        worst_limit_margin = min(worst_limit_margin, 2.0 * grid.dt - limit_error)
    criterion(
        "criterion 3 ODE-reduction oracle",
        worst_recursion <= 1e-9 and worst_limit_margin >= 0.0,
        f"recursion defect {worst_recursion:.3e} <= 1e-9, "
        f"exp(-T/2) met with margin {worst_limit_margin:.3e}",
    )


def test_criterion_4_constant_noise_closed_form(ops, nl):
    """chi_N - B_N follows the deterministic recursion on every path."""
    grid = bh.build_time_grid(1.0, 64)
    integrand = bh.discretize_integrand("1", grid, ops)
    theta_ref, v_ref = 1.0, 0.0
    references = []
    for _ in range(grid.steps):
        theta_ref /= 1.0 + grid.dt / 2.0
        v_ref += grid.dt * theta_ref / 2.0
        references.append(v_ref)
    worst = 0.0
    for pid in range(32):
        path = bh.sample_path(grid, 11, pid)
        sums = bh.partial_sums(path, integrand)
        traj = bh.run_additive(np.ones(65), np.zeros(65), integrand, path, grid, ops, nl)
        for n in range(1, grid.steps + 1):
            deviation = np.abs(traj.chi[n] - sums[n] - references[n - 1]).max()
            worst = max(worst, deviation)
    criterion(
        "criterion 4 per-path closed form",
        worst <= 1e-9,
        f"worst pathwise deviation {worst:.3e} <= 1e-9 over 32 paths",
    )


# 2D counterparts of criteria 3 and 4: a small rectangle and saturating
# alpha, so the nonlinear start at the noise shift is exercised.  Spatially
# constant data keep K out of both equations, and each step reduces to the
# scalar equation alphatilde(u) + dt u = theta_n with theta_{n+1} =
# theta_n - dt u, solved here by scipy's brentq, without barenheat.
GAIN_2D = 2.0


@pytest.fixture(scope="module")
def ops_2d():
    return bh.build_operators(2, (6, 5), (1.0, 1.5))


def scalar_step(theta, dt):
    """The u of one step for spatially constant data, from the formula
    alphatilde(u) = u + alpha(u) with alpha(u) = u + a u / (1 + |u|)."""

    def equation(u):
        return 2.0 * u + GAIN_2D * u / (1.0 + abs(u)) + dt * u - theta

    bound = abs(theta) + 1.0
    return brentq(equation, -bound, bound, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def scalar_references(steps, dt):
    """theta_n and chi_n - B_n, n = 1..N, from theta_0 = 1, chi_0 = 0."""
    theta, v, references = 1.0, 0.0, []
    for _ in range(steps):
        u = scalar_step(theta, dt)
        theta -= dt * u
        v += dt * u
        references.append((theta, v))
    return references


def test_criterion_3_ode_reduction_2d(ops_2d):
    """Constant data without noise follow the scalar recursion in 2D."""
    sat = bh.saturating(GAIN_2D)
    ones, zeros = np.ones(ops_2d.node_count), np.zeros(ops_2d.node_count)
    worst = 0.0
    for steps in (16, 32, 64):
        grid = bh.build_time_grid(1.0, steps)
        integrand = bh.discretize_integrand("0", grid, ops_2d)
        traj = bh.run_additive(ones, zeros, integrand, bh.sample_path(grid, 1, 0), grid,
                               ops_2d, sat)
        for n, (theta_ref, chi_ref) in enumerate(scalar_references(steps, grid.dt), 1):
            worst = max(worst, np.abs(traj.theta[n] - theta_ref).max(),
                        np.abs(traj.chi[n] - chi_ref).max())
    criterion(
        "criterion 3 ODE-reduction oracle, 2D saturating",
        worst <= 1e-9,
        f"recursion defect {worst:.3e} <= 1e-9 on 6x5 cells, N in (16, 32, 64)",
    )


def test_criterion_4_constant_noise_closed_form_2d(ops_2d):
    """chi_N - B_N follows the scalar recursion on every path in 2D."""
    sat = bh.saturating(GAIN_2D)
    ones, zeros = np.ones(ops_2d.node_count), np.zeros(ops_2d.node_count)
    grid = bh.build_time_grid(1.0, 64)
    integrand = bh.discretize_integrand("1", grid, ops_2d)
    references = scalar_references(grid.steps, grid.dt)
    paths = [bh.sample_path(grid, 11, pid) for pid in range(8)]
    worst = 0.0
    for path, traj in zip(paths, bh.run_additive(ones, zeros, integrand, paths, grid, ops_2d,
                                                 sat)):
        sums = bh.partial_sums(path, integrand)
        for n, (theta_ref, v_ref) in enumerate(references, 1):
            worst = max(worst, np.abs(traj.theta[n] - theta_ref).max(),
                        np.abs(traj.chi[n] - sums[n] - v_ref).max())
    criterion(
        "criterion 4 per-path closed form, 2D saturating",
        worst <= 1e-9,
        f"worst pathwise deviation {worst:.3e} <= 1e-9 over 8 paths on 6x5 cells",
    )


def test_criterion_5_energy_boundedness(noisy_setup):
    """The discrete energy aggregate stays bounded as dt halves."""
    report = bh.energy_estimate_check(
        noisy_setup, 1.0, [2**-4, 2**-5, 2**-6, 2**-7], 64, 0
    )
    criterion(
        "criterion 5 energy boundedness",
        report.passed,
        "statistics " + ", ".join(f"{s:.3f}" for s in report.statistics)
        + " across dt halvings (growth < 25% + 4 se)",
    )


def test_criterion_6_grid_difference_rate(noisy_setup):
    """The chi interpolant-gap shrinks at a fitted rate of at least 0.4."""
    study = bh.grid_difference_rates(
        noisy_setup, 1.0, [2**-4, 2**-5, 2**-6, 2**-7, 2**-8], 64, 0
    )
    slope = study.chi.slope
    criterion(
        "criterion 6 grid-difference rate",
        slope is not None and slope >= 0.4,
        f"fitted chi slope {slope:.4f} >= 0.4 (theta slope {study.theta.slope:.4f})",
    )


def test_criterion_7_continuous_dependence(noisy_setup):
    """Difference of coupled runs is bounded by the stability constant."""
    grid = bh.build_time_grid(1.0, 64)
    report = bh.stability_check(noisy_setup, "cos(pi*x)", grid, 64, 0)
    criterion(
        "criterion 7 continuous dependence",
        report.passed,
        f"max LHS/RHS ratio {report.max_ratio:.4e} <= 1 + 4 se "
        f"(constant {report.constants.stability_constant:.2f})",
    )


def test_criterion_8_multiplicative_picard(ops, nl, cos_data):
    """Averaged squared weighted differences decay within the modulus."""
    weight = 8.0
    constants = bh.compute_stability_constant(1.0, 1.0, 1.0)
    sigma = math.sqrt(0.25 * weight / (4.0 * constants.stability_constant))
    grid = bh.build_time_grid(1.0, 64)
    config = bh.PicardConfig(weight=weight, tolerance=1e-8, max_iterations=15)
    noise_map = bh.affine_map(sigma)
    squared = []
    iterations = []
    for pid in range(32):
        path = bh.sample_path(grid, 0, pid)
        _, report = bh.picard_solve(
            cos_data, cos_data, noise_map, path, grid, ops, nl, config
        )
        assert report.modulus == pytest.approx(0.25, rel=1e-12)
        iterations.append(report.iterations)
        squared.append([w**2 for w in report.w_differences])
    depth = min(len(w) for w in squared)
    averaged = [float(np.mean([w[k] for w in squared])) for k in range(depth)]
    ratios = [averaged[k + 1] / averaged[k] for k in range(depth - 1)]
    ratios_ok = all(r <= 0.25 * 1.1 for r in ratios)
    conv_ok = max(iterations) <= 15

    # Degenerate scale reduces to the additive solver bit for bit.
    path = bh.sample_path(grid, 0, 0)
    integrand = bh.discretize_integrand("cos(pi*x)", grid, ops)
    additive = bh.run_additive(cos_data, cos_data, integrand, path, grid, ops, nl)
    fixed, _ = bh.picard_solve(
        cos_data, cos_data, bh.affine_map(0.0, cos_data), path, grid, ops, nl, config
    )
    identical = bool(
        np.array_equal(additive.theta, fixed.theta)
        and np.array_equal(additive.chi, fixed.chi)
    )
    criterion(
        "criterion 8 multiplicative picard",
        ratios_ok and conv_ok and identical,
        f"averaged W^2 ratios {['%.4f' % r for r in ratios]} <= 0.275, "
        f"max iterations {max(iterations)} <= 15, degenerate reduction bit-identical: {identical}",
    )


CLI_BASE = """\
[mesh]
dimension = 1
cells = 16
lengths = 1.0

[time]
horizon = 1.0
steps = 16
dt_levels = 0.25, 0.125, 0.0625

[initial]
theta0 = cos(pi*x)
chi0 = cos(pi*x)

[nonlinearity]
kind = linear
c = 1.0

[monte_carlo]
paths = 4
seed = 11

[study]
slope_threshold = 0.0
"""

CLI_ADDITIVE = CLI_BASE + """
[noise]
kind = additive
expression = cos(pi*x)*(1+t)
expression_hat = cos(pi*x)
"""

CLI_MULTIPLICATIVE = CLI_BASE + """
[noise]
kind = multiplicative
map = affine
scale = 0.01
weight = 1.0
picard_tolerance = 1e-8
picard_max_iterations = 20
"""


# Runs every argv list of the JSON array in argv[1] through ``cli.main`` and
# prints their exit codes as the last line of standard output.
_CLI_SESSION = (
    "import json, sys\n"
    "import barenheat\n"
    "from barenheat.cli import main\n"
    "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
    "print(json.dumps([barenheat.__file__, codes]))\n"
)

# This checkout's sources, which the test process imports.
SRC = Path(__file__).resolve().parents[1] / "src"


def _run_cli_session(runs):
    """Run every (command, config, outdir, threads) of ``runs`` in one fresh
    interpreter that imports barenheat from this checkout's ``src``, as the
    test process does; returns the exit codes in order."""
    argvs = [[command, "--config", str(config), "--out", str(outdir), "--threads", str(threads)]
             for command, config, outdir, threads in runs]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _CLI_SESSION, json.dumps(argvs)],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, f"CLI session failed: {result.stderr}"
    imported, codes = json.loads(result.stdout.splitlines()[-1])
    # An installed copy must not stand in for the tree under test.
    assert Path(imported).resolve() == Path(bh.__file__).resolve()
    for (command, *_), code in zip(runs, codes):
        assert code in (0, 2), f"{command} failed (rc={code}): {result.stderr}"
    return codes


def test_criterion_9_cli_determinism(tmp_path):
    """Reruns with identical config and seed give byte-identical CSV bodies.

    Each (threads, rerun) pair runs all seven commands in one interpreter of
    its own, so every compared pair of CSV files comes from two separate
    interpreters.
    """
    additive = tmp_path / "additive.ini"
    additive.write_text(CLI_ADDITIVE)
    multiplicative = tmp_path / "multiplicative.ini"
    multiplicative.write_text(CLI_MULTIPLICATIVE)
    commands = [
        ("solve", additive),
        ("mc", additive),
        ("converge", additive),
        ("stability", additive),
        ("contraction", additive),
        ("picard", multiplicative),
        ("constants", additive),
    ]
    codes = {command: set() for command, _ in commands}
    for threads in (1, 8):
        for rep in (0, 1):
            runs = [(command, config, tmp_path / f"{command}-t{threads}-r{rep}", threads)
                    for command, config in commands]
            for (command, _), code in zip(commands, _run_cli_session(runs)):
                codes[command].add(code)
    checked = []
    for command, _ in commands:
        assert len(codes[command]) == 1, f"{command}: exit code changed across reruns"
        bodies = {}
        for threads in (1, 8):
            for rep in (0, 1):
                outdir = tmp_path / f"{command}-t{threads}-r{rep}"
                for csv_path in sorted(outdir.glob("*.csv")):
                    bodies.setdefault(csv_path.name, []).append(csv_path.read_bytes())
        for name, variants in bodies.items():
            assert len(variants) == 4
            assert all(v == variants[0] for v in variants), (
                f"{command}/{name} differs across reruns or thread counts"
            )
            checked.append(f"{command}/{name}")
    criterion(
        "criterion 9 determinism",
        True,
        f"byte-identical CSV bodies across 2 reruns x threads {{1, 8}} for {checked}",
    )
