"""Monte Carlo studies stream: each level keeps running sums, not every
snapshot of every path, and every statistic keeps the bits of the dense
computation it replaced, which the oracles below keep."""

import json
import os
import tracemalloc

import numpy as np
import pytest

import barenheat as bh
from barenheat import cli, diagnostics
from barenheat.config import parse_config
from barenheat.diagnostics import path_batches
from barenheat.grids import h1_seminorm, l2_norm

from test_config_cli import MINIMAL, run_cli, write_config


# The dense computations the study records replaced, on one trajectory.

def dense_gaps(grid, traj, ops):
    dtheta = np.diff(traj.theta, axis=0)
    dchi = np.diff(traj.chi, axis=0)
    theta_sq = sum(l2 ** 2 for l2 in l2_norm(dtheta, ops))
    chi_sq = sum(l2 ** 2 + h1 ** 2
                 for l2, h1 in zip(l2_norm(dchi, ops), h1_seminorm(dchi, ops)))
    return grid.dt / 3.0 * theta_sq, grid.dt / 3.0 * chi_sq


def dense_finals(grid, traj, ops):
    return np.stack((traj.theta[-1], traj.chi[-1]))


def dense_energy(grid, traj, ops):
    dt = traj.grid.dt
    dtheta = np.diff(traj.theta, axis=0)
    dchi = np.diff(traj.chi, axis=0)
    du = np.diff(traj.u, axis=0) / dt
    total = l2_norm(traj.theta[-1], ops) ** 2
    total += sum(norm ** 2 for norm in l2_norm(dtheta, ops))
    total += dt * sum(norm ** 2 for norm in h1_seminorm(traj.theta[1:], ops))
    total += dt * sum(norm ** 2 for norm in l2_norm(du, ops))
    total += h1_seminorm(traj.chi[-1], ops) ** 2
    total += 0.5 * sum(norm ** 2 for norm in h1_seminorm(dchi, ops))
    return total


def dense_worst_factor(grid, traj, ops):
    return max((max(r.contraction_factors, default=0.0) for r in traj.reports), default=0.0)


def dense_levels(setup, grids, paths, seed):
    """Per batch, the dense trajectories of every level, as
    ``[level][path]``, on the coupled paths of ``diagnostics._level_table``."""
    finest = grids[-1]
    integrands = [bh.discretize_integrand(setup.integrand, g, setup.ops) for g in grids]
    for batch in path_batches(paths):
        fine = [bh.sample_path(finest, seed, pid) for pid in batch]
        level_paths = [[bh.aggregate_path(p, finest.steps // g.steps) for p in fine]
                       for g in grids]
        levels = [None] * len(grids)
        for index, trajectories in bh.simulate(setup, grids, level_paths, integrands):
            levels[index] = trajectories
        yield levels


def dense_table(setup, grids, paths, seed, statistic):
    rows = []
    for levels in dense_levels(setup, grids, paths, seed):
        rows.extend(zip(*[[statistic(g, traj, setup.ops) for traj in trajectories]
                          for g, trajectories in zip(grids, levels)]))
    return np.array(rows, dtype=float)


def dense_stability(setup, integrand_hat, grid, paths, seed):
    """lhs and lhs_se of ``stability_check`` from dense trajectories."""
    ops = setup.ops
    base = bh.discretize_integrand(setup.integrand, grid, ops)
    other = bh.discretize_integrand(integrand_hat, grid, ops)
    table = np.empty((paths, grid.steps + 1))
    for batch in path_batches(paths):
        level_paths = [bh.sample_path(grid, seed, pid) for pid in batch]
        runs = dict(bh.simulate(setup, [grid, grid], [level_paths, level_paths],
                                [base, other]))
        for pid, traj, traj_hat in zip(batch, runs[0], runs[1]):
            dtheta = traj.theta - traj_hat.theta
            dchi = traj.chi - traj_hat.chi
            table[pid] = [
                a ** 2 + b ** 2 + 0.25 * c ** 2 + 0.25 * d ** 2
                for a, b, c, d in zip(l2_norm(dtheta, ops), h1_seminorm(dtheta, ops),
                                      l2_norm(dchi, ops), h1_seminorm(dchi, ops))
            ]
    return diagnostics._path_statistics(table)


def combined_counters(trajectories):
    """``cli._solver_counters`` of each trajectory, combined: iteration
    counts add up, extremes take the largest."""
    counters = [cli._solver_counters(traj.reports) for traj in trajectories]
    return {key: (max if key.startswith(("max_", "worst_")) else sum)(c[key] for c in counters)
            for key in counters[0]}


RECORDS = [(diagnostics._Gaps, dense_gaps), (diagnostics._Finals, dense_finals),
           (diagnostics._Energy, dense_energy), (diagnostics._WorstFactor, dense_worst_factor)]
RECORD_IDS = ["gaps", "finals", "energy", "worst-factor"]

CASES = {
    # Four coupled levels of 4..32 steps on one batch of three paths.
    "1d-levels": dict(mesh=(1, 16, 1.0), alpha=("saturating", 1.0), horizon=1.0,
                      dts=[0.25, 0.125, 0.0625, 0.03125], paths=3, batch=None),
    # Five paths split into batches of two.
    "1d-batches": dict(mesh=(1, 16, 1.0), alpha=("linear", 1.0), horizon=1.0,
                       dts=[0.125, 0.0625, 0.03125], paths=5, batch=2),
    # Linear alpha whose 1 + c is not a power of two on a rectangle.
    "2d": dict(mesh=(2, (6, 5), (1.0, 0.75)), alpha=("linear", 0.5), horizon=0.5,
               dts=[0.125, 0.0625, 0.03125], paths=2, batch=None),
}


def case_setup(case):
    ops = bh.build_operators(*case["mesh"])
    data = bh.evaluate_on_mesh("cos(pi*x)", ops)
    nl = getattr(bh, case["alpha"][0])(case["alpha"][1])
    return bh.AdditiveSetup(ops=ops, nonlinearity=nl, theta0=data, chi0=0.5 * data,
                            integrand="cos(pi*x)*(1+t)")


@pytest.fixture(params=[None, 3], ids=["chunks", "chunks-of-3"])
def chunk_steps(request, monkeypatch):
    """The default chunks, and chunks of 3 steps, which the level lengths
    do not divide, so the last chunk of a level is cut short."""
    if request.param is not None:
        monkeypatch.setattr(diagnostics, "CHUNK_STEPS", request.param)
    return request.param


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
@pytest.mark.parametrize("record, oracle", RECORDS, ids=RECORD_IDS)
def test_study_records_have_the_bits_of_the_dense_statistics(case, record, oracle,
                                                            chunk_steps, monkeypatch):
    case = CASES[case]
    if case["batch"] is not None:
        monkeypatch.setattr(diagnostics, "BATCH_PATHS", case["batch"])
    setup = case_setup(case)
    grids = diagnostics._level_grids(case["horizon"], case["dts"], 2)
    counters = bh.stepper._solver_counters(())
    streamed = diagnostics._level_table(setup, grids, case["paths"], 5, record, counters)
    dense = dense_table(setup, grids, case["paths"], 5, oracle)
    assert streamed.shape == dense.shape and streamed.tobytes() == dense.tobytes()
    trajectories = [traj for levels in dense_levels(setup, grids, case["paths"], 5)
                    for level in levels for traj in level]
    assert counters == combined_counters(trajectories)


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_stability_table_has_the_bits_of_the_dense_one(case, chunk_steps, monkeypatch):
    case = CASES[case]
    if case["batch"] is not None:
        monkeypatch.setattr(diagnostics, "BATCH_PATHS", case["batch"])
    setup = case_setup(case)
    grid = bh.build_time_grid(case["horizon"], round(case["horizon"] / case["dts"][-1]))
    report = bh.stability_check(setup, "cos(pi*x)", grid, case["paths"], 5)
    lhs, lhs_se = dense_stability(setup, "cos(pi*x)", grid, case["paths"], 5)
    assert report.lhs.tobytes() == lhs.tobytes()
    assert report.lhs_se.tobytes() == lhs_se.tobytes()
    # The runs share their data, so node 0 differs by nothing.
    assert report.lhs[0] == 0.0


def test_block_squares_and_running_sums_have_the_bits_of_scalar_ones(ops65):
    # Enough rows that squaring by multiplication, which rounds otherwise
    # about once in a thousand, and any reordered sum would show.
    rng = np.random.default_rng(8)
    block = rng.standard_normal((40, 50, ops65.node_count)) * rng.uniform(
        1e-3, 1e3, (40, 50, 1))
    for norm in (l2_norm, h1_seminorm):
        squares = diagnostics._squared_norms(norm, block, ops65)
        assert squares.tobytes() == np.array(
            [[value ** 2 for value in norm(fields, ops65)] for fields in block]).tobytes()
    total = rng.uniform(0.0, 1.0, 50)
    terms = rng.uniform(0.0, 1e3, (40, 50))
    running = diagnostics._added(diagnostics._added(total, terms[:15]), terms[15:])
    assert running.tobytes() == np.array(
        [sum(column, start) for start, column in zip(total, terms.T)]).tobytes()


def test_energy_statistic_of_a_trajectory_is_the_dense_aggregate():
    setup = case_setup(CASES["1d-levels"])
    grid = bh.build_time_grid(1.0, 40)
    traj = bh.simulate(setup, grid, bh.sample_path(grid, 3, 0),
                       bh.discretize_integrand(setup.integrand, grid, setup.ops))
    assert bh.energy_statistic(traj, setup.ops) == dense_energy(grid, traj, setup.ops)


def test_a_reducer_belongs_to_grid_sequences(ops_small):
    grid = bh.build_time_grid(1.0, 4)
    data = bh.evaluate_on_mesh("cos(pi*x)", ops_small)
    with pytest.raises(bh.InvalidConfigError, match="reducer on grid sequences only"):
        bh.run_additive(data, data, bh.discretize_integrand("0", grid, ops_small),
                        bh.sample_path(grid, 1, 0), grid, ops_small, bh.linear(1.0),
                        reducer=lambda index, theta, chi: None)


COMMAND_TEXT = MINIMAL.replace("kind = linear\nc = 1.0", "kind = saturating\na = 2.0") + (
    "expression_hat = cos(pi*x)\n")


@pytest.mark.parametrize("command", ["mc", "converge", "stability", "contraction"])
def test_study_manifests_count_every_path_and_level(tmp_path, command):
    config = write_config(tmp_path, COMMAND_TEXT)
    outdir = str(tmp_path / "out")
    flags = ["--dt-list", "0.25,0.125,0.0625", "--paths", "3", "--seed", "4"]
    assert run_cli(command, "--config", config, "--out", outdir, *flags) in (0, 2)
    with open(os.path.join(outdir, "manifest.json")) as handle:
        solver = json.load(handle)["solver"]
    parsed = parse_config(config)
    setup = cli._setup(parsed)
    dts = [0.25, 0.125, 0.0625]
    if command in ("mc", "converge"):
        grids = diagnostics._level_grids(parsed.horizon, dts, 2)
        trajectories = [traj for levels in dense_levels(setup, grids, 3, 4)
                        for level in levels for traj in level]
    elif command == "stability":
        grid = bh.build_time_grid(parsed.horizon, parsed.steps)
        paths = [bh.sample_path(grid, 4, pid) for pid in range(3)]
        integrands = [bh.discretize_integrand(expression, grid, parsed.ops)
                      for expression in (parsed.integrand, parsed.integrand_hat)]
        trajectories = [traj for _, level in bh.simulate(setup, [grid, grid], [paths, paths],
                                                         integrands)
                        for traj in level]
    else:
        # Each level draws its own paths.
        trajectories = [traj for dt in dts
                        for levels in dense_levels(
                            setup, [bh.build_time_grid(parsed.horizon, round(1.0 / dt))], 3, 4)
                        for traj in levels[0]]
    assert solver == combined_counters(trajectories)


def traced_peak(study):
    tracemalloc.start()
    try:
        study()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimator", ["grid_difference_rates", "self_convergence",
                                       "energy_estimate_check"])
def test_study_memory_grows_with_the_steps_only_as_its_integrand_tables(ops65, estimator):
    # Eight times the steps on three levels and eight paths: the traced
    # peak may grow by a few (N, P) integrand tables, which discretizing a
    # level holds two to three of at once, but not by the (M, N + 1, P)
    # records of every path, 16 tables per level, which made it grow by
    # about 20 tables.
    data = bh.evaluate_on_mesh("cos(pi*x)", ops65)
    setup = bh.AdditiveSetup(ops=ops65, nonlinearity=bh.linear(1.0), theta0=data,
                             chi0=data, integrand="cos(pi*x)*(1+t)")
    peaks, tables = [], []
    for finest in (32, 256):
        dts = [4.0 / finest, 2.0 / finest, 1.0 / finest]
        # A first run leaves nothing behind that the traced one would count.
        getattr(bh, estimator)(setup, 1.0, dts, 8, 3)
        peaks.append(traced_peak(lambda: getattr(bh, estimator)(setup, 1.0, dts, 8, 3)))
        tables.append(sum(round(1.0 / dt) for dt in dts) * ops65.node_count * 8)
    assert peaks[1] - peaks[0] <= 4 * (tables[1] - tables[0])
