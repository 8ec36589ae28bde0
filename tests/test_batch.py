"""A batch of paths advanced as one (M, P) block gives every path the bits
of a run on its own."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import barenheat as bh
from barenheat import diagnostics, grids, stepper
from barenheat.errors import FieldShapeError, NonConvergenceError, NonFiniteError
from barenheat.stepper import (
    DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL, _advance, _newton, _Row, _step_plan, _step_rows,
)

PATHS = 5


def report_fields(report):
    """Every StepReport field, with floats in round-trip form (bitwise compare)."""
    return repr(dataclasses.astuple(report))


def assert_batch_matches_singles(ops, nl, grid, integrand, theta0, chi0, paths):
    batch = bh.run_additive(theta0, chi0, integrand, paths, grid, ops, nl)
    assert len(batch) == len(paths)
    for path, traj in zip(paths, batch):
        alone = bh.run_additive(theta0, chi0, integrand, path, grid, ops, nl)
        assert np.array_equal(traj.theta, alone.theta)
        assert np.array_equal(traj.chi, alone.chi)
        assert np.array_equal(traj.u, alone.u)
        assert [report_fields(r) for r in traj.reports] == [
            report_fields(r) for r in alone.reports
        ]
    return batch


@pytest.fixture(scope="module")
def grid16():
    return bh.build_time_grid(1.0, 16)


def noisy_inputs(ops, grid, seed=11):
    integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)
    paths = [bh.sample_path(grid, seed, pid) for pid in range(PATHS)]
    return integ, paths


class TestBatchEqualsSingleRuns:
    def test_linear_alpha_1d(self, ops65, grid16, cos_field):
        integ, paths = noisy_inputs(ops65, grid16)
        batch = assert_batch_matches_singles(
            ops65, bh.linear(1.0), grid16, integ, cos_field, 0.5 * cos_field, paths
        )
        # Paths leave the inner iteration at different counts, so the
        # convergence mask was exercised.
        counts = {tuple(traj.reports[n].inner_iterations for traj in batch)
                  for n in range(grid16.steps)}
        assert any(len(set(step_counts)) > 1 for step_counts in counts)

    def test_saturating_alpha_1d_per_path_jacobians(self, ops65, grid16, cos_field):
        # Noise amplitudes over three decades give the paths' Newton solves
        # thresholds and iteration counts of their own.
        integ, paths = noisy_inputs(ops65, grid16)
        paths = [dataclasses.replace(p, increments=scale * p.increments)
                 for p, scale in zip(paths, (0.01, 0.1, 1.0, 3.0, 10.0))]
        batch = assert_batch_matches_singles(
            ops65, bh.saturating(2.0), grid16, integ, 3.0 * cos_field, cos_field, paths
        )
        # Each path counts its own Newton iterations: in some step, paths
        # with the same inner count took different Newton counts, and some
        # step took more Newton than inner iterations.
        steps = [[traj.reports[n] for traj in batch] for n in range(grid16.steps)]
        assert any(
            len({r.newton_iterations for r in step if r.inner_iterations == inner}) > 1
            for step in steps for inner in {r.inner_iterations for r in step}
        )
        assert any(r.newton_iterations > r.inner_iterations for step in steps for r in step)

    def test_saturating_alpha_2d_per_row_cg(self, monkeypatch):
        ops = bh.build_operators(2, (7, 4), (1.0, 2.5))
        grid = bh.build_time_grid(0.5, 8)
        integ = bh.discretize_integrand("cos(pi*x)*cos(pi*y)*(1+t)", grid, ops)
        paths = [bh.sample_path(grid, 23, pid) for pid in range(PATHS)]
        data = 2.0 * bh.evaluate_on_mesh("cos(pi*x)*(2+cos(pi*y))", ops)
        solved = []
        real_cg = grids.cg

        def recording_cg(matrix, b, *args, **kwargs):
            solved.append(np.shape(b))
            return real_cg(matrix, b, *args, **kwargs)

        monkeypatch.setattr(grids, "cg", recording_cg)
        assert_batch_matches_singles(ops, bh.saturating(2.0), grid, integ, data, data, paths)
        assert solved and all(shape == (ops.node_count,) for shape in solved)

    def test_newton_rows_keep_their_own_thresholds(self, ops65, grid16, cos_field):
        # Data over six decades: each row stops at its own threshold and
        # iteration count, as a lone solve does.
        rng = np.random.default_rng(12)
        scales = np.array([1e-3, 1e-1, 1.0, 1e1, 1e3])[:, None]
        theta = scales * rng.standard_normal((PATHS, ops65.node_count))
        chi = scales * rng.standard_normal((PATHS, ops65.node_count))
        dws = rng.standard_normal((PATHS, 1))
        rhs = ops65.lumped_mass * theta - grids.apply_stiffness(ops65, chi + cos_field * dws)
        nl = bh.saturating(2.0)
        plan = _step_plan(grid16, ops65, nl, DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL)
        u, report = _newton(plan, rhs)
        assert len(set(report.iterations)) > 1
        for row in range(PATHS):
            alone, single = _newton(plan, rhs[row:row + 1])
            assert np.array_equal(u[row], alone[0])
            assert (report.residual[row], report.iterations[row],
                    report.line_search_halvings[row]) == (
                single.residual[0], single.iterations[0], single.line_search_halvings[0])

    def test_order_follows_the_given_paths(self, ops65, grid16, cos_field):
        integ, paths = noisy_inputs(ops65, grid16)
        nl = bh.linear(1.0)
        forward = bh.run_additive(cos_field, cos_field, integ, paths, grid16, ops65, nl)
        backward = bh.run_additive(cos_field, cos_field, integ, paths[::-1], grid16, ops65, nl)
        for a, b in zip(forward, backward[::-1]):
            assert np.array_equal(a.chi, b.chi)

    def test_step_on_a_batch_state(self, ops65, grid16, cos_field, one_step):
        # Each row of a batch with its own data and increment is bit for bit
        # a one-step run_additive on its own.
        rng = np.random.default_rng(3)
        theta = cos_field + 0.1 * rng.standard_normal((PATHS, ops65.node_count))
        chi = 0.5 * cos_field + 0.1 * rng.standard_normal((PATHS, ops65.node_count))
        dws = 0.2 * rng.standard_normal((PATHS, 1))
        nl = bh.saturating(1.0)
        plan = _step_plan(grid16, ops65, nl, DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL)
        theta_next, chi_next, reports = _advance(plan, theta, chi, dws, cos_field)
        assert len(reports) == PATHS
        for row in range(PATHS):
            alone_theta, alone_chi, report = one_step(theta[row], chi[row], cos_field,
                                                      dws[row, 0], grid16.dt, ops65, nl)
            assert np.array_equal(theta_next[row], alone_theta)
            assert np.array_equal(chi_next[row], alone_chi)
            assert report_fields(reports[row]) == report_fields(report)

    @pytest.mark.parametrize("case", ["1d-linear", "2d-saturating"])
    def test_integrand_row_per_path(self, case, one_step):
        # _advance takes h_n as one (M, P) row per path, as the staggered
        # Picard iteration passes it: three rows with their own h, dw and
        # state, over a few steps, each bit for bit a one-step run_additive.
        if case == "1d-linear":
            ops, nl = bh.build_operators(1, 64, 1.0), bh.linear(1.0)
        else:
            ops, nl = bh.build_operators(2, (7, 4), (1.0, 2.5)), bh.saturating(2.0)
        grid = bh.build_time_grid(0.5, 8)
        rng = np.random.default_rng(31)
        base = bh.evaluate_on_mesh("cos(pi*x)", ops)
        rows = 3
        theta = base + 0.3 * rng.standard_normal((rows, ops.node_count))
        chi = 0.5 * base + 0.3 * rng.standard_normal((rows, ops.node_count))
        singles = [(theta[row], chi[row]) for row in range(rows)]
        plan = _step_plan(grid, ops, nl, DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL)
        for n in range(4):
            h = np.array([scale * base + 0.1 * n for scale in (0.2, -1.0, 3.0)])
            dw = np.sqrt(grid.dt) * rng.standard_normal((rows, 1))
            theta, chi, reports = _advance(plan, theta, chi, dw, h)
            for row in range(rows):
                *singles[row], report = one_step(*singles[row], h[row], dw[row, 0], grid.dt,
                                                 ops, nl)
                assert np.array_equal(theta[row], singles[row][0])
                assert np.array_equal(chi[row], singles[row][1])
                assert report_fields(reports[row]) == report_fields(report)


class TestStepRows:
    """The step driver moves rows at their own steps as one batch: a row of
    two paths along a fixed table, one of one path along another, and one
    whose integrand it fills from the second row's chi, as a Picard
    successor does."""

    @pytest.fixture
    def setup(self):
        ops = bh.build_operators(1, 32, 1.0)
        grid = bh.build_time_grid(0.5, 8)
        plan = _step_plan(grid, ops, bh.saturating(2.0), DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL)
        data = bh.evaluate_on_mesh("cos(pi*x)", ops)
        tables = [bh.discretize_integrand(expr, grid, ops).values
                  for expr in ("cos(pi*x)*(1+t)", "0.5*cos(2*pi*x)")]
        paths = [bh.sample_path(grid, 3, pid) for pid in range(4)]
        fixed = _Row.start(data, data, np.array([p.increments for p in paths[:2]]), tables[0])
        leader = _Row.start(data, 0.5 * data, paths[2].increments[None], tables[1])
        follower = _Row.start(data, 0.5 * data, paths[3].increments[None],
                              np.zeros((grid.steps, ops.node_count)))
        for row, steps in ((fixed, 3), (leader, 5), (follower, 1)):
            for _ in range(steps):
                _step_rows(plan, [row])
        return plan, [leader, follower, fixed]

    @staticmethod
    def fill(follower, leader):
        """The follower's integrand at its step, read from the leader's chi."""
        follower.values[follower.step] = 0.3 * leader.chi[0, follower.step]

    @staticmethod
    def state(row):
        return (row.step, row.theta.tobytes(), row.chi.tobytes(), row.values.tobytes(),
                [[report_fields(r) for r in reports] for reports in row.reports])

    def test_each_row_gets_the_bits_of_a_step_on_its_own(self, setup):
        plan, rows = setup
        alone = [dataclasses.replace(row, theta=row.theta.copy(), chi=row.chi.copy(),
                                     values=row.values.copy(),
                                     reports=[list(r) for r in row.reports]) for row in rows]
        last = None
        for _ in range(2):
            # The second step reuses the blocks of the first.
            self.fill(rows[1], rows[0])
            last = _step_rows(plan, rows, last)
            self.fill(alone[1], alone[0])
            for row in alone:
                _step_rows(plan, [row])
        assert [self.state(row) for row in rows] == [self.state(row) for row in alone]
        assert [row.step for row in rows] == [7, 3, 5]
        assert last[0] == rows and last[0] is not rows
        assert np.array_equal(last[2], np.concatenate([row.chi[:, row.step] for row in rows]))

    @pytest.mark.parametrize("failing, path, batch_row", [(1, 0, 1), (2, 1, 3)])
    def test_a_failure_moves_no_row(self, setup, failing, path, batch_row):
        # A NaN increment fails one path: a whole row of one path, or the
        # second path of the two-path row, batch row 3.
        plan, rows = setup
        self.fill(rows[1], rows[0])
        rows[failing].increments[path, rows[failing].step] = np.nan
        before = [self.state(row) for row in rows]
        with pytest.raises(NonFiniteError) as info:
            _step_rows(plan, rows)
        assert info.value.row == batch_row
        assert [self.state(row) for row in rows] == before


class TestInitialData:
    @pytest.mark.parametrize("rows", [PATHS, 3])
    def test_block_initial_data_is_rejected(self, ops65, grid16, cos_field, rows):
        # theta0 and chi0 are (P,) fields shared by every path.  An (M, P)
        # block used to run as per-path data when M was the path count and
        # to raise a bare broadcast error otherwise.
        integ, paths = noisy_inputs(ops65, grid16)
        block = np.tile(cos_field, (rows, 1))
        for theta0, chi0, name in ((block, cos_field, "theta0"), (cos_field, block, "chi0")):
            with pytest.raises(FieldShapeError, match=rf"{name} has shape \({rows}, 65\)"):
                bh.run_additive(theta0, chi0, integ, paths, grid16, ops65, bh.linear(1.0))

    def test_integrand_of_another_mesh_is_rejected(self, ops65, grid16, cos_field):
        integ = bh.discretize_integrand("cos(pi*x)", grid16, bh.build_operators(1, 16, 1.0))
        with pytest.raises(FieldShapeError, match=r"h_0 has shape \(17,\)"):
            bh.run_additive(cos_field, cos_field, integ, bh.sample_path(grid16, 1, 0), grid16,
                            ops65, bh.linear(1.0))


class TestFactorsInBatches:
    def test_linear_batch_factors_twice_per_dt(self, cos_field, monkeypatch):
        ops = bh.build_operators(1, 64, 1.0)
        factored, solved = [], []
        real_dpttrf, real_dpttrs = grids.dpttrf, grids.dpttrs

        def recording_dpttrf(d, e, *args, **kwargs):
            factored.append(np.array(d))
            return real_dpttrf(d, e, *args, **kwargs)

        def recording_dpttrs(d, e, b, *args, **kwargs):
            solved.append(np.shape(b))
            return real_dpttrs(d, e, b, *args, **kwargs)

        monkeypatch.setattr(grids, "dpttrf", recording_dpttrf)
        monkeypatch.setattr(grids, "dpttrs", recording_dpttrs)
        nl = bh.linear(1.0)
        for steps, total in ((32, 2), (64, 4)):
            grid = bh.build_time_grid(1.0, steps)
            integ, paths = noisy_inputs(ops, grid)
            bh.run_additive(cos_field, cos_field, integ, paths, grid, ops, nl)
            assert len(factored) == total
        # The shared heat operator and Jacobian solve all paths in one call.
        assert (ops.node_count, PATHS) in solved

    def test_saturating_batch_factors_heat_once_per_dt(self, cos_field, monkeypatch):
        # Jacobians of nonlinear alpha differ per row and per iteration and
        # are factored without entering the cache, so they cannot evict the
        # heat factor.
        ops = bh.build_operators(1, 64, 1.0)
        grid = bh.build_time_grid(1.0, 64)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)
        paths = [bh.sample_path(grid, 5, pid) for pid in range(16)]
        nl = bh.saturating(2.0)
        factored = []
        real_dpttrf = grids.dpttrf

        def recording_dpttrf(d, e, *args, **kwargs):
            factored.append(np.array(d))
            return real_dpttrf(d, e, *args, **kwargs)

        monkeypatch.setattr(grids, "dpttrf", recording_dpttrf)
        batch = bh.run_additive(cos_field, cos_field, integ, paths, grid, ops, nl)
        heat = ops.lumped_mass + grid.dt * ops.tridiagonal.main
        assert sum(np.array_equal(d, heat) for d in factored) == 1
        assert len(factored) > grids.FACTOR_CACHE_SIZE
        # Besides the heat factor the cache holds one Jacobian: the one at
        # u = 0 that every path shares in step 0, where h_0 = 0.
        assert len(ops.tridiagonal) == 2
        for pid in (0, len(paths) - 1):
            alone = bh.run_additive(cos_field, cos_field, integ, paths[pid], grid, ops, nl)
            assert np.array_equal(batch[pid].theta, alone.theta)
            assert np.array_equal(batch[pid].chi, alone.chi)


def nan_beyond(limit):
    """Saturating alpha that returns NaN for |x| > limit."""
    base = bh.saturating(1.0)

    def alpha(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= limit, base.alpha(x), np.nan)

    return bh.make_nonlinearity("nan-alpha", alpha, 2.0, 1.0, alpha_prime=base.alpha_prime)


class TestFailuresNameTheirPath:
    def test_nan_in_one_path_names_it_and_its_step(self, grid16):
        ops = bh.build_operators(1, 16, 1.0)
        integ = bh.discretize_integrand("cos(pi*x)", grid16, ops)
        rng = np.random.default_rng(4)
        paths = []
        for pid in range(PATHS):
            increments = 1e-3 * rng.standard_normal(grid16.steps)
            if pid == 3:
                increments[5] = 50.0
            paths.append(bh.BrownianPath(grid=grid16, increments=increments, seed=0,
                                         path_id=pid))
        data = 0.1 * bh.evaluate_on_mesh("cos(pi*x)", ops)
        zero = np.zeros(ops.node_count)
        nl = nan_beyond(2.0)
        with pytest.raises(NonFiniteError) as info:
            bh.run_additive(data, zero, integ, paths, grid16, ops, nl)
        assert info.value.step == 5 and info.value.path_id == 3
        assert "at step 5 of path 3" in str(info.value)
        with pytest.raises(NonFiniteError) as alone:
            bh.run_additive(data, zero, integ, paths[3], grid16, ops, nl)
        assert alone.value.step == 5 and alone.value.reason == info.value.reason
        bh.run_additive(data, zero, integ, paths[:3] + paths[4:], grid16, ops, nl)

    def test_inner_cap_names_path_and_step(self, ops65, grid16, cos_field, monkeypatch):
        integ, paths = noisy_inputs(ops65, grid16)
        monkeypatch.setattr(stepper, "DEFAULT_MAX_INNER", 2)
        with pytest.raises(NonConvergenceError) as info:
            bh.run_additive(cos_field, cos_field, integ, paths[2:], grid16, ops65,
                            bh.linear(1.0))
        assert info.value.step == 0 and info.value.path_id == 2
        assert "at step 0 of path 2" in str(info.value)


class TestEstimatorBatches:
    @pytest.fixture
    def setup(self, ops_small):
        data = bh.evaluate_on_mesh("cos(pi*x)", ops_small)
        return bh.AdditiveSetup(ops=ops_small, nonlinearity=bh.saturating(1.0), theta0=data,
                                chi0=data, integrand="cos(pi*x)*(1+t)")

    def test_bits_do_not_depend_on_batch_size(self, setup, monkeypatch):
        dts = [0.25, 0.125, 0.0625]
        whole = bh.grid_difference_rates(setup, 1.0, dts, 5, 8)
        monkeypatch.setattr(diagnostics, "BATCH_PATHS", 2)
        split = bh.grid_difference_rates(setup, 1.0, dts, 5, 8)
        assert whole.theta.errors == split.theta.errors
        assert whole.chi.standard_errors == split.chi.standard_errors

    def test_energy_matches_path_by_path_reduction(self, setup):
        dts = [0.25, 0.125]
        grids_ = [bh.build_time_grid(1.0, 4), bh.build_time_grid(1.0, 8)]

        def sample(seed, pid):
            fine = bh.sample_path(grids_[-1], seed, pid)
            return [bh.energy_statistic(
                bh.simulate(setup, g, bh.aggregate_path(fine, 8 // g.steps),
                            bh.discretize_integrand(setup.integrand, g, setup.ops)),
                setup.ops) for g in grids_]

        mean, se = bh.mc_expectation(sample, 5, 9)
        report = bh.energy_estimate_check(setup, 1.0, dts, 5, 9)
        assert report.statistics == mean.tolist()
        assert report.standard_errors == se.tolist()


def test_solver_import_leaves_out_the_harness():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bh.__file__)))
    code = ("import sys; import barenheat.multiplicative, barenheat.config; "
            "sys.exit('barenheat.diagnostics' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
