import dataclasses
import math
import os

import numpy as np
import pytest

import barenheat as bh
from barenheat import diagnostics, grids, stepper
from barenheat.config import parse_config
from barenheat.errors import (
    ContractionConditionError,
    InvalidConfigError,
    NonConvergenceError,
    NonFiniteError,
)

DT = 1.0 / 16


def plan_of(ops, nl, dt, newton_tol=stepper.DEFAULT_NEWTON_TOL):
    """The step plan of a run with step ``dt``, as ``run_additive`` builds it."""
    return stepper._step_plan(bh.build_time_grid(dt, 1), ops, nl, stepper.DEFAULT_INNER_TOL,
                              newton_tol)


def solve_chi(theta, chi_n, h, dw, dt, ops, nl, tol=stepper.DEFAULT_NEWTON_TOL):
    """The nonlinear sub-problem for a frozen theta, as ``_advance`` poses it
    to the Newton kernel: u = 0 start, chi = chi_n + h dw + dt u.  Takes and
    returns one field; the report holds the row's scalars."""
    shift = chi_n + h * dw
    rhs = ops.lumped_mass * theta - grids.apply_stiffness(ops, shift)
    u, report = stepper._newton(plan_of(ops, nl, dt, tol), np.atleast_2d(rhs))
    return shift + dt * u[0], stepper.NewtonReport(
        float(report.residual[0]), int(report.iterations[0]),
        int(report.line_search_halvings[0]), bool(report.met_tol[0]))


def solve_theta(chi_candidate, theta_n, chi_n, h, dw, dt, ops):
    """The heat kernel on one field, lifted to a one-row block."""
    return stepper._solve_theta(plan_of(ops, bh.linear(1.0), dt), chi_candidate[None],
                                theta_n[None], chi_n[None], h * dw)[0]


class TestSolveTheta:
    def test_zero_data(self, ops65):
        zeros = np.zeros(65)
        theta = solve_theta(zeros, zeros, zeros, zeros, 0.0, DT, ops65)
        assert np.all(theta == 0.0)

    def test_constant_data(self, ops65):
        # Constants kill the stiffness, so theta = theta_n + noise amplitude.
        theta = solve_theta(np.full(65, 0.7), np.full(65, 2.0), np.full(65, 0.7), np.ones(65),
                            0.3, DT, ops65)
        assert np.allclose(theta, 2.3, atol=1e-12)

    def test_mirror_symmetry(self, ops65):
        rng = np.random.default_rng(5)
        half = rng.standard_normal(65)
        symmetric = 0.5 * (half + half[::-1])
        theta = solve_theta(symmetric, symmetric, symmetric, symmetric, 0.4, DT, ops65)
        assert np.allclose(theta, theta[::-1], atol=1e-12)


class TestSolveChi:
    def test_zero_data(self, ops65, unit_nl):
        zeros = np.zeros(65)
        chi, report = solve_chi(zeros, zeros, zeros, 0.0, DT, ops65, unit_nl)
        assert np.all(chi == 0.0)
        assert report.iterations == 0  # residual vanishes at the zero guess

    def test_constant_data(self, ops65, unit_nl):
        # alphatilde(u) = 2u and constants: 2u = a, chi = b + dt a / 2.
        a, b = 1.7, 0.4
        chi, _ = solve_chi(np.full(65, a), np.full(65, b), np.zeros(65), 0.0, DT, ops65, unit_nl)
        assert np.allclose(chi, b + DT * a / 2.0, atol=1e-12)

    def test_residual_identity(self, ops65, unit_nl):
        # The returned chi satisfies M alphatilde(u) + K chi = M theta.
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(65)
        chi_n = rng.standard_normal(65)
        h = rng.standard_normal(65)
        dw = 0.11
        chi, _ = solve_chi(theta, chi_n, h, dw, DT, ops65, unit_nl)
        u = (chi - chi_n - h * dw) / DT
        residual = (
            ops65.lumped_mass * unit_nl.alpha_tilde(u)
            + ops65.stiffness @ chi
            - ops65.lumped_mass * theta
        )
        assert np.linalg.norm(residual) <= 1e-12 * (1 + np.linalg.norm(theta))

    def test_kinked_nonlinearity_converges(self, ops65):
        nl = bh.ramp(0.5, 3.0, 0.2)
        rng = np.random.default_rng(7)
        chi_n = rng.standard_normal(65)
        chi, report = solve_chi(2.0 * rng.standard_normal(65), chi_n, rng.standard_normal(65),
                                0.2, DT, ops65, nl)
        assert np.all(np.isfinite(chi))
        assert report.residual <= 1e-10


class TestNewtonFromZero:
    """Newton from u = 0 evaluates alphatilde and its Jacobian on one (P,)
    field; every row keeps the bits of a solve on its own and of a start
    from an (M, P) block of zeros."""

    DT = 1.0 / 16
    TOL = stepper.DEFAULT_NEWTON_TOL
    MESHES = {"1d-65": (1, 64, 1.0), "2d-9x7": (2, (8, 6), (1.0, 0.75))}
    ALPHAS = {"linear": bh.linear(1.0), "saturating": bh.saturating(2.0),
              "ramp": bh.ramp(0.5, 3.0, 0.2)}

    def rhs_block(self, ops, rows):
        rng = np.random.default_rng(rows)
        rhs = rng.standard_normal((rows, ops.node_count)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        if rows > 1:
            rhs[1] = 0.0  # starts converged
        return rhs

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("rows", [1, 4])
    def test_rows_get_the_bits_of_lone_solves(self, mesh, alpha, rows):
        ops, nl = bh.build_operators(*self.MESHES[mesh]), self.ALPHAS[alpha]
        rhs = self.rhs_block(ops, rows)
        plan = plan_of(ops, nl, self.DT)
        u, report = stepper._newton(plan, rhs)
        zeros_u, zeros_report = stepper._newton(plan, rhs, np.zeros(rhs.shape))
        assert u.tobytes() == zeros_u.tobytes()
        for name in ("residual", "iterations", "line_search_halvings"):
            assert getattr(report, name) == getattr(zeros_report, name)
        for row in range(rows):
            alone, single = stepper._newton(plan, rhs[row:row + 1])
            assert u[row].tobytes() == alone[0].tobytes()
            assert (report.residual[row], report.iterations[row],
                    report.line_search_halvings[row]) == (
                single.residual[0], single.iterations[0], single.line_search_halvings[0])
        if rows > 1:
            assert report.iterations[1] == 0 and not u[1].any()

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_row_that_passes_at_the_start_leaves_a_row_subset(self, mesh, alpha, monkeypatch):
        # Row 1 has rhs = 0, so its start residual -rhs passes; the first
        # correction solves rows 0, 2 and 3 only, with the run plan's solve
        # against the Jacobian at zero.
        ops, nl = bh.build_operators(*self.MESHES[mesh]), self.ALPHAS[alpha]
        rhs = self.rhs_block(ops, 4)
        solved = []
        plan = plan_of(ops, nl, self.DT)
        span = plan.spans[0]
        real_solve = span.at_zero

        def recording_solve(b, *args):
            solved.append(len(b))
            return real_solve(b, *args)

        u, report = stepper._newton(
            plan._replace(spans=(span._replace(at_zero=recording_solve),)), rhs)
        assert solved[0] == 3
        assert (report.residual[1], report.iterations[1]) == (0.0, 0) and not u[1].any()
        for row in range(4):
            alone, single = stepper._newton(plan, rhs[row:row + 1])
            assert u[row].tobytes() == alone[0].tobytes()
            assert (report.residual[row], report.iterations[row],
                    report.line_search_halvings[row]) == (
                single.residual[0], single.iterations[0], single.line_search_halvings[0])

    def test_alpha_not_zero_at_zero_keeps_the_start_residual(self, ops65, reference_solve_1d):
        # alphatilde(0) = 0.3 everywhere: the start residual is
        # (M alphatilde(0) + 0.0) - rhs, not -rhs.  Row 1 meets it exactly
        # and row 2 to below its threshold, so neither iterates; row 0 takes
        # one exact step, alphatilde' = 2 being constant.
        nl = bh.make_nonlinearity("offset", lambda x: np.asarray(x, dtype=float) + 0.3, 1.0,
                                  1.0, alpha_prime=lambda x: np.ones(np.shape(x)))
        mass, dt = ops65.lumped_mass, self.DT
        offset = mass * nl.alpha_tilde(np.zeros(ops65.node_count)) + 0.0
        rng = np.random.default_rng(43)
        rhs = np.stack([rng.standard_normal(ops65.node_count), offset,
                        offset + 1e-15 * rng.standard_normal(ops65.node_count)])
        u, report = stepper._newton(plan_of(ops65, nl, dt), rhs)
        start = offset - rhs
        step = reference_solve_1d(ops65, 2.0 * mass, dt, -start[0])
        stepped = 0.0 + step
        after = mass * nl.alpha_tilde(stepped) + dt * (ops65.stiffness @ stepped) - rhs[0]
        assert u[0].tobytes() == stepped.tobytes() and not u[1:].any()
        assert report.iterations == [1, 0, 0]
        assert report.residual == [math.sqrt(after.dot(after)),
                                   *(math.sqrt(r.dot(r)) for r in start[1:])]
        assert report.residual[1] == 0.0 < report.residual[2]

    @pytest.mark.parametrize("rows", [1, 4])
    def test_non_finite_jacobian_names_the_first_active_row(self, ops65, rows):
        nl = bh.make_nonlinearity("nan-slope", lambda x: np.asarray(x, dtype=float), 1.0, 1.0,
                                  alpha_prime=lambda x: np.full(np.shape(x), np.nan))
        rhs = self.rhs_block(ops65, rows)
        first_active = 0
        if rows > 1:
            rhs[0] = 0.0
            first_active = 2
        raised = []
        plan = plan_of(ops65, nl, self.DT)
        for start in (None, np.zeros(rhs.shape)):
            with pytest.raises(NonFiniteError, match="Jacobian") as excinfo:
                stepper._newton(plan, rhs, start)
            raised.append((excinfo.value.row, repr(excinfo.value.residual)))
        assert raised[0] == raised[1]
        assert raised[0][0] == first_active


class TestNewtonLineSearch:
    """Rows of a warm-started batch halve their steps independently: a
    kinked alpha with slopes 50 and 0.05 makes some rows of one draw
    backtrack twice or more while others take full steps, and every row
    keeps the bits of a solve on its own."""

    MESHES = {"1d-17": (1, 16, 1.0), "2d-4x3": (2, (4, 3), (1.0, 0.75))}

    @pytest.mark.parametrize("mesh", MESHES)
    def test_rows_with_mixed_halvings_get_the_bits_of_lone_solves(self, mesh):
        ops = bh.build_operators(*self.MESHES[mesh])
        plan = stepper._step_plan(bh.build_time_grid(1.0, 2), ops, bh.ramp(50.0, 0.05, 0.1),
                                  stepper.DEFAULT_INNER_TOL, stepper.DEFAULT_NEWTON_TOL)
        rng = np.random.default_rng(0)
        rhs, start = (rng.standard_normal((3, ops.node_count)) * 10.0 ** rng.uniform(-2, 3, (3, 1))
                      for _ in range(2))
        u, report = stepper._newton(plan, rhs, start.copy())
        halvings = report.line_search_halvings
        assert min(halvings) == 0 and max(halvings) >= 2, halvings
        for row in range(3):
            alone, single = stepper._newton(plan, rhs[row:row + 1], start[row:row + 1].copy())
            assert u[row].tobytes() == alone[0].tobytes()
            assert (report.residual[row], report.iterations[row], halvings[row]) == (
                single.residual[0], single.iterations[0], single.line_search_halvings[0])


class TestStep:
    """One coupled step, taken by ``run_additive`` on a one-step grid."""

    def test_zero_fixed_point(self, ops65, unit_nl, one_step):
        zeros = np.zeros(65)
        theta, chi, report = one_step(zeros, zeros, zeros, 0.0, DT, ops65, unit_nl)
        assert report.inner_iterations == 1
        assert np.all(theta == 0.0) and np.all(chi == 0.0)

    def test_contraction_factor_bound_at_half_coercivity(self, ops65, cos_field, one_step):
        # tilde coercivity 1.5 at dt = 0.75 gives the bound
        # 1 / (2 (1.5/0.75 - 1/2)) = 1/3.
        nl = bh.linear(0.5)
        grid = bh.build_time_grid(3.0, 4)
        assert bh.contraction_factor_bound(nl, grid.dt) == pytest.approx(1.0 / 3.0)
        _, _, report = one_step(cos_field, cos_field, cos_field, 0.31, grid.dt, ops65, nl)
        assert report.factor_bound == pytest.approx(1.0 / 3.0)
        assert report.contraction_factors, "expected a multi-iteration step"
        assert max(report.contraction_factors) <= 1.0 / 3.0 + 1e-6

    def test_contraction_factors_are_built_once(self, ops65, cos_field, one_step):
        # The solver counters and the worst-factor study read the same list.
        _, _, report = one_step(cos_field, cos_field, cos_field, 0.31, 0.75, ops65,
                                bh.linear(0.5))
        assert report.contraction_factors is report.contraction_factors

    @pytest.mark.parametrize(
        "nl", [bh.linear(1.0), bh.saturating(0.25), bh.ramp(0.5, 2.0, 0.3)],
        ids=["linear", "saturating", "ramp"],
    )
    def test_factor_bound_holds_for_all_builtins(self, ops65, cos_field, nl, one_step):
        _, _, report = one_step(cos_field, 0.5 * cos_field, cos_field, 0.4, 0.25, ops65, nl)
        for factor in report.contraction_factors:
            assert factor <= report.factor_bound * (1 + 1e-6)

    def test_conservation_identity(self, ops65, unit_nl, cos_field, one_step):
        # Testing against constants: the mean of theta + chi moves only by
        # the injected noise mass.
        rng = np.random.default_rng(8)
        theta0 = rng.standard_normal(65)
        chi0 = rng.standard_normal(65)
        dw = 0.17
        theta, chi, _ = one_step(theta0, chi0, cos_field, dw, DT, ops65, unit_nl)
        mass = ops65.lumped_mass
        before = float(np.dot(mass, theta0 + chi0))
        after = float(np.dot(mass, theta + chi))
        injected = dw * float(np.dot(mass, cos_field))
        assert abs(after - before - injected) <= 1e-10 * (1 + abs(after) + abs(before))

    def test_contraction_condition_violation(self, ops65, unit_nl, one_step):
        zeros = np.zeros(65)
        with pytest.raises(ContractionConditionError):
            # dt = 2 = tilde coercivity
            one_step(zeros, zeros, zeros, 0.0, 2.0, ops65, unit_nl)

    @pytest.mark.parametrize("dt", [1.0, 1.5])
    def test_solvability_violation(self, ops65, dt, one_step):
        # Large coercivity keeps the contraction fine, but dt >= 1 is still out.
        zeros = np.zeros(65)
        with pytest.raises(InvalidConfigError, match="solvability requirement dt < 1"):
            one_step(zeros, zeros, zeros, 0.0, dt, ops65, bh.linear(3.0))

    def test_newton_work_totals_over_inner_iterations(self, ops65, cos_field, monkeypatch,
                                                      one_step):
        # Every Newton iteration makes one shifted solve and every heat solve
        # one more, so the solves counted outside the heat kernel
        # _solve_theta are the Newton iterations actually run.  Every solve,
        # heat or Newton, is gated by one _gated call, so all are counted.
        nl = bh.saturating(2.0)
        counts = {"shifted": 0, "theta": 0}
        reports = []
        real_theta, real_newton, real_gated = stepper._solve_theta, stepper._newton, stepper._gated

        def counting_gated(*args, **kwargs):
            counts["shifted"] += 1
            return real_gated(*args, **kwargs)

        def counting_theta(*args, **kwargs):
            counts["theta"] += 1
            return real_theta(*args, **kwargs)

        def recording_newton(*args, **kwargs):
            u, report = real_newton(*args, **kwargs)
            reports.append(report)
            return u, report

        monkeypatch.setattr(stepper, "_gated", counting_gated)
        monkeypatch.setattr(stepper, "_solve_theta", counting_theta)
        monkeypatch.setattr(stepper, "_newton", recording_newton)
        _, _, report = one_step(cos_field, 0.5 * cos_field, 3.0 * cos_field, 0.4, 0.25, ops65,
                                nl)
        assert report.inner_iterations > 1 and len(reports) == report.inner_iterations
        assert report.newton_iterations == counts["shifted"] - counts["theta"]
        # One path: every Newton report holds one row.
        assert report.newton_iterations == sum(r.iterations[0] for r in reports)
        assert report.newton_iterations > reports[-1].iterations[0]
        assert report.line_search_halvings == max(r.line_search_halvings[0] for r in reports)

    @pytest.mark.parametrize("nonlinear", [True, False], ids=["saturating", "linear"])
    def test_nonlinear_alpha_starts_at_the_noise_shift(self, ops65, cos_field, monkeypatch,
                                                      one_step, plan_solves, nonlinear):
        # Nonlinear alpha takes s = chi_n + h_n dw_n as its first chi
        # iterate, so Newton starts at u = 0 and the first difference is
        # measured from s; linear alpha starts from chi_n, and its one bound
        # solve is Newton's step from u = 0.
        nl = bh.saturating(2.0) if nonlinear else bh.linear(1.0)
        dt, dw = 0.25, 0.4
        chi_n = 0.5 * cos_field
        shift = chi_n + cos_field * dw
        candidates, newton_calls = [], []
        real_theta, real_newton, real_linear = (stepper._solve_theta, stepper._newton,
                                                stepper._solve_linear)

        def recording_theta(plan, chi_candidate, *args):
            candidates.append(chi_candidate.copy())
            return real_theta(plan, chi_candidate, *args)

        def recording_newton(plan, rhs, start=None, relaxed=None):
            started = None if start is None else start.copy()
            u, report = real_newton(plan, rhs, start, relaxed)
            newton_calls.append((started, u.copy()))
            return u, report

        def recording_linear(plan, rhs):
            solved = real_linear(plan, rhs)
            assert solved is not None
            delta, _ = plan_solves[1](plan, rhs, lambda: None)
            assert np.array_equal(solved[0], 0.0 + delta)
            newton_calls.append((None, solved[0].copy()))
            return solved

        monkeypatch.setattr(stepper, "_solve_theta", recording_theta)
        monkeypatch.setattr(stepper, "_newton", recording_newton)
        monkeypatch.setattr(stepper, "_solve_linear", recording_linear)
        _, _, report = one_step(cos_field, chi_n, cos_field, dw, dt, ops65, nl)
        first, other = (shift, chi_n) if nonlinear else (chi_n, shift)
        assert np.array_equal(candidates[0], first[None])
        started, u = newton_calls[0]
        assert started is None
        assert len(newton_calls) == report.inner_iterations
        chi_1 = shift + dt * u[0]
        assert report.chi_differences[0] == pytest.approx(bh.l2_norm(chi_1 - first, ops65),
                                                          rel=1e-12)
        # The noise increment, 0.4 cos(pi x), separates the two candidates.
        assert abs(bh.l2_norm(chi_1 - other, ops65) - report.chi_differences[0]) > 0.1
        if nonlinear:
            assert all(start is not None for start, _ in newton_calls[1:])

    @pytest.mark.parametrize("paths", [1, 4])
    def test_linear_alpha_takes_one_newton_iteration_per_inner_iteration(
        self, ops65, cos_field, paths
    ):
        # Linear alpha starts Newton from u = 0, where its residual is the
        # whole right-hand side and one exact step converges; nonlinear alpha
        # starts from the chi iterate instead.
        grid = bh.build_time_grid(1.0, 32)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops65)
        trajs = bh.run_additive(cos_field, cos_field, integ,
                                [bh.sample_path(grid, 3, pid) for pid in range(paths)],
                                grid, ops65, bh.linear(1.0))
        for traj in trajs:
            assert all(r.inner_iterations > 1 for r in traj.reports[1:])
            assert [r.newton_iterations for r in traj.reports] == [
                r.inner_iterations for r in traj.reports
            ]

    def test_inner_iteration_cap(self, ops65, unit_nl, cos_field, one_step, monkeypatch):
        monkeypatch.setattr(stepper, "DEFAULT_MAX_INNER", 3)
        # The smallest positive tolerance, which no three iterations meet.
        with pytest.raises(NonConvergenceError, match="in 3 iterations"):
            one_step(cos_field, cos_field, cos_field, 0.3, DT, ops65, unit_nl, tol=5e-324)


class TestStepPlan:
    """A run binds its fixed solves once: the plan's heat solve and Newton's
    solve from u = 0 have the bits of a fresh bind and gate of their
    operators, and the plan is built once per run, not per step or per
    solve."""

    DT = 1.0 / 16
    MESHES = {"1d-65": (1, 64, 1.0), "2d-9x7": (2, (8, 6), (1.0, 0.75))}
    ALPHAS = {"linear": bh.linear(1.0), "saturating": bh.saturating(2.0)}

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_bound_solves_have_the_bits_of_a_fresh_bind(self, mesh, alpha, rows, plan_solves,
                                                         shifted_solve):
        heat, at_zero = plan_solves
        ops, nl = bh.build_operators(*self.MESHES[mesh]), self.ALPHAS[alpha]
        plan = plan_of(ops, nl, self.DT)
        jacobian = ops.lumped_mass * nl.alpha_tilde_prime(np.zeros(ops.node_count))
        rng = np.random.default_rng(rows)
        targets = 1e-6 * np.ones(rows)
        for scale in (1.0, 1e-8, 1e8):
            rhs = scale * rng.standard_normal((rows, ops.node_count))
            for got, want in (
                (heat(plan, rhs), shifted_solve(ops, ops.lumped_mass, self.DT, rhs)),
                (at_zero(plan, rhs, lambda: targets),
                 shifted_solve(ops, jacobian, self.DT, rhs, stepper.CORRECTION_RTOL, targets)),
            ):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_nan_increment_names_its_step_and_path(self, mesh, alpha):
        ops, nl = bh.build_operators(*self.MESHES[mesh]), self.ALPHAS[alpha]
        grid = bh.build_time_grid(0.25, 4)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)
        paths = [bh.sample_path(grid, 3, pid) for pid in (10, 11, 12)]
        paths[1].increments[2] = np.nan
        data = bh.evaluate_on_mesh("cos(pi*x)", ops)
        with pytest.raises(NonFiniteError, match="shifted-operator solve") as info:
            bh.run_additive(data, data, integ, paths, grid, ops, nl)
        assert (info.value.step, info.value.path_id, info.value.row) == (2, 11, 1)
        assert "at step 2 of path 11" in str(info.value)

    @pytest.mark.parametrize("constants", [(1.0, 1.0), (2.0, 1.0)], ids=["linear", "nonlinear"])
    def test_non_finite_jacobian_at_zero_raises_at_the_first_active_row(self, ops65,
                                                                        cos_field, constants):
        # alphatilde'(0) is NaN.  With zero data and no increment, path 0's
        # first Newton solve starts converged, so path 1 is the first row
        # that iterates; the plan is built all the same.
        nl = bh.make_nonlinearity(
            "nan-slope-at-zero", lambda x: np.asarray(x, dtype=float), *constants,
            alpha_prime=lambda x: np.where(np.asarray(x) == 0.0, np.nan, 1.0))
        assert plan_of(ops65, nl, DT).jacobian is None
        grid = bh.build_time_grid(0.25, 4)
        integ = bh.AdditiveIntegrand(grid=grid, values=np.tile(cos_field, (grid.steps, 1)))
        paths = [bh.BrownianPath(grid=grid, increments=np.array([0.0, 0.1, 0.1, 0.1]), seed=0,
                                 path_id=20),
                 bh.BrownianPath(grid=grid, increments=np.array([0.2, 0.1, 0.1, 0.1]), seed=0,
                                 path_id=21)]
        zeros = np.zeros(ops65.node_count)
        with pytest.raises(NonFiniteError, match="Jacobian") as info:
            bh.run_additive(zeros, zeros, integ, paths, grid, ops65, nl)
        assert (info.value.step, info.value.path_id, info.value.row) == (0, 21, 1)

    def test_built_once_per_run(self, ops65, cos_field, monkeypatch):
        built = {"plan": 0, "at_zero": 0}
        real_plan, real_at_zero = stepper._step_plan, stepper._at_zero
        steps = []
        real_advance = stepper._advance

        def counting_plan(*args):
            built["plan"] += 1
            return real_plan(*args)

        def counting_at_zero(*args):
            built["at_zero"] += 1
            return real_at_zero(*args)

        def counting_advance(*args):
            steps.append(1)
            return real_advance(*args)

        monkeypatch.setattr(stepper, "_step_plan", counting_plan)
        monkeypatch.setattr(stepper, "_at_zero", counting_at_zero)
        monkeypatch.setattr(stepper, "_advance", counting_advance)
        grid = bh.build_time_grid(1.0, 16)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops65)
        for nl in (bh.linear(1.0), bh.saturating(2.0)):
            for count in (1, 4):
                built.update(plan=0, at_zero=0)
                del steps[:]
                bh.run_additive(cos_field, cos_field, integ,
                                [bh.sample_path(grid, 5, pid) for pid in range(count)],
                                grid, ops65, nl)
                assert built == {"plan": 1, "at_zero": 1}
                assert len(steps) == grid.steps

    def test_converge_factors_each_operator_once_per_dt(self, monkeypatch):
        # Five dt levels of linear alpha step in one run_additive call, which
        # factors the heat operator M + dt K and the Newton Jacobian at
        # u = 0 once per level.
        config = parse_config(os.path.join(os.path.dirname(__file__), "..", "demos",
                                              "configs", "additive.ini"))
        assert len(config.dt_levels) == 5
        setup = bh.AdditiveSetup(config.ops, config.nonlinearity, config.theta0, config.chi0,
                                 config.integrand, config.inner_tol, config.newton_tol)
        counts = {"run_additive": 0, "dpttrf": 0}
        real_run, real_dpttrf = stepper.run_additive, grids.dpttrf

        def counting(name, real):
            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return counted

        monkeypatch.setattr(diagnostics, "run_additive", counting("run_additive", real_run))
        monkeypatch.setattr(grids, "dpttrf", counting("dpttrf", real_dpttrf))
        bh.grid_difference_rates(setup, config.horizon, config.dt_levels, 2, 7)
        assert counts == {"run_additive": 1, "dpttrf": 2 * len(config.dt_levels)}


class TestRunAdditive:
    def test_ode_reduction(self, ops65, unit_nl):
        # Constant data and no noise collapse to the scalar recursion
        # theta_{n+1} = theta_n / (1 + dt/2).
        grid = bh.build_time_grid(1.0, 16)
        integ = bh.discretize_integrand("0", grid, ops65)
        path = bh.sample_path(grid, 1, 0)
        traj = bh.run_additive(
            np.ones(65), np.zeros(65), integ, path, grid, ops65, unit_nl
        )
        reference = 1.0
        for n in range(1, 17):
            reference /= 1.0 + grid.dt / 2.0
            assert np.abs(traj.theta[n] - reference).max() <= 1e-9

    def test_ode_limit_matches_exponential(self, ops65, unit_nl):
        grid = bh.build_time_grid(1.0, 64)
        integ = bh.discretize_integrand("0", grid, ops65)
        path = bh.sample_path(grid, 1, 0)
        traj = bh.run_additive(
            np.ones(65), np.zeros(65), integ, path, grid, ops65, unit_nl
        )
        assert abs(traj.theta[-1][0] - math.exp(-0.5)) <= 2 * grid.dt

    def test_constant_noise_closed_form(self, ops65, unit_nl):
        # With spatially constant h, chi - B follows the deterministic
        # recursion pathwise and theta stays deterministic.
        grid = bh.build_time_grid(1.0, 32)
        integ = bh.discretize_integrand("1", grid, ops65)
        path = bh.sample_path(grid, 4, 2)
        traj = bh.run_additive(
            np.ones(65), np.zeros(65), integ, path, grid, ops65, unit_nl
        )
        sums = bh.partial_sums(path, integ)
        theta_ref, v_ref = 1.0, 0.0
        for n in range(1, 33):
            theta_ref /= 1.0 + grid.dt / 2.0
            v_ref += grid.dt * theta_ref / 2.0
            assert np.abs(traj.theta[n] - theta_ref).max() <= 1e-9
            assert np.abs(traj.chi[n] - sums[n] - v_ref).max() <= 1e-9

    def test_bitwise_determinism(self, ops65, unit_nl, cos_field):
        grid = bh.build_time_grid(1.0, 8)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops65)
        path = bh.sample_path(grid, 10, 5)
        first = bh.run_additive(cos_field, cos_field, integ, path, grid, ops65, unit_nl)
        second = bh.run_additive(cos_field, cos_field, integ, path, grid, ops65, unit_nl)
        assert np.array_equal(first.theta, second.theta)
        assert np.array_equal(first.chi, second.chi)
        assert np.array_equal(first.u, second.u)

    def test_mirror_symmetry_along_run(self, ops65, unit_nl, cos_field):
        # cos(2 pi x) data and noise are symmetric about x = 1/2; every field
        # stays symmetric at every step.
        sym = bh.evaluate_on_mesh("cos(2*pi*x)", ops65)
        grid = bh.build_time_grid(1.0, 8)
        integ = bh.discretize_integrand("cos(2*pi*x)*(1+t)", grid, ops65)
        path = bh.sample_path(grid, 12, 0)
        traj = bh.run_additive(sym, sym, integ, path, grid, ops65, unit_nl)
        for n in range(9):
            assert np.allclose(traj.theta[n], traj.theta[n][::-1], atol=1e-11)
            assert np.allclose(traj.chi[n], traj.chi[n][::-1], atol=1e-11)

    def test_weak_identities_along_noisy_run(self, ops65, unit_nl, cos_field):
        grid = bh.build_time_grid(1.0, 32)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops65)
        path = bh.sample_path(grid, 6, 3)
        traj = bh.run_additive(cos_field, cos_field, integ, path, grid, ops65, unit_nl)
        conservation, balance = bh.weak_identity_defects(traj, ops65, unit_nl)
        assert conservation.max() <= 1e-10
        # The nonlinear identity holds up to the inner stopping tolerance,
        # because theta is re-solved once after the chi iterates settle.
        assert balance.max() <= 10 * (1e-11 + 1e-12)

    def test_nonlinear_run_with_saturating_alpha(self, ops65, cos_field):
        nl = bh.saturating(0.25)
        grid = bh.build_time_grid(1.0, 8)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops65)
        path = bh.sample_path(grid, 13, 0)
        traj = bh.run_additive(cos_field, cos_field, integ, path, grid, ops65, nl)
        conservation, _ = bh.weak_identity_defects(traj, ops65, nl)
        assert conservation.max() <= 1e-10
        for report in traj.reports:
            if report.contraction_factors:
                assert max(report.contraction_factors) <= report.factor_bound * (1 + 1e-6)

    def test_two_dimensional_run(self):
        # Exercises the conjugate-gradient branch of the shifted solves.
        ops = bh.build_operators(2, (6, 5), (1.0, 1.0))
        nl = bh.linear(1.0)
        grid = bh.build_time_grid(0.5, 8)
        integ = bh.discretize_integrand("cos(pi*x)*cos(pi*y)", grid, ops)
        path = bh.sample_path(grid, 17, 0)
        data = bh.evaluate_on_mesh("cos(pi*x)", ops)
        traj = bh.run_additive(data, data, integ, path, grid, ops, nl)
        conservation, balance = bh.weak_identity_defects(traj, ops, nl)
        assert conservation.max() <= 1e-10
        assert balance.max() <= 1e-9
        again = bh.run_additive(data, data, integ, path, grid, ops, nl)
        assert np.array_equal(traj.chi, again.chi)

    def test_report_inner_counts(self, ops65, unit_nl, cos_field):
        grid = bh.build_time_grid(1.0, 4)
        integ = bh.discretize_integrand("cos(pi*x)", grid, ops65)
        path = bh.sample_path(grid, 14, 0)
        traj = bh.run_additive(cos_field, cos_field, integ, path, grid, ops65, unit_nl)
        assert len(traj.reports) == 4
        assert all(r.inner_iterations >= 1 for r in traj.reports)
        assert all(len(r.chi_differences) == r.inner_iterations for r in traj.reports)


def nan_beyond(limit, broken):
    """Saturating alpha(x) = x + x / (1 + |x|) with ``broken`` ("alpha" or
    "prime") returning NaN for |x| > limit; needs several Newton steps."""
    base = bh.saturating(1.0)

    def alpha(x):
        x = np.asarray(x, dtype=float)
        value = base.alpha(x)
        return np.where(np.abs(x) <= limit, value, np.nan) if broken == "alpha" else value

    def alpha_prime(x):
        x = np.asarray(x, dtype=float)
        value = base.alpha_prime(x)
        return np.where(np.abs(x) <= limit, value, np.nan) if broken == "prime" else value

    return bh.make_nonlinearity(f"nan-{broken}", alpha, 2.0, 1.0, alpha_prime=alpha_prime)


class TestFactorReuse:
    @pytest.fixture
    def run_inputs(self):
        grid = bh.build_time_grid(1.0, 32)
        ops = bh.build_operators(1, 64, 1.0)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)
        return grid, ops, integ, bh.sample_path(grid, 31, 2)

    @pytest.mark.parametrize("nl", [bh.linear(1.0), bh.saturating(2.0)], ids=lambda nl: nl.name)
    def test_trajectory_bitwise_equal_to_reference_solve(
        self, run_inputs, cos_field, nl, monkeypatch, reference_solve_1d
    ):
        grid, ops, integ, path = run_inputs
        bound_solves = bh.run_additive(cos_field, 0.5 * cos_field, integ, path, grid, ops, nl)
        bound = []

        def reference_bind(ops, diagonal, shift):
            # Every shifted solve of the run: the plan's heat solve and
            # Newton's solve from u = 0, and each row's Newton correction,
            # all of which _gated gates.
            def solve(rhs, targets_of, rows):
                bound.append(len(rhs))
                return reference_solve_1d(ops, diagonal, shift, rhs), None

            return solve

        monkeypatch.setattr(stepper, "_bind_unchecked", reference_bind)
        reference = bh.run_additive(cos_field, 0.5 * cos_field, integ, path, grid, ops, nl)
        # A heat solve per inner iteration and step, and a Newton solve from
        # u = 0 in each step at least, all of them the reference's.
        inner = sum(r.inner_iterations for r in reference.reports)
        assert len(bound) >= inner + 2 * grid.steps
        assert np.array_equal(bound_solves.theta, reference.theta)
        assert np.array_equal(bound_solves.chi, reference.chi)
        assert [r.inner_iterations for r in bound_solves.reports] == [
            r.inner_iterations for r in reference.reports
        ]

    def _record_factorizations(self, monkeypatch):
        factored = []
        real_dpttrf = grids.dpttrf

        def recording_dpttrf(d, e, *args, **kwargs):
            factored.append(np.array(d))
            return real_dpttrf(d, e, *args, **kwargs)

        monkeypatch.setattr(grids, "dpttrf", recording_dpttrf)
        return factored

    def test_linear_run_factors_each_operator_once_per_dt(
        self, run_inputs, cos_field, monkeypatch
    ):
        # Each run_additive call factors the heat operator M + dt K and the
        # fixed Newton Jacobian once, and solves every step with them.
        grid, ops, integ, path = run_inputs
        factored = self._record_factorizations(monkeypatch)
        nl = bh.linear(1.0)
        traj = bh.run_additive(cos_field, cos_field, integ, path, grid, ops, nl)
        assert sum(r.inner_iterations for r in traj.reports) > 2 * grid.steps
        assert len(factored) == 2
        heat = ops.lumped_mass + grid.dt * ops.stiffness_band[0]
        assert np.array_equal(factored[0], heat)
        bh.run_additive(cos_field, cos_field, integ, bh.sample_path(grid, 31, 3), grid, ops, nl)
        assert len(factored) == 4
        assert np.array_equal(factored[2], heat)
        finer = bh.build_time_grid(1.0, 64)
        finer_integ = bh.discretize_integrand("cos(pi*x)*(1+t)", finer, ops)
        bh.run_additive(cos_field, cos_field, finer_integ, bh.sample_path(finer, 31, 2),
                        finer, ops, nl)
        assert len(factored) == 6
        assert np.array_equal(factored[4], ops.lumped_mass + finer.dt * ops.stiffness_band[0])

    def test_saturating_run_factors_heat_and_jacobian_at_zero_once(
        self, cos_field, monkeypatch
    ):
        ops = bh.build_operators(1, 64, 1.0)
        grid = bh.build_time_grid(1.0, 128)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)
        factored = self._record_factorizations(monkeypatch)
        nl = bh.saturating(2.0)
        traj = bh.run_additive(cos_field, cos_field, integ, bh.sample_path(grid, 5, 0),
                               grid, ops, nl)
        # The plan factors M + dt K and the Jacobian at u = 0 once; every
        # Newton iteration but the first of a solve from u = 0 factors its
        # own Jacobian, and each step makes one solve from u = 0.
        newton = sum(r.newton_iterations for r in traj.reports)
        assert newton + 2 - grid.steps <= len(factored) <= newton + 2
        band = grid.dt * ops.stiffness_band[0]
        zero = np.zeros(ops.node_count)
        for diagonal in (ops.lumped_mass, ops.lumped_mass * nl.alpha_tilde_prime(zero)):
            assert sum(np.array_equal(d, diagonal + band) for d in factored) == 1


class TestNonFiniteValues:
    @pytest.mark.parametrize("broken", ["alpha", "prime"])
    def test_reported_with_step_and_path(self, broken):
        ops = bh.build_operators(1, 16, 1.0)
        grid = bh.build_time_grid(1.0, 8)
        data = 5.0 * bh.evaluate_on_mesh("cos(pi*x)", ops)
        integ = bh.discretize_integrand("0", grid, ops)
        path = bh.sample_path(grid, 1, 3)
        nl = nan_beyond(0.5, broken)
        with pytest.raises(NonFiniteError) as info:
            bh.run_additive(data, np.zeros(ops.node_count), integ, path, grid, ops, nl)
        assert info.value.step == 0 and info.value.path_id == 3
        assert "at step 0 of path 3" in str(info.value)

    def test_non_finite_data_reported(self, ops65, unit_nl, one_step):
        theta = np.zeros(65)
        theta[7] = np.inf
        with pytest.raises(NonFiniteError) as info:
            one_step(theta, np.zeros(65), np.zeros(65), 0.1, DT, ops65, unit_nl)
        assert info.value.step == 0 and info.value.path_id == 0


class TestInexactNewton:
    """2D Newton corrections stop at NEWTON_FORCING times the row's Newton
    threshold, relaxed or not: the run keeps, to round-off, its fields, and
    every accepted iterate meets newton_tol, with fewer conjugate-gradient
    iterations."""

    @staticmethod
    def run(monkeypatch, scale=1.0, exact=False, met=None):
        """Trajectories of two paths and the CG iterations run; ``met``, a
        list, gets per ``_newton`` call whether each row's residual meets
        newton_tol."""
        ops = bh.build_operators(2, (12, 12), (1.0, 1.0))
        grid = bh.build_time_grid(0.5, 8)
        integ = bh.discretize_integrand("cos(pi*x)*(1+cos(2*pi*y))*(1+t)", grid, ops)
        paths = [bh.sample_path(grid, 7, pid) for pid in range(2)]
        theta0 = scale * bh.evaluate_on_mesh("cos(pi*x)*(2+cos(pi*y))", ops)
        chi0 = scale * bh.evaluate_on_mesh("cos(pi*x)*cos(pi*y)", ops)
        iterations = [0]
        real_cg, real_newton = grids.cg, stepper._newton

        def counting_cg(*args, callback=None, **kwargs):
            def counted(xk):
                iterations[0] += 1

            return real_cg(*args, callback=counted, **kwargs)

        def recording_newton(plan, rhs, start=None, relaxed=None):
            u, report = real_newton(plan, rhs, start, relaxed)
            if met is not None:
                met.append([residual <= stepper.DEFAULT_NEWTON_TOL * (1.0 + norm)
                            for residual, norm in zip(report.residual, grids.row_norms(rhs))])
            return u, report

        with monkeypatch.context() as patch:
            patch.setattr(grids, "cg", counting_cg)
            patch.setattr(stepper, "_newton", recording_newton)
            if exact:
                # Newton's corrections without their targets: full solves,
                # from u = 0 through the run plan's solve as well.
                patch.setattr(stepper, "_gated",
                              lambda ops, diagonal, shift, rtol, spans, rhs, targets_of=None,
                              solve=2:
                              grids._gated(ops, diagonal, shift, rtol, spans, rhs, None, solve))
            trajectories = bh.run_additive(theta0, chi0, integ, paths, grid, ops, bh.saturating(2.0))
        return trajectories, iterations[0]

    @staticmethod
    def accepted_meet_newton_tol(trajectories, met):
        """Whether the last ``_newton`` row of every path and step, the
        accepted iterate's, met newton_tol.  A path runs in the batch while
        it has inner iterations left, so call k of a step holds, in order,
        the paths with more than k inner iterations."""
        calls = iter(met)
        for step in range(len(trajectories[0].reports)):
            inner = [traj.reports[step].inner_iterations for traj in trajectories]
            for k in range(max(inner)):
                rows = next(calls)
                active = [path for path, count in enumerate(inner) if count > k]
                assert len(rows) == len(active)
                if not all(ok for path, ok in zip(active, rows) if inner[path] == k + 1):
                    return False
        assert next(calls, None) is None
        return True

    def test_fewer_cg_iterations_same_fields(self, monkeypatch):
        # The relaxed gate lets a relaxed correction stop above the
        # former cap, so a step may take another number of inner
        # iterations than with exact corrections; the fields agree.
        met_inexact, met_exact = [], []
        inexact, cg_inexact = self.run(monkeypatch, met=met_inexact)
        exact, cg_exact = self.run(monkeypatch, exact=True, met=met_exact)
        assert sum(r.newton_iterations for t in exact for r in t.reports) > \
            sum(r.inner_iterations for t in exact for r in t.reports)
        for ours, full in zip(inexact, exact):
            for field in ("theta", "chi"):
                a, b = getattr(ours, field), getattr(full, field)
                assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()
        assert 0 < cg_inexact < cg_exact
        assert self.accepted_meet_newton_tol(inexact, met_inexact)
        assert self.accepted_meet_newton_tol(exact, met_exact)

    def test_large_data_stay_inside_the_residual_gate(self, monkeypatch):
        # |rhs| of order 1e5 makes NEWTON_FORCING times the Newton threshold
        # larger than rtol (1 + |b|) for a small correction b; the gate of
        # the correction's solve follows the target, and every stop stays
        # inside it.
        trajectories, cg_iterations = self.run(monkeypatch, scale=1e5)
        assert cg_iterations > 0
        assert all(np.isfinite(traj.chi).all() for traj in trajectories)


# Problems for the relaxed inner solves: odd data in x, varying in y in 2D.
RELAXED_MESHES = {
    "1d": ((1, 32, 1.0), "2*cos(pi*x)", "cos(pi*x)", "cos(pi*x)*(1+t)"),
    "2d": ((2, (6, 5), (1.0, 1.5)), "cos(pi*x)*(2+cos(pi*y))", "cos(pi*x)*cos(pi*y)",
           "cos(pi*x)*(1+cos(2*pi*y))*(1+t)"),
}
RELAXED_NONLINEAR = {"saturating": bh.saturating(2.0), "ramp": bh.ramp(1.0, 3.0, 0.3)}


class TestRelaxedInnerSolves:
    """With nonlinear alpha each inner iteration's Newton solve stops at a
    tolerance that follows the path's chi differences, and the accepted
    iterate always meets newton_tol."""

    @staticmethod
    def run(monkeypatch, mesh, nl, paths=1, **kwargs):
        """Trajectories of ``paths`` paths, and every ``_newton`` call as
        (tol, relaxed, rhs row norms, residuals)."""
        shape, theta0, chi0, noise = RELAXED_MESHES[mesh]
        ops = bh.build_operators(*shape)
        grid = bh.build_time_grid(0.5, 8)
        integ = bh.discretize_integrand(noise, grid, ops)
        sampled = [bh.sample_path(grid, 17, pid) for pid in range(paths)]
        calls = []
        real_newton = stepper._newton

        def recording_newton(plan, rhs, start=None, relaxed=None):
            u, report = real_newton(plan, rhs, start, relaxed)
            calls.append((plan.newton_tol, relaxed, grids.row_norms(rhs), report.residual))
            return u, report

        monkeypatch.setattr(stepper, "_newton", recording_newton)
        trajectories = bh.run_additive(bh.evaluate_on_mesh(theta0, ops),
                                       bh.evaluate_on_mesh(chi0, ops), integ, sampled, grid,
                                       ops, nl, **kwargs)
        return ops, integ, sampled, trajectories, calls

    @staticmethod
    def by_step(reports, calls):
        """The ``_newton`` calls of a one-path run, split by step."""
        steps, start = [], 0
        for report in reports:
            steps.append(calls[start:start + report.inner_iterations])
            start += report.inner_iterations
        assert start == len(calls)
        return steps

    @staticmethod
    def meets_newton_tol(call):
        _, _, (rhs_norm,), (residual,) = call
        return residual <= stepper.DEFAULT_NEWTON_TOL * (1.0 + rhs_norm)

    @pytest.mark.parametrize("name", sorted(RELAXED_NONLINEAR))
    @pytest.mark.parametrize("mesh", sorted(RELAXED_MESHES))
    def test_accepted_iterate_meets_newton_tol(self, monkeypatch, mesh, name):
        _, _, _, (traj,), calls = self.run(monkeypatch, mesh, RELAXED_NONLINEAR[name])
        newton_tol = stepper.DEFAULT_NEWTON_TOL
        for report, step_calls in zip(traj.reports, self.by_step(traj.reports, calls)):
            assert all(tol == newton_tol for tol, *_ in step_calls)
            relaxed = [row_tols[0] for _, row_tols, *_ in step_calls]
            assert relaxed[0] == stepper.LOOSEST_NEWTON_TOL
            assert all(row_tol >= newton_tol for row_tol in relaxed)
            assert self.meets_newton_tol(step_calls[-1])
            assert report.newton_residual == step_calls[-1][3][0]

    @pytest.mark.parametrize("name", sorted(RELAXED_NONLINEAR))
    @pytest.mark.parametrize("mesh", sorted(RELAXED_MESHES))
    def test_relaxed_solve_meeting_tol_runs_once_more(self, monkeypatch, mesh, name):
        # With tol = 1e-3 the differences meet tol while the solves are
        # still relaxed; a step whose Newton residual then meets only the
        # relaxed threshold takes one more iteration, at newton_tol.
        tol = 1e-3
        _, _, _, (traj,), calls = self.run(monkeypatch, mesh, RELAXED_NONLINEAR[name], tol=tol)
        extra = 0
        for report, step_calls in zip(traj.reports, self.by_step(traj.reports, calls)):
            met = next(k for k, diff in enumerate(report.chi_differences) if diff <= tol)
            assert step_calls[met][1][0] > stepper.DEFAULT_NEWTON_TOL
            if self.meets_newton_tol(step_calls[met]):
                assert report.inner_iterations == met + 1
            else:
                assert report.inner_iterations == met + 2
                assert step_calls[-1][1] == [stepper.DEFAULT_NEWTON_TOL]
                assert self.meets_newton_tol(step_calls[-1])
                extra += 1
        # Saturating Newton stops between the thresholds; piecewise-linear
        # ramp Newton may land exactly once it is on the right pieces.
        assert extra > 0 or name == "ramp"

    @pytest.mark.parametrize("mesh", sorted(RELAXED_MESHES))
    def test_relaxed_solve_takes_an_iteration(self, mesh):
        # A start whose residual, about 1e-11, meets the relaxed threshold but
        # not the full one still takes a Newton iteration, which moves u.  In
        # 2D the Jacobian at this start is no mass multiple, so the
        # correction is a conjugate-gradient solve: it must aim below that
        # residual, or it would return zero and the line search would stall.
        shape, _, chi0, _ = RELAXED_MESHES[mesh]
        ops = bh.build_operators(*shape)
        nl = RELAXED_NONLINEAR["saturating"]
        field = bh.evaluate_on_mesh(chi0, ops)[None]
        start = 0.5 * field
        exact = ops.lumped_mass * nl.alpha_tilde(start) + DT * grids.apply_stiffness(ops, start)
        for rhs, iterates in ((exact + 1e-11 * field, True), (exact, False)):
            u, report = stepper._newton(plan_of(ops, nl, DT), rhs, start.copy(),
                                        [stepper.LOOSEST_NEWTON_TOL])
            assert (report.iterations[0] >= 1) == iterates
            assert np.array_equal(u, start) != iterates
            assert report.met_tol[0] == (report.residual[0] <= stepper.DEFAULT_NEWTON_TOL
                                         * (1.0 + np.linalg.norm(rhs)))

    @pytest.mark.parametrize("name", sorted(RELAXED_NONLINEAR))
    @pytest.mark.parametrize("mesh", sorted(RELAXED_MESHES))
    def test_contraction_bound_and_weak_identities(self, monkeypatch, mesh, name):
        # Criteria 1 and 2 for nonlinear alpha, in 1D and 2D, on a batch.
        nl = RELAXED_NONLINEAR[name]
        ops, integ, paths, trajectories, _ = self.run(monkeypatch, mesh, nl, paths=3)
        for path, traj in zip(paths, trajectories):
            for report in traj.reports:
                assert report.contraction_factors
                assert max(report.contraction_factors) <= report.factor_bound + 1e-6
            conservation, balance = bh.weak_identity_defects(traj, ops, nl)
            assert max(conservation.max(), balance.max()) <= 1e-10


def misdeclared_linear(slope, error):
    """alpha = slope x declared linear, whose derivative is off by ``error``."""
    return bh.make_nonlinearity("misdeclared", lambda x: slope * x,
                                lipschitz=slope, coercivity=slope,
                                alpha_prime=lambda x: np.full_like(x, slope + error))


def run_grids(ops, nl, levels, noise, paths=2, seed=5):
    """Every trajectory of one ``run_additive`` call on the grids of
    ``levels`` over [0, 0.5], ``paths`` paths each, in entry order."""
    grid_list = [bh.build_time_grid(0.5, steps) for steps in levels]
    runs = bh.run_additive(
        bh.evaluate_on_mesh("2*cos(pi*x)", ops), bh.evaluate_on_mesh("cos(pi*x)", ops),
        [bh.discretize_integrand(noise, grid, ops) for grid in grid_list],
        [[bh.sample_path(grid, seed, pid) for pid in range(paths)] for grid in grid_list],
        grid_list, ops, nl)
    return [traj for _, trajs in sorted(runs, key=lambda run: run[0]) for traj in trajs]


class TestLinearRoute:
    """Linear alpha solves each inner iteration's sub-problem in one run of
    the plan's bound solves from u = 0 (``stepper._solve_linear``), checked
    by its true residual, and otherwise falls back to ``_newton``: a run gets
    the bits of a run with the route off."""

    # Additive.ini's alpha and noise on 33 nodes and three dt levels, and a
    # 2D linear run whose 1 + c is not a power of two.
    RUNS = {
        "1d-grids": ((1, 32, 1.0), bh.linear(1.0), [8, 16, 32], "cos(pi*x)*(1+t)"),
        "2d": ((2, (6, 5), (1.0, 1.5)), bh.linear(0.5), [8],
               "cos(pi*x)*(1+cos(2*pi*y))*(1+t)"),
    }

    @staticmethod
    def fields(trajectories):
        return [(t.theta.tobytes(), t.chi.tobytes(), [repr(r) for r in t.reports])
                for t in trajectories]

    def run(self, monkeypatch, name, nl=None, route=True):
        """The trajectories of a run and the number of ``_newton`` calls."""
        shape, linear, levels, noise = self.RUNS[name]
        calls, real_newton = [0], stepper._newton

        def counting_newton(*args, **kwargs):
            calls[0] += 1
            return real_newton(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(stepper, "_newton", counting_newton)
            if not route:
                patch.setattr(stepper, "_solve_linear", lambda plan, rhs: None)
            trajectories = run_grids(bh.build_operators(*shape), nl or linear, levels, noise)
        return trajectories, calls[0]

    @pytest.mark.parametrize("mesh", sorted(RELAXED_MESHES))
    def test_a_solve_is_newtons_or_declines(self, mesh):
        ops = bh.build_operators(*RELAXED_MESHES[mesh][0])
        nl = bh.linear(0.5)
        rhs = np.random.default_rng(3).standard_normal((3, ops.node_count))
        (u, report), (newton_u, newton) = (stepper._solve_linear(plan_of(ops, nl, DT), rhs),
                                           stepper._newton(plan_of(ops, nl, DT), rhs))
        assert u.tobytes() == newton_u.tobytes() and report == newton
        # A row that starts converged, a non-finite row, and a Newton
        # threshold above half the correction gate's leave it to Newton.
        converged, broken = rhs.copy(), rhs.copy()
        converged[1], broken[2, 4] = 0.0, math.nan
        for block, newton_tol in ((converged, stepper.DEFAULT_NEWTON_TOL),
                                  (broken, stepper.DEFAULT_NEWTON_TOL),
                                  (rhs, stepper.CORRECTION_RTOL)):
            assert stepper._solve_linear(plan_of(ops, nl, DT, newton_tol), block) is None

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_route_off_keeps_every_bit(self, monkeypatch, name):
        on, newton_on = self.run(monkeypatch, name)
        off, newton_off = self.run(monkeypatch, name, route=False)
        assert newton_on == 0 < newton_off
        assert self.fields(on) == self.fields(off)

    def test_additive_data_never_call_newton(self, monkeypatch):
        # The converge study of demos/configs/additive.ini on two paths:
        # five dt levels of linear alpha in one batch.
        config = parse_config(os.path.join(os.path.dirname(__file__), "..", "demos",
                                           "configs", "additive.ini"))
        setup = bh.AdditiveSetup(config.ops, config.nonlinearity, config.theta0, config.chi0,
                                 config.integrand, config.inner_tol, config.newton_tol)

        def no_newton(*args, **kwargs):
            raise AssertionError("_newton was called")

        monkeypatch.setattr(stepper, "_newton", no_newton)
        bh.grid_difference_rates(setup, config.horizon, config.dt_levels, 2, 7)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_misdeclared_derivative_falls_back(self, monkeypatch, name):
        # A Jacobian off by 1e-9 leaves a residual of about 1e-9 |rhs|: the
        # check fails where that misses newton_tol, and Newton takes a second
        # iteration from the same first step, as with the route off.
        shape, linear, _, _ = self.RUNS[name]
        nl = misdeclared_linear(linear.lipschitz, 1e-9)
        on, newton_on = self.run(monkeypatch, name, nl)
        off, newton_off = self.run(monkeypatch, name, nl, route=False)
        assert newton_on == newton_off > 0
        assert self.fields(on) == self.fields(off)
        reports = [r for traj in on for r in traj.reports]
        assert sum(r.newton_iterations for r in reports) > sum(
            r.inner_iterations for r in reports)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_each_inner_iteration_meets_newton_tol(self, monkeypatch, name):
        shape, nl, levels, noise = self.RUNS[name]
        ops = bh.build_operators(*shape)
        real_linear, solved = stepper._solve_linear, []

        def recording_linear(plan, rhs):
            result = real_linear(plan, rhs)
            solved.append((plan.dt, rhs, result))
            return result

        monkeypatch.setattr(stepper, "_solve_linear", recording_linear)
        trajectories = run_grids(ops, nl, levels, noise)
        # One row per inner iteration of each path, every one solved, and a
        # path is accepted at its first difference that meets tol.
        reports = [r for t in trajectories for r in t.reports]
        assert sum(len(rhs) for _, rhs, _ in solved) == sum(r.inner_iterations for r in reports)
        tol = stepper.DEFAULT_INNER_TOL
        assert all(r.chi_differences[-1] <= tol < min(r.chi_differences[:-1], default=math.inf)
                   for r in reports)
        for dt, rhs, (u, report) in solved:
            residual = (ops.lumped_mass * nl.alpha_tilde(u)
                        + dt * grids.apply_stiffness(ops, u) - rhs)
            for row, (res, b) in enumerate(zip(residual, rhs)):
                limit = stepper.DEFAULT_NEWTON_TOL * (1.0 + np.linalg.norm(b))
                assert np.linalg.norm(res) <= limit
                assert report.residual[row] == pytest.approx(np.linalg.norm(res), rel=1e-12)
            assert report.iterations == [1] * len(rhs) and not any(report.line_search_halvings)


class TestCorrectionTargets:
    """No solve checks the absolute targets it reads: the ones ``_newton``
    hands its corrections, the only ones a run makes, are one finite,
    nonnegative number per row of the solved block, NEWTON_FORCING times
    the row's threshold or, where that is smaller, its residual."""

    @pytest.mark.parametrize("paths", [1, 3])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
    @pytest.mark.parametrize("name", sorted(RELAXED_NONLINEAR))
    def test_every_target_is_finite_nonnegative_and_one_per_row(self, monkeypatch, name,
                                                                scale, paths):
        shape, theta0, chi0, noise = RELAXED_MESHES["2d"]
        ops = bh.build_operators(*shape)
        grid = bh.build_time_grid(0.5, 8)
        integ = bh.discretize_integrand(noise, grid, ops)
        sampled = [bh.sample_path(grid, 19, pid) for pid in range(paths)]
        real_newton, real_gated = stepper._newton, stepper._gated
        bound, read = [None], []

        def bounding_newton(plan, rhs, start=None, relaxed=None):
            # A row's limit is at most its threshold t_i (1 + |rhs_i|).
            tols = [plan.newton_tol] * len(rhs) if relaxed is None else relaxed
            bound[0] = max(stepper.NEWTON_FORCING * (t * (1.0 + norm))
                           for t, norm in zip(tols, grids.row_norms(rhs)))
            return real_newton(plan, rhs, start, relaxed)

        def reading_gated(ops, diagonal, shift, rtol, spans, rhs, targets_of=None, **kwargs):
            if targets_of is not None:
                read.append((len(rhs), targets_of(), bound[0]))
            return real_gated(ops, diagonal, shift, rtol, spans, rhs, targets_of, **kwargs)

        monkeypatch.setattr(stepper, "_newton", bounding_newton)
        monkeypatch.setattr(stepper, "_gated", reading_gated)
        bh.run_additive(scale * bh.evaluate_on_mesh(theta0, ops),
                        scale * bh.evaluate_on_mesh(chi0, ops), integ, sampled, grid, ops,
                        RELAXED_NONLINEAR[name])
        assert read
        for rows, targets, limit in read:
            assert targets.shape == (rows,)
            assert np.isfinite(targets).all() and (targets >= 0.0).all()
            assert targets.max() <= limit

    @pytest.mark.parametrize("relaxed", [None, [stepper.LOOSEST_NEWTON_TOL] * 4],
                             ids=["exact", "relaxed"])
    def test_targets_are_the_forcing_of_each_active_row(self, monkeypatch, relaxed):
        # A warm start in 2D: the Jacobian is no mass multiple, so the
        # corrections are conjugate-gradient solves.  Row 1 starts with a
        # zero residual and takes no iteration; row 2's residual, about
        # 1e-11, lies below its relaxed threshold.
        shape, _, chi0, _ = RELAXED_MESHES["2d"]
        ops = bh.build_operators(*shape)
        nl = RELAXED_NONLINEAR["saturating"]
        field = bh.evaluate_on_mesh(chi0, ops)
        start = np.stack([0.5 * field, -0.3 * field, 0.4 * field, 0.2 * field])
        exact = ops.lumped_mass * nl.alpha_tilde(start) + DT * grids.apply_stiffness(ops, start)
        rhs = exact + np.array([1e-2, 0.0, 1e-11, 1e-4])[:, None] * field
        plan = plan_of(ops, nl, DT)
        res = ops.lumped_mass * nl.alpha_tilde(start) + DT * grids.apply_stiffness(
            ops, start) - rhs
        norms, rhs_norms = grids.row_norms(res), grids.row_norms(rhs)
        tols = [plan.newton_tol] * 4 if relaxed is None else relaxed
        thresholds = [t * (1.0 + norm) for t, norm in zip(tols, rhs_norms)]
        limits = thresholds if relaxed is None else [min(t, n) for t, n in zip(thresholds, norms)]
        assert norms[1] == 0.0 and (relaxed is None or limits[2] == norms[2] < thresholds[2])
        real_gated, read = stepper._gated, []

        def reading_gated(ops, diagonal, shift, rtol, spans, rhs, targets_of=None, **kwargs):
            read.append(targets_of())
            return real_gated(ops, diagonal, shift, rtol, spans, rhs, targets_of, **kwargs)

        monkeypatch.setattr(stepper, "_gated", reading_gated)
        u, report = stepper._newton(plan, rhs, start.copy(), relaxed)
        assert report.iterations[1] == 0 and all(report.iterations[row] for row in (0, 2, 3))
        expected = stepper.NEWTON_FORCING * np.array([limits[row] for row in (0, 2, 3)])
        assert read and read[0].tobytes() == expected.tobytes()
        # Later corrections read the same targets of the rows still active.
        assert all(targets.size <= 3 and set(targets) <= set(expected) for targets in read)


class TestDerivedReportValues:
    """A StepReport derives its inner-iteration count and its contraction
    factors from its chi differences, with the formulas it once stored."""

    @staticmethod
    def stored(diffs):
        return len(diffs), [(b / a) ** 2 for a, b in zip(diffs, diffs[1:]) if a > 0.0]

    def test_derived_values_are_the_stored_formulas(self):
        # The first step of a 1D ramp run from large data takes several inner
        # iterations, and its last one moves chi by exactly 0.0.
        ops = bh.build_operators(1, 16, 1.0)
        data = 3.0 * bh.evaluate_on_mesh("cos(pi*x)", ops)
        grid = bh.build_time_grid(0.5, 8)
        traj = bh.run_additive(data, data, bh.discretize_integrand("0", grid, ops),
                               bh.sample_path(grid, 3, 0), grid, ops, bh.ramp(1.0, 0.5, 1.0))
        report = traj.reports[0]
        diffs = report.chi_differences
        assert len(diffs) > 2 and diffs[-1] == 0.0 and min(diffs[:-1]) > 0.0
        # A zero difference before the last one has no factor after it.
        inner_zero = dataclasses.replace(report, chi_differences=diffs[:2] + [0.0] + diffs[2:])
        for r in (report, inner_zero):
            count, factors = self.stored(r.chi_differences)
            assert r.inner_iterations == count
            assert r.contraction_factors == factors


class TestTrajectoryU:
    def test_u_is_formed_once_on_first_read(self, ops65, unit_nl, cos_field, monkeypatch):
        grid = bh.build_time_grid(1.0, 8)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops65)
        path = bh.sample_path(grid, 10, 5)
        calls = []
        real_partial_sums = stepper.partial_sums

        def counting(*args):
            calls.append(args)
            return real_partial_sums(*args)

        monkeypatch.setattr(stepper, "partial_sums", counting)
        traj = bh.run_additive(cos_field, cos_field, integ, path, grid, ops65, unit_nl)
        assert calls == []
        u = traj.u
        assert traj.u is u and len(calls) == 1
        assert u.tobytes() == (traj.chi - real_partial_sums(path, integ)).tobytes()


BAD_TOLERANCES = [math.nan, math.inf, 0.0, -1e-12]


class TestToleranceValidation:
    """Tolerances must be finite and positive; a bad one raises at the call,
    before any step runs."""

    @pytest.fixture
    def problem(self, ops_small, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(stepper, "_advance", no_step)
        grid = bh.build_time_grid(0.5, 4)
        data = bh.evaluate_on_mesh("cos(pi*x)", ops_small)
        return (grid, data, bh.discretize_integrand("cos(pi*x)", grid, ops_small),
                bh.sample_path(grid, 1, 0))

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", ["tol", "newton_tol"])
    def test_run_additive(self, ops_small, problem, name, value):
        grid, data, integ, path = problem
        nl = bh.saturating(1.0)
        with pytest.raises(InvalidConfigError, match="must be finite and positive"):
            bh.run_additive(data, data, integ, path, grid, ops_small, nl, **{name: value})
        # The form over several grids raises at the call, not on iteration.
        with pytest.raises(InvalidConfigError, match="must be finite and positive"):
            bh.run_additive(data, data, [integ], [[path]], [grid], ops_small, nl,
                            **{name: value})

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", ["tol", "newton_tol"])
    def test_simulate(self, ops_small, problem, name, value):
        grid, data, integ, path = problem
        setup = bh.AdditiveSetup(ops=ops_small, nonlinearity=bh.linear(1.0), theta0=data,
                                 chi0=data, **{name: value})
        with pytest.raises(InvalidConfigError, match="must be finite and positive"):
            bh.simulate(setup, grid, path, integ)

    @pytest.mark.parametrize("value", BAD_TOLERANCES)
    @pytest.mark.parametrize("name", ["tol", "newton_tol"])
    def test_picard_solve(self, ops_small, problem, name, value):
        grid, data, _, path = problem
        config = bh.PicardConfig(weight=8.0, override_condition=True)
        with pytest.raises(InvalidConfigError, match="must be finite and positive"):
            bh.picard_solve(data, data, bh.affine_map(0.1), path, grid, ops_small,
                            bh.linear(1.0), config, **{name: value})
