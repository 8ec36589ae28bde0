import math

import numpy as np
import pytest

import barenheat as bh
from barenheat import grids, stepper
from barenheat.errors import (
    ContractionConditionError,
    InvalidConfigError,
    NonConvergenceError,
    NonFiniteError,
)

DT = 1.0 / 16


def solve_chi(theta, chi_n, h, dw, dt, ops, nl, tol=stepper.DEFAULT_NEWTON_TOL):
    """The nonlinear sub-problem for a frozen theta, as ``_advance`` poses it
    to the Newton kernel: u = 0 start, chi = chi_n + h dw + dt u.  Takes and
    returns one field; the report holds the row's scalars."""
    shift = chi_n + h * dw
    rhs = ops.lumped_mass * theta - grids.apply_stiffness(ops, shift)
    u, report = stepper._newton(ops, nl, dt, np.atleast_2d(rhs), tol)
    return shift + dt * u[0], stepper.NewtonReport(
        float(report.residual[0]), int(report.iterations[0]),
        int(report.line_search_halvings[0]))


def solve_theta(chi_candidate, theta_n, chi_n, h, dw, dt, ops):
    """The heat kernel on one field, lifted to a one-row block."""
    return stepper._solve_theta(chi_candidate[None], theta_n[None], chi_n[None], h * dw,
                                dt, ops)[0]


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
        u, report = stepper._newton(ops, nl, self.DT, rhs, self.TOL)
        zeros_u, zeros_report = stepper._newton(ops, nl, self.DT, rhs, self.TOL,
                                                np.zeros(rhs.shape))
        assert u.tobytes() == zeros_u.tobytes()
        for name in ("residual", "iterations", "line_search_halvings"):
            assert getattr(report, name) == getattr(zeros_report, name)
        for row in range(rows):
            alone, single = stepper._newton(ops, nl, self.DT, rhs[row:row + 1], self.TOL)
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
        # correction solves rows 0, 2 and 3 only, against the Jacobian and
        # alphatilde at zero evaluated once, as a step hands them over.
        ops, nl = bh.build_operators(*self.MESHES[mesh]), self.ALPHAS[alpha]
        rhs = self.rhs_block(ops, 4)
        solved = []
        real_solve = stepper._solve_shifted

        def recording_solve(ops, diagonal, shift, b, *args):
            solved.append(len(b))
            return real_solve(ops, diagonal, shift, b, *args)

        monkeypatch.setattr(stepper, "_solve_shifted", recording_solve)
        u, report = stepper._newton(ops, nl, self.DT, rhs, self.TOL,
                                    at_zero=stepper._at_zero(ops, nl))
        assert solved[0] == 3
        assert (report.residual[1], report.iterations[1]) == (0.0, 0) and not u[1].any()
        for row in range(4):
            alone, single = stepper._newton(ops, nl, self.DT, rhs[row:row + 1], self.TOL)
            assert u[row].tobytes() == alone[0].tobytes()
            assert (report.residual[row], report.iterations[row],
                    report.line_search_halvings[row]) == (
                single.residual[0], single.iterations[0], single.line_search_halvings[0])

    def test_alpha_not_zero_at_zero_keeps_the_start_residual(self, ops65):
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
        u, report = stepper._newton(ops65, nl, dt, rhs, self.TOL)
        start = offset - rhs
        step = grids.solve_shifted(ops65, 2.0 * mass, dt, -start[0], rtol=1e-10)
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
        for start in (None, np.zeros(rhs.shape)):
            with pytest.raises(NonFiniteError, match="Jacobian") as excinfo:
                stepper._newton(ops65, nl, self.DT, rhs, self.TOL, start)
            raised.append((excinfo.value.row, repr(excinfo.value.residual)))
        assert raised[0] == raised[1]
        assert raised[0][0] == first_active


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
        # _solve_theta are the Newton iterations actually run.  Newton calls
        # the solve that also returns K x, so both names are counted.
        nl = bh.saturating(2.0)
        counts = {"shifted": 0, "theta": 0}
        reports = []
        real_theta, real_newton = stepper._solve_theta, stepper._newton

        def counting(real_shifted):
            def counting_shifted(*args, **kwargs):
                counts["shifted"] += 1
                return real_shifted(*args, **kwargs)

            return counting_shifted

        def counting_theta(*args, **kwargs):
            counts["theta"] += 1
            return real_theta(*args, **kwargs)

        def recording_newton(*args, **kwargs):
            u, report = real_newton(*args, **kwargs)
            reports.append(report)
            return u, report

        for name in ("solve_shifted", "_solve_shifted"):
            monkeypatch.setattr(stepper, name, counting(getattr(stepper, name)))
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
                                                      one_step, nonlinear):
        # Nonlinear alpha takes s = chi_n + h_n dw_n as its first chi
        # iterate, so Newton starts at u = 0 and the first difference is
        # measured from s; linear alpha starts from chi_n.
        nl = bh.saturating(2.0) if nonlinear else bh.linear(1.0)
        dt, dw = 0.25, 0.4
        chi_n = 0.5 * cos_field
        shift = chi_n + cos_field * dw
        candidates, newton_calls = [], []
        real_theta, real_newton = stepper._solve_theta, stepper._newton

        def recording_theta(chi_candidate, *args):
            candidates.append(chi_candidate.copy())
            return real_theta(chi_candidate, *args)

        def recording_newton(ops, nl, dt, rhs, tol, start=None, relaxed=None, at_zero=None):
            started = None if start is None else start.copy()
            u, report = real_newton(ops, nl, dt, rhs, tol, start, relaxed, at_zero)
            newton_calls.append((started, u.copy()))
            return u, report

        monkeypatch.setattr(stepper, "_solve_theta", recording_theta)
        monkeypatch.setattr(stepper, "_newton", recording_newton)
        _, _, report = one_step(cos_field, chi_n, cos_field, dw, dt, ops65, nl)
        first, other = (shift, chi_n) if nonlinear else (chi_n, shift)
        assert np.array_equal(candidates[0], first[None])
        started, u = newton_calls[0]
        assert started is None
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
        with pytest.raises(NonConvergenceError, match="in 3 iterations"):
            one_step(cos_field, cos_field, cos_field, 0.3, DT, ops65, unit_nl, tol=0.0)


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
        conservation, balance = bh.weak_identity_defects(traj, path, integ, ops65, unit_nl)
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
        conservation, _ = bh.weak_identity_defects(traj, path, integ, ops65, nl)
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
        conservation, balance = bh.weak_identity_defects(traj, path, integ, ops, nl)
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
        cached = bh.run_additive(cos_field, 0.5 * cos_field, integ, path, grid, ops, nl)
        monkeypatch.setattr(stepper, "solve_shifted", reference_solve_1d)

        def reference_pair(ops, diagonal, shift, rhs, rtol, atol_of):
            # Newton's solve, which also returns K x.
            x = reference_solve_1d(ops, diagonal, shift, rhs)
            return x, grids.apply_stiffness(ops, x)

        monkeypatch.setattr(stepper, "_solve_shifted", reference_pair)
        reference = bh.run_additive(cos_field, 0.5 * cos_field, integ, path, grid, ops, nl)
        assert np.array_equal(cached.theta, reference.theta)
        assert np.array_equal(cached.chi, reference.chi)
        assert [r.inner_iterations for r in cached.reports] == [
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
        grid, ops, integ, path = run_inputs
        factored = self._record_factorizations(monkeypatch)
        nl = bh.linear(1.0)
        traj = bh.run_additive(cos_field, cos_field, integ, path, grid, ops, nl)
        assert sum(r.inner_iterations for r in traj.reports) > 2 * grid.steps
        # The heat operator M + dt K and the fixed Newton Jacobian.
        assert len(factored) == 2
        heat = ops.lumped_mass + grid.dt * ops.tridiagonal.main
        assert np.array_equal(factored[0], heat)
        bh.run_additive(cos_field, cos_field, integ, bh.sample_path(grid, 31, 3), grid, ops, nl)
        assert len(factored) == 2
        finer = bh.build_time_grid(1.0, 64)
        finer_integ = bh.discretize_integrand("cos(pi*x)*(1+t)", finer, ops)
        bh.run_additive(cos_field, cos_field, finer_integ, bh.sample_path(finer, 31, 2),
                        finer, ops, nl)
        assert len(factored) == 4

    def test_saturating_run_keeps_cache_bounded_and_heat_factor(
        self, cos_field, monkeypatch
    ):
        ops = bh.build_operators(1, 64, 1.0)
        grid = bh.build_time_grid(1.0, 128)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)
        factored = self._record_factorizations(monkeypatch)
        traj = bh.run_additive(cos_field, cos_field, integ, bh.sample_path(grid, 5, 0),
                               grid, ops, bh.saturating(2.0))
        # At most one factorization per Newton iteration plus the heat one.
        newton = sum(r.newton_iterations for r in traj.reports)
        assert grids.FACTOR_CACHE_SIZE < len(factored) <= newton + 1
        assert len(ops.tridiagonal) <= grids.FACTOR_CACHE_SIZE
        heat = ops.lumped_mass + grid.dt * ops.tridiagonal.main
        assert sum(np.array_equal(d, heat) for d in factored) == 1


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

        def recording_newton(ops, nl, dt, rhs, tol, start=None, relaxed=None, at_zero=None):
            u, report = real_newton(ops, nl, dt, rhs, tol, start, relaxed, at_zero)
            if met is not None:
                met.append([residual <= stepper.DEFAULT_NEWTON_TOL * (1.0 + norm)
                            for residual, norm in zip(report.residual, grids.row_norms(rhs))])
            return u, report

        with monkeypatch.context() as patch:
            patch.setattr(grids, "cg", counting_cg)
            patch.setattr(stepper, "_newton", recording_newton)
            if exact:
                # Newton's corrections without their targets: full solves.
                patch.setattr(stepper, "_solve_shifted",
                              lambda ops, diagonal, shift, rhs, rtol, atol_of:
                              grids._solve_shifted(ops, diagonal, shift, rhs, rtol))
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
        # solve_shifted follows the target, and every stop stays inside it.
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

        def recording_newton(ops, nl, dt, rhs, tol, start=None, relaxed=None, at_zero=None):
            u, report = real_newton(ops, nl, dt, rhs, tol, start, relaxed, at_zero)
            calls.append((tol, relaxed, grids.row_norms(rhs), report.residual))
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
            u, report = stepper._newton(ops, nl, DT, rhs, stepper.DEFAULT_NEWTON_TOL,
                                        start.copy(), [stepper.LOOSEST_NEWTON_TOL])
            assert (report.iterations[0] >= 1) == iterates
            assert np.array_equal(u, start) != iterates
            assert report.met_tol[0] == (report.residual[0] <= stepper.DEFAULT_NEWTON_TOL
                                         * (1.0 + np.linalg.norm(rhs)))

    @pytest.mark.parametrize("mesh", sorted(RELAXED_MESHES))
    def test_linear_alpha_keeps_the_scalar_tolerance(self, monkeypatch, mesh):
        tol = 1e-3
        _, _, _, (traj,), calls = self.run(monkeypatch, mesh, bh.linear(1.0), tol=tol)
        assert all(type(newton_tol) is float and newton_tol == stepper.DEFAULT_NEWTON_TOL
                   and relaxed is None for newton_tol, relaxed, *_ in calls)
        assert len(calls) == sum(r.inner_iterations for r in traj.reports)
        # Accepted as soon as a difference meets tol: no extra iteration.
        for report in traj.reports:
            assert report.chi_differences[-1] <= tol
            assert all(diff > tol for diff in report.chi_differences[:-1])

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
            conservation, balance = bh.weak_identity_defects(traj, path, integ, ops, nl)
            assert max(conservation.max(), balance.max()) <= 1e-10
