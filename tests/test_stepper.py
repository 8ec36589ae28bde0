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
from barenheat.stepper import SystemState


def make_state(theta, chi, ops):
    theta = np.full(ops.node_count, theta) if np.isscalar(theta) else theta
    chi = np.full(ops.node_count, chi) if np.isscalar(chi) else chi
    return SystemState(index=0, theta=theta, chi=chi)


@pytest.fixture(scope="module")
def grid16():
    return bh.build_time_grid(1.0, 16)


class TestSolveTheta:
    def test_zero_data(self, ops65, grid16):
        state = make_state(0.0, 0.0, ops65)
        theta = bh.solve_theta(np.zeros(65), state, np.zeros(65), 0.0, grid16, ops65)
        assert np.all(theta == 0.0)

    def test_constant_data(self, ops65, grid16):
        # Constants kill the stiffness, so theta = theta_n + noise amplitude.
        state = make_state(2.0, 0.7, ops65)
        h = np.ones(65)
        theta = bh.solve_theta(np.full(65, 0.7), state, h, 0.3, grid16, ops65)
        assert np.allclose(theta, 2.3, atol=1e-12)

    def test_mirror_symmetry(self, ops65, grid16):
        rng = np.random.default_rng(5)
        half = rng.standard_normal(65)
        symmetric = 0.5 * (half + half[::-1])
        state = make_state(symmetric, symmetric, ops65)
        theta = bh.solve_theta(symmetric, state, symmetric, 0.4, grid16, ops65)
        assert np.allclose(theta, theta[::-1], atol=1e-12)

    def test_rejects_large_dt(self, ops65):
        grid = bh.build_time_grid(3.0, 2)
        state = make_state(0.0, 0.0, ops65)
        with pytest.raises(InvalidConfigError):
            bh.solve_theta(np.zeros(65), state, np.zeros(65), 0.0, grid, ops65)

    def test_both_sub_problems_reject_dt_one(self, ops65):
        grid = bh.build_time_grid(2.0, 2)
        state = make_state(0.0, 0.0, ops65)
        zeros = np.zeros(65)
        with pytest.raises(InvalidConfigError, match="solvability requirement dt < 1"):
            bh.solve_theta(zeros, state, zeros, 0.0, grid, ops65)
        with pytest.raises(InvalidConfigError, match="solvability requirement dt < 1"):
            bh.solve_chi(zeros, state, zeros, 0.0, grid, ops65, bh.linear(3.0))


class TestSolveChi:
    def test_zero_data(self, ops65, grid16, unit_nl):
        state = make_state(0.0, 0.0, ops65)
        chi, report = bh.solve_chi(
            np.zeros(65), state, np.zeros(65), 0.0, grid16, ops65, unit_nl
        )
        assert np.all(chi == 0.0)
        assert report.iterations == 0  # residual vanishes at the zero guess

    def test_constant_data(self, ops65, grid16, unit_nl):
        # alphatilde(u) = 2u and constants: 2u = a, chi = b + dt a / 2.
        a, b = 1.7, 0.4
        state = make_state(0.0, b, ops65)
        chi, _ = bh.solve_chi(
            np.full(65, a), state, np.zeros(65), 0.0, grid16, ops65, unit_nl
        )
        assert np.allclose(chi, b + grid16.dt * a / 2.0, atol=1e-12)

    def test_residual_identity(self, ops65, grid16, unit_nl):
        # The returned chi satisfies M alphatilde(u) + K chi = M theta.
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(65)
        state = make_state(rng.standard_normal(65), rng.standard_normal(65), ops65)
        h = rng.standard_normal(65)
        dw = 0.11
        chi, _ = bh.solve_chi(theta, state, h, dw, grid16, ops65, unit_nl)
        u = (chi - state.chi - h * dw) / grid16.dt
        residual = (
            ops65.lumped_mass * unit_nl.alpha_tilde(u)
            + ops65.stiffness @ chi
            - ops65.lumped_mass * theta
        )
        assert np.linalg.norm(residual) <= 1e-12 * (1 + np.linalg.norm(theta))

    def test_kinked_nonlinearity_converges(self, ops65, grid16):
        nl = bh.ramp(0.5, 3.0, 0.2)
        rng = np.random.default_rng(7)
        state = make_state(rng.standard_normal(65), rng.standard_normal(65), ops65)
        chi, report = bh.solve_chi(
            2.0 * rng.standard_normal(65), state, rng.standard_normal(65), 0.2,
            grid16, ops65, nl,
        )
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
            assert getattr(report, name).tobytes() == getattr(zeros_report, name).tobytes()
        for row in range(rows):
            alone, single = stepper._newton(ops, nl, self.DT, rhs[row:row + 1], self.TOL)
            assert u[row].tobytes() == alone[0].tobytes()
            assert (report.residual[row], report.iterations[row],
                    report.line_search_halvings[row]) == (
                single.residual[0], single.iterations[0], single.line_search_halvings[0])
        if rows > 1:
            assert report.iterations[1] == 0 and not u[1].any()

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
    def test_zero_fixed_point(self, ops65, grid16, unit_nl):
        state = make_state(0.0, 0.0, ops65)
        new, report = bh.step(state, 0.0, np.zeros(65), grid16, ops65, unit_nl)
        assert report.inner_iterations == 1
        assert np.all(new.theta == 0.0) and np.all(new.chi == 0.0)

    def test_contraction_factor_bound_at_half_coercivity(self, ops65, cos_field):
        # tilde coercivity 1.5 at dt = 0.75 gives the bound
        # 1 / (2 (1.5/0.75 - 1/2)) = 1/3.
        nl = bh.linear(0.5)
        grid = bh.build_time_grid(3.0, 4)
        assert bh.contraction_factor_bound(nl, grid.dt) == pytest.approx(1.0 / 3.0)
        state = make_state(cos_field, cos_field, ops65)
        _, report = bh.step(state, 0.31, cos_field, grid, ops65, nl)
        assert report.factor_bound == pytest.approx(1.0 / 3.0)
        assert report.contraction_factors, "expected a multi-iteration step"
        assert max(report.contraction_factors) <= 1.0 / 3.0 + 1e-6

    @pytest.mark.parametrize(
        "nl", [bh.linear(1.0), bh.saturating(0.25), bh.ramp(0.5, 2.0, 0.3)],
        ids=["linear", "saturating", "ramp"],
    )
    def test_factor_bound_holds_for_all_builtins(self, ops65, cos_field, nl):
        grid = bh.build_time_grid(1.0, 4)
        state = make_state(cos_field, 0.5 * cos_field, ops65)
        _, report = bh.step(state, 0.4, cos_field, grid, ops65, nl)
        for factor in report.contraction_factors:
            assert factor <= report.factor_bound * (1 + 1e-6)

    def test_conservation_identity(self, ops65, grid16, unit_nl, cos_field):
        # Testing against constants: the mean of theta + chi moves only by
        # the injected noise mass.
        rng = np.random.default_rng(8)
        theta0 = rng.standard_normal(65)
        chi0 = rng.standard_normal(65)
        state = make_state(theta0, chi0, ops65)
        dw = 0.17
        new, _ = bh.step(state, dw, cos_field, grid16, ops65, unit_nl)
        mass = ops65.lumped_mass
        before = float(np.dot(mass, theta0 + chi0))
        after = float(np.dot(mass, new.theta + new.chi))
        injected = dw * float(np.dot(mass, cos_field))
        assert abs(after - before - injected) <= 1e-10 * (1 + abs(after) + abs(before))

    def test_contraction_condition_violation(self, ops65, unit_nl):
        grid = bh.build_time_grid(8.0, 4)  # dt = 2 = tilde coercivity
        state = make_state(0.0, 0.0, ops65)
        with pytest.raises(ContractionConditionError):
            bh.step(state, 0.0, np.zeros(65), grid, ops65, unit_nl)

    def test_solvability_violation(self, ops65):
        # Large coercivity keeps the contraction fine, but dt = 1 is still out.
        nl = bh.linear(3.0)
        grid = bh.build_time_grid(2.0, 2)
        state = make_state(0.0, 0.0, ops65)
        with pytest.raises(InvalidConfigError):
            bh.step(state, 0.0, np.zeros(65), grid, ops65, nl)

    def test_newton_work_totals_over_inner_iterations(self, ops65, cos_field, monkeypatch):
        # Every Newton iteration makes one shifted solve and every heat solve
        # one more, so the solves counted outside the heat kernel
        # _solve_theta are the Newton iterations actually run.
        nl = bh.saturating(2.0)
        grid = bh.build_time_grid(1.0, 4)
        counts = {"shifted": 0, "theta": 0}
        reports = []
        real_shifted, real_theta, real_newton = (
            stepper.solve_shifted, stepper._solve_theta, stepper._newton
        )

        def counting_shifted(*args, **kwargs):
            counts["shifted"] += 1
            return real_shifted(*args, **kwargs)

        def counting_theta(*args, **kwargs):
            counts["theta"] += 1
            return real_theta(*args, **kwargs)

        def recording_newton(*args, **kwargs):
            u, report = real_newton(*args, **kwargs)
            reports.append(report)
            return u, report

        monkeypatch.setattr(stepper, "solve_shifted", counting_shifted)
        monkeypatch.setattr(stepper, "_solve_theta", counting_theta)
        monkeypatch.setattr(stepper, "_newton", recording_newton)
        state = make_state(cos_field, 0.5 * cos_field, ops65)
        _, report = bh.step(state, 0.4, 3.0 * cos_field, grid, ops65, nl)
        assert report.inner_iterations > 1 and len(reports) == report.inner_iterations
        assert report.newton_iterations == counts["shifted"] - counts["theta"]
        assert report.newton_iterations == sum(r.iterations for r in reports)
        assert report.newton_iterations > reports[-1].iterations
        assert report.line_search_halvings == max(r.line_search_halvings for r in reports)

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

    def test_inner_iteration_cap(self, ops65, grid16, unit_nl, cos_field):
        state = make_state(cos_field, cos_field, ops65)
        with pytest.raises(NonConvergenceError):
            bh.step(state, 0.3, cos_field, grid16, ops65, unit_nl, tol=0.0, max_inner=3)


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
            assert np.abs(traj.chi[n] - sums.values[n] - v_ref).max() <= 1e-9

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

    def test_non_finite_data_reported(self, ops65, grid16, unit_nl):
        theta = np.zeros(65)
        theta[7] = np.inf
        state = make_state(theta, 0.0, ops65)
        with pytest.raises(NonFiniteError):
            bh.step(state, 0.1, np.zeros(65), grid16, ops65, unit_nl)
