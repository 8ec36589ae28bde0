import math
import os
import tracemalloc

import numpy as np
import pytest

import barenheat as bh
from barenheat import stepper
from barenheat.config import parse_config
from barenheat.errors import InvalidConfigError

ROOT = os.path.join(os.path.dirname(__file__), "..")


def reference_stability_constant(lipschitz, coercivity, horizon):
    """Independent high-precision evaluation of the constant's assembly."""
    import mpmath

    mpmath.mp.dps = 40
    lip = mpmath.mpf(lipschitz)
    coer = mpmath.mpf(coercivity)
    T = mpmath.mpf(horizon)
    exponent = (lip**2 + 1) / (2 * coer + 1) + 2
    growth = 1 + exponent * T * mpmath.e ** (exponent * T)
    forcing = (lip**2 + 1) / (coer + mpmath.mpf(1) / 2) + T / 2
    constant = (
        (1 / (coer + mpmath.mpf(1) / 2) + 1) * (T / 2 * growth * forcing + 1)
        + growth * forcing
        + mpmath.mpf(1) / 2
    )
    return float(exponent), float(constant)


def chain_assembled_constant(lipschitz, coercivity, horizon):
    """Re-derive the constant chain by chain instead of from the closed form.

    The monitored quantity splits into three estimates: a Gronwall sup bound
    on the zero-order differences (a1), the bound it induces on the time
    derivative of U and the chi gradient (a2 = T/2 a1 + 1), and the heat
    energy bound that divides a2 by the coercivity denominator (a3).  The
    quarter of the chi mass additionally needs half the accumulated
    integrand difference, contributing the trailing 1/2.
    """
    gronwall = (lipschitz**2 + 1) / (2 * coercivity + 1) + 2
    a1 = (1 + gronwall * horizon * math.exp(gronwall * horizon)) * (
        (lipschitz**2 + 1) / (coercivity + 0.5) + horizon / 2
    )
    a2 = horizon / 2 * a1 + 1
    a3 = a2 / (coercivity + 0.5)
    return a1 + a2 + a3 + 0.5


class TestStabilityConstants:
    def test_unit_constants_exponent(self):
        constants = bh.compute_stability_constant(1.0, 1.0, 1.0)
        # (1 + 1) / (2 + 1) + 2 = 8/3 by direct substitution.
        assert constants.gronwall_exponent == pytest.approx(8.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize(
        "lip,coer,T",
        [(1.0, 1.0, 1.0), (0.5, 0.25, 2.0), (2.0, 1.0, 0.5), (1.25, 1.0, 1.0)],
    )
    def test_cross_check_against_independent_evaluation(self, lip, coer, T):
        constants = bh.compute_stability_constant(lip, coer, T)
        exponent, constant = reference_stability_constant(lip, coer, T)
        assert constants.gronwall_exponent == pytest.approx(exponent, rel=1e-12)
        assert constants.stability_constant == pytest.approx(constant, rel=1e-12)
        assert constants.stability_constant == pytest.approx(
            chain_assembled_constant(lip, coer, T), rel=1e-12
        )

    def test_monotone_in_horizon(self):
        horizons = np.linspace(0.1, 3.0, 25)
        values = [bh.compute_stability_constant(1.0, 1.0, T).stability_constant for T in horizons]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_positive_and_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lip, coer, T = rng.uniform(0.05, 3.0, size=3)
            constants = bh.compute_stability_constant(lip, coer, T)
            assert 0 < constants.stability_constant < math.inf
            assert 0 < constants.gronwall_exponent < math.inf

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(InvalidConfigError):
            bh.compute_stability_constant(0.0, 1.0, 1.0)
        with pytest.raises(InvalidConfigError):
            bh.compute_stability_constant(1.0, 1.0, -1.0)


class TestMcExpectation:
    def test_deterministic_functional_has_zero_stderr(self):
        mean, stderr = bh.mc_expectation(lambda seed, pid: 3.25, 16, 0)
        assert mean == 3.25
        assert stderr == 0.0

    def test_first_increment_second_moment(self):
        grid = bh.build_time_grid(0.01, 1)

        def sample(seed, pid):
            return bh.sample_path(grid, seed, pid).increments[0] ** 2

        mean, stderr = bh.mc_expectation(sample, 10**4, 42)
        assert abs(mean - grid.dt) <= 4 * stderr

    def test_repeatability(self):
        grid = bh.build_time_grid(1.0, 4)

        def sample(seed, pid):
            return float(bh.sample_path(grid, seed, pid).increments.sum())

        assert bh.mc_expectation(sample, 64, 7) == bh.mc_expectation(sample, 64, 7)

    def test_requires_two_paths(self):
        with pytest.raises(InvalidConfigError):
            bh.mc_expectation(lambda seed, pid: 0.0, 1, 0)


@pytest.fixture(scope="module")
def noisy_setup(ops65, unit_nl, cos_field):
    return bh.AdditiveSetup(
        ops=ops65,
        nonlinearity=unit_nl,
        theta0=cos_field,
        chi0=cos_field,
        integrand="cos(pi*x)*(1+t)",
    )


@pytest.fixture(scope="module")
def zero_setup(ops65, unit_nl):
    zero = np.zeros(65)
    return bh.AdditiveSetup(
        ops=ops65, nonlinearity=unit_nl, theta0=zero, chi0=zero, integrand="0"
    )


class TestGridDifferenceRates:
    def test_zero_data_degenerates(self, zero_setup):
        study = bh.grid_difference_rates(zero_setup, 1.0, [0.25, 0.125, 0.0625], 4, 0)
        assert all(e == 0.0 for e in study.theta.errors)
        assert all(e == 0.0 for e in study.chi.errors)
        assert study.theta.slope is None and study.chi.slope is None

    def test_deterministic_smooth_data_first_order(self, ops65, unit_nl, cos_field):
        # Without noise the increments are O(dt) pathwise, so the
        # interpolant gap scales like dt.
        setup = bh.AdditiveSetup(
            ops=ops65, nonlinearity=unit_nl, theta0=cos_field, chi0=cos_field,
            integrand="0",
        )
        study = bh.grid_difference_rates(
            setup, 1.0, [2**-3, 2**-4, 2**-5, 2**-6], 4, 0
        )
        assert study.theta.slope == pytest.approx(1.0, abs=0.2)
        assert study.chi.slope == pytest.approx(1.0, abs=0.2)

    def test_noisy_chi_rate(self, noisy_setup):
        # The coarsest levels are pre-asymptotic; the ladder matches the one
        # the shipped threshold was calibrated on.
        study = bh.grid_difference_rates(
            noisy_setup, 1.0, [2**-4, 2**-5, 2**-6, 2**-7, 2**-8], 8, 1
        )
        assert study.chi.slope >= 0.4
        assert all(se >= 0 for se in study.chi.standard_errors)

    def test_requires_three_levels(self, noisy_setup):
        with pytest.raises(InvalidConfigError):
            bh.grid_difference_rates(noisy_setup, 1.0, [0.25, 0.125], 4, 0)

    def test_rejects_nondividing_levels(self, noisy_setup):
        with pytest.raises(InvalidConfigError):
            bh.grid_difference_rates(noisy_setup, 1.0, [0.25, 0.2, 0.1], 4, 0)


@pytest.mark.parametrize("estimator", ["energy_estimate_check", "grid_difference_rates",
                                       "self_convergence"])
def test_missing_dt_levels_is_a_config_error(noisy_setup, estimator):
    with pytest.raises(InvalidConfigError, match="dt levels, got 0"):
        getattr(bh, estimator)(noisy_setup, 1.0, None, 4, 0)


@pytest.mark.parametrize("estimator", ["energy_estimate_check", "grid_difference_rates",
                                       "self_convergence"])
@pytest.mark.parametrize("dt", [0.0, 1e-320, math.nan])
def test_dt_level_that_cannot_divide_is_a_config_error(noisy_setup, estimator, dt):
    # These levels raised a bare ZeroDivisionError, OverflowError and
    # ValueError before the estimators shared the config's rule.
    with pytest.raises(InvalidConfigError,
                       match=f"dt level {dt} does not divide the horizon T = 1.0"):
        getattr(bh, estimator)(noisy_setup, 1.0, [0.5, 0.25, dt], 4, 0)


@pytest.mark.parametrize("estimator", ["energy_estimate_check", "grid_difference_rates",
                                       "self_convergence"])
def test_ladder_is_rejected_before_its_grids_are_built(noisy_setup, estimator):
    # 4 steps do not divide the finer 10**7 + 2: the ladder fails on its
    # step counts, without building the 10**7 + 3 nodes of the finer grid.
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfigError,
                           match="level with 4 steps does not divide the finer 10000002"):
            getattr(bh, estimator)(noisy_setup, 1.0, [0.5, 0.25, 1.0 / (10**7 + 2)], 4, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class TestSelfConvergence:
    def test_constant_data_closed_form(self, ops_small):
        # Spatially constant data with constant additive noise: theta is the
        # deterministic recursion, and the final chi gap between two levels
        # has known mean square (V^c - V^f)^2 + (dt_c - dt_f), because the
        # accumulated sums differ only through w(dt_c) - w(dt_f).
        nl = bh.linear(1.0)
        ones = np.ones(ops_small.node_count)
        setup = bh.AdditiveSetup(
            ops=ops_small, nonlinearity=nl, theta0=ones,
            chi0=np.zeros(ops_small.node_count), integrand="1",
        )
        dts = [2**-3, 2**-4]
        study = bh.self_convergence(setup, 1.0, dts, 256, 5)

        def recursion(steps):
            dt = 1.0 / steps
            theta, v = 1.0, 0.0
            for _ in range(steps):
                theta /= 1.0 + dt / 2.0
                v += dt * theta / 2.0
            return theta, v

        theta_c, v_c = recursion(8)
        theta_f, v_f = recursion(16)
        assert study.theta.errors[0] == pytest.approx(abs(theta_c - theta_f), rel=1e-9)
        expected_chi_sq = (v_c - v_f) ** 2 + (dts[0] - dts[1])
        observed_sq = study.chi.errors[0] ** 2
        stderr_sq = 2.0 * study.chi.errors[0] * study.chi.standard_errors[0]
        assert abs(observed_sq - expected_chi_sq) <= 4 * stderr_sq + 1e-12

    def test_constant_data_rates(self, ops_small):
        nl = bh.linear(1.0)
        ones = np.ones(ops_small.node_count)
        setup = bh.AdditiveSetup(
            ops=ops_small, nonlinearity=nl, theta0=ones,
            chi0=np.zeros(ops_small.node_count), integrand="1",
        )
        study = bh.self_convergence(
            setup, 1.0, [2**-3, 2**-4, 2**-5, 2**-6], 64, 6
        )
        assert study.theta.slope == pytest.approx(1.0, abs=0.15)
        assert study.chi.slope >= 0.4

    def test_generic_rates(self, noisy_setup):
        study = bh.self_convergence(
            noisy_setup, 1.0, [2**-4, 2**-5, 2**-6], 16, 7
        )
        assert study.theta.slope >= 0.4
        assert study.chi.slope >= 0.4


class TestStabilityCheck:
    def test_identical_integrands_vanish(self, noisy_setup):
        grid = bh.build_time_grid(1.0, 16)
        report = bh.stability_check(noisy_setup, noisy_setup.integrand, grid, 4, 0)
        assert np.all(report.lhs == 0.0)
        assert report.max_ratio == 0.0
        assert report.passed

    def test_generic_ratio_below_one(self, noisy_setup):
        grid = bh.build_time_grid(1.0, 32)
        report = bh.stability_check(noisy_setup, "cos(pi*x)", grid, 16, 1)
        assert report.passed
        assert report.max_ratio <= 1.0

    def test_quadratic_scaling_in_integrand_difference(self, noisy_setup):
        # With linear alpha the coupled difference system is linear in
        # h - hhat, so doubling the gap quadruples the monitored quantity:
        # hhat2 = cos(pi x)(1 - t) doubles the gap of hhat = cos(pi x).
        grid = bh.build_time_grid(1.0, 16)
        single = bh.stability_check(noisy_setup, "cos(pi*x)", grid, 4, 2)
        double = bh.stability_check(noisy_setup, "cos(pi*x)*(1-t)", grid, 4, 2)
        mask = single.lhs > 1e-16
        ratios = double.lhs[mask] / single.lhs[mask]
        assert np.allclose(ratios, 4.0, rtol=1e-5)


class TestEnergyCheck:
    def test_zero_data_zero_statistic(self, zero_setup):
        report = bh.energy_estimate_check(zero_setup, 1.0, [0.25, 0.125], 4, 0)
        assert all(s == 0.0 for s in report.statistics)
        assert report.passed

    def test_deterministic_limit(self, ops65, unit_nl, cos_field):
        # Without noise the aggregate approaches its continuum value; the
        # two finest levels agree within ten percent.
        setup = bh.AdditiveSetup(
            ops=ops65, nonlinearity=unit_nl, theta0=cos_field, chi0=cos_field,
            integrand="0",
        )
        report = bh.energy_estimate_check(setup, 1.0, [2**-5, 2**-6], 2, 0)
        a, b = report.statistics
        assert abs(a - b) <= 0.1 * max(a, b)
        assert all(se == 0.0 for se in report.standard_errors)

    def test_noisy_bounded(self, noisy_setup):
        report = bh.energy_estimate_check(
            noisy_setup, 1.0, [2**-4, 2**-5, 2**-6], 16, 3
        )
        assert report.passed


@pytest.mark.parametrize("study", [
    lambda setup: bh.grid_difference_rates(setup, 0.5, [2**-2, 2**-3, 2**-4], 2, 1),
    lambda setup: bh.self_convergence(setup, 0.5, [2**-2, 2**-3], 2, 1),
    lambda setup: bh.stability_check(setup, "0", bh.build_time_grid(0.5, 4), 2, 1),
], ids=["grid_difference", "self_convergence", "stability"])
def test_studies_that_read_no_u_form_no_partial_sums(noisy_setup, study, monkeypatch):
    calls = []
    monkeypatch.setattr(stepper, "partial_sums", lambda *args: calls.append(args))
    study(noisy_setup)
    assert calls == []


def per_step_defects(traj, path, integrand, ops, nl):
    """The weak-identity defects, one step at a time with one ``np.dot``
    per mass total, as ``weak_identity_defects`` once computed them."""
    mass = ops.lumped_mass
    dt = traj.grid.dt
    conservation = np.empty(traj.grid.steps)
    balance = np.empty(traj.grid.steps)
    for n in range(traj.grid.steps):
        before = float(np.dot(mass, traj.theta[n] + traj.chi[n]))
        after = float(np.dot(mass, traj.theta[n + 1] + traj.chi[n + 1]))
        injected = float(path.increments[n]) * float(np.dot(mass, integrand.values[n]))
        conservation[n] = abs(after - (before + injected)) / (
            1.0 + max(abs(after), abs(before + injected))
        )
        u_next = (traj.u[n + 1] - traj.u[n]) / dt
        lhs = float(np.dot(mass, nl.alpha_tilde(u_next)))
        rhs = float(np.dot(mass, traj.theta[n + 1]))
        balance[n] = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
    return conservation, balance


class TestWeakIdentityDefects:
    @pytest.mark.parametrize("config", ["additive.ini", "ramp.ini", "solve2d.ini"])
    def test_bits_of_the_per_step_loop(self, config):
        directory = "perfbench" if config == "solve2d.ini" else "demos"
        config = parse_config(os.path.join(ROOT, directory, "configs", config))
        grid = bh.build_time_grid(config.horizon, config.steps)
        path = bh.sample_path(grid, 7, 0)
        integrand = bh.discretize_integrand(config.integrand, grid, config.ops)
        setup = bh.AdditiveSetup(ops=config.ops, nonlinearity=config.nonlinearity,
                                 theta0=config.theta0, chi0=config.chi0,
                                 integrand=config.integrand, tol=config.inner_tol,
                                 newton_tol=config.newton_tol)
        traj = bh.simulate(setup, grid, path, integrand)
        got = bh.weak_identity_defects(traj, config.ops, config.nonlinearity)
        expected = per_step_defects(traj, path, integrand, config.ops, config.nonlinearity)
        for g, e in zip(got, expected):
            assert g.shape == e.shape == (grid.steps,) and g.tobytes() == e.tobytes()

    def test_reported_defects_are_small(self, noisy_setup, ops65, unit_nl):
        grid = bh.build_time_grid(1.0, 16)
        path = bh.sample_path(grid, 9, 0)
        integ = bh.discretize_integrand(noisy_setup.integrand, grid, ops65)
        traj = bh.simulate(noisy_setup, grid, path, integrand=integ)
        conservation, balance = bh.weak_identity_defects(traj, ops65, unit_nl)
        assert conservation.shape == (16,)
        assert conservation.max() <= 1e-10
        assert balance.max() <= 1e-9
