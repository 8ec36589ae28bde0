import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import barenheat as bh
from barenheat.errors import InvalidConfigError


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

    def test_thread_count_invisible(self):
        grid = bh.build_time_grid(1.0, 16)

        def sample(seed, pid):
            return bh.sample_path(grid, seed, pid).increments.cumsum()

        serial = bh.mc_expectation(sample, 32, 3, threads=1)
        pooled = bh.mc_expectation(sample, 32, 3, threads=4)
        assert np.array_equal(serial[0], pooled[0])
        assert np.array_equal(serial[1], pooled[1])

    def test_pool_sharing_one_operator_set_matches_serial(self):
        # More threads than cores share one operator set and its factor
        # cache; even paths reuse the linear-alpha factors, odd ones churn
        # the cache with saturating-alpha Jacobians.  A lost or mixed-up
        # factor would change some path's numbers.
        grid = bh.build_time_grid(1.0, 16)
        nls = (bh.linear(1.0), bh.saturating(2.0))

        def make_sample(ops):
            data = bh.evaluate_on_mesh("cos(pi*x)", ops)
            integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)

            def sample(seed, pid):
                path = bh.sample_path(grid, seed, pid)
                traj = bh.run_additive(data, data, integ, path, grid, ops, nls[pid % 2])
                return np.concatenate([traj.theta[-1], traj.chi[-1]])

            return sample

        serial = bh.mc_expectation(make_sample(bh.build_operators(1, 16, 1.0)), 24, 9)
        threads = min(4 * (os.cpu_count() or 1), 16)
        outer = ThreadPoolExecutor(max_workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            future = outer.submit(bh.mc_expectation, make_sample(bh.build_operators(1, 16, 1.0)),
                                  24, 9, threads=threads)
            pooled = future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            outer.shutdown(wait=False)
        assert np.array_equal(pooled[0], serial[0])
        assert np.array_equal(pooled[1], serial[1])

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


class TestWeakIdentityDefects:
    def test_reported_defects_are_small(self, noisy_setup, ops65, unit_nl):
        grid = bh.build_time_grid(1.0, 16)
        path = bh.sample_path(grid, 9, 0)
        integ = bh.discretize_integrand(noisy_setup.integrand, grid, ops65)
        traj = bh.simulate(noisy_setup, grid, path, integrand=integ)
        conservation, balance = bh.weak_identity_defects(traj, path, integ, ops65, unit_nl)
        assert conservation.shape == (16,)
        assert conservation.max() <= 1e-10
        assert balance.max() <= 1e-9
