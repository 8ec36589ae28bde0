"""Records derive their verdicts and derived constants from their own fields,
so a hand-built or edited record cannot contradict its numbers."""

import dataclasses
import math
import os
import re

import numpy as np
import pytest

import barenheat as bh
from barenheat.config import parse_config
from barenheat.errors import InvalidConfigError

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


def test_energy_report_that_grows_past_the_slack_fails():
    # 1.0 -> 1.5 grows by 50%, past the 25% slack and 4 * hypot(0.01, 0.01).
    report = bh.EnergyReport(dts=[0.5, 0.25], statistics=[1.0, 1.5],
                             standard_errors=[0.01, 0.01])
    assert report.passed is False
    report.statistics = [1.0, 1.1]
    assert report.passed is True


# A NaN compares False, so the growth test alone passes a blown-up level.
@pytest.mark.parametrize("statistics, standard_errors", [
    ([1.0, math.nan], [0.0, 0.0]), ([math.nan], [0.0]), ([1.0, 1.1], [0.0, math.inf])])
def test_energy_report_with_a_non_finite_number_fails(statistics, standard_errors):
    report = bh.EnergyReport(dts=[0.5, 0.25][:len(statistics)], statistics=statistics,
                             standard_errors=standard_errors)
    assert report.passed is False


def test_rate_report_with_a_nan_error_has_no_slope():
    # The two finite levels alone would fit a passing slope of 1.0.
    report = bh.RateReport(dts=[0.5, 0.25, 0.125], errors=[1.0, math.nan, 0.25],
                           standard_errors=[0.0, 0.0, 0.0])
    assert report.slope is None
    # An exact zero stays out of the fit.
    report.errors[1] = 0.0
    assert report.slope == pytest.approx(1.0)


def test_stability_report_needs_a_vanishing_lhs_where_rhs_is_zero():
    constants = bh.compute_stability_constant(1.0, 1.0, 1.0)
    report = bh.StabilityReport(
        times=np.array([0.0, 0.5, 1.0]), lhs=np.array([1e-17, 0.2, 0.3]),
        lhs_se=np.zeros(3), rhs=np.array([0.0, 1.0, 0.5]), constants=constants)
    assert report.passed is False
    assert report.max_ratio == 0.3 / 0.5
    report.lhs[0] = 0.0
    assert report.passed is True


def test_conformance_report_with_a_nan_quotient_is_not_monotone():
    report = bh.ConformanceReport(worst_lipschitz_quotient=1.0,
                                  worst_coercivity_quotient=math.nan, alpha_at_zero=0.0,
                                  lipschitz=1.0, coercivity=1.0)
    assert not report.monotone
    assert not report.coercivity_ok
    assert not report.passed
    # No sampled pair leaves an infinite coercivity quotient, which is monotone.
    assert dataclasses.replace(report, worst_coercivity_quotient=math.inf).monotone


def test_stability_constants_follow_their_inputs():
    horizon = 0.75
    constants = bh.StabilityConstants(1.0, 1.0, horizon)
    # (1 + 1) / (2 + 1) + 2 by direct substitution.
    assert constants.gronwall_exponent == 8.0 / 3.0
    assert constants.stability_constant == bh.compute_stability_constant(
        1.0, 1.0, horizon).stability_constant


# Coercivity -0.5 divides by zero on read, and -1.0 gives a bound of -2.25.
@pytest.mark.parametrize("coercivity", [-0.5, -1.0])
def test_stability_constants_check_their_inputs(coercivity):
    with pytest.raises(InvalidConfigError, match="stability constants need positive"):
        bh.StabilityConstants(1.0, coercivity, 1.0)


# An infinite input made an infinite bound, which every ratio passes.
@pytest.mark.parametrize("inputs", [(1.0, 1.0, math.inf), (math.inf, 1.0, 1.0),
                                    (1.0, math.inf, 1.0), (1.0, math.nan, 1.0)])
def test_stability_constants_need_finite_inputs(inputs):
    with pytest.raises(InvalidConfigError, match="need positive, finite lipschitz"):
        bh.StabilityConstants(*inputs)


# exp(g T) overflowed into a bare OverflowError past g T = 709.  The
# constant overflows a little earlier: past T = 259.87 for linear alpha
# with c = 1, whose g is 8/3.
@pytest.mark.parametrize("lipschitz, horizon, exponent", [
    (1.0, 400.0, "2.66667"), (1.0, 1e300, "2.66667"), (1e200, 1.0, "inf")])
def test_stability_constant_that_overflows_names_its_horizon(lipschitz, horizon, exponent):
    with pytest.raises(InvalidConfigError, match=re.escape(
            f"exponent g = {exponent} and horizon T = {horizon:.6g}")):
        bh.StabilityConstants(lipschitz, 1.0, horizon)
    assert math.isfinite(bh.StabilityConstants(1.0, 1.0, 250.0).stability_constant)


def test_noise_kind_follows_the_picard_iteration():
    multiplicative = parse_config(os.path.join(CONFIGS, "multiplicative.ini"))
    additive = parse_config(os.path.join(CONFIGS, "additive.ini"))
    assert multiplicative.noise_kind == "multiplicative"
    assert dataclasses.replace(multiplicative, picard=None).noise_kind == "additive"
    assert dataclasses.replace(additive, picard=multiplicative.picard).noise_kind == (
        "multiplicative")


def test_trajectory_grid_is_its_path_grid(ops65):
    grid = bh.build_time_grid(1.0, 4)
    path = bh.sample_path(grid, 3, 0)
    integrand = bh.discretize_integrand("cos(pi*x)", grid, ops65)
    zeros = np.zeros(65)
    traj = bh.run_additive(zeros, zeros, integrand, path, grid, ops65, bh.linear(1.0))
    assert traj.grid == traj.path.grid
    other = bh.sample_path(bh.build_time_grid(1.0, 8), 3, 0)
    assert dataclasses.replace(traj, path=other).grid is other.grid
