import math
import os
from dataclasses import replace

import numpy as np
import pytest

import barenheat as bh
from barenheat.config import parse_config
from barenheat.errors import FieldShapeError, InvalidConfigError, NonConvergenceError
from barenheat.stepper import _Dense, _Row, _step_plan, _step_rows

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "demos", "configs",
                           "multiplicative.ini")


@pytest.fixture(scope="module")
def grid32():
    return bh.build_time_grid(1.0, 32)


def modulus_quarter_config(horizon=1.0, weight=8.0, **kwargs):
    """Affine scale chosen so 4 * stability_constant * sigma^2 / a = 1/4."""
    constants = bh.compute_stability_constant(1.0, 1.0, horizon)
    sigma = float(np.sqrt(0.25 * weight / (4.0 * constants.stability_constant)))
    config = bh.PicardConfig(weight=weight, **kwargs)
    return sigma, config


class TestEvaluateH:
    def test_degenerate_scale_ignores_chi(self, ops65, cos_field):
        noise_map = bh.affine_map(0.0, cos_field)
        rng = np.random.default_rng(0)
        for _ in range(3):
            chi = rng.standard_normal(65)
            assert np.array_equal(bh.evaluate_H(noise_map, chi), cos_field)

    def test_linear_map_at_zero(self, ops65):
        noise_map = bh.affine_map(1.0)
        assert np.all(bh.evaluate_H(noise_map, np.zeros(65)) == 0.0)

    def test_offset_shape_checked(self, ops65):
        noise_map = bh.affine_map(1.0, np.zeros(7))
        with pytest.raises(FieldShapeError):
            bh.evaluate_H(noise_map, np.zeros(65))

    @pytest.mark.parametrize("kind", ["affine", "damped"])
    def test_block_equals_stacked_rows(self, cos_field, kind):
        noise_map = bh.affine_map(0.35, cos_field) if kind == "affine" else bh.damped_map(0.5)
        block = np.random.default_rng(5).standard_normal((6, 65))
        stacked = np.stack([bh.evaluate_H(noise_map, row) for row in block])
        assert np.array_equal(bh.evaluate_H(noise_map, block), stacked)

    def test_offset_shape_checked_on_a_block(self):
        noise_map = bh.affine_map(1.0, np.zeros(7))
        with pytest.raises(FieldShapeError):
            bh.evaluate_H(noise_map, np.zeros((4, 65)))

    def test_affine_lipschitz_audit_exact(self, ops65, cos_field):
        noise_map = bh.affine_map(0.35, cos_field)
        worst = bh.lipschitz_audit(noise_map, ops65, samples=30, seed=1)
        assert worst <= 0.35 + 1e-12
        assert worst == pytest.approx(0.35, rel=1e-12)

    def test_pointwise_map_l2_bound(self, ops65):
        # Nodewise Lipschitz maps respect the L2 bound; the declared
        # constant must also absorb the sampled H1 quotients.
        noise_map = bh.damped_map(0.5, lipschitz=1.5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.standard_normal(65)
            v = rng.standard_normal(65)
            image = bh.evaluate_H(noise_map, u) - bh.evaluate_H(noise_map, v)
            assert bh.l2_norm(image, ops65) <= 0.5 * bh.l2_norm(u - v, ops65) + 1e-12
        assert bh.lipschitz_audit(noise_map, ops65, samples=40, seed=3) <= noise_map.lipschitz


class TestDeclaredConstant:
    def test_affine_constant_below_scale_is_rejected_by_the_map(self):
        # picard_solve accepted this map and reported a modulus of 0.0067,
        # while the ratios of its W differences reached 0.198.
        with pytest.raises(InvalidConfigError, match=r"exact constant \|scale\| = 0.9"):
            replace(bh.affine_map(0.9), lipschitz=0.01)
        with pytest.raises(InvalidConfigError, match="declared lipschitz 0.5 is below"):
            bh.MultiplicativeMap(lipschitz=0.5, scale=-0.9)
        assert replace(bh.affine_map(-0.9), lipschitz=0.95).lipschitz == 0.95

    @pytest.mark.parametrize("build", [
        lambda: bh.MultiplicativeMap(lipschitz=math.inf),
        lambda: bh.MultiplicativeMap(lipschitz=math.nan, psi=np.tanh),
        lambda: bh.affine_map(math.inf),
        lambda: bh.damped_map(math.nan),
        lambda: bh.damped_map(math.inf),
        lambda: bh.damped_map(math.inf, lipschitz=1.0),
    ], ids=["map-inf", "map-nan", "affine-inf", "damped-nan", "damped-inf", "damped-inf-declared"])
    def test_non_finite_constants_rejected(self, build):
        with pytest.raises(InvalidConfigError, match="finite"):
            build()

    def test_kind_follows_the_scalar_function(self):
        assert bh.MultiplicativeMap(lipschitz=0.1, psi=np.tanh).kind == "pointwise"
        assert bh.damped_map(0.1).kind == "pointwise"
        assert bh.affine_map(0.1).kind == "affine"

    def test_nan_quotient_fails_the_audit(self, ops65):
        # max() kept the finite worst over a NaN quotient, so this map
        # passed its audit at exactly its declared constant.
        def psi(v):
            return np.where(np.abs(v) > 1.0, np.nan, 0.05 * v)

        noise_map = bh.MultiplicativeMap(lipschitz=0.05, psi=psi)
        assert bh.lipschitz_audit(noise_map, ops65, 64, seed=0) == math.inf


def test_picard_report_derives_iterations_and_ratios():
    report = bh.PicardReport(w_differences=[2.0, 1.0, 0.0, 0.0], wall_times=[0.0] * 4,
                             modulus=0.25)
    assert report.iterations == 4
    assert report.ratios == [0.5, 0.0, 0.0]


class TestWeightedNorm:
    def test_equivalence_with_unweighted(self, ops65, grid32):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((33, 65))
        weight = 3.0
        weighted = bh.weighted_norm(values, grid32, ops65, weight) ** 2
        unweighted = sum(
            grid32.dt * (bh.l2_norm(values[n], ops65) ** 2 + bh.h1_seminorm(values[n], ops65) ** 2)
            for n in range(1, 33)
        )
        assert np.exp(-weight * grid32.horizon) * unweighted <= weighted * (1 + 1e-12)
        assert weighted <= unweighted * (1 + 1e-12)

    def test_zero_on_identical_iterates(self, ops65, grid32):
        values = np.zeros((33, 65))
        assert bh.weighted_norm(values, grid32, ops65, 2.0) == 0.0

    @pytest.mark.parametrize("shape", [(8, 9), (20, 9), (9, 8), (9,)],
                             ids=["short", "long", "narrow", "one-field"])
    def test_record_of_another_shape_rejected(self, ops_small, shape):
        grid = bh.build_time_grid(1.0, 8)
        with pytest.raises(FieldShapeError, match=r"expects \(9, 9\)"):
            bh.weighted_norm(np.ones(shape), grid, ops_small, 1.0)

    def test_record_of_every_node_keeps_its_sum(self, ops_small):
        grid, values = bh.build_time_grid(1.0, 8), np.ones((9, 9))
        total = 0.0
        for n in range(1, 9):
            total += grid.dt * np.exp(-grid.nodes[n]) * (
                bh.l2_norm(values[n], ops_small) ** 2 + bh.h1_seminorm(values[n], ops_small) ** 2)
        assert bh.weighted_norm(values, grid, ops_small, 1.0) == math.sqrt(total)


class TestPicardConfig:
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("name", ["weight", "tolerance"])
    def test_weight_and_tolerance_must_be_finite_and_positive(self, name, value):
        kwargs = {"weight": 8.0, name: value}
        with pytest.raises(InvalidConfigError, match=f"{name} must be finite and positive"):
            bh.PicardConfig(**kwargs)

    def test_invalid_values(self):
        with pytest.raises(InvalidConfigError):
            bh.PicardConfig(weight=0.0)
        with pytest.raises(InvalidConfigError):
            bh.PicardConfig(weight=1.0, tolerance=0.0)
        with pytest.raises(InvalidConfigError):
            bh.PicardConfig(weight=1.0, max_iterations=0)

    def test_fractional_iteration_cap_rejected(self):
        with pytest.raises(InvalidConfigError, match="integer >= 1"):
            bh.PicardConfig(weight=8.0, max_iterations=2.5)

    def test_weight_condition_enforced(self, ops65, unit_nl, cos_field, grid32):
        path = bh.sample_path(grid32, 0, 0)
        config = bh.PicardConfig(weight=1e-6)
        with pytest.raises(InvalidConfigError, match="weight"):
            bh.picard_solve(
                cos_field, cos_field, bh.affine_map(0.5), path,
                grid32, ops65, unit_nl, config,
            )

    def test_weight_condition_override(self, ops65, unit_nl, cos_field, grid32):
        path = bh.sample_path(grid32, 0, 0)
        config = bh.PicardConfig(weight=1e-6, override_condition=True, max_iterations=40)
        traj, report = bh.picard_solve(
            cos_field, cos_field, bh.affine_map(0.01), path,
            grid32, ops65, unit_nl, config,
        )
        assert report.w_differences[-1] <= config.tolerance


class TestPicardSolve:
    def test_degenerate_scale_one_shot(self, ops65, unit_nl, cos_field, grid32):
        # A constant map makes iterates 1 and 2 identical, so the second
        # weighted difference is exactly zero.
        sigma, config = modulus_quarter_config()
        path = bh.sample_path(grid32, 5, 0)
        _, report = bh.picard_solve(
            cos_field, cos_field, bh.affine_map(0.0, cos_field), path,
            grid32, ops65, unit_nl, config,
        )
        assert report.iterations == 2
        assert report.w_differences[-1] == 0.0

    def test_degenerate_scale_matches_additive_bitwise(self, ops65, unit_nl, cos_field, grid32):
        sigma, config = modulus_quarter_config()
        path = bh.sample_path(grid32, 5, 1)
        integ = bh.discretize_integrand("cos(pi*x)", grid32, ops65)
        additive = bh.run_additive(cos_field, cos_field, integ, path, grid32, ops65, unit_nl)
        fixed, _ = bh.picard_solve(
            cos_field, cos_field, bh.affine_map(0.0, cos_field), path,
            grid32, ops65, unit_nl, config,
        )
        assert np.array_equal(additive.theta, fixed.theta)
        assert np.array_equal(additive.chi, fixed.chi)

    def test_geometric_decay_within_modulus(self, ops65, unit_nl, cos_field, grid32):
        sigma, config = modulus_quarter_config()
        path = bh.sample_path(grid32, 6, 0)
        _, report = bh.picard_solve(
            cos_field, cos_field, bh.affine_map(sigma), path,
            grid32, ops65, unit_nl, config,
        )
        assert report.modulus == pytest.approx(0.25, rel=1e-12)
        assert all(r <= 0.25 * 1.1 for r in report.ratios)

    def test_fixed_point_residual(self, ops65, unit_nl, cos_field, grid32):
        # One more sweep after convergence moves the trajectory by at most
        # tolerance / (1 - modulus) in the weighted norm.
        sigma, config = modulus_quarter_config(tolerance=1e-9)
        path = bh.sample_path(grid32, 7, 0)
        noise_map = bh.affine_map(sigma)
        fixed, report = bh.picard_solve(
            cos_field, cos_field, noise_map, path, grid32, ops65, unit_nl, config,
        )
        values = np.zeros((grid32.steps, ops65.node_count))
        for n in range(1, grid32.steps):
            values[n] = bh.evaluate_H(noise_map, fixed.chi[n])
        integ = bh.AdditiveIntegrand(grid=grid32, values=values)
        again = bh.run_additive(cos_field, cos_field, integ, path, grid32, ops65, unit_nl)
        drift = bh.weighted_norm(again.chi - fixed.chi, grid32, ops65, config.weight)
        assert drift <= config.tolerance / (1.0 - report.modulus)

    @pytest.mark.parametrize("shape", [(8,), (2, 9)], ids=["field-8", "block-2x9"])
    @pytest.mark.parametrize("kind", ["affine", "affine-offset", "damped"])
    def test_initial_shapes_checked_at_the_call(self, ops_small, unit_nl, kind, shape):
        sigma, config = modulus_quarter_config()
        noise_map = {"affine": bh.affine_map(sigma),
                     "affine-offset": bh.affine_map(sigma, np.ones(9)),
                     "damped": bh.damped_map(sigma)}[kind]
        grid = bh.build_time_grid(1.0, 8)
        with pytest.raises(FieldShapeError, match=r"chi0 has shape .*expect \(9,\)"):
            bh.picard_solve(np.zeros(9), np.zeros(shape), noise_map, bh.sample_path(grid, 5, 0),
                            grid, ops_small, unit_nl, config)

    def test_iteration_cap(self, ops65, unit_nl, cos_field, grid32):
        sigma, config = modulus_quarter_config(tolerance=1e-16, max_iterations=2)
        path = bh.sample_path(grid32, 8, 0)
        with pytest.raises(NonConvergenceError):
            bh.picard_solve(
                cos_field, cos_field, bh.affine_map(sigma), path,
                grid32, ops65, unit_nl, config,
            )

    def test_predictability_of_frozen_integrand(self, ops65, unit_nl, cos_field, grid32):
        # The integrand value used with increment n must not depend on
        # increments >= n: truncating the path after step n of a converged
        # iterate leaves values[0..n] unchanged on the next sweep.
        sigma, config = modulus_quarter_config()
        path = bh.sample_path(grid32, 9, 0)
        fixed, _ = bh.picard_solve(
            cos_field, cos_field, bh.affine_map(sigma), path,
            grid32, ops65, unit_nl, config,
        )
        cut = 16
        short_grid = bh.build_time_grid(grid32.horizon * cut / grid32.steps, cut)
        short_path = bh.BrownianPath(
            grid=short_grid, increments=path.increments[:cut].copy(),
            seed=path.seed, path_id=path.path_id,
        )
        short_config = bh.PicardConfig(weight=config.weight, tolerance=config.tolerance,
                                       max_iterations=config.max_iterations)
        short_fixed, _ = bh.picard_solve(
            cos_field, cos_field, bh.affine_map(sigma), short_path,
            short_grid, ops65, unit_nl, short_config,
        )
        # Same increments up to the cut produce the same fields up to the cut.
        assert np.allclose(short_fixed.chi[: cut + 1], fixed.chi[: cut + 1], atol=1e-7)


def causal_pass(theta0, chi0, noise_map, path, grid, ops, nl, tol, newton_tol):
    """One forward pass that computes h_n = H(chi_n) just before step n
    (h_0 = 0): the discrete fixed point the Picard iteration converges to.
    One row of the step driver, whose integrand it fills from its own chi."""
    values = np.zeros((grid.steps, ops.node_count))
    record = _Dense.start(theta0[None], chi0[None], grid, [path],
                          bh.AdditiveIntegrand(grid=grid, values=values))
    row = _Row(path.increments[None], values, record, step=0)
    plan = _step_plan(grid, ops, nl, tol, newton_tol)
    for n in range(grid.steps):
        if n:
            row.values[n] = bh.evaluate_H(noise_map, record.chi[0, n])
        _step_rows(plan, [row])
    return record.chi[0]


@pytest.mark.parametrize("seed", [7, 11, 2024])
def test_picard_limit_is_the_causal_pass(seed):
    # A contraction with modulus q places the fixed point within
    # q / (1 - q) times the last difference of the last iterate.  Both
    # sides stop their inner iterations once chi moves by at most the
    # inner tolerance, so neither is resolved finer than that.
    config = parse_config(DEMO_CONFIG)
    grid = bh.build_time_grid(config.horizon, config.steps)
    path = bh.sample_path(grid, seed, 0)
    args = (config.theta0, config.chi0, config.noise_map, path, grid, config.ops,
            config.nonlinearity)
    fixed, report = bh.picard_solve(*args, config.picard, tol=config.inner_tol,
                                    newton_tol=config.newton_tol)
    causal = causal_pass(*args, config.inner_tol, config.newton_tol)
    distance = bh.weighted_norm(fixed.chi - causal, grid, config.ops, config.picard.weight)
    bound = report.modulus / (1.0 - report.modulus) * report.w_differences[-1]
    assert distance <= bound + config.inner_tol
