import dataclasses
import math
import warnings

import numpy as np
import pytest

import barenheat as bh
from barenheat.diagnostics import _path_statistics
from barenheat.errors import ExpressionError, FieldShapeError, InvalidConfigError


class TestSamplePath:
    def test_identical_keys_are_bit_identical(self):
        grid = bh.build_time_grid(1.0, 32)
        first = bh.sample_path(grid, 42, 7)
        second = bh.sample_path(grid, 42, 7)
        assert np.array_equal(first.increments, second.increments)

    def test_distinct_keys_differ(self):
        grid = bh.build_time_grid(1.0, 32)
        base = bh.sample_path(grid, 42, 7)
        assert not np.array_equal(base.increments, bh.sample_path(grid, 42, 8).increments)
        assert not np.array_equal(base.increments, bh.sample_path(grid, 43, 7).increments)

    def test_increment_count(self):
        grid = bh.build_time_grid(2.0, 9)
        assert bh.sample_path(grid, 0, 0).increments.shape == (9,)

    def test_second_moment_matches_dt(self):
        # One-step grid with dt = 0.01; the squared increment averages to dt.
        grid = bh.build_time_grid(0.01, 1)
        count = 10**5
        squares = np.empty(count)
        for pid in range(count):
            squares[pid] = bh.sample_path(grid, 123, pid).increments[0] ** 2
        stderr = grid.dt * np.sqrt(2.0 / count)
        assert abs(squares.mean() - grid.dt) <= 3 * stderr
        # The square of a N(0, dt) draw has standard deviation sqrt(2) dt,
        # which fixes the standard error the harness reports for the mean.
        _, reported = _path_statistics(squares)
        assert 0.95 <= reported / (math.sqrt(2.0) * grid.dt / math.sqrt(count)) <= 1.05

    def test_mean_is_zero(self):
        grid = bh.build_time_grid(0.01, 1)
        count = 10**5
        values = np.empty(count)
        for pid in range(count):
            values[pid] = bh.sample_path(grid, 9, pid).increments[0]
        assert abs(values.mean()) <= 3 * np.sqrt(grid.dt / count)


@pytest.mark.parametrize("seed, path_id", [(1.5, 0), (-1, 0), (2**64, 0), (0, -1), (0, 2**64)],
                         ids=["fractional-seed", "negative-seed", "wide-seed",
                              "negative-path", "wide-path"])
def test_sample_path_keys_are_unsigned_64_bit_integers(seed, path_id):
    # A fractional seed drew the stream of its integer part; an
    # out-of-range one raised a bare OverflowError.
    with pytest.raises(InvalidConfigError, match="must be an unsigned 64-bit integer"):
        bh.sample_path(bh.build_time_grid(1.0, 4), seed, path_id)


# A path of another length would leave the last nodes of a run unset, or
# index past its increments mid-run.
@pytest.mark.parametrize("count", [5, 12])
def test_a_path_holds_one_increment_per_step(count):
    grid = bh.build_time_grid(1.0, 8)
    expected = rf"shape \({count},\), expected \(8,\)"
    with pytest.raises(FieldShapeError, match=expected):
        bh.BrownianPath(grid=grid, increments=np.zeros(count), seed=0, path_id=0)
    with pytest.raises(FieldShapeError, match=expected):
        dataclasses.replace(bh.sample_path(grid, 0, 0), increments=np.zeros(count))


class TestAggregatePath:
    def test_factor_one_is_identity(self):
        grid = bh.build_time_grid(1.0, 8)
        path = bh.sample_path(grid, 5, 0)
        assert bh.aggregate_path(path, 1) is path

    def test_pairwise_sum(self):
        grid = bh.build_time_grid(1.0, 2)
        path = bh.sample_path(grid, 5, 3)
        coarse = bh.aggregate_path(path, 2)
        assert coarse.grid.steps == 1
        assert coarse.increments[0] == path.increments[0] + path.increments[1]

    def test_aggregated_second_moment(self):
        fine = bh.build_time_grid(1.0, 8)
        factor, count = 4, 4000
        squares = np.empty(count)
        for pid in range(count):
            coarse = bh.aggregate_path(bh.sample_path(fine, 11, pid), factor)
            squares[pid] = coarse.increments[0] ** 2
        expected = factor * fine.dt
        stderr = expected * np.sqrt(2.0 / count)
        assert abs(squares.mean() - expected) <= 4 * stderr

    def test_non_divisible_factor(self):
        path = bh.sample_path(bh.build_time_grid(1.0, 8), 0, 0)
        with pytest.raises(InvalidConfigError):
            bh.aggregate_path(path, 3)


class TestDiscretizeIntegrand:
    def test_constant_has_zero_first_value(self, ops_small):
        grid = bh.build_time_grid(1.0, 4)
        integ = bh.discretize_integrand("2", grid, ops_small)
        assert np.all(integ.values[0] == 0.0)
        assert np.allclose(integ.values[1:], 2.0, rtol=0, atol=0)

    def test_linear_in_time_gives_midpoints(self, ops_small):
        grid = bh.build_time_grid(1.0, 4)
        integ = bh.discretize_integrand("t", grid, ops_small)
        for n in range(1, 4):
            midpoint = 0.5 * (grid.nodes[n - 1] + grid.nodes[n])
            assert np.allclose(integ.values[n], midpoint, rtol=1e-14)

    def test_cubic_in_time_is_exact(self, ops_small):
        # Two-point Gauss integrates cubics exactly: the average of t^3 over
        # [a, b] is (b^4 - a^4) / (4 (b - a)).
        grid = bh.build_time_grid(1.0, 4)
        integ = bh.discretize_integrand("t^3", grid, ops_small)
        for n in range(1, 4):
            a, b = grid.nodes[n - 1], grid.nodes[n]
            assert integ.values[n][0] == pytest.approx((b**4 - a**4) / (4 * (b - a)), rel=1e-13)

    def test_non_finite_value_names_its_first_step(self, ops_small):
        # On [0, 4] with dt = 1 the Gauss points of step 1 give a finite
        # sum 1e308 (t0 + t1) = 1e308; those of step 2 overflow it.
        grid = bh.build_time_grid(4.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError,
                               match=r"noise expression '1e308\*t' is not finite at step 2$"):
                bh.discretize_integrand("1e308*t", grid, ops_small)
            assert np.isfinite(bh.discretize_integrand("1e307*t", grid, ops_small).values).all()

    def test_spatial_cosine(self, ops_small):
        grid = bh.build_time_grid(1.0, 4)
        integ = bh.discretize_integrand("cos(pi*x)", grid, ops_small)
        interpolant = np.cos(np.pi * ops_small.coordinates[:, 0])
        assert np.allclose(integ.values[2], interpolant, rtol=0, atol=1e-15)
        assert bh.h1_seminorm(integ.values[2], ops_small) > 0


# Abscissae of the two-point Gauss rule on [0, 1], as the scheme defines them.
_GAUSS_POINTS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def _per_step_reference(text, grid, ops):
    """h_n from one scalar evaluation per Gauss time, step after step."""
    expr = bh.parse_expression(text)
    values = np.zeros((grid.steps, ops.node_count))
    with np.errstate(all="ignore"):
        for n in range(1, grid.steps):
            left = grid.nodes[n - 1]
            g0, g1 = (expr(float(left + gauss * grid.dt), ops.coordinates)
                      for gauss in _GAUSS_POINTS)
            values[n] = 0.5 * (g0 + g1)
    return values


_MESHES = {"1d": (1, 16, 1.0), "2d": (2, (4, 4), (1.0, 1.0))}
_BLOCK_CASES = [(text, mesh) for text in ["t^2", "(1+t)^3", "(x*t)^2", "(x*t)^3", "cos(t^0)*x",
                                          "-t", "0", "2.5", "cos(pi*x)*(1+t)", "(t*cos(1))^3"]
                for mesh in _MESHES] + [("cos(pi*x)*(1+cos(2*pi*y))*(1+t)^2", "2d"),
                                        ("(x*y*t)^3 - y*t^3", "2d")]


class TestBlockDiscretization:
    """discretize_integrand evaluates each Gauss point at the column of all its
    times; every step must keep the bits of its own scalar evaluation, above
    all where a time-only power is Python's float power, not numpy's."""

    @pytest.mark.parametrize("steps", [1, 2, 257])
    @pytest.mark.parametrize("text, mesh", _BLOCK_CASES)
    def test_bitwise_equal_to_per_step_evaluation(self, text, mesh, steps):
        ops = bh.build_operators(*_MESHES[mesh])
        grid = bh.build_time_grid(1.3, steps)
        values = bh.discretize_integrand(text, grid, ops).values
        assert values.tobytes() == _per_step_reference(text, grid, ops).tobytes()

    @pytest.mark.parametrize("text", ["cos(pi*x)*t^2", "cos(pi*x)*(1+t)^3", "(x*t)^2 + t^3"])
    def test_bitwise_equal_on_a_fine_grid(self, ops65, text):
        # numpy's power of a whole column moves some of these bits.
        grid = bh.build_time_grid(1.0, 4096)
        values = bh.discretize_integrand(text, grid, ops65).values
        assert values.tobytes() == _per_step_reference(text, grid, ops65).tobytes()

    @pytest.mark.parametrize("text, horizon", [("(1e200*t)^2", 1.0), ("(1e154*t)^2", 4.0)])
    def test_python_power_overflow_is_an_expression_error(self, ops_small, text, horizon):
        # The second overflows only at the Gauss times of the last step.
        grid = bh.build_time_grid(horizon, 4)
        message = f"overflow in {text!r}: (34, 'Numerical result out of range')"
        with pytest.raises(ExpressionError) as info:
            bh.discretize_integrand(text, grid, ops_small)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, step", [("(x*1e154*t)^2", 2), ("(1e200*cos(0)*t)^2", 1)])
    def test_numpy_power_overflow_names_its_first_step(self, ops_small, text, step):
        # A spatial base takes numpy's power, and so does a base under cos,
        # whose value at one time is a numpy float: both return inf.
        grid = bh.build_time_grid(4.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError) as info:
                bh.discretize_integrand(text, grid, ops_small)
        assert str(info.value) == f"noise expression {text!r} is not finite at step {step}"

    def test_y_on_a_one_dimensional_mesh_is_an_expression_error(self, ops_small):
        with pytest.raises(ExpressionError, match=r"^'y' is only available on 2D meshes$"):
            bh.discretize_integrand("y*t", bh.build_time_grid(1.0, 4), ops_small)


class TestPartialSums:
    def test_zero_integrand(self, ops_small):
        grid = bh.build_time_grid(1.0, 8)
        path = bh.sample_path(grid, 1, 0)
        sums = bh.partial_sums(path, bh.discretize_integrand("0", grid, ops_small))
        assert np.all(sums == 0.0)

    def test_unit_integrand_telescopes(self, ops_small):
        # With h = 1 the first value is forced to zero, so B_n collects the
        # increments from step 1 on: B_n = w(t_n) - w(t_1).
        grid = bh.build_time_grid(1.0, 8)
        path = bh.sample_path(grid, 2, 0)
        sums = bh.partial_sums(path, bh.discretize_integrand("1", grid, ops_small))
        assert np.all(sums[0] == 0.0)
        assert np.all(sums[1] == 0.0)
        for n in range(2, 9):
            expected = path.increments[1:n].sum()
            assert sums[n][0] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_increment_identity(self, ops_small):
        grid = bh.build_time_grid(1.0, 8)
        path = bh.sample_path(grid, 3, 1)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops_small)
        sums = bh.partial_sums(path, integ)
        for n in range(8):
            expected = path.increments[n] * integ.values[n]
            assert np.allclose(sums[n + 1] - sums[n], expected, atol=1e-15)

    def test_grid_mismatch(self, ops_small):
        path = bh.sample_path(bh.build_time_grid(1.0, 8), 0, 0)
        other = bh.discretize_integrand("1", bh.build_time_grid(1.0, 4), ops_small)
        with pytest.raises(FieldShapeError):
            bh.partial_sums(path, other)


def test_ito_isometry(ops_small):
    # For deterministic h the mean of ||B_N||^2 equals sum_k dt ||h_k||^2;
    # the Monte Carlo mean must agree within four standard errors.
    grid = bh.build_time_grid(1.0, 8)
    integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops_small)
    exact = sum(grid.dt * bh.l2_norm(integ.values[k], ops_small) ** 2 for k in range(8))
    count = 10**4
    samples = np.empty(count)
    for pid in range(count):
        path = bh.sample_path(grid, 77, pid)
        final = (path.increments[:, None] * integ.values).sum(axis=0)
        samples[pid] = bh.l2_norm(final, ops_small) ** 2
    stderr = samples.std(ddof=1) / np.sqrt(count)
    assert abs(samples.mean() - exact) <= 4 * stderr


def test_coupling_consistency(ops_small):
    # Aggregated path + coarse integrand approximates the fine sums; the
    # mean-square defect at T shrinks as the coarse grid refines.
    fine_grid = bh.build_time_grid(1.0, 64)
    fine_integ = bh.discretize_integrand("cos(pi*x)*(1+t)", fine_grid, ops_small)
    defects = []
    for coarse_steps in (4, 8, 16):
        grid = bh.build_time_grid(1.0, coarse_steps)
        integ = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops_small)
        total = 0.0
        count = 400
        for pid in range(count):
            fine_path = bh.sample_path(fine_grid, 31, pid)
            fine_final = bh.partial_sums(fine_path, fine_integ)[-1]
            coarse_path = bh.aggregate_path(fine_path, 64 // coarse_steps)
            coarse_final = bh.partial_sums(coarse_path, integ)[-1]
            total += bh.l2_norm(fine_final - coarse_final, ops_small) ** 2
        defects.append(total / count)
    assert defects[0] > defects[1] > defects[2]
