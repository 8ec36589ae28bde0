"""The staggered Picard iteration gives the bits of the sequential one.

``sequential_picard`` is the loop ``picard_solve`` ran before its iterates
were staggered: one full ``run_additive`` per iterate, each integrand frozen
along the whole previous iterate, and W summed as one generator.  Every
trajectory, report and error of ``picard_solve`` must equal it bit for bit.
"""

import dataclasses
import time

import numpy as np
import pytest

import barenheat as bh
from barenheat import multiplicative, stepper
from barenheat.errors import NonConvergenceError, NonFiniteError, NumericalError
from barenheat.multiplicative import _picard_threshold


def reference_weighted_norm(values, grid, ops, weight):
    fields = values[1:grid.steps + 1]
    total = sum(
        grid.dt * np.exp(-weight * t) * (l2 ** 2 + h1 ** 2)
        for t, l2, h1 in zip(grid.nodes[1:], bh.l2_norm(fields, ops), bh.h1_seminorm(fields, ops))
    )
    return float(np.sqrt(total))


def sequential_picard(theta0, chi0, noise_map, path, grid, ops, nl, config,
                      tol=1e-11, newton_tol=1e-12, iterates=None):
    """One iterate after the other; ``iterates`` collects every chi.
    Returns the trajectory, the report, and the iteration count and
    ratios counted here."""
    threshold = _picard_threshold(nl, noise_map, grid.horizon, config.weight,
                                  config.override_condition)
    modulus = threshold / config.weight
    theta0 = np.asarray(theta0, dtype=float)
    chi0 = np.asarray(chi0, dtype=float)
    iterate = np.tile(chi0, (grid.steps + 1, 1))
    w_diffs = []
    ratios = []
    wall_times = []
    for iteration in range(1, config.max_iterations + 1):
        started = time.perf_counter()
        values = np.zeros((grid.steps, ops.node_count))
        values[1:] = bh.evaluate_H(noise_map, iterate[1:grid.steps])
        integrand = bh.AdditiveIntegrand(grid=grid, values=values)
        trajectory = bh.run_additive(
            theta0, chi0, integrand, path, grid, ops, nl, tol=tol, newton_tol=newton_tol
        )
        if iterates is not None:
            iterates.append(trajectory.chi)
        diff = reference_weighted_norm(trajectory.chi - iterate, grid, ops, config.weight)
        wall_times.append(time.perf_counter() - started)
        if w_diffs:
            ratios.append(diff / w_diffs[-1] if w_diffs[-1] > 0 else 0.0)
        w_diffs.append(diff)
        iterate = trajectory.chi
        if diff <= config.tolerance:
            report = bh.PicardReport(w_differences=w_diffs, wall_times=wall_times,
                                     modulus=modulus)
            return trajectory, report, iteration, ratios
    raise NonConvergenceError(
        f"picard iteration did not converge in {config.max_iterations} iterations",
        residual=w_diffs[-1],
    )


def report_fields(report):
    return repr(dataclasses.astuple(report))


def assert_same_run(problem):
    expected, expected_report, iterations, ratios = sequential_picard(*problem)
    got, report = bh.picard_solve(*problem)
    assert np.array_equal(got.theta, expected.theta)
    assert np.array_equal(got.chi, expected.chi)
    assert np.array_equal(got.u, expected.u)
    assert [report_fields(r) for r in got.reports] == [report_fields(r) for r in expected.reports]
    assert report.w_differences == expected_report.w_differences
    assert report.ratios == ratios
    assert report.iterations == iterations
    assert report.modulus == expected_report.modulus
    assert report.w_differences[-1] <= problem[7].tolerance
    assert len(report.wall_times) == report.iterations
    return report


@pytest.fixture(scope="module")
def ops33():
    return bh.build_operators(1, 32, 1.0)


@pytest.fixture(scope="module")
def grid32():
    return bh.build_time_grid(1.0, 32)


@pytest.fixture(scope="module")
def cos33(ops33):
    return bh.evaluate_on_mesh("cos(pi*x)", ops33)


CONFIG = bh.PicardConfig(weight=8.0, tolerance=1e-8, max_iterations=15)


def problem_1d(ops, grid, data, noise_map, seed, config=CONFIG, nl=None):
    path = bh.sample_path(grid, seed, 0)
    return (data, data, noise_map, path, grid, ops, nl or bh.linear(1.0), config)


class TestSameBitsAsSequential:
    @pytest.mark.parametrize("seed, iterations", [(0, 5), (7, 6)])
    def test_affine(self, ops33, grid32, cos33, seed, iterations):
        report = assert_same_run(problem_1d(ops33, grid32, cos33, bh.affine_map(0.061), seed))
        assert report.iterations == iterations

    def test_affine_with_offset(self, ops33, grid32, cos33):
        noise_map = bh.affine_map(0.061, 0.5 * cos33)
        report = assert_same_run(problem_1d(ops33, grid32, cos33, noise_map, 2))
        assert report.iterations == 6

    def test_damped_map(self, ops33, grid32, cos33):
        report = assert_same_run(problem_1d(ops33, grid32, cos33, bh.damped_map(0.08), 7))
        assert report.iterations == 6

    def test_saturating_alpha_2d(self):
        ops = bh.build_operators(2, (5, 4), (1.0, 2.0))
        grid = bh.build_time_grid(0.5, 8)
        data = bh.evaluate_on_mesh("cos(pi*x)*(2+cos(pi*y))", ops)
        problem = problem_1d(ops, grid, data, bh.affine_map(0.061), 3, nl=bh.saturating(2.0))
        report = assert_same_run(problem)
        assert report.iterations >= 3

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_iterates_past_the_step_count(self, ops33, cos33, steps):
        # Iterate k + 1 starts at step k, so on a grid of N steps iterate
        # N + 1 starts finished, equal to iterate N: W is exactly 0.0.
        grid = bh.build_time_grid(0.5 * steps / 4, steps)
        config = bh.PicardConfig(weight=8.0, tolerance=1e-14, max_iterations=15)
        report = assert_same_run(problem_1d(ops33, grid, 30.0 * cos33, bh.affine_map(0.061),
                                            1, config))
        assert report.iterations == steps + 1
        assert report.w_differences[-1] == 0.0

    def test_degenerate_scale(self, ops33, grid32, cos33):
        report = assert_same_run(
            problem_1d(ops33, grid32, cos33, bh.affine_map(0.0, cos33), 5))
        assert report.iterations == 2
        assert report.w_differences[-1] == 0.0


class TestSameErrorsAsSequential:
    @pytest.mark.parametrize("cap", [1, 2])
    def test_iteration_cap(self, ops33, grid32, cos33, cap):
        config = bh.PicardConfig(weight=8.0, tolerance=1e-8, max_iterations=cap)
        problem = problem_1d(ops33, grid32, cos33, bh.affine_map(0.061), 0, config)
        with pytest.raises(NonConvergenceError) as expected:
            sequential_picard(*problem)
        with pytest.raises(NonConvergenceError) as got:
            bh.picard_solve(*problem)
        assert str(got.value) == str(expected.value)
        assert got.value.residual == expected.value.residual

    @staticmethod
    def assert_same_failure(problem):
        with pytest.raises(NumericalError) as expected:
            sequential_picard(*problem)
        with pytest.raises(NumericalError) as got:
            bh.picard_solve(*problem)
        assert type(got.value) is type(expected.value)
        assert (got.value.step, got.value.path_id) == (expected.value.step,
                                                       expected.value.path_id)
        assert str(got.value) == str(expected.value)
        return got.value

    def test_map_turns_non_finite_after_iterate_one(self, ops33, grid32, cos33):
        # chi0 = 0 maps to 0; iterate 1 grows past the cut, where the map
        # is NaN, so iterate 2 meets a NaN integrand part way along.
        zero = np.zeros(ops33.node_count)
        path = bh.sample_path(grid32, 4, 0)
        integrand = bh.AdditiveIntegrand(grid=grid32,
                                         values=np.zeros((grid32.steps, ops33.node_count)))
        first = bh.run_additive(cos33, zero, integrand, path, grid32, ops33, bh.linear(1.0))
        cut = 0.5 * np.abs(first.chi[1:grid32.steps]).max()
        noise_map = bh.MultiplicativeMap(
            lipschitz=0.061, psi=lambda v: np.where(np.abs(v) > cut, np.nan, 0.061 * v))
        error = self.assert_same_failure(
            (cos33, zero, noise_map, path, grid32, ops33, bh.linear(1.0), CONFIG))
        assert isinstance(error, NonFiniteError)
        assert 0 < error.step < grid32.steps

    def test_later_iterate_fails_while_others_run(self, ops33, grid32, cos33, monkeypatch):
        # A map equal to sigma * chi up to a cut and NaN above it, with the
        # cut between the highest value of iterates 0..k-1 and that of
        # iterate k: iterates 1..k are those of the plain map, and iterate
        # k + 1 fails while iterate k still runs.
        zero = np.zeros(ops33.node_count)
        path = bh.sample_path(grid32, 7, 0)
        nl = bh.linear(1.0)
        chis = [np.tile(zero, (grid32.steps + 1, 1))]
        sequential_picard(cos33, zero, bh.affine_map(0.061), path, grid32, ops33, nl,
                          CONFIG, iterates=chis)
        highs = [chi[1:grid32.steps].max() for chi in chis]
        k = max(k for k in range(1, len(chis) - 1) if highs[k] > max(highs[:k]))
        assert k >= 3
        cut = 0.5 * (max(highs[:k]) + highs[k])
        noise_map = bh.MultiplicativeMap(
            lipschitz=0.061, psi=lambda v: np.where(v > cut, np.nan, 0.061 * v))
        failing_batches = []
        real_step_rows = multiplicative._step_rows

        def step_rows(step_plan, rows, *args):
            try:
                return real_step_rows(step_plan, rows, *args)
            except NumericalError:
                failing_batches.append(len(rows))
                raise

        monkeypatch.setattr(multiplicative, "_step_rows", step_rows)
        error = self.assert_same_failure(
            (cos33, zero, noise_map, path, grid32, ops33, nl, CONFIG))
        assert isinstance(error, NonFiniteError)
        assert failing_batches and failing_batches[0] > 1

    def test_lowest_failing_iterate_wins(self, ops33, grid32, cos33, monkeypatch):
        # Inject failures at (iterate k, step n) pairs, told apart by the
        # integrand row H(chi^(k-1)_n) that the step reads, unique for n >= k
        # (all iterates k >= n agree at node n): iterate 3 fails at its last step,
        # long after iterate 4 has failed at step 5.  The sequential loop
        # never reaches iterate 4, so iterate 3's error wins.
        noise_map = bh.affine_map(0.061)
        problem = problem_1d(ops33, grid32, cos33, noise_map, 0)
        chis = [np.tile(cos33, (grid32.steps + 1, 1))]
        sequential_picard(*problem, iterates=chis)
        assert len(chis) > 4
        plan = {bh.evaluate_H(noise_map, chis[k - 1][n]).tobytes(): (k, n)
                for k, n in ((3, grid32.steps - 1), (4, 5))}
        met = []
        real_step_rows = stepper._step_rows

        def step_rows(step_plan, rows, *args):
            for index, row in enumerate(rows):
                h_row = row.values[row.step]
                if h_row.tobytes() in plan:
                    met.append(plan[h_row.tobytes()])
                    raise NonFiniteError("injected failure", residual=1.0, row=index)
            return real_step_rows(step_plan, rows, *args)

        monkeypatch.setattr(stepper, "_step_rows", step_rows)
        monkeypatch.setattr(multiplicative, "_step_rows", step_rows)
        error = self.assert_same_failure(problem)
        assert error.step == grid32.steps - 1
        assert met == [(3, grid32.steps - 1), (4, 5), (3, grid32.steps - 1)]


def test_iterate_one_runs_first_and_no_step_is_wasted(ops33, grid32, cos33, monkeypatch):
    # Benchmarks mark the end of set-up at the first run_additive call.
    # Every later row step belongs to an iterate the sequential loop runs,
    # and iterate k >= 2 inherits its first k - 1 steps from iterate k - 1,
    # so it runs N - k + 1 steps: (K - 1) N - K (K - 1) / 2 over K iterates.
    calls = []
    real_run, real_step_rows = multiplicative.run_additive, multiplicative._step_rows

    def run(*args, **kwargs):
        calls.append(0)
        return real_run(*args, **kwargs)

    def step_rows(step_plan, rows, *args):
        calls.append(len(rows))
        return real_step_rows(step_plan, rows, *args)

    monkeypatch.setattr(multiplicative, "run_additive", run)
    monkeypatch.setattr(multiplicative, "_step_rows", step_rows)
    _, report = bh.picard_solve(*problem_1d(ops33, grid32, cos33, bh.affine_map(0.061), 0))
    assert calls[0] == 0 and calls.count(0) == 1
    iterations = report.iterations
    assert sum(calls) == (iterations - 1) * grid32.steps - iterations * (iterations - 1) // 2
    # The staggered iterates overlap: fewer batch steps than their steps.
    assert len(calls) - 1 < (iterations - 1) * grid32.steps


def test_step_plan_is_built_once_for_the_staggered_iterates(ops33, grid32, cos33, monkeypatch):
    # Iterate 1's run_additive builds its plan, and the staggered iterates
    # share one more; no step builds one.
    built = []
    real_plan, real_at_zero = stepper._step_plan, stepper._at_zero
    real_step_rows = multiplicative._step_rows
    advanced = []

    def plan(*args):
        built.append("plan")
        return real_plan(*args)

    def at_zero(*args):
        built.append("at_zero")
        return real_at_zero(*args)

    def step_rows(*args):
        advanced.append(1)
        return real_step_rows(*args)

    monkeypatch.setattr(stepper, "_step_plan", plan)
    monkeypatch.setattr(multiplicative, "_step_plan", plan)
    monkeypatch.setattr(stepper, "_at_zero", at_zero)
    monkeypatch.setattr(multiplicative, "_step_rows", step_rows)
    _, report = bh.picard_solve(*problem_1d(ops33, grid32, cos33, bh.affine_map(0.061), 0))
    assert report.iterations > 2 and len(advanced) > grid32.steps // 2
    assert built == ["plan", "at_zero"] * 2
