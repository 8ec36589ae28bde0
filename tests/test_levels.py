"""Several time grids stepped side by side by one ``run_additive`` call give
every entry the bits of a run on its grid alone."""

import dataclasses
import gc
import os
import weakref

import numpy as np
import pytest

import barenheat as bh
from barenheat import diagnostics, grids, stepper
from barenheat.config import parse_config
from barenheat.errors import ContractionConditionError, NonFiniteError

PATHS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report_fields(report):
    """Every StepReport field, with floats in round-trip form (bitwise compare)."""
    return repr(dataclasses.astuple(report))


def ladder(ops, steps, expression="cos(pi*x)*(1+t)", seed=11, horizon=1.0, scales=None):
    """Coupled levels of one horizon: grids, integrands and, per level, the
    paths aggregated from the finest grid."""
    grids = [bh.build_time_grid(horizon, n) for n in steps]
    finest = grids[-1]
    fine = [bh.sample_path(finest, seed, pid) for pid in range(PATHS)]
    if scales is not None:
        fine = [dataclasses.replace(p, increments=scale * p.increments)
                for p, scale in zip(fine, scales)]
    paths = [[bh.aggregate_path(p, finest.steps // g.steps) for p in fine] for g in grids]
    integrands = [bh.discretize_integrand(expression, g, ops) for g in grids]
    return grids, integrands, paths


def assert_levels_match_alone(ops, nl, theta0, chi0, grids, integrands, paths):
    """Run the entries side by side; each must equal its one-grid run."""
    runs = bh.run_additive(theta0, chi0, integrands, paths, grids, ops, nl)
    order = []
    counts = set()
    for index, trajectories in runs:
        order.append(index)
        alone = bh.run_additive(theta0, chi0, integrands[index], paths[index], grids[index],
                                ops, nl)
        assert len(trajectories) == len(alone)
        for traj, ref in zip(trajectories, alone):
            assert traj.grid == grids[index]
            assert traj.theta.tobytes() == ref.theta.tobytes()
            assert traj.chi.tobytes() == ref.chi.tobytes()
            assert traj.u.tobytes() == ref.u.tobytes()
            assert [report_fields(r) for r in traj.reports] == [
                report_fields(r) for r in ref.reports]
            assert all(r.factor_bound == stepper.contraction_factor_bound(nl, grids[index].dt)
                       for r in traj.reports)
        counts |= {tuple(traj.reports[n].inner_iterations for traj in trajectories)
                   for n in range(grids[index].steps)}
    # Coarsest first; entries that finish together in index order.
    assert order == sorted(range(len(grids)), key=lambda k: (grids[k].steps, k))
    return counts


class TestLevelsEqualOneGridRuns:
    def test_linear_alpha_1d_additive_ladder(self, ops65, cos_field):
        config = parse_config(os.path.join(ROOT, "demos", "configs", "additive.ini"))
        steps = [round(config.horizon / dt) for dt in config.dt_levels]
        grids, integrands, paths = ladder(ops65, steps)
        assert_levels_match_alone(ops65, bh.linear(1.0), cos_field, cos_field, grids,
                                  integrands, paths)

    def test_saturating_alpha_1d(self, ops65, cos_field):
        # Noise amplitudes over two decades give each path its own inner and
        # Newton counts, so rows leave at different inner iterations.
        grids, integrands, paths = ladder(ops65, [4, 8, 16], scales=(0.1, 1.0, 5.0))
        counts = assert_levels_match_alone(ops65, bh.saturating(2.0), 3.0 * cos_field,
                                           cos_field, grids, integrands, paths)
        assert any(len(set(level)) > 1 for level in counts)

    def test_saturating_alpha_2d(self):
        ops = bh.build_operators(2, (7, 4), (1.0, 2.5))
        grids, integrands, paths = ladder(ops, [2, 4, 8], "cos(pi*x)*cos(pi*y)*(1+t)",
                                          seed=23, horizon=0.5, scales=(0.1, 1.0, 3.0))
        data = 2.0 * bh.evaluate_on_mesh("cos(pi*x)*(2+cos(pi*y))", ops)
        counts = assert_levels_match_alone(ops, bh.saturating(2.0), data, data, grids,
                                           integrands, paths)
        assert len({count for level in counts for count in level}) > 1

    def test_entries_on_one_grid_share_a_span(self, ops65, cos_field, monkeypatch):
        # Two integrands on one grid: one plan, whose heat solve takes both
        # entries' rows at once, and both entries end in the same step.
        grid = bh.build_time_grid(1.0, 8)
        integrands = [bh.discretize_integrand(e, grid, ops65)
                      for e in ("cos(pi*x)*(1+t)", "cos(pi*x)")]
        paths = [bh.sample_path(grid, 3, pid) for pid in range(PATHS)]
        plans = []
        real_plan = stepper._step_plan

        def recording_plan(*args):
            plans.append(real_plan(*args))
            return plans[-1]

        monkeypatch.setattr(stepper, "_step_plan", recording_plan)
        assert_levels_match_alone(ops65, bh.linear(1.0), cos_field, cos_field, [grid, grid],
                                  integrands, [paths, paths])
        # One plan for the pair, then one per one-grid run.
        assert len(plans) == 3


class TestFailures:
    def test_failing_row_names_its_one_grid_run(self, cos_field):
        # A path that jumps at fine step 10 makes alpha NaN on both levels;
        # the error of the side-by-side run is that of the first level to
        # meet it in lock-step order, the coarse level at its step 5.
        ops = bh.build_operators(1, 16, 1.0)
        base = bh.saturating(1.0)

        def alpha(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= 2.0, base.alpha(x), np.nan)

        nl = bh.make_nonlinearity("nan-alpha", alpha, 2.0, 1.0, alpha_prime=base.alpha_prime)
        grids = [bh.build_time_grid(1.0, 8), bh.build_time_grid(1.0, 16)]
        increments = 1e-3 * np.random.default_rng(4).standard_normal(16)
        increments[10] = 50.0
        fine = [bh.BrownianPath(grid=grids[1], increments=np.zeros(16), seed=0, path_id=0),
                bh.BrownianPath(grid=grids[1], increments=increments, seed=0, path_id=7)]
        paths = [[bh.aggregate_path(p, 2) for p in fine], fine]
        integrands = [bh.discretize_integrand("cos(pi*x)", g, ops) for g in grids]
        data = 0.1 * bh.evaluate_on_mesh("cos(pi*x)", ops)
        zero = np.zeros(ops.node_count)
        runs = bh.run_additive(data, zero, integrands, paths, grids, ops, nl)
        with pytest.raises(NonFiniteError) as info:
            list(runs)
        errors = []
        for index in range(2):
            with pytest.raises(NonFiniteError) as alone:
                bh.run_additive(data, zero, integrands[index], paths[index], grids[index],
                                ops, nl)
            errors.append(alone.value)
        assert [(e.step, e.path_id, e.row) for e in errors] == [(5, 7, 1), (10, 7, 1)]
        expected = errors[0]
        got = info.value
        assert (got.reason, got.step, got.path_id, got.row, got.dt) == (
            expected.reason, expected.step, expected.path_id, expected.row, 0.125)
        assert "at step 5 of path 7 with dt = 0.125" in str(got)

    def test_contraction_violation_on_one_level_raises_at_the_call(self, ops65, cos_field,
                                                                  monkeypatch):
        advanced = []
        monkeypatch.setattr(stepper, "_advance", lambda *args: advanced.append(1))
        # dt = 2 breaks dt < 1 + coercivity(alpha) = 1.25; dt = 0.5, the
        # level before it, does not.
        grids, integrands, paths = ladder(ops65, [1, 4], horizon=2.0)
        grids, integrands, paths = grids[::-1], integrands[::-1], paths[::-1]
        with pytest.raises(ContractionConditionError, match="dt = 2.0 violates"):
            bh.run_additive(cos_field, cos_field, integrands, paths, grids, ops65,
                            bh.linear(0.25))
        assert not advanced

    def test_shapes_are_checked_at_the_call(self, ops65, cos_field):
        grids, integrands, paths = ladder(ops65, [2, 4])
        with pytest.raises(bh.FieldShapeError, match="share one time grid"):
            bh.run_additive(cos_field, cos_field, integrands[::-1], paths, grids, ops65,
                            bh.linear(1.0))
        with pytest.raises(bh.InvalidConfigError, match="one integrand and one path"):
            bh.run_additive(cos_field, cos_field, integrands[:1], paths, grids, ops65,
                            bh.linear(1.0))
        with pytest.raises(bh.InvalidConfigError, match="at least one path"):
            bh.run_additive(cos_field, cos_field, integrands, [paths[0], []], grids, ops65,
                            bh.linear(1.0))
        with pytest.raises(bh.InvalidConfigError, match="needs integrand to be a sequence"):
            bh.run_additive(cos_field, cos_field, integrands[0], paths, grids, ops65,
                            bh.linear(1.0))
        for flat in (paths[0], paths[0][0]):
            with pytest.raises(bh.InvalidConfigError, match="needs path to be a sequence"):
                bh.run_additive(cos_field, cos_field, integrands, flat, grids, ops65,
                                bh.linear(1.0))


def test_a_yielded_level_is_released(ops65, cos_field):
    grids, integrands, paths = ladder(ops65, [4, 8, 16])
    runs = bh.run_additive(cos_field, cos_field, integrands, paths, grids, ops65,
                           bh.linear(1.0))
    index, trajectories = next(runs)
    assert index == 0
    theta = weakref.ref(trajectories[0].theta)
    record = weakref.ref(trajectories[0].theta.base)
    del trajectories
    gc.collect()
    assert theta() is None
    assert record() is None
    assert [index for index, _ in runs] == [1, 2]


def test_converge_steps_every_level_in_one_batch(ops_small, monkeypatch):
    # Five levels of 2..32 steps: one _advance call per step of the finest
    # level for each path batch, not one per step of every level.
    calls = []
    real_advance = stepper._advance

    def counting_advance(plan, theta, *args):
        calls.append(len(theta))
        return real_advance(plan, theta, *args)

    monkeypatch.setattr(stepper, "_advance", counting_advance)
    monkeypatch.setattr(diagnostics, "BATCH_PATHS", 2)
    data = bh.evaluate_on_mesh("cos(pi*x)", ops_small)
    setup = bh.AdditiveSetup(ops=ops_small, nonlinearity=bh.linear(1.0), theta0=data,
                             chi0=data, integrand="cos(pi*x)*(1+t)")
    bh.grid_difference_rates(setup, 1.0, [0.5, 0.25, 0.125, 0.0625, 0.03125], 3, 8)
    # Batches of 2 and 1 paths; a level leaves after its last step.
    rows = [2 * sum(steps > n for steps in (2, 4, 8, 16, 32)) for n in range(32)]
    assert calls == rows + [row // 2 for row in rows]


@pytest.mark.parametrize("mesh", [(1, 32, 1.0), (2, (7, 4), (1.0, 2.5))], ids=["1d", "2d"])
@pytest.mark.parametrize("multiple", [True, False], ids=["mass-multiple", "varied"])
def test_spans_gate_once_with_the_bits_of_each_shift(mesh, multiple):
    # Rows 0:2, 2:3 and 3:5 solve against their own shift; the block is
    # gated once with the shifts as a column, and each span gets the bits
    # of a solve of its shift alone, K x included.  A failure names its row
    # in the block, also inside a span that does not start at row 0.
    ops = bh.build_operators(*mesh)
    rng = np.random.default_rng(5)
    diagonal = ops.lumped_mass * (2.0 if multiple else 1.0 + rng.random(ops.node_count))
    rhs = rng.standard_normal((5, ops.node_count))
    targets = 1e-6 * np.arange(1.0, 6.0)
    bounds = [(0, 2, 0.5), (2, 3, 0.25), (3, 5, 0.125)]
    shifts = np.array([[shift] for start, stop, shift in bounds
                       for _ in range(stop - start)])
    spans = [(start, stop, grids._bind_unchecked(ops, diagonal, shift))
             for start, stop, shift in bounds]
    x, stiffness_x = grids._gated(ops, diagonal, shifts, 1e-10, spans, rhs, lambda: targets)
    for start, stop, shift in bounds:
        alone, stiffness_alone = grids._solve_shifted(ops, diagonal, shift, rhs[start:stop],
                                                      1e-10, lambda: targets[start:stop])
        assert x[start:stop].tobytes() == alone.tobytes()
        assert stiffness_x[start:stop].tobytes() == stiffness_alone.tobytes()
    rhs[3, 2] = np.nan
    with pytest.raises(NonFiniteError) as info:
        grids._gated(ops, diagonal, shifts, 1e-10, spans, rhs, lambda: targets)
    assert info.value.row == 3


class TestTake:
    """Narrowing a plan only slices it: the plan of the rows it keeps is the
    plan built from scratch for those rows, and it binds nothing."""

    STEPS = (1, 2, 4)
    COUNTS = (2, 1, 2)

    def built_plan(self, ops, counts, monkeypatch):
        """The plan of the first step of a run with ``counts[k]`` paths on
        the grid of ``STEPS[k]`` steps; a grid with no path is left out."""
        plans = []
        real_advance = stepper._advance

        def recording_advance(plan, *args):
            plans.append(plan)
            return real_advance(plan, *args)

        levels = [k for k, count in enumerate(counts) if count]
        grids_, integrands, paths = ladder(ops, [self.STEPS[k] for k in levels], horizon=0.25)
        data = bh.evaluate_on_mesh("cos(pi*x)", ops)
        with monkeypatch.context() as patch:
            patch.setattr(stepper, "_advance", recording_advance)
            next(iter(bh.run_additive(data, data, integrands,
                                      [paths[i][:counts[k]] for i, k in enumerate(levels)],
                                      grids_, ops, bh.linear(1.0))))
        return plans[0]

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3, 4], [0, 3, 4], [1, 2], [0, 4], [1, 2, 3],
                                      [3, 4], [2], [0]])
    def test_narrowed_plan_is_the_plan_of_its_rows(self, ops_small, rows, monkeypatch):
        full = self.built_plan(ops_small, self.COUNTS, monkeypatch)
        assert [(span.start, span.stop) for span in full.spans] == [(0, 2), (2, 3), (3, 5)]
        rows = np.array(rows)
        counts = [int(np.sum((start <= rows) & (rows < stop)))
                  for start, stop in ((0, 2), (2, 3), (3, 5))]
        narrowed = full.take(rows)
        scratch = self.built_plan(ops_small, counts, monkeypatch)
        assert [span[:3] for span in narrowed.spans] == [span[:3] for span in scratch.spans]
        assert [span.factor_bound for span in narrowed.spans] == [
            span.factor_bound for span in scratch.spans]
        if len(narrowed.spans) == 1:
            assert type(narrowed.dt) is float and narrowed.dt == scratch.dt
        else:
            assert narrowed.dt.shape == scratch.dt.shape == (len(rows), 1)
            assert narrowed.dt.tobytes() == scratch.dt.tobytes()
        assert narrowed.row_bounds(len(rows)) == scratch.row_bounds(len(rows))

    @pytest.mark.parametrize("mesh", [(1, 16, 1.0), (2, (6, 4), (1.0, 1.5))], ids=["1d", "2d"])
    def test_stepping_binds_no_solve(self, mesh, monkeypatch):
        # The plans bind every solve at the call; the steps of all levels,
        # as levels leave the block, bind no plan solve, factor nothing in
        # 1D and build no fast-diagonalization solve in 2D.
        ops = bh.build_operators(*mesh)
        counts = {"bind": 0, "dpttrf": 0, "fast_diagonalization": 0}

        def counting(name, real):
            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return counted

        monkeypatch.setattr(stepper, "_bind_unchecked", counting("bind", stepper._bind_unchecked))
        monkeypatch.setattr(grids, "dpttrf", counting("dpttrf", grids.dpttrf))
        monkeypatch.setattr(grids, "_fast_diagonalization",
                            counting("fast_diagonalization", grids._fast_diagonalization))
        grids_, integrands, paths = ladder(ops, (2, 4, 8, 16))
        data = bh.evaluate_on_mesh("cos(pi*x)", ops)
        runs = bh.run_additive(data, data, integrands, paths, grids_, ops, bh.linear(1.0))
        assert counts["bind"] == 8
        assert counts["dpttrf" if ops.dimension == 1 else "fast_diagonalization"] > 0
        counts.update(bind=0, dpttrf=0, fast_diagonalization=0)
        assert [index for index, _ in runs] == [0, 1, 2, 3]
        assert counts == {"bind": 0, "dpttrf": 0, "fast_diagonalization": 0}
