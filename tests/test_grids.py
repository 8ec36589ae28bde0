import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import barenheat as bh
from barenheat import grids
from barenheat.errors import FieldShapeError, InvalidConfigError, NonFiniteError, NumericalError


class TestTimeGrid:
    def test_quarter_grid(self):
        grid = bh.build_time_grid(1.0, 4)
        assert grid.dt == 0.25
        assert np.array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        grid = bh.build_time_grid(1.0, 1)
        assert grid.dt == 1.0
        assert np.array_equal(grid.nodes, [0.0, 1.0])

    def test_dt_scales_with_horizon(self):
        assert bh.build_time_grid(2.0, 8).dt == 0.25

    @pytest.mark.parametrize("horizon,steps", [(1.0, 7), (0.37, 11), (5.0, 13)])
    def test_exactness_and_monotonicity(self, horizon, steps):
        grid = bh.build_time_grid(horizon, steps)
        assert abs(grid.dt * steps - horizon) <= np.finfo(float).eps * horizon
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == horizon
        assert np.all(np.diff(grid.nodes) > 0)

    @pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -2)])
    def test_invalid_configs(self, horizon, steps):
        with pytest.raises(InvalidConfigError):
            bh.build_time_grid(horizon, steps)

    def test_hash_consistent_with_equality(self):
        grid, same = bh.build_time_grid(1.0, 4), bh.build_time_grid(1.0, 4)
        assert grid == same and grid is not same
        assert hash(grid) == hash(same)
        table = {grid: "coarse", bh.build_time_grid(1.0, 8): "fine"}
        assert table[same] == "coarse"
        assert len(table) == 2 and len({grid, same}) == 1


class TestOperators1D:
    def test_two_cell_lumped_mass(self):
        ops = bh.build_operators(1, 2, 1.0)
        # Row-sum lumping of the exact P1 mass matrix, by hand integration.
        assert np.allclose(ops.lumped_mass, [0.25, 0.5, 0.25], rtol=0, atol=0)
        assert ops.lumped_mass.sum() == pytest.approx(1.0, abs=1e-15)

    def test_two_cell_stiffness(self):
        ops = bh.build_operators(1, 2, 1.0)
        expected = 2.0 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.allclose(ops.stiffness.toarray(), expected, rtol=0, atol=0)

    @pytest.mark.parametrize("cells", [1, 2, 5, 64])
    def test_neumann_kernel_and_row_sums(self, cells):
        ops = bh.build_operators(1, cells, 1.3)
        ones = np.ones(ops.node_count)
        assert np.abs(ops.stiffness @ ones).max() == 0.0
        assert np.abs(np.asarray(ops.stiffness.sum(axis=1)).ravel()).max() == 0.0

    def test_stiffness_symmetric_and_psd(self, ops65):
        dense = ops65.stiffness.toarray()
        assert np.array_equal(dense, dense.T)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(ops65.node_count)
            assert v @ (ops65.stiffness @ v) >= 0.0

    def test_mass_positive_and_sums_to_measure(self, ops65):
        assert np.all(ops65.lumped_mass > 0)
        assert ops65.lumped_mass.sum() == pytest.approx(ops65.domain_measure, rel=1e-14)

    @pytest.mark.parametrize("cells,length", [(0, 1.0), (3, 0.0), (3, -2.0)])
    def test_invalid_mesh(self, cells, length):
        with pytest.raises(InvalidConfigError):
            bh.build_operators(1, cells, length)


class TestOperators2D:
    def test_tensor_construction(self):
        ops = bh.build_operators(2, (4, 3), (2.0, 1.5))
        assert ops.node_count == 5 * 4
        assert ops.lumped_mass.sum() == pytest.approx(3.0, rel=1e-14)
        ones = np.ones(ops.node_count)
        assert np.abs(ops.stiffness @ ones).max() == 0.0
        dense = ops.stiffness.toarray()
        assert np.allclose(dense, dense.T, rtol=0, atol=0)

    def test_h1_exact_for_linear_in_x(self):
        ops = bh.build_operators(2, (5, 4), (1.0, 2.0))
        v = ops.coordinates[:, 0]
        # grad v = (1, 0), so the seminorm squared is the domain area.
        assert bh.h1_seminorm(v, ops) == pytest.approx(np.sqrt(2.0), rel=1e-13)


class TestNorms:
    def test_constant_field_l2(self, ops65):
        assert bh.l2_norm(np.ones(65), ops65) == pytest.approx(1.0, rel=1e-14)

    def test_constant_field_h1(self, ops65):
        assert bh.h1_seminorm(np.full(65, 3.7), ops65) == 0.0

    def test_linear_interpolant_h1(self, ops65):
        v = ops65.coordinates[:, 0]
        assert bh.h1_seminorm(v, ops65) == pytest.approx(1.0, rel=1e-13)

    def test_inner_product_symmetry_and_cauchy_schwarz(self, ops65):
        rng = np.random.default_rng(1)
        for _ in range(25):
            u = rng.standard_normal(65)
            v = rng.standard_normal(65)
            assert bh.l2_inner(u, v, ops65) == pytest.approx(bh.l2_inner(v, u, ops65), rel=1e-12)
            assert abs(bh.l2_inner(u, v, ops65)) <= (
                bh.l2_norm(u, ops65) * bh.l2_norm(v, ops65) * (1 + 1e-12)
            )

    def test_quadrature_consistency_second_order(self):
        # Lumped quadrature converges at O(dx^2): halving the mesh width
        # shrinks the defect against the exact squared norm by ~4.  cos(x)
        # is used because full-period fields like cos(pi x) are integrated
        # exactly on uniform grids and show no error at all.
        exact = 0.5 * (1.0 + np.sin(2.0) / 2.0)
        defects = []
        for cells in (8, 16, 32):
            ops = bh.build_operators(1, cells, 1.0)
            v = np.cos(ops.coordinates[:, 0])
            defects.append(abs(bh.l2_norm(v, ops) ** 2 - exact))
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.15)
        assert defects[1] / defects[2] == pytest.approx(4.0, rel=0.15)

    def test_full_period_cosine_integrated_exactly(self, ops65):
        v = np.cos(np.pi * ops65.coordinates[:, 0])
        assert bh.l2_norm(v, ops65) ** 2 == pytest.approx(0.5, abs=1e-14)

    def test_shape_mismatch(self, ops65):
        with pytest.raises(FieldShapeError):
            bh.l2_norm(np.ones(7), ops65)
        with pytest.raises(FieldShapeError):
            bh.l2_inner(np.ones(65), np.ones(64), ops65)


class TestSolveShifted1D:
    def test_bitwise_equal_to_refactoring_reference(self, reference_solve_1d):
        ops = bh.build_operators(1, 40, 1.7)
        rng = np.random.default_rng(21)
        mass = ops.lumped_mass
        for trial in range(40):
            diagonal = mass * (rng.uniform(1.0, 6.0, mass.size) if trial % 2 else 1.0)
            shift = float(rng.uniform(1e-3, 1.0))
            # Repeated solves hit the cached factor; each must still match.
            for _ in range(5):
                rhs = rng.standard_normal(mass.size) * 10.0 ** rng.uniform(-6, 6)
                x = grids.solve_shifted(ops, diagonal, shift, rhs)
                assert np.array_equal(x, reference_solve_1d(ops, diagonal, shift, rhs))

    def test_reuses_factor_only_for_bit_equal_diagonal(self, monkeypatch, reference_solve_1d):
        ops = bh.build_operators(1, 16, 1.0)
        calls = []
        real_dpttrf = grids.dpttrf

        def counting_dpttrf(*args, **kwargs):
            calls.append(1)
            return real_dpttrf(*args, **kwargs)

        monkeypatch.setattr(grids, "dpttrf", counting_dpttrf)
        rhs = np.linspace(-1.0, 1.0, ops.node_count)
        diagonal = 2.0 * ops.lumped_mass
        grids.solve_shifted(ops, diagonal, 0.1, rhs)
        grids.solve_shifted(ops, diagonal.copy(), 0.1, 2.0 * rhs)
        assert len(calls) == 1
        nudged = diagonal.copy()
        nudged[3] = np.nextafter(nudged[3], np.inf)
        x = grids.solve_shifted(ops, nudged, 0.1, rhs)
        assert len(calls) == 2
        assert np.array_equal(x, reference_solve_1d(ops, nudged, 0.1, rhs))
        grids.solve_shifted(ops, diagonal, 0.2, rhs)
        assert len(calls) == 3

    def test_non_spd_operator_raises(self):
        ops = bh.build_operators(1, 8, 1.0)
        diagonal = ops.lumped_mass.copy()
        diagonal[4] = -1.0
        with pytest.raises(NumericalError):
            grids.solve_shifted(ops, diagonal, 0.01, np.ones(ops.node_count))

    def test_non_finite_rhs_raises(self):
        ops = bh.build_operators(1, 8, 1.0)
        rhs = np.ones(ops.node_count)
        rhs[2] = np.nan
        with pytest.raises(NonFiniteError):
            grids.solve_shifted(ops, ops.lumped_mass, 0.1, rhs)


class TestSolveShifted2D:
    @pytest.fixture(scope="class")
    def ops_rect(self):
        # Non-square, non-unit mesh: an axis swap or a wrong reshape shows.
        return bh.build_operators(2, (7, 4), (1.0, 2.5))

    @pytest.mark.parametrize(
        "case,shift",
        [("direct", 0.3), ("variable", 0.3), ("variable", 0.0)],
    )
    def test_matches_sparse_direct_solve(self, ops_rect, case, shift):
        rng = np.random.default_rng(11)
        mass = ops_rect.lumped_mass
        scale = 2.7 if case == "direct" else rng.uniform(2.0, 4.0, mass.size)
        diagonal = scale * mass
        rhs = rng.standard_normal(mass.size)
        matrix = (sp.diags(diagonal) + shift * ops_rect.stiffness).tocsc()
        expected = spsolve(matrix, rhs)
        x = grids.solve_shifted(ops_rect, diagonal, shift, rhs)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_mass_multiple_needs_no_iteration(self, ops_rect, monkeypatch):
        def no_cg(*args, **kwargs):
            raise AssertionError("a mass-multiple diagonal must be solved directly")

        monkeypatch.setattr(grids, "cg", no_cg)
        rhs = np.random.default_rng(12).standard_normal(ops_rect.node_count)
        grids.solve_shifted(ops_rect, 1.5 * ops_rect.lumped_mass, 0.05, rhs)

    def test_preconditioned_iterations_mesh_independent(self, monkeypatch):
        counts = []
        real_cg = grids.cg

        def counting_cg(*args, **kwargs):
            def callback(xk):
                counts[-1] += 1

            return real_cg(*args, callback=callback, **kwargs)

        monkeypatch.setattr(grids, "cg", counting_cg)
        rng = np.random.default_rng(13)
        for cells in (8, 64):
            ops = bh.build_operators(2, (cells, cells), (1.0, 1.0))
            diagonal = rng.uniform(2.0, 4.0, ops.node_count) * ops.lumped_mass
            counts.append(0)
            grids.solve_shifted(ops, diagonal, 0.5, rng.standard_normal(ops.node_count))
        assert all(0 < count <= 20 for count in counts), counts
