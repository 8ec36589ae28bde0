import math

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


class TestBlockNorms:
    """An (M, P) block is reduced row by row with the bits of single calls."""

    MESHES = {
        "1d-65": bh.build_operators(1, 64, 1.0),
        "2d-7x4": bh.build_operators(2, (7, 4), (1.0, 2.5)),
    }

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("rows", [1, 2, 17])
    def test_rows_equal_single_calls(self, mesh, rows):
        ops = self.MESHES[mesh]
        rng = np.random.default_rng(rows)
        block = rng.standard_normal((rows, ops.node_count)) * 10.0 ** rng.integers(-6, 7, (rows, 1))
        for norm in (bh.l2_norm, bh.h1_seminorm):
            values = norm(block, ops)
            assert values.shape == (rows,)
            assert np.array_equal(values, [norm(row, ops) for row in block])
        # A single field keeps the bits of the reductions it used before blocks.
        mass, stiffness = ops.lumped_mass, ops.stiffness
        for row in block:
            assert bh.l2_norm(row, ops) == float(np.sqrt(np.dot(mass, row * row)))
            assert bh.h1_seminorm(row, ops) == float(np.sqrt(max(row @ (stiffness @ row), 0.0)))

    @pytest.mark.parametrize("shape", [(3, 64), (3, 66), (2, 3, 65), ()])
    def test_wrong_shapes_rejected(self, ops65, shape):
        for norm in (bh.l2_norm, bh.h1_seminorm):
            with pytest.raises(FieldShapeError):
                norm(np.ones(shape), ops65)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestBlockNormBits:
    """Block reductions equal per-row ``.dot`` and ``math.sqrt`` bit for bit.

    They take all M dot products in one stacked product; this guards the
    assumption that numpy hands each of its items to the ``ddot`` of
    ``row.dot(row)``, on every numpy version the pin allows.
    """

    MESHES = {
        **{f"1d-{cells + 1}": (1, cells, 1.0) for cells in (2, 16, 64, 128, 1024, 4224)},
        "2d-33x17": (2, (32, 16), (1.0, 0.5)),
    }

    @pytest.fixture(scope="class")
    def meshes(self):
        return {name: bh.build_operators(*args) for name, args in self.MESHES.items()}

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("rows", [1, 2, 4, 5, 16, 64])
    def test_rows_equal_per_row_references(self, meshes, mesh, rows):
        ops = meshes[mesh]
        rng = np.random.default_rng(rows * 7919 + ops.node_count)
        scales = 10.0 ** rng.uniform(-8.0, 8.0, (rows, 1))
        block = rng.standard_normal((rows, ops.node_count)) * scales
        # A near-constant row, whose v . K v may round below zero.
        block[0] = 3.7 + 1e-13 * block[0] / scales[0]
        mass, stiffness = ops.lumped_mass, ops.stiffness
        assert _bits(grids.row_norms(block)) == _bits(
            [math.sqrt(row.dot(row)) for row in block])
        assert _bits(bh.l2_norm(block, ops)) == _bits(
            [math.sqrt(mass.dot(row * row)) for row in block])
        assert _bits(bh.h1_seminorm(block, ops)) == _bits(
            [math.sqrt(max(row.dot(stiffness @ row), 0.0)) for row in block])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rows_stay_non_finite(self, ops65):
        block = np.ones((3, ops65.node_count))
        block[1, 5] = np.nan
        block[2, 7] = np.inf
        for values in (grids.row_norms(block), bh.l2_norm(block, ops65),
                       bh.h1_seminorm(block, ops65)):
            assert math.isfinite(values[0])
            assert math.isnan(values[1])
            assert not math.isfinite(values[2])


def _outcome(check, *args):
    """What a residual gate does: None, or the class, row and residual it raises."""
    try:
        check(*args)
    except NumericalError as exc:
        return type(exc), exc.row, repr(exc.residual)
    return None


def _per_row_gate(ops, diagonal, shift, x, rhs, rtol):
    """The gate's per-row test alone, as it stood before the one-dot test."""
    residual = grids.apply_shifted(ops, diagonal, shift, x) - rhs
    if rhs.ndim == 1:
        norms = [math.sqrt(residual.dot(residual))]
        limits = [rtol * (1.0 + math.sqrt(rhs.dot(rhs)))]
    else:
        norms = np.sqrt(np.einsum("ij,ij->i", residual, residual))
        limits = rtol * (1.0 + np.sqrt(np.einsum("ij,ij->i", rhs, rhs)))
    for row, (norm, limit) in enumerate(zip(norms, limits)):
        if not norm <= limit:
            row = row if rhs.ndim == 2 else None
            if not math.isfinite(norm):
                raise NonFiniteError("non-finite", residual=float(norm), row=row)
            raise NumericalError("missed", residual=float(norm), row=row)


class TestResidualGate:
    """The one-dot test ahead of the per-row gate changes no outcome."""

    RTOL = 1e-10

    @pytest.fixture(scope="class")
    def ops(self):
        return bh.build_operators(1, 16, 1.0)

    def assert_same_outcome(self, ops, x, rhs, expected=None):
        """Gate (M + K / 4) x = rhs and the per-row test alike; ``expected``
        is the class and row that must be raised."""
        args = (ops, ops.lumped_mass, 0.25, x, rhs, self.RTOL)
        outcome = _outcome(grids._check_residual, *args)
        assert outcome == _outcome(_per_row_gate, *args)
        if expected is not None:
            assert outcome is not None and outcome[:2] == expected
        return outcome

    def gate_on(self, ops, residual, expected=None):
        """Gate a given residual: with x = 0 every entry of A x is +0.0, so
        rhs = -residual leaves exactly that residual."""
        residual = np.asarray(residual, dtype=float)
        return self.assert_same_outcome(ops, np.zeros(residual.shape), -residual, expected)

    def block_norm(self, residual):
        flat = np.ravel(residual)
        return math.sqrt(flat.dot(flat))

    def rows(self, ops, count, seed=0, norm=1.0):
        """``count`` random rows, each of Euclidean norm ``norm``."""
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((count, ops.node_count))
        return norm * block / np.sqrt(np.einsum("ij,ij->i", block, block))[:, None]

    @pytest.mark.parametrize("count", [1, 4])
    def test_solved_batch_passes(self, ops, count):
        rhs = np.random.default_rng(count).standard_normal((count, ops.node_count))
        x = grids.solve_shifted(ops, ops.lumped_mass, 0.25, rhs)
        assert self.assert_same_outcome(ops, x, rhs) is None
        assert self.assert_same_outcome(ops, x[0], rhs[0]) is None

    @pytest.mark.parametrize("bad", [0, 2, 3])
    def test_one_failing_row_is_named(self, ops, bad):
        residual = self.rows(ops, 4, norm=1e-12)
        residual[bad] *= 1e4
        self.gate_on(ops, residual, (NumericalError, bad))
        self.gate_on(ops, residual[bad], (NumericalError, None))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
    def test_non_finite_row_is_named(self, ops, value):
        # A finite right-hand side, so every limit is finite.
        rhs = np.random.default_rng(3).standard_normal((4, ops.node_count))
        x = grids.solve_shifted(ops, ops.lumped_mass, 0.25, rhs)
        x[1, 3] = x[3, 5] = value
        self.assert_same_outcome(ops, x, rhs, (NonFiniteError, 1))
        self.assert_same_outcome(ops, x[1], rhs[1], (NonFiniteError, None))

    def test_zero_right_hand_side(self, ops):
        zero = np.zeros((3, ops.node_count))
        assert self.assert_same_outcome(ops, zero, zero) is None
        assert self.assert_same_outcome(ops, zero[0], zero[0]) is None
        # The limit of a zero row is rtol itself: a residual just below it
        # passes and one just above fails, though neither block passes the
        # one-dot test.
        for factor, expected in ((0.99, None), (1.01, (NumericalError, 2))):
            residual = self.rows(ops, 3, norm=1e-13)
            residual[2] *= factor * self.RTOL / 1e-13
            x = grids.solve_shifted(ops, ops.lumped_mass, 0.25, residual)
            assert self.block_norm(grids.apply_shifted(ops, ops.lumped_mass, 0.25, x)) > (
                0.5 * self.RTOL)
            outcome = self.assert_same_outcome(ops, x, zero)
            assert outcome == expected or outcome[:2] == expected
            single = self.assert_same_outcome(ops, x[2], zero[2])
            assert (single is None) == (expected is None)

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_block_norm_at_the_margin(self, ops, count, side):
        # Scale the block to rtol / 2, then step to the side under test.
        residual = self.rows(ops, count, seed=count) / math.sqrt(count)
        residual *= 0.5 * self.RTOL / self.block_norm(residual)
        while (self.block_norm(residual) <= 0.5 * self.RTOL) != (side < 0):
            residual *= 1.0 + side * 1e-15
        assert self.gate_on(ops, residual) is None
        assert self.gate_on(ops, residual[0]) is None


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
