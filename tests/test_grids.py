import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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

    def test_nodes_read_keep_equality_and_hash(self):
        grid, same = bh.build_time_grid(1.0, 4), bh.build_time_grid(1.0, 4)
        assert grid.nodes is grid.nodes
        assert grid == same and hash(grid) == hash(same)
        assert grid != bh.build_time_grid(2.0, 4) and grid != bh.build_time_grid(1.0, 8)

    def test_building_a_grid_allocates_no_nodes(self):
        # A billion steps would take 8 GB of nodes, none of which is built
        # until read.  A million steps (8 MB) run first, so a regression
        # fails there instead of asking for 8 GB.
        for steps in (10**6, 10**9):
            tracemalloc.start()
            try:
                grid = bh.build_time_grid(1.0, steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            assert grid.steps == steps and grid.dt == 1.0 / steps
            assert "nodes" not in vars(grid)

    @pytest.mark.parametrize("horizon, dt, steps", [(1.0, 0.25, 4), (0.3, 0.1, 3),
                                                    (1.0, 1e-9, 10**9)])
    def test_time_grid_of_step(self, horizon, dt, steps):
        grid = grids.time_grid_of_step(horizon, dt)
        assert grid == bh.build_time_grid(horizon, steps)
        assert "nodes" not in vars(grid)

    @pytest.mark.parametrize("dt", [0.3, 0.0, -0.25, math.inf, math.nan, 2.0])
    def test_time_grid_of_step_rejects_steps_that_do_not_divide(self, dt):
        with pytest.raises(InvalidConfigError, match="does not divide"):
            grids.time_grid_of_step(1.0, dt)


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
            bh.h1_seminorm(np.ones((2, 3, 65)), ops65)


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


    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_field_reads_as_its_one_row_block(self, ops65, value):
        # A (P,) field takes a scalar path of its own: a float with the bits
        # of row 0 of its block, for entries that overflow or are not finite.
        field = np.linspace(-1.0, 2.0, ops65.node_count)
        field[5] = value
        with np.errstate(over="ignore"):
            for norm in (bh.l2_norm, bh.h1_seminorm):
                alone = norm(field, ops65)
                assert type(alone) is float
                assert _bits([alone]) == _bits(norm(field[None], ops65))


def _outcome(check, *args):
    """What a residual gate does: None, or the class, row and residual it raises."""
    try:
        check(*args)
    except NumericalError as exc:
        return type(exc), exc.row, repr(exc.residual)
    return None


def _per_row_gate(ops, diagonal, shift, x, rhs, rtol):
    """The gate's per-row test alone, one rule for every row of a block:
    |r| = sqrt(r . r) against rtol (1 + |b|), as a row on its own takes it."""
    residual = grids.apply_shifted(ops, diagonal, shift, x) - rhs
    for row, (r, b) in enumerate(zip(residual, rhs)):
        norm = math.sqrt(r.dot(r))
        if not norm <= rtol * (1.0 + math.sqrt(b.dot(b))):
            if not math.isfinite(norm):
                raise NonFiniteError("non-finite", residual=float(norm), row=row)
            raise NumericalError("missed", residual=float(norm), row=row)


class TestResidualGate:
    """The one-dot test ahead of the per-row gate changes no outcome, and a
    row alone, as a one-row block, gets the outcome it gets in a batch."""

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
        assert self.assert_same_outcome(ops, x[:1], rhs[:1]) is None

    @pytest.mark.parametrize("bad", [0, 2, 3])
    def test_one_failing_row_is_named(self, ops, bad):
        residual = self.rows(ops, 4, norm=1e-12)
        residual[bad] *= 1e4
        in_batch = self.gate_on(ops, residual, (NumericalError, bad))
        alone = self.gate_on(ops, residual[bad:bad + 1], (NumericalError, 0))
        assert alone[2] == in_batch[2]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
    def test_non_finite_row_is_named(self, ops, value):
        # A finite right-hand side, so every limit is finite.
        rhs = np.random.default_rng(3).standard_normal((4, ops.node_count))
        x = grids.solve_shifted(ops, ops.lumped_mass, 0.25, rhs)
        x[1, 3] = x[3, 5] = value
        self.assert_same_outcome(ops, x, rhs, (NonFiniteError, 1))
        self.assert_same_outcome(ops, x[1:2], rhs[1:2], (NonFiniteError, 0))

    def test_zero_right_hand_side(self, ops):
        zero = np.zeros((3, ops.node_count))
        assert self.assert_same_outcome(ops, zero, zero) is None
        assert self.assert_same_outcome(ops, zero[:1], zero[:1]) is None
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
            single = self.assert_same_outcome(ops, x[2:], zero[2:])
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
        assert self.gate_on(ops, residual[:1]) is None


class TestFieldIsOneRowBlock:
    """A (P,) field is solved as the one-row block it views: row 0 of that
    block bit for bit, and on a missed tolerance the error the row raises
    in a batch, apart from ``row``, which is None for a field."""

    MESHES = {"1d": (1, 64, 1.0), "2d": (2, (8, 6), (1.0, 0.75))}
    CASES = {
        "1d-shared": ("1d", "mass"),
        "1d-per-row": ("1d", "varied"),
        "2d-direct": ("2d", "mass"),
        "2d-cg": ("2d", "varied"),
    }
    SHIFT = 0.3

    @pytest.fixture(scope="class")
    def meshes(self):
        return {name: bh.build_operators(*args) for name, args in self.MESHES.items()}

    def inputs(self, meshes, case, seed, rows=1):
        """Operators, ``rows`` diagonals and a right-hand side whose entries
        span eight decades, so that the row norms of the residual round."""
        mesh, kind = self.CASES[case]
        ops = meshes[mesh]
        rng = np.random.default_rng(seed)
        size = ops.node_count
        rhs = rng.standard_normal(size) * 10.0 ** rng.uniform(-4.0, 4.0, size)
        factors = 2.0 if kind == "mass" else rng.uniform(1.0, 3.0, (rows, size))
        return ops, np.broadcast_to(factors * ops.lumped_mass, (rows, size)), rhs

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_field_equals_row_zero_of_its_block(self, meshes, case, seed):
        ops, diagonals, rhs = self.inputs(meshes, case, seed, rows=3)
        x = grids.solve_shifted(ops, diagonals[0], self.SHIFT, rhs)
        assert x.shape == rhs.shape
        for diagonal in (diagonals[0], diagonals[:1]):
            block = grids.solve_shifted(ops, diagonal, self.SHIFT, rhs[None])
            assert block.shape == (1, rhs.size) and block[0].tobytes() == x.tobytes()
        # Rows with diagonals of their own are solved as fields one by one.
        rows = grids.solve_shifted(ops, diagonals, self.SHIFT, np.stack([rhs, -rhs, 2.0 * rhs]))
        for row, (diagonal, scale) in enumerate(zip(diagonals, (1.0, -1.0, 2.0))):
            single = grids.solve_shifted(ops, diagonal, self.SHIFT, scale * rhs)
            assert rows[row].tobytes() == single.tobytes()

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("seed", range(6))
    def test_missed_tolerance_reads_the_same_alone_and_in_a_batch(self, meshes, case, seed):
        # No residual of rounding size meets rtol = 1e-300, but a zero row
        # (residual 0, limit rtol) does, so the batch fails at row 2 only.
        ops, diagonals, rhs = self.inputs(meshes, case, seed, rows=4)
        batch = np.zeros((4, rhs.size))
        batch[2] = rhs
        calls = ((diagonals[2], rhs), (diagonals[2:3], rhs[None]), (diagonals, batch))
        outcomes = [_outcome(grids.solve_shifted, ops, diagonal, self.SHIFT, b, 1e-300)
                    for diagonal, b in calls]
        assert [outcome[:2] for outcome in outcomes] == [
            (NumericalError, None), (NumericalError, 0), (NumericalError, 2)]
        assert outcomes[0][2] == outcomes[1][2] == outcomes[2][2]


class TestGateProduct:
    """``_solve_shifted`` returns the x of ``solve_shifted`` and the K x its
    residual gate formed, bit for bit ``apply_stiffness(ops, x)``."""

    MESHES = {"1d": (1, 40, 1.7), "2d": (2, (8, 6), (1.0, 0.75))}
    SHIFT = 0.3
    # (diagonal, rows of the right-hand side, None for a field); a field has
    # one diagonal.
    SHAPES = [(diagonal, rows) for diagonal in ("mass-multiple", "shared", "per-row")
              for rows in (None, 1, 3) if rows or diagonal != "per-row"]

    @pytest.fixture(scope="class")
    def meshes(self):
        return {name: bh.build_operators(*args) for name, args in self.MESHES.items()}

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("diagonal, rows", SHAPES)
    @pytest.mark.parametrize("targets", [False, True], ids=["full", "atol"])
    def test_product_is_that_of_the_solution(self, meshes, mesh, diagonal, rows, targets):
        ops = meshes[mesh]
        size = ops.node_count
        rng = np.random.default_rng(size + (rows or 0))
        rhs = rng.standard_normal(size if rows is None else (rows, size))
        if diagonal == "mass-multiple":
            diag = 2.0 * ops.lumped_mass
        elif diagonal == "shared":
            diag = rng.uniform(1.0, 3.0, size) * ops.lumped_mass
        else:
            diag = rng.uniform(1.0, 3.0, (rows, size)) * ops.lumped_mass
        # Targets far above CG_RTOL |b|, so conjugate-gradient rows stop early.
        atol = 1e-4 * rng.uniform(1.0, 2.0, rows or 1) if targets else None
        x, stiffness_x = grids._solve_shifted(ops, diag, self.SHIFT, rhs, 1e-10, lambda: atol)
        assert x.shape == stiffness_x.shape == rhs.shape
        assert x.tobytes() == grids.solve_shifted(ops, diag, self.SHIFT, rhs, 1e-10,
                                                  atol).tobytes()
        assert stiffness_x.tobytes() == grids.apply_stiffness(ops, x).tobytes()

    @pytest.mark.parametrize("mesh", MESHES)
    def test_targets_are_read_only_by_conjugate_gradient_rows(self, meshes, mesh):
        # All of 1D and the 2D mass multiples are direct solves, which never
        # ask for the targets; a 2D conjugate-gradient row asks once.
        ops = meshes[mesh]
        rng = np.random.default_rng(41)
        rhs = rng.standard_normal((2, ops.node_count))
        reads = []

        def targets():
            reads.append(1)
            return np.array([1e-6, 1e-6])

        varied = rng.uniform(1.0, 3.0, ops.node_count) * ops.lumped_mass
        # Each diagonal with the reads a 2D solve makes: none for a mass
        # multiple, one for a shared diagonal, one per row for per-row ones.
        for diag, cg_reads in ((2.0 * ops.lumped_mass, 0), (varied, 1),
                               (np.stack([varied, 1.5 * varied]), 2)):
            del reads[:]
            grids._solve_shifted(ops, diag, self.SHIFT, rhs, 1e-10, targets)
            assert len(reads) == (0 if ops.dimension == 1 else cg_reads)


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

    def test_threads_sharing_one_operator_set_match_serial_runs(self):
        # Four threads step on one operator set and its factor cache.  Nine
        # step sizes each need a heat factor and a linear-alpha Jacobian
        # factor, more than the cache keeps, so the threads evict each
        # other's factors, and saturating-alpha runs factor their Jacobians
        # in between.  A lost or mixed-up factor would change some run's bits.
        time_grids = [bh.build_time_grid(0.5, steps) for steps in range(4, 13)]
        assert 2 * len(time_grids) > grids.FACTOR_CACHE_SIZE
        nls = (bh.linear(1.0), bh.saturating(2.0))
        jobs = [(grid, nl, pid) for pid in range(2) for grid in time_grids for nl in nls]

        def run(ops, job):
            grid, nl, pid = job
            data = bh.evaluate_on_mesh("cos(pi*x)", ops)
            integrand = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)
            path = bh.sample_path(grid, 9, pid)
            traj = bh.run_additive(data, data, integrand, path, grid, ops, nl)
            return traj.theta, traj.chi, traj.u, repr(traj.reports)

        serial_ops = bh.build_operators(1, 16, 1.0)
        serial = [run(serial_ops, job) for job in jobs]
        shared = bh.build_operators(1, 16, 1.0)
        pool = ThreadPoolExecutor(max_workers=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = list(pool.map(lambda job: run(shared, job), jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False)
        for ours, alone in zip(threaded, serial):
            assert all(np.array_equal(a, b) for a, b in zip(ours[:3], alone[:3]))
            assert ours[3] == alone[3]

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

    def test_eigenvalue_table_built_once_keeps_the_bits(self, ops_rect):
        # The operators carry the table lx_i + ly_j; a solve with it has the
        # bits of one that rebuilds the table from the axis eigenpairs.
        (lx, vx), (ly, vy) = ops_rect.axis_eigenpairs
        assert np.array_equal(ops_rect.eigenvalue_sums, np.add.outer(lx, ly))
        assert bh.build_operators(1, 8, 1.0).eigenvalue_sums is None
        rhs = np.random.default_rng(14).standard_normal((3, ops_rect.node_count))
        for scale, shift in ((2.7, 0.3), (1.0, 1e-4)):
            denominators = scale + shift * np.add.outer(lx, ly)
            coefficients = vx.T @ rhs.reshape(3, *denominators.shape) @ vy
            expected = (vx @ (coefficients / denominators) @ vy.T).reshape(rhs.shape)
            solve = grids._fast_diagonalization(ops_rect, scale, shift)
            assert np.array_equal(solve(rhs), expected)
            assert np.array_equal(solve(rhs[0]), expected[0])


def _scipy_cg(matvec, b, psolve, rtol, atol=0.0, callback=None):
    """``grids.cg`` through scipy's ``LinearOperator`` and ``cg``: the oracle
    whose arithmetic the in-house conjugate gradient reproduces."""
    from scipy.sparse.linalg import LinearOperator, cg

    shape = (b.size, b.size)
    return cg(LinearOperator(shape, matvec=matvec), b, rtol=rtol, atol=atol,
              M=LinearOperator(shape, matvec=psolve), callback=callback)


class TestConjugateGradient:
    """The in-house conjugate gradient against scipy's, and the per-row
    absolute targets that ``solve_shifted`` hands it."""

    SHIFT = 0.4

    @staticmethod
    def problem(cells, seed):
        ops = bh.build_operators(2, cells, (1.0, 1.5))
        rng = np.random.default_rng(seed)
        diagonal = rng.uniform(2.0, 4.0, ops.node_count) * ops.lumped_mass
        return ops, diagonal, rng

    @staticmethod
    def count_iterations(monkeypatch):
        """Patch ``grids.cg`` to count its iterations, one entry per call."""
        counts = []
        real_cg = grids.cg

        def counting_cg(*args, **kwargs):
            counts.append(0)

            def callback(xk):
                counts[-1] += 1

            return real_cg(*args, callback=callback, **kwargs)

        monkeypatch.setattr(grids, "cg", counting_cg)
        return counts

    @staticmethod
    def counted(solver, *args, **kwargs):
        calls = []
        x, info = solver(*args, callback=lambda xk: calls.append(1), **kwargs)
        return x, info, len(calls)

    @pytest.mark.parametrize("cells", [(8, 8), (32, 32), (32, 16)])
    def test_bit_for_bit_scipy(self, cells):
        ops, diagonal, rng = self.problem(cells, 31)
        ratio = diagonal / ops.lumped_mass
        psolve = grids._fast_diagonalization(ops, 0.5 * (ratio.min() + ratio.max()), self.SHIFT)

        def matvec(v):
            return grids.apply_shifted(ops, diagonal, self.SHIFT, v)

        for b in (rng.standard_normal(ops.node_count),
                  1e6 * rng.standard_normal(ops.node_count), np.zeros(ops.node_count)):
            ours = self.counted(grids.cg, matvec, b, psolve, grids.CG_RTOL)
            theirs = self.counted(_scipy_cg, matvec, b, psolve, grids.CG_RTOL)
            assert ours[0].tobytes() == theirs[0].tobytes()
            assert ours[1:] == theirs[1:]
            if not b.any():
                assert not ours[0].any() and ours[1:] == (0, 0)
            else:
                assert ours[1] == 0 and ours[2] > 0

    @pytest.mark.parametrize("cells", [(8, 8), (32, 16)])
    @pytest.mark.parametrize("targets", [None, "rows"])
    def test_solve_shifted_bits_are_those_of_scipy_cg(self, monkeypatch, cells, targets):
        ops, diagonal, rng = self.problem(cells, 32)
        diagonals = np.stack([diagonal, rng.uniform(2.0, 4.0, ops.node_count) * ops.lumped_mass])
        rhs = rng.standard_normal((2, ops.node_count))
        atol = None if targets is None else np.array([1e-3, 1e-9])
        for diag in (diagonal, diagonals):
            ours = grids.solve_shifted(ops, diag, self.SHIFT, rhs, atol=atol)
            monkeypatch.setattr(grids, "cg", _scipy_cg)
            theirs = grids.solve_shifted(ops, diag, self.SHIFT, rhs, atol=atol)
            monkeypatch.undo()
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("per_row", [False, True])
    def test_each_row_stops_at_its_own_target(self, monkeypatch, per_row):
        ops, diagonal, rng = self.problem((16, 16), 33)
        b = rng.standard_normal(ops.node_count)
        rhs = np.stack([b, b])
        diag = np.stack([diagonal, diagonal.copy()]) if per_row else diagonal
        if per_row:
            # Equal rows would count as one shared diagonal; a nudge keeps
            # them apart without changing what the rows converge to.
            diag[1, 0] = np.nextafter(diag[1, 0], np.inf)
        counts = self.count_iterations(monkeypatch)
        rtol = 1e-10
        loose = 1e-4 * math.sqrt(b.dot(b))
        x = grids.solve_shifted(ops, diag, 0.3, rhs, rtol=rtol, atol=np.array([loose, 0.0]))
        assert counts[0] < counts[1]
        del counts[:]
        for row, target in enumerate((loose, 0.0)):
            d = diag[row] if per_row else diag
            alone = grids.solve_shifted(ops, d, 0.3, b, rtol=rtol, atol=np.array([target]))
            assert alone.tobytes() == x[row].tobytes()
            residual = np.linalg.norm(grids.apply_shifted(ops, d, 0.3, alone) - b)
            assert residual <= max(target, grids.CG_RTOL * np.linalg.norm(b)) * 1.01

    def test_target_stops_inside_the_gate_it_sets(self):
        # A conjugate-gradient row with target atol is gated at
        # max(rtol (1 + |b|), 2 atol) and stops inside half of it; a row
        # without a target keeps the gate rtol (1 + |b|) and stops inside
        # half of that, the former cap.
        ops, diagonal, rng = self.problem((16, 16), 34)
        rtol = 1e-10
        for scale in (1e-8, 1.0, 1e8):
            b = scale * rng.standard_normal(ops.node_count)
            bnorm = np.linalg.norm(b)
            for target in (1e-4 * bnorm, 1e-3 * rtol * (1.0 + bnorm), None):
                atol = None if target is None else np.array([target])
                x = grids.solve_shifted(ops, diagonal, 0.3, b, rtol=rtol, atol=atol)
                residual = np.linalg.norm(grids.apply_shifted(ops, diagonal, 0.3, x) - b)
                gate = max(rtol * (1.0 + bnorm), 2.0 * (target or 0.0))
                assert 0.0 < residual <= 0.5 * gate * 1.01

    @pytest.mark.parametrize("per_row", [False, True])
    def test_row_that_misses_its_relaxed_gate_is_named(self, monkeypatch, per_row):
        # The conjugate gradient of row 1 returns zero and claims success:
        # its residual |b| is above its relaxed gate 2 atol = |b| / 2.
        ops, diagonal, rng = self.problem((16, 16), 37)
        rhs = rng.standard_normal((2, ops.node_count))
        diag = np.stack([diagonal, 1.5 * diagonal]) if per_row else diagonal
        atol = 0.25 * np.sqrt((rhs * rhs).sum(axis=1))
        real_cg = grids.cg
        calls = []

        def missing_cg(matvec, b, psolve, rtol, atol=0.0, callback=None):
            calls.append(atol)
            if len(calls) == 2:
                return np.zeros(b.shape), 0
            return real_cg(matvec, b, psolve, rtol, atol, callback=callback)

        monkeypatch.setattr(grids, "cg", missing_cg)
        with pytest.raises(NumericalError) as info:
            grids.solve_shifted(ops, diag, 0.3, rhs, rtol=1e-10, atol=atol)
        assert type(info.value) is NumericalError and info.value.row == 1
        assert info.value.residual == pytest.approx(np.linalg.norm(rhs[1]))
        assert calls == list(atol)

    def test_direct_solves_ignore_targets(self):
        # All of 1D and the 2D mass multiples are solved directly.
        rng = np.random.default_rng(35)
        one_d = bh.build_operators(1, 32, 1.0)
        two_d = bh.build_operators(2, (8, 8), (1.0, 1.0))
        for ops, factor in ((one_d, 2.0), (one_d, rng.uniform(2.0, 4.0, one_d.node_count)),
                            (two_d, 2.0)):
            diagonal = factor * ops.lumped_mass
            rhs = rng.standard_normal((2, ops.node_count))
            exact = grids.solve_shifted(ops, diagonal, 0.3, rhs)
            loose = grids.solve_shifted(ops, diagonal, 0.3, rhs, atol=np.array([1.0, 1.0]))
            assert exact.tobytes() == loose.tobytes()

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("atol, error", [
        ([math.inf, 0.0], InvalidConfigError), ([0.0, math.nan], InvalidConfigError),
        ([-1.0, 0.0], InvalidConfigError), ([0.0], FieldShapeError),
        ([0.0, 0.0, 0.0], FieldShapeError),
    ], ids=["inf", "nan", "negative", "short", "long"])
    def test_conjugate_gradient_rows_validate_targets(self, per_row, atol, error):
        # Conjugate-gradient rows read the targets, so they check them; the
        # direct solve of a mass multiple ignores them.
        ops, diagonal, rng = self.problem((8, 8), 38)
        rhs = rng.standard_normal((2, ops.node_count))
        diag = np.stack([diagonal, 1.5 * diagonal]) if per_row else diagonal
        with pytest.raises(error):
            grids.solve_shifted(ops, diag, 0.3, rhs, atol=np.array(atol))
        mass_multiple = 2.0 * ops.lumped_mass
        exact = grids.solve_shifted(ops, mass_multiple, 0.3, rhs)
        ignored = grids.solve_shifted(ops, mass_multiple, 0.3, rhs, atol=np.array(atol))
        assert exact.tobytes() == ignored.tobytes()

    @pytest.mark.parametrize("per_row", [False, True])
    def test_non_finite_rhs_fails_fast_and_names_its_row(self, monkeypatch, per_row):
        ops, diagonal, rng = self.problem((32, 32), 36)
        rhs = rng.standard_normal((2, ops.node_count))
        rhs[1, 7] = np.nan
        diag = np.stack([diagonal, 1.5 * diagonal]) if per_row else diagonal
        counts = self.count_iterations(monkeypatch)
        with pytest.raises(NonFiniteError) as info:
            grids.solve_shifted(ops, diag, 0.3, rhs)
        assert info.value.row == 1
        assert len(counts) == 2 and counts[0] > 1 and counts[1] <= 1
        with pytest.raises(NonFiniteError) as info:
            grids.solve_shifted(ops, diagonal, 0.3, rhs[1])
        assert info.value.row is None
