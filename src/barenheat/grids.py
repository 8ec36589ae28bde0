"""Uniform time grids and spatial Neumann operators.

The spatial discretization is piecewise-linear finite elements on a uniform
grid of a 1D interval or a 2D rectangle, with row-sum (diagonal) mass
lumping.  The lumped mass vector defines the discrete L2 inner product and
the stiffness operator defines the H1 seminorm; the stiffness annihilates
constant fields, which is the discrete form of the zero-flux boundary
condition.  Lumping keeps every pointwise nonlinearity diagonal, so the
implicit solves in the stepper are (diagonal + stiffness) SPD systems.

Fields are nodal vectors of length P, and a batch of M fields (one per
Monte Carlo path, or one per time node) is an (M, P) block whose rows are
treated one by one, so every row gets the bits it would get on its own;
``l2_norm`` and ``h1_seminorm`` reduce one (P,) field by ``math.sqrt`` of
one ``ddot``, with the bits of row 0 of its one-row block and without its
per-call overhead.  Every row norm of a block, the residual gate's
included, comes from ``_row_dots``, which numpy hands row by row to the
BLAS ``ddot`` that ``row.dot(row)`` calls, never to a gemv (M, P) @ (P,)
with M > 1, whose summation order differs.

Shifted solves of diag(d) + shift K have one API, a bind and a gate.
``_bind_unchecked`` binds a solve once for one (P,) diagonal and shift,
without its residual gate; ``_solve_spans`` runs bound solves on row spans
of a block, each with its own shift (rows with diagonals of their own are
one span each), and ``_gated`` also gates the whole block once.  The gate
forms A x = d x + shift K x and hands that K x back with x, bit for bit
``apply_stiffness(ops, x)``, so a caller that needs it (Newton's trial
residual after a step from u = 0) does not form it again.

In 1D the systems are SPD tridiagonal: a bind factors the operator with
LAPACK ``dpttrf``, and its solve runs every row of a span through one
multi-column ``dpttrs`` call.  ``solveh_banded`` on the two-row band calls
``?ptsv``, which is exactly ``pttrf`` followed by ``pttrs``, so a bound
solve has its bits.  In 2D the mass and stiffness are Kronecker products
of 1D ones, so fast diagonalization (Lynch, Rice & Thomas 1964) solves
(a M + c K) x = r exactly with four small matrix products, on a whole
batch at once; any other diagonal uses that solve as a conjugate-gradient
preconditioner, row by row, whose iteration count does not grow with the
mesh.  The conjugate gradient, ``cg``, has the arithmetic of
``scipy.sparse.linalg.cg`` without its operator dispatch.  A row may get an
absolute residual target, which only a conjugate-gradient row reads and
whose gate then follows it, so that an inexact Newton correction is solved
only as far as Newton needs.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs
# The CSR kernels behind ``stiffness @ v``, called without scipy.sparse's
# Python dispatch; private to SciPy, present in every version the pin allows.
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .errors import FieldShapeError, InvalidConfigError, NonFiniteError, NumericalError

# Relative tolerance of the preconditioned conjugate gradient used for 2D
# solves whose diagonal is not a multiple of the lumped mass.
CG_RTOL = 1e-13

# The rows of a single span of ``_solve_spans``: all of them.
_EVERY_ROW = slice(None)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform mesh of [0, T] with N steps of size dt = T/N; its N + 1 nodes
    t_n = n * (T/N) are computed on first read of ``nodes`` and kept, so
    building a grid allocates nothing of size N."""

    horizon: float
    steps: int
    dt: float

    @cached_property
    def nodes(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)


def build_time_grid(horizon, steps):
    """Build the uniform time grid of [0, T] with N = ``steps`` steps."""
    if not 0 < horizon < math.inf:
        raise InvalidConfigError(f"time horizon must be finite and positive, got {horizon}")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise InvalidConfigError(f"step count must be an integer >= 1, got {steps}")
    steps = int(steps)
    return TimeGrid(horizon=float(horizon), steps=steps, dt=horizon / steps)


def time_grid_of_step(horizon, dt):
    """The uniform grid of [0, T] with step ``dt``; raises InvalidConfigError
    unless N = T / dt is an integer to within 1e-9 T.  Builds no nodes, so
    it validates a step of any size."""
    count = horizon / dt if 0.0 < dt < math.inf else math.inf
    if not math.isfinite(count) or abs(round(count) * dt - horizon) > 1e-9 * horizon:
        raise InvalidConfigError(f"dt level {dt} does not divide the horizon T = {horizon}")
    return build_time_grid(horizon, round(count))


@dataclass(frozen=True, eq=False)
class SpatialOperators:
    """Lumped mass and Neumann stiffness of a uniform P1 grid, equal only to
    itself (identity), so that an operator set is hashable.

    Attributes
    ----------
    lumped_mass : positive vector of length P; sums to |D|, the length or
        area of the domain.
    stiffness : symmetric positive-semidefinite sparse P x P operator whose
        kernel contains the constant field.
    coordinates : (P, dimension) node coordinates, x varying slowest in 2D.
    axis_eigenpairs : in 2D, per axis the generalized eigenpairs
        (values, vectors) of the 1D pencil (K_axis, M_axis), scaled so that
        V^T M_axis V = I; empty in 1D.

    The rest is derived from these.  ``dimension`` (1 or 2, the columns of
    ``coordinates``) and ``node_count`` (P, the length of ``lumped_mass``)
    are set at construction, so that kernels read them as plain attributes.
    Computed on first read and kept:
    eigenvalue_sums : in 2D, the (nx, ny) table lx_i + ly_j of the axis
        eigenvalues, the spectrum of K in the basis Vx (x) Vy; None in 1D.
    stiffness_band : in 1D, the main and first off diagonal of K, (P,) and
        (P - 1,), which every tridiagonal factorization reads; empty in 2D.
    """

    dimension: int = field(init=False)
    node_count: int = field(init=False)
    lumped_mass: np.ndarray = field(repr=False)
    stiffness: sp.csr_matrix = field(repr=False)
    coordinates: np.ndarray = field(repr=False)
    axis_eigenpairs: tuple = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dimension", self.coordinates.shape[1])
        object.__setattr__(self, "node_count", self.lumped_mass.size)

    @cached_property
    def eigenvalue_sums(self):
        pairs = self.axis_eigenpairs
        return np.add.outer(pairs[0][0], pairs[1][0]) if self.dimension == 2 else None

    @cached_property
    def stiffness_band(self):
        return (self.stiffness.diagonal(), self.stiffness.diagonal(1)) if self.dimension == 1 else ()


def _axis(cells, length):
    """One axis of ``cells`` uniform cells: its lumped mass, the main and
    first off diagonal of its stiffness, and its node coordinates."""
    dx = length / cells
    n = cells + 1
    mass = np.full(n, dx)
    mass[0] = mass[-1] = dx / 2.0
    main = np.full(n, 2.0 / dx)
    main[0] = main[-1] = 1.0 / dx
    off = np.full(n - 1, -1.0 / dx)
    return mass, main, off, np.linspace(0.0, length, n)


def _stencil_csr(columns, values, present):
    """The CSR matrix whose row p holds ``values[p, k]`` at column
    ``columns[p, k]`` for each k where ``present[p, k]``; each row's
    columns increase with k, so the indices are sorted."""
    size = len(columns)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((values[present], columns[present].astype(np.int32), indptr),
                         shape=(size, size))


def _axis_eigenpairs(mass, main, off):
    """Eigenpairs of K v = lam M v on one axis, K the tridiagonal stiffness
    with diagonals ``main`` and ``off``, scaled so that V^T M V = I.

    M^(-1/2) K M^(-1/2) is symmetric tridiagonal; its orthonormal
    eigenvectors W give V = M^(-1/2) W.
    """
    scale = 1.0 / np.sqrt(mass)
    values, vectors = eigh_tridiagonal(main * scale**2, off * scale[:-1] * scale[1:])
    return values, scale[:, None] * vectors


def build_operators(dimension, cells, lengths):
    """Assemble lumped mass and stiffness for a uniform grid.

    ``cells`` and ``lengths`` are scalars in 1D or length-2 sequences in 2D.
    The 2D operators are tensor products of the 1D ones: the stiffness is
    Kx (x) My + Mx (x) Ky with lumped cross masses, i.e. the standard
    5-point zero-flux Laplacian scaled by cell volume.  Both stiffness
    matrices are built as CSR arrays straight from their stencils, with
    the entries, sums and sorted columns of that Kronecker sum; the two
    axes share their eigenpairs where they are alike.
    """
    if dimension not in (1, 2):
        raise InvalidConfigError(f"dimension must be 1 or 2, got {dimension}")
    cells = np.atleast_1d(np.asarray(cells))
    lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
    if cells.size != dimension or lengths.size != dimension:
        raise InvalidConfigError(
            f"expected {dimension} cell count(s) and length(s), got {cells.size} and {lengths.size}"
        )
    if cells.dtype.kind not in "iu" or np.any(cells < 1):
        raise InvalidConfigError(
            f"each axis needs an integer count of at least one cell, got {cells.tolist()}")
    if not np.all((lengths > 0) & (lengths < math.inf)):
        raise InvalidConfigError(f"axis lengths must be finite and positive, got {lengths.tolist()}")

    axes = [_axis(int(c), float(length)) for c, length in zip(cells, lengths)]
    if dimension == 1:
        mass, main, off, coords = axes[0]
        k = np.arange(len(mass))
        stiffness = _stencil_csr(
            np.column_stack((k - 1, k, k + 1)),
            np.column_stack((np.r_[0.0, off], main, np.r_[off, 0.0])),
            np.column_stack((k > 0, k >= 0, k < len(mass) - 1)))
        return SpatialOperators(mass, stiffness, coords.reshape(-1, 1))

    (mx, kx, ox, cx), (my, ky, oy, cy) = axes
    nx, ny = len(mx), len(my)
    node = np.arange(nx * ny)
    i, j = np.divmod(node, ny)
    # Row (i, j) of Kx (x) My + Mx (x) Ky: the x neighbours i -/+ 1 read
    # Kx, the y neighbours j -/+ 1 read Ky, and the diagonal is the sum
    # kx_ii my_j + mx_i ky_jj.
    stiffness = _stencil_csr(
        np.column_stack((node - ny, node - 1, node, node + 1, node + ny)),
        np.column_stack((np.r_[0.0, ox][i] * my[j], mx[i] * np.r_[0.0, oy][j],
                         kx[i] * my[j] + mx[i] * ky[j],
                         mx[i] * np.r_[oy, 0.0][j], np.r_[ox, 0.0][i] * my[j])),
        np.column_stack((i > 0, j > 0, i >= 0, j < ny - 1, i < nx - 1)))
    xs, ys = np.meshgrid(cx, cy, indexing="ij")
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    pairs = _axis_eigenpairs(mx, kx, ox)
    alike = cells[0] == cells[1] and lengths[0] == lengths[1]
    return SpatialOperators(np.kron(mx, my), stiffness, coords,
                            (pairs, pairs if alike else _axis_eigenpairs(my, ky, oy)))


def _check_field(v, ops):
    """One field (P,) or an (M, P) block, as floats."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (ops.node_count,) or v.ndim > 2:
        raise FieldShapeError(f"field has shape {v.shape}, operators expect "
                              f"({ops.node_count},) or (M, {ops.node_count})")
    return v


def _row_dots(a, b):
    """a_i . b_i for each row i of an (M, P) block ``a``; ``b`` is a block
    of the same shape, or one (P,) field shared by every row.

    Each (1, P) by (P, 1) item of the stacked product goes to the BLAS
    ``ddot`` that ``a[i].dot(b[i])`` calls, so every entry has its bits;
    numpy takes a one-row block dot (P,) as two vectors, one such ``ddot``.
    """
    if len(a) == 1:
        return a.dot(b.reshape(-1))
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def l2_norm(v, ops):
    """Discrete L2 norm sqrt(sum_i M_i v_i^2): a float for one field (P,), an
    array of the M row norms for an (M, P) block."""
    v = _check_field(v, ops)
    if v.ndim == 1:
        return math.sqrt((v * v).dot(ops.lumped_mass))
    return np.sqrt(_row_dots(v * v, ops.lumped_mass))


def row_norms(fields):
    """Euclidean norm of each row of an (M, P) batch, as a list of M floats.

    sqrt(x . x) per row is what ``np.linalg.norm`` computes for a real
    vector, without its per-call overhead; ``_row_dots`` takes the M dot
    products in one call, and ``np.sqrt``, like ``math.sqrt``, is correctly
    rounded, so every entry has the bits of ``math.sqrt(row.dot(row))``.
    """
    return np.sqrt(_row_dots(fields, fields)).tolist()


def h1_seminorm(v, ops):
    """Discrete H1 seminorm sqrt(v . K v), zero on constants: a float for one
    field (P,), an array of the M row seminorms for an (M, P) block."""
    v = _check_field(v, ops)
    if v.ndim == 1:
        return math.sqrt(max(v.dot(apply_stiffness(ops, v)), 0.0))
    return np.sqrt(np.maximum(_row_dots(v, apply_stiffness(ops, v)), 0.0))


def apply_stiffness(ops, fields):
    """K v for one field (P,), or for each row of an (M, P) batch.

    Runs the CSR kernels that ``ops.stiffness @ v`` runs, so every row gets
    the bits of that product, without scipy.sparse's per-call dispatch.
    """
    stiffness = ops.stiffness
    size = ops.node_count
    fields = np.asarray(fields, dtype=float)
    if fields.ndim == 1 or len(fields) == 1:
        # One field, possibly as a one-row batch: both are P contiguous values.
        fields = np.ascontiguousarray(fields)
        out = np.zeros(fields.shape)
        csr_matvec(size, size, stiffness.indptr, stiffness.indices, stiffness.data, fields, out)
        return out
    count = len(fields)
    columns = np.ascontiguousarray(fields.T)
    out = np.zeros((size, count))
    csr_matvecs(size, size, count, stiffness.indptr, stiffness.indices, stiffness.data,
                columns.ravel(), out.ravel())
    return np.ascontiguousarray(out.T)


def apply_shifted(ops, diagonal, shift, v):
    """Apply diag(diagonal) + shift * K to a field or to each row of a batch."""
    return diagonal * v + shift * apply_stiffness(ops, v)


def _fast_diagonalization(ops, scale, shift):
    """Exact solver of (scale * M + shift * K) x = r on a 2D mesh.

    With V = Vx (x) Vy from the axis eigenpairs, V^T M V = I and
    V^T K V = Lx (+) Ly, so the inverse is V diag(1 / (scale + shift *
    (lx_i + ly_j))) V^T; x varies slowest, so a field reshapes to (nx, ny),
    and a batch to (M, nx, ny), whose matrix products run row by row.  The
    table lx_i + ly_j is built once with the operators.
    """
    (_, vx), (_, vy) = ops.axis_eigenpairs
    denominators = scale + shift * ops.eigenvalue_sums

    def solve(r):
        coefficients = vx.T @ r.reshape(r.shape[:-1] + denominators.shape) @ vy
        return (vx @ (coefficients / denominators) @ vy.T).reshape(r.shape)

    return solve


def cg(matvec, b, psolve, rtol, atol=0.0, callback=None):
    """Preconditioned conjugate gradient for A x = b from x = 0.

    ``matvec`` applies the SPD matrix A and ``psolve`` the SPD
    preconditioner to a (P,) vector.  Stops once |r| < max(atol, rtol |b|)
    for the recursively updated residual r, or after 10 P iterations, and
    returns ``(x, info)``: info is 0 on convergence, else the iterations
    run.  The arithmetic, its order and the stopping rule are those of
    ``scipy.sparse.linalg.cg`` with ``x0=None``, so x has its bits; it calls
    ``callback(x)`` after each iteration as that does.  Raises
    NonFiniteError at the first NaN or infinite residual norm or
    ``r . z``, where scipy would run all its iterations.
    """
    bnorm = math.sqrt(b.dot(b))
    atol = max(float(atol), rtol * bnorm)
    if bnorm == 0:
        return b, 0
    maxiter = 10 * len(b)
    x = np.zeros(b.shape)
    r = b.copy()
    p = None
    rho_prev = None
    for _ in range(maxiter):
        norm = math.sqrt(r.dot(r))
        if norm < atol:
            return x, 0
        z = psolve(r)
        rho = r.dot(z)
        if not (math.isfinite(norm) and math.isfinite(rho)):
            raise NonFiniteError("conjugate gradient met a non-finite residual",
                                 residual=norm)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / p.dot(q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def _by_row(solve, *batches):
    """Stack ``solve`` over the rows of the batches; a failure names its row."""
    rows = []
    for row, args in enumerate(zip(*batches)):
        try:
            rows.append(solve(*args))
        except NumericalError as exc:
            exc.row = row
            raise
    return np.stack(rows)


def _check_residual(ops, diagonal, shift, x, rhs, rtol, floors=None):
    """Raise unless every row i of the block meets
    |A x - rhs_i| <= max(rtol (1 + |rhs_i|), floors_i), or the first bound
    where ``floors`` is None; return the K x that A x = diagonal x + shift K x
    is formed from.

    One dot product over the whole residual settles the common case: every
    row norm is at most the block norm and every limit is at least rtol, so
    a block norm of at most rtol / 2, a margin far above the rounding of
    either side, passes every row.  Any other block, NaN and infinity
    included, goes through the per-row test on ``_row_dots`` norms, which
    decides what is raised with the bits a row has on its own.
    """
    stiffness_x = apply_stiffness(ops, x)
    residual = (diagonal * x + shift * stiffness_x) - rhs
    flat = residual.ravel()
    if math.sqrt(flat.dot(flat)) <= 0.5 * rtol:
        return stiffness_x
    norms = np.sqrt(_row_dots(residual, residual))
    limits = rtol * (1.0 + np.sqrt(_row_dots(rhs, rhs)))
    passed = norms <= (limits if floors is None else np.maximum(limits, floors))
    if passed.all():
        return stiffness_x
    row = int(passed.argmin())
    norm = float(norms[row])
    if not math.isfinite(norm):
        raise NonFiniteError("shifted-operator solve produced a non-finite residual",
                             residual=norm, row=row)
    raise NumericalError("shifted-operator solve missed its tolerance", residual=norm, row=row)


def _tridiagonal_solve(factor, rhs, targets_of, rows):
    """``(x, None)``: every row of an (M, P) block solved against
    ``factor``, the ``(d, e, info)`` of ``dpttrf``, with the floors of a
    direct solve, so that with ``factor`` bound it is a bound solve of
    ``_gated``.  Raises NumericalError where ``dpttrf`` met a leading minor
    that is not positive."""
    d, e, info = factor
    if info != 0:
        raise NumericalError(f"shifted operator is not positive definite (leading minor {info})")
    # The rows of a C-ordered batch are the columns that dpttrs solves.
    x, info = dpttrs(d, e, rhs.T)
    if info != 0:
        raise NumericalError(f"tridiagonal solve rejected its arguments (info {info})")
    return x.T, None


def _bind_unchecked(ops, diagonal, shift):
    """The solve of diag(``diagonal``) + ``shift`` K without its residual
    gate, bound once for one (P,) ``diagonal``: a function ``solve(rhs,
    targets_of, rows)`` of an (M, P) block, the rows ``rows`` of the block
    that ``_gated`` solves, which returns the solution and the floors of
    the rows' residual gates.

    In 1D it solves against the ``dpttrf`` factor of the operator, taken
    here; where the operator cannot be factored the bound solve raises, so
    the error comes from the solve.
    In 2D a multiple of the lumped mass is solved directly by fast
    diagonalization.  Direct solves have no floors (None).  Any other 2D
    diagonal runs the conjugate gradient on each row, preconditioned by
    that solve at the mean of the extremes of diagonal / lumped mass, to the
    absolute targets ``targets_of()[rows]`` (zero where ``targets_of`` is
    None), which are read only here; its floors are twice those targets.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    shift = float(shift)
    if ops.dimension == 1:
        main, off = ops.stiffness_band
        return partial(_tridiagonal_solve, dpttrf(diagonal + shift * main, shift * off))
    ratio = diagonal / ops.lumped_mass
    low, high = float(ratio.min()), float(ratio.max())
    direct_solve = _fast_diagonalization(ops, 0.5 * (low + high), shift)
    if low == high:
        return lambda rhs, targets_of, rows: (direct_solve(rhs), None)

    def matvec(v):
        return apply_shifted(ops, diagonal, shift, v)

    def conjugate_gradient(b, target):
        x, info = cg(matvec, b, direct_solve, CG_RTOL, target)
        if info != 0:
            residual = float(np.linalg.norm(matvec(x) - b))
            raise NumericalError("conjugate gradient did not converge", residual=residual)
        return x

    def solve(rhs, targets_of, rows):
        targets = np.zeros(len(rhs)) if targets_of is None else targets_of()[rows]
        return _by_row(conjugate_gradient, rhs, targets), 2.0 * targets

    return solve


def _solve_spans(spans, rhs, targets_of=None, solve=2):
    """Solve the (M, P) block ``rhs`` span by span: ``(x, floors)``, floors
    of the rows' residual gates or None.  ``spans`` lists tuples ``(start,
    stop, ...)`` in row order, whose item ``solve``, bound by
    ``_bind_unchecked``, solves the rows start:stop; a single span solves
    every row, whatever its bounds, and costs no copy, and a NumericalError
    of a span names its row in the block.  ``targets_of``, called only by a
    conjugate-gradient span, returns the (M,) finite and nonnegative
    absolute residual targets of the block's rows; None asks for full
    solves."""
    if len(spans) == 1:
        return spans[0][solve](rhs, targets_of, _EVERY_ROW)
    parts, floors = [], None
    for span in spans:
        start, stop = span[0], span[1]
        try:
            part, floor = span[solve](rhs[start:stop], targets_of, slice(start, stop))
        except NumericalError as exc:
            exc.row = start + (exc.row or 0)
            raise
        parts.append(part)
        if floor is not None:
            floors = np.zeros(len(rhs)) if floors is None else floors
            floors[start:stop] = floor
    return np.concatenate(parts), floors


def _gated(ops, diagonal, shift, rtol, spans, rhs, targets_of=None, solve=2):
    """``_solve_spans``, then one residual gate of the whole block against
    diag(``diagonal``) + ``shift`` K, ``diagonal`` (P,) or one row per
    block row; returns ``(x, K x)``.  ``shift`` is a float, or the (M, 1)
    column of each row's shift: the gate takes it elementwise, so a row
    gets the bits of a gate with its own float shift."""
    x, floors = _solve_spans(spans, rhs, targets_of, solve)
    return x, _check_residual(ops, diagonal, shift, x, rhs, rtol, floors)
