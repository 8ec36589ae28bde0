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
``solve_shifted`` solves one (P,) field as a one-row block, and ``l2_norm``
and ``h1_seminorm`` reduce it by ``math.sqrt`` of one ``ddot``, with the
bits of row 0 of that block and without its per-call overhead (about a
third of the time at P = 65).  Every row norm of a block, the residual
gate's included, comes from ``_row_dots``, which numpy hands row by row to
the BLAS ``ddot`` that ``row.dot(row)`` calls, never to a gemv
(M, P) @ (P,) with M > 1, whose summation order differs.

Every shifted solve ends in a residual gate, which forms A x = diagonal x
+ shift K x.  ``_solve_shifted`` returns that K x with x, bit for bit
``apply_stiffness(ops, x)``, so a caller that needs it (Newton's trial
residual after a step from u = 0) does not form it a second time; it also
takes ``atol`` through a function that only a conjugate-gradient row
calls, so a caller builds its targets only where they are read.
``solve_shifted`` is ``_solve_shifted`` without the product.

In 1D those systems are symmetric positive-definite tridiagonal.  Each
distinct (shift, diagonal) pair whose diagonal is a multiple of the lumped
mass is factored once by LAPACK ``dpttrf`` and every right-hand side is
solved by ``dpttrs`` against the stored factor, so the heat operator
M + dt K is factored once per time step size and the linear-alpha Newton
Jacobian once as well, and a batch that shares the diagonal is solved by
one multi-column ``dpttrs`` call; the factors live in a small bounded cache
owned by the operators.  Any other diagonal, such as a Newton Jacobian of
nonlinear alpha, is factored and solved on the spot, row by row for a batch
whose diagonal rows differ.  ``solveh_banded`` on a two-row band
calls ``?ptsv``, which is exactly ``pttrf`` followed by ``pttrs``, so the
cached solve returns the same bits as refactoring on every call.  In 2D
the mass and stiffness are Kronecker products of 1D ones, so fast
diagonalization (Lynch, Rice & Thomas 1964) solves (a M + c K) x = r
exactly with four small matrix products, on a whole batch at once; a
diagonal that is not a multiple of the mass uses that solve as a
conjugate-gradient preconditioner, row by row, whose iteration count does
not grow with the mesh.  The conjugate gradient, ``cg``, is a short loop
with the arithmetic of ``scipy.sparse.linalg.cg`` and without its
operator dispatch; a caller may hand each row an absolute residual target,
so that an inexact Newton correction is solved only as far as Newton
needs, and the residual gate of such a row follows its target.
"""

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

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

# Tridiagonal factors kept per 1D operator set.  Only shared operators are
# kept, those whose diagonal is a multiple of the lumped mass: each time step
# size needs one for the heat operator and, with linear alpha, one for the
# Newton Jacobian, so a Monte Carlo study over up to eight dt levels keeps
# all of them.  A Jacobian of nonlinear alpha is never bit-equal again, so
# it is factored and solved without entering the cache.
FACTOR_CACHE_SIZE = 16


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
    if not horizon > 0:
        raise InvalidConfigError(f"time horizon must be positive, got {horizon}")
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


class _TridiagonalFactors:
    """Bounded, thread-safe cache of ``dpttrf`` factors of diag + shift K.

    Keyed by the shift and the diagonal's bytes, so a factor is reused only
    for a bit-equal diagonal; a factor enters the cache only when its
    diagonal is a multiple of the lumped mass ``mass``.  Callers may share
    one operator set between threads; every access to the dict holds the
    lock, and the factorization itself runs outside it (two threads may
    factor the same key; both results are identical).
    """

    def __init__(self, main, off, mass):
        self.main = main
        self.off = off
        self.mass = mass
        self._factors = OrderedDict()
        self._lock = threading.Lock()

    def __reduce__(self):
        # Locks do not pickle or deep-copy; a copy starts with no factors.
        return type(self), (self.main, self.off, self.mass)

    def __len__(self):
        with self._lock:
            return len(self._factors)

    def _factor(self, diagonal, shift):
        d, e, info = dpttrf(diagonal + shift * self.main, shift * self.off)
        if info != 0:
            raise NumericalError(
                f"shifted operator is not positive definite (leading minor {info})"
            )
        return d, e

    @staticmethod
    def _apply(factor, rhs):
        # The rows of a C-ordered batch are the columns that dpttrs solves.
        x, info = dpttrs(*factor, rhs.T)
        if info != 0:
            raise NumericalError(f"tridiagonal solve rejected its arguments (info {info})")
        return x.T

    def solve(self, diagonal, shift, rhs):
        """Solve for every row of an (M, P) block."""
        key = (shift, diagonal.tobytes())
        with self._lock:
            factor = self._factors.get(key)
            if factor is not None:
                self._factors.move_to_end(key)
        if factor is None:
            factor = self._factor(diagonal, shift)
            ratio = diagonal / self.mass
            if ratio.min() == ratio.max():
                with self._lock:
                    self._factors[key] = factor
                    while len(self._factors) > FACTOR_CACHE_SIZE:
                        self._factors.popitem(last=False)
        return self._apply(factor, rhs)

    def solve_once(self, diagonal, shift, rhs):
        """Factor and solve without the cache, for a diagonal used once."""
        return self._apply(self._factor(diagonal, shift), rhs)


@dataclass(frozen=True)
class SpatialOperators:
    """Lumped mass and Neumann stiffness of a uniform P1 grid.

    Attributes
    ----------
    dimension : 1 or 2.
    node_count : total number of nodes P.
    domain_measure : |D|, the length or area of the domain.
    lumped_mass : positive vector of length P; sums to |D|.
    stiffness : symmetric positive-semidefinite sparse P x P operator whose
        kernel contains the constant field.
    coordinates : (P, dimension) node coordinates, x varying slowest in 2D.
    axis_eigenpairs : in 2D, per axis the generalized eigenpairs
        (values, vectors) of the 1D pencil (K_axis, M_axis), scaled so that
        V^T M_axis V = I; empty in 1D.
    eigenvalue_sums : in 2D, the (nx, ny) table lx_i + ly_j of the axis
        eigenvalues, the spectrum of K in the basis Vx (x) Vy; None in 1D.
    """

    dimension: int
    node_count: int
    domain_measure: float
    lumped_mass: np.ndarray = field(repr=False)
    stiffness: sp.csr_matrix = field(repr=False)
    coordinates: np.ndarray = field(repr=False)
    axis_eigenpairs: tuple = field(default=(), repr=False)
    eigenvalue_sums: np.ndarray | None = field(default=None, repr=False, compare=False)
    tridiagonal: _TridiagonalFactors | None = field(default=None, repr=False, compare=False)


def _operators_1d(cells, length):
    dx = length / cells
    n = cells + 1
    mass = np.full(n, dx)
    mass[0] = mass[-1] = dx / 2.0
    main = np.full(n, 2.0 / dx)
    main[0] = main[-1] = 1.0 / dx
    off = np.full(n - 1, -1.0 / dx)
    stiffness = sp.diags([off, main, off], offsets=[-1, 0, 1], format="csr")
    coords = np.linspace(0.0, length, n)
    return mass, stiffness, coords


def _axis_eigenpairs(mass, stiffness):
    """Eigenpairs of K v = lam M v on one axis, scaled so that V^T M V = I.

    M^(-1/2) K M^(-1/2) is symmetric tridiagonal; its orthonormal
    eigenvectors W give V = M^(-1/2) W.
    """
    scale = 1.0 / np.sqrt(mass)
    values, vectors = eigh_tridiagonal(
        stiffness.diagonal() * scale**2, stiffness.diagonal(1) * scale[:-1] * scale[1:]
    )
    return values, scale[:, None] * vectors


def build_operators(dimension, cells, lengths):
    """Assemble lumped mass and stiffness for a uniform grid.

    ``cells`` and ``lengths`` are scalars in 1D or length-2 sequences in 2D.
    The 2D operators are tensor products of the 1D ones: the stiffness is
    Kx (x) My + Mx (x) Ky with lumped cross masses, i.e. the standard
    5-point zero-flux Laplacian scaled by cell volume.
    """
    if dimension not in (1, 2):
        raise InvalidConfigError(f"dimension must be 1 or 2, got {dimension}")
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
    if cells.size != dimension or lengths.size != dimension:
        raise InvalidConfigError(
            f"expected {dimension} cell count(s) and length(s), got {cells.size} and {lengths.size}"
        )
    if np.any(cells < 1):
        raise InvalidConfigError(f"each axis needs at least one cell, got {cells.tolist()}")
    if np.any(lengths <= 0):
        raise InvalidConfigError(f"axis lengths must be positive, got {lengths.tolist()}")

    if dimension == 1:
        mass, stiffness, coords = _operators_1d(int(cells[0]), float(lengths[0]))
        return SpatialOperators(
            dimension=1,
            node_count=mass.size,
            domain_measure=float(lengths[0]),
            lumped_mass=mass,
            stiffness=stiffness,
            coordinates=coords.reshape(-1, 1),
            tridiagonal=_TridiagonalFactors(stiffness.diagonal(), stiffness.diagonal(1), mass),
        )

    mx, kx, cx = _operators_1d(int(cells[0]), float(lengths[0]))
    my, ky, cy = _operators_1d(int(cells[1]), float(lengths[1]))
    mass = np.kron(mx, my)
    stiffness = (sp.kron(kx, sp.diags(my)) + sp.kron(sp.diags(mx), ky)).tocsr()
    xs, ys = np.meshgrid(cx, cy, indexing="ij")
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    eigenpairs = (_axis_eigenpairs(mx, kx), _axis_eigenpairs(my, ky))
    return SpatialOperators(
        dimension=2,
        node_count=mass.size,
        domain_measure=float(lengths[0] * lengths[1]),
        lumped_mass=mass,
        stiffness=stiffness,
        coordinates=coords,
        axis_eigenpairs=eigenpairs,
        eigenvalue_sums=np.add.outer(eigenpairs[0][0], eigenpairs[1][0]),
    )


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


def _cg_targets(atol, count):
    """``solve_shifted``'s ``atol`` as the targets of a block of ``count``
    rows, zero for None; an infinite target would pass a row at x = 0, and
    a NaN one would run the conjugate gradient past convergence."""
    if atol is None:
        return np.zeros(count)
    targets = np.asarray(atol, dtype=float).reshape(-1)
    if len(targets) != count:
        raise FieldShapeError(f"atol has {len(targets)} entries for a block of {count} rows")
    if not all(0.0 <= target < math.inf for target in targets.tolist()):
        raise InvalidConfigError(f"atol entries must be finite and >= 0, got {targets.tolist()}")
    return targets


def _solve_2d(ops, diagonal, shift, rhs, targets_of, rows=slice(None)):
    """Solve the rows of ``rhs`` in 2D; ``targets_of()[rows]`` are their (M,)
    absolute residual targets, zero for a full solve, read only when a row
    runs the conjugate gradient.  Returns the solution and the (M,) floors
    of the rows' residual gates: twice the target of a conjugate-gradient
    row, zero for a direct solve."""
    ratio = diagonal / ops.lumped_mass
    low, high = float(ratio.min()), float(ratio.max())
    direct_solve = _fast_diagonalization(ops, 0.5 * (low + high), shift)
    if low == high:
        return direct_solve(rhs), np.zeros(len(rhs))
    targets = targets_of()[rows]

    def matvec(v):
        return apply_shifted(ops, diagonal, shift, v)

    def conjugate_gradient(b, target):
        x, info = cg(matvec, b, direct_solve, CG_RTOL, target)
        if info != 0:
            residual = float(np.linalg.norm(matvec(x) - b))
            raise NumericalError("conjugate gradient did not converge", residual=residual)
        return x

    return _by_row(conjugate_gradient, rhs, targets), 2.0 * targets


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


def _check_residual(ops, diagonal, shift, x, rhs, rtol, floors=0.0):
    """Raise unless every row i of the block meets
    |A x - rhs_i| <= max(rtol (1 + |rhs_i|), floors_i); return the K x that
    A x = diagonal x + shift K x is formed from.

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
    passed = norms <= np.maximum(rtol * (1.0 + np.sqrt(_row_dots(rhs, rhs))), floors)
    if passed.all():
        return stiffness_x
    row = int(passed.argmin())
    norm = float(norms[row])
    if not math.isfinite(norm):
        raise NonFiniteError("shifted-operator solve produced a non-finite residual",
                             residual=norm, row=row)
    raise NumericalError("shifted-operator solve missed its tolerance", residual=norm, row=row)


def solve_shifted(ops, diagonal, shift, rhs, rtol=1e-12, atol=None):
    """Solve (diag(diagonal) + shift * K) x = rhs for an SPD combination.

    ``rhs`` is a block (M, P) whose rows are solved as if one by one, or one
    field (P,), solved as the one-row block whose row 0 is returned;
    ``diagonal`` is (P,), shared by every row, or (M, P), one per row, and a
    block whose diagonal rows are all equal counts as shared.
    In 1D the system is tridiagonal: the ``dpttrf`` factor of each distinct
    (shift, diagonal) whose diagonal is a multiple of the lumped mass is
    computed once, kept on ``ops``, and reused by ``dpttrs`` whenever the
    diagonal is bit-equal to the cached one; any other diagonal is factored
    for this call only, per row when the rows differ; a shared diagonal
    solves the whole block with one multi-column call.  The
    bits equal those of ``solveh_banded`` on the two-row band, which runs
    ``?ptsv`` = ``pttrf`` + ``pttrs`` on the same inputs.  In 2D a
    diagonal that is a scalar multiple of the lumped mass is solved directly
    by fast diagonalization; any other diagonal runs the conjugate gradient
    ``cg`` on each row, preconditioned by the fast-diagonalization solve of
    (a M + shift K) with a between the extremes of diagonal / lumped mass,
    which bounds the condition number by their ratio on every mesh.

    ``atol``, None or an (M,) array (one entry for a field), is an absolute
    residual target per row that a caller such as inexact Newton may ask
    for instead of a full solve.  A conjugate-gradient row i stops once its
    residual is below max(CG_RTOL |b_i|, atol_i), and its residual gate is
    max(rtol (1 + |b_i|), 2 atol_i): every stop lies inside half its own
    gate.  Direct solves, all of 1D and the 2D mass multiples, ignore
    ``atol`` and keep the gate rtol (1 + |b_i|); with ``atol`` None every
    row runs to ``CG_RTOL``, has the bits of ``scipy.sparse.linalg.cg`` and
    keeps that gate.  Where a conjugate-gradient row reads ``atol``, it
    raises FieldShapeError unless ``atol`` has one entry per row, and
    InvalidConfigError unless every entry is finite and >= 0.

    Raises NumericalError if the operator is not positive definite or
    the residual of a row exceeds its gate, and NonFiniteError if it is
    NaN or infinite; the error's ``row`` names the row of a block, and is
    None for a field.
    """
    return _solve_shifted(ops, diagonal, shift, rhs, rtol, lambda: atol)[0]


def _solve_shifted(ops, diagonal, shift, rhs, rtol=1e-12, atol_of=lambda: None):
    """``solve_shifted`` returning ``(x, K x)``: K x is the product that the
    residual gate formed, bit for bit ``apply_stiffness(ops, x)``.  Its
    ``atol`` is ``atol_of()``, called only where a conjugate-gradient row
    reads it, so a caller builds its targets only for such a row."""
    rhs = np.asarray(rhs, dtype=float)
    block = rhs[None] if rhs.ndim == 1 else rhs
    diagonal = np.asarray(diagonal, dtype=float)
    shift = float(shift)
    if diagonal.ndim == 2 and (diagonal == diagonal[0]).all():
        diagonal = diagonal[0]
    floors = 0.0
    try:
        if ops.dimension == 1:
            if diagonal.ndim == 1:
                x = ops.tridiagonal.solve(diagonal, shift, block)
            else:
                x = _by_row(lambda d, r: ops.tridiagonal.solve_once(d, shift, r)[0],
                            diagonal, block[:, None])
        else:
            def targets_of():
                return _cg_targets(atol_of(), len(block))

            if diagonal.ndim == 1:
                x, floors = _solve_2d(ops, diagonal, shift, block, targets_of)
            else:
                floors = np.zeros(len(block))

                def solve_row(row, d, r):
                    x, floors[row:row + 1] = _solve_2d(ops, d, shift, r[None], targets_of,
                                                        slice(row, row + 1))
                    return x[0]

                x = _by_row(solve_row, range(len(block)), diagonal, block)
        stiffness_x = _check_residual(ops, diagonal, shift, x, block, rtol, floors)
    except NumericalError as exc:
        if rhs.ndim == 1:
            exc.row = None
        raise
    return (x[0], stiffness_x[0]) if rhs.ndim == 1 else (x, stiffness_x)
