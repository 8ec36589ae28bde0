"""Uniform time grids and spatial Neumann operators.

The spatial discretization is piecewise-linear finite elements on a uniform
grid of a 1D interval or a 2D rectangle, with row-sum (diagonal) mass
lumping.  The lumped mass vector defines the discrete L2 inner product and
the stiffness operator defines the H1 seminorm; the stiffness annihilates
constant fields, which is the discrete form of the zero-flux boundary
condition.  Lumping keeps every pointwise nonlinearity diagonal, so the
implicit solves in the stepper are (diagonal + stiffness) SPD systems.

In 1D those systems are tridiagonal and solved by banded Cholesky.  In 2D
the mass and stiffness are Kronecker products of 1D ones, so fast
diagonalization (Lynch, Rice & Thomas 1964) solves (a M + c K) x = r
exactly with four small matrix products; a diagonal that is not a multiple
of the mass uses that solve as a conjugate-gradient preconditioner, whose
iteration count does not grow with the mesh.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, solveh_banded
from scipy.sparse.linalg import LinearOperator, cg

from .errors import FieldShapeError, InvalidConfigError, NumericalError

# Relative tolerance of the preconditioned conjugate gradient used for 2D
# solves whose diagonal is not a multiple of the lumped mass.
CG_RTOL = 1e-13


@dataclass(frozen=True)
class TimeGrid:
    """Uniform mesh of [0, T] with N steps of size dt = T/N."""

    horizon: float
    steps: int
    dt: float
    nodes: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return self.horizon == other.horizon and self.steps == other.steps


def build_time_grid(horizon, steps):
    """Build the uniform time grid with nodes t_n = n * (T/N), n = 0..N."""
    if not horizon > 0:
        raise InvalidConfigError(f"time horizon must be positive, got {horizon}")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise InvalidConfigError(f"step count must be an integer >= 1, got {steps}")
    steps = int(steps)
    dt = horizon / steps
    nodes = np.linspace(0.0, horizon, steps + 1)
    return TimeGrid(horizon=float(horizon), steps=steps, dt=dt, nodes=nodes)


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
    axis_nodes : nodes per axis, e.g. (nx+1,) or (nx+1, ny+1).
    spacings : mesh width per axis.
    axis_eigenpairs : in 2D, per axis the generalized eigenpairs
        (values, vectors) of the 1D pencil (K_axis, M_axis), scaled so that
        V^T M_axis V = I; empty in 1D.
    """

    dimension: int
    node_count: int
    domain_measure: float
    lumped_mass: np.ndarray = field(repr=False)
    stiffness: sp.csr_matrix = field(repr=False)
    coordinates: np.ndarray = field(repr=False)
    axis_nodes: tuple
    spacings: tuple
    axis_eigenpairs: tuple = field(default=(), repr=False)


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
            axis_nodes=(mass.size,),
            spacings=(float(lengths[0]) / int(cells[0]),),
        )

    mx, kx, cx = _operators_1d(int(cells[0]), float(lengths[0]))
    my, ky, cy = _operators_1d(int(cells[1]), float(lengths[1]))
    mass = np.kron(mx, my)
    stiffness = (sp.kron(kx, sp.diags(my)) + sp.kron(sp.diags(mx), ky)).tocsr()
    xs, ys = np.meshgrid(cx, cy, indexing="ij")
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    return SpatialOperators(
        dimension=2,
        node_count=mass.size,
        domain_measure=float(lengths[0] * lengths[1]),
        lumped_mass=mass,
        stiffness=stiffness,
        coordinates=coords,
        axis_nodes=(mx.size, my.size),
        spacings=(float(lengths[0]) / int(cells[0]), float(lengths[1]) / int(cells[1])),
        axis_eigenpairs=(_axis_eigenpairs(mx, kx), _axis_eigenpairs(my, ky)),
    )


def _check_field(v, ops):
    v = np.asarray(v, dtype=float)
    if v.shape != (ops.node_count,):
        raise FieldShapeError(f"field has shape {v.shape}, operators expect ({ops.node_count},)")
    return v


def l2_inner(u, v, ops):
    """Discrete L2 inner product sum_i M_i u_i v_i."""
    u = _check_field(u, ops)
    v = _check_field(v, ops)
    return float(np.dot(ops.lumped_mass * u, v))


def l2_norm(v, ops):
    """Discrete L2 norm sqrt(sum_i M_i v_i^2)."""
    v = _check_field(v, ops)
    return float(np.sqrt(np.dot(ops.lumped_mass, v * v)))


def h1_seminorm(v, ops):
    """Discrete H1 seminorm sqrt(v . K v); zero on constants."""
    v = _check_field(v, ops)
    quad = float(v @ (ops.stiffness @ v))
    return float(np.sqrt(max(quad, 0.0)))


def apply_shifted(ops, diagonal, shift, v):
    """Apply diag(diagonal) + shift * K to a field."""
    return diagonal * v + shift * (ops.stiffness @ v)


def _fast_diagonalization(ops, scale, shift):
    """Exact solver of (scale * M + shift * K) x = r on a 2D mesh.

    With V = Vx (x) Vy from the axis eigenpairs, V^T M V = I and
    V^T K V = Lx (+) Ly, so the inverse is V diag(1 / (scale + shift *
    (lx_i + ly_j))) V^T; x varies slowest, so a field reshapes to (nx, ny).
    """
    (lx, vx), (ly, vy) = ops.axis_eigenpairs
    denominators = scale + shift * np.add.outer(lx, ly)

    def solve(r):
        coefficients = vx.T @ r.reshape(denominators.shape) @ vy
        return (vx @ (coefficients / denominators) @ vy.T).ravel()

    return solve


def solve_shifted(ops, diagonal, shift, rhs, rtol=1e-12):
    """Solve (diag(diagonal) + shift * K) x = rhs for an SPD combination.

    In 1D the system is tridiagonal and solved by banded Cholesky.  In 2D a
    diagonal that is a scalar multiple of the lumped mass is solved directly
    by fast diagonalization; any other diagonal runs conjugate gradient to
    ``CG_RTOL``, preconditioned by the fast-diagonalization solve of
    (a M + shift K) with a between the extremes of diagonal / lumped mass,
    which bounds the condition number by their ratio on every mesh.  Raises
    NumericalError if the relative residual exceeds ``rtol``.
    """
    rhs = np.asarray(rhs, dtype=float)
    if ops.dimension == 1:
        band = np.zeros((2, ops.node_count))
        band[1] = diagonal + shift * ops.stiffness.diagonal()
        band[0, 1:] = shift * ops.stiffness.diagonal(1)
        x = solveh_banded(band, rhs)
    else:
        ratio = diagonal / ops.lumped_mass
        low, high = float(ratio.min()), float(ratio.max())
        direct_solve = _fast_diagonalization(ops, 0.5 * (low + high), shift)
        if low == high:
            x = direct_solve(rhs)
        else:
            shape = (ops.node_count, ops.node_count)
            matrix = LinearOperator(shape, matvec=lambda v: apply_shifted(ops, diagonal, shift, v))
            x, info = cg(
                matrix, rhs, rtol=CG_RTOL, atol=0.0, M=LinearOperator(shape, matvec=direct_solve)
            )
            if info != 0:
                residual = float(np.linalg.norm(apply_shifted(ops, diagonal, shift, x) - rhs))
                raise NumericalError("conjugate gradient did not converge", residual=residual)
    residual = float(np.linalg.norm(apply_shifted(ops, diagonal, shift, x) - rhs))
    if residual > rtol * (1.0 + float(np.linalg.norm(rhs))):
        raise NumericalError("shifted-operator solve missed its tolerance", residual=residual)
    return x
