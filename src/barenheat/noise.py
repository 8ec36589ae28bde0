"""Brownian paths, integrand discretization, and stochastic partial sums.

Paths are drawn from a counter-based Philox generator keyed by
(seed, path_id), so path k is bit-reproducible no matter how many paths are
sampled, in what order, or in what batches they run (the ``threads``
settings of the harness are ignored; every path runs in the calling
thread).  A deterministic integrand
h(t, x) is reduced to one nodal field per step,

    h_n = (1/dt) * integral of h(s, .) over [t_{n-1}, t_n],

with h identically zero before time zero, so h_0 is always the zero field.
The left-endpoint sums B_n = sum_{k<n} dw_k h_k accumulate the discrete
stochastic integral that couples the two equations.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import FieldShapeError, InvalidConfigError
from .expressions import parse_expression
from .grids import TimeGrid, build_time_grid

# Abscissae of the two-point Gauss rule on [0, 1]; exact for cubics.
_GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


@dataclass(frozen=True)
class BrownianPath:
    """Increments dw_n ~ Normal(0, dt) of one path on a time grid."""

    grid: TimeGrid
    increments: np.ndarray = field(repr=False)
    seed: int
    path_id: int


def sample_path(grid, seed, path_id):
    """Draw the N Gaussian increments of path ``path_id`` under ``seed``.

    Identical (seed, path_id) pairs give bit-identical paths; distinct pairs
    give statistically independent streams.
    """
    key = np.array([seed, path_id], dtype=np.uint64)
    rng = Generator(Philox(key=key))
    increments = rng.standard_normal(grid.steps) * np.sqrt(grid.dt)
    return BrownianPath(grid=grid, increments=increments, seed=int(seed), path_id=int(path_id))


def aggregate_path(fine, factor):
    """Sum consecutive groups of ``factor`` increments onto a coarser grid.

    The coarse path is the restriction of the same Brownian motion to the
    coarse nodes, which is what couples runs across dt levels in the
    convergence studies.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise InvalidConfigError(f"aggregation factor must be an integer >= 1, got {factor}")
    factor = int(factor)
    if fine.grid.steps % factor != 0:
        raise InvalidConfigError(
            f"factor {factor} does not divide the {fine.grid.steps} fine steps"
        )
    if factor == 1:
        return fine
    coarse_grid = build_time_grid(fine.grid.horizon, fine.grid.steps // factor)
    coarse = fine.increments.reshape(-1, factor).sum(axis=1)
    return BrownianPath(grid=coarse_grid, increments=coarse, seed=fine.seed, path_id=fine.path_id)


@dataclass(frozen=True)
class AdditiveIntegrand:
    """Per-step nodal averages h_n, n = 0..N-1, with h_0 = 0."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    expression: str | None = None


def discretize_integrand(expression, grid, ops):
    """Reduce a deterministic integrand expression to per-step nodal averages.

    Uses two-point Gauss quadrature in time on each [t_{n-1}, t_n], exact
    for the polynomial time dependence of the built-in expression set.  The
    convention that the integrand vanishes before time zero forces the first
    value to be the zero field.
    """
    expr = parse_expression(expression)
    values = np.zeros((grid.steps, ops.node_count))
    coords = ops.coordinates
    for n in range(1, grid.steps):
        left = grid.nodes[n - 1]
        g0 = expr(left + _GAUSS2[0] * grid.dt, coords)
        g1 = expr(left + _GAUSS2[1] * grid.dt, coords)
        values[n] = 0.5 * (g0 + g1)
    return AdditiveIntegrand(grid=grid, values=values, expression=expr.text)


@dataclass(frozen=True)
class NoisePartialSums:
    """Fields B_n = sum_{k=0}^{n-1} dw_k h_k for n = 0..N."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)


def partial_sums(path, integrand):
    """Accumulate the left-endpoint stochastic sums of a path and integrand.

    B_0 is the zero field and each later entry adds dw_n h_n, so consecutive
    differences reproduce the per-step noise terms by construction.
    """
    if path.grid != integrand.grid:
        raise FieldShapeError(
            f"path grid (T={path.grid.horizon}, N={path.grid.steps}) does not match "
            f"integrand grid (T={integrand.grid.horizon}, N={integrand.grid.steps})"
        )
    terms = path.increments[:, None] * integrand.values
    values = np.zeros((path.grid.steps + 1, integrand.values.shape[1]))
    np.cumsum(terms, axis=0, out=values[1:])
    return NoisePartialSums(grid=path.grid, values=values)
