import numpy as np
import pytest
from scipy.linalg import solveh_banded

import barenheat as bh
from barenheat import grids, stepper


def _reference_solve_1d(ops, diagonal, shift, rhs):
    """The former per-call 1D shifted solve: build the two-row band,
    refactor and solve with ``solveh_banded`` on every call, for one field
    (P,) or for the rows of an (M, P) block, which are its columns.  The
    diagonal is shared by every row."""
    band = np.zeros((2, ops.node_count))
    band[1] = diagonal + shift * ops.stiffness.diagonal()
    band[0, 1:] = shift * ops.stiffness.diagonal(1)
    return solveh_banded(band, rhs.T).T


@pytest.fixture(scope="session")
def reference_solve_1d():
    """Refactoring 1D solve that every bound 1D solve must match bit for bit."""
    return _reference_solve_1d


def _shifted_solve(ops, diagonal, shift, rhs, rtol=1e-12, targets=None):
    """``(x, K x)`` of (diag(diagonal) + shift K) x = rhs for an (M, P)
    block, solved as the stepper solves: one span bound by
    ``grids._bind_unchecked`` per row of ``diagonal`` ((P,) counts as one
    row, shared by the block) and one ``grids._gated`` call, with the (M,)
    conjugate-gradient ``targets`` if given."""
    spans = [(row, row + 1, grids._bind_unchecked(ops, d, shift))
             for row, d in enumerate(np.atleast_2d(diagonal))]
    return grids._gated(ops, diagonal, shift, rtol, spans, rhs,
                        None if targets is None else lambda: targets)


@pytest.fixture(scope="session")
def shifted_solve():
    """The one shifted solve, bind and gate, on a block."""
    return _shifted_solve


def _one_step(theta_n, chi_n, h_n, dw, dt, ops, nl, **kwargs):
    """One coupled step through ``run_additive``: a one-step grid of length
    ``dt``, a hand-built path whose one increment is ``dw`` and a hand-built
    integrand whose step-0 value is ``h_n``.  Returns the next theta, the
    next chi and the step's StepReport."""
    grid = bh.build_time_grid(dt, 1)
    path = bh.BrownianPath(grid=grid, increments=np.array([float(dw)]), seed=0, path_id=0)
    integrand = bh.AdditiveIntegrand(grid=grid, values=np.array([h_n], dtype=float))
    traj = bh.run_additive(theta_n, chi_n, integrand, path, grid, ops, nl, **kwargs)
    return traj.theta[1], traj.chi[1], traj.reports[0]


@pytest.fixture(scope="session")
def one_step():
    """``run_additive`` over a single step with given data, noise and dt."""
    return _one_step


def _plan_heat(plan, rhs):
    """The plan's bound heat solves, gated once as ``stepper._solve_theta``
    gates them: ``(theta, K theta)`` of (M + dt K) theta = rhs."""
    return grids._gated(plan.ops, plan.ops.lumped_mass, plan.dt, stepper.HEAT_RTOL, plan.spans,
                        rhs, solve=stepper._HEAT)


def _plan_at_zero(plan, b, targets_of=None):
    """The plan's bound Newton solves from u = 0, gated once as
    ``stepper._newton`` gates them: ``(delta, K delta)``."""
    return grids._gated(plan.ops, plan.jacobian, plan.dt, stepper.CORRECTION_RTOL, plan.spans,
                        b, targets_of, solve=stepper._AT_ZERO)


@pytest.fixture(scope="session")
def plan_solves():
    """The gated heat solve and Newton solve from u = 0 of a step plan."""
    return _plan_heat, _plan_at_zero


@pytest.fixture(scope="session")
def ops65():
    """1D unit-interval mesh with 65 nodes, the standard test mesh."""
    return bh.build_operators(1, 64, 1.0)


@pytest.fixture(scope="session")
def ops_small():
    """Cheap 1D mesh for statistics-heavy tests."""
    return bh.build_operators(1, 8, 1.0)


@pytest.fixture(scope="session")
def unit_nl():
    return bh.linear(1.0)


@pytest.fixture(scope="session")
def cos_field(ops65):
    return bh.evaluate_on_mesh("cos(pi*x)", ops65)
