"""One coupled time step and full additive-noise trajectories.

Each step advances the pair (theta, chi) by alternating two solves until the
chi iterates stop moving:

* the linear heat sub-problem: (M + dt K) theta = M (theta_n - chi~ + chi_n
  + h_n dw_n), a fixed SPD system solved directly;
* the nonlinear sub-problem: M alphatilde(u) + K chi = M theta with
  u = (chi - chi_n - h_n dw_n) / dt, solved by Newton on u after the
  substitution chi = chi_n + dt u + h_n dw_n.  The Jacobian
  M diag(alphatilde'(u)) + dt K is SPD because alphatilde' >= 1.

The alternation is a strict contraction in the discrete L2 norm whenever
dt < 1 + coercivity(alpha); the squared-difference ratio of successive
iterates is bounded by 1 / (2 (tilde_coercivity/dt - 1/2)), and the step
records those empirical ratios so the harness can audit the bound.  After
convergence one extra heat solve realigns theta with the accepted chi, so
the linear equation holds exactly against the returned state and the
nonlinear one holds up to the stopping tolerance.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractionConditionError,
    FieldShapeError,
    InvalidConfigError,
    NonConvergenceError,
)
from .grids import TimeGrid, l2_norm, solve_shifted
from .noise import partial_sums

DEFAULT_INNER_TOL = 1e-11
DEFAULT_NEWTON_TOL = 1e-12
MAX_NEWTON_ITERATIONS = 50
MAX_LINE_SEARCH_HALVINGS = 30
DEFAULT_MAX_INNER = 500


@dataclass(frozen=True)
class SystemState:
    """Nodal fields at one time node, with u_field = chi - B_n."""

    index: int
    theta: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)
    u_field: np.ndarray = field(repr=False)


@dataclass
class StepReport:
    """Inner-iteration diagnostics of one coupled step.

    ``contraction_factors`` are ratios of successive *squared* discrete-L2
    chi-iterate differences, the quantity the theoretical factor
    ``factor_bound`` = 1 / (2 (tilde_coercivity/dt - 1/2)) bounds; the first
    difference has no predecessor and yields no factor.
    ``newton_iterations`` totals the Newton iterations of every inner
    iteration, and ``line_search_halvings`` is the most halvings any of
    them took; ``newton_residual`` is the last Newton solve's residual.
    """

    inner_iterations: int
    chi_differences: list
    contraction_factors: list
    factor_bound: float
    newton_residual: float
    newton_iterations: int
    line_search_halvings: int


@dataclass
class NewtonReport:
    residual: float
    iterations: int
    line_search_halvings: int


def _check_state_shapes(state, h_n, ops):
    for name, v in (("theta", state.theta), ("chi", state.chi), ("h_n", h_n)):
        if np.shape(v) != (ops.node_count,):
            raise FieldShapeError(
                f"{name} has shape {np.shape(v)}, operators expect ({ops.node_count},)"
            )


def solve_theta(chi_candidate, state_n, h_n, dw_n, grid, ops, rtol=1e-12):
    """Solve the implicit heat sub-problem for a frozen chi candidate."""
    if grid.dt > 1.0:
        raise InvalidConfigError(f"heat sub-problem requires dt <= 1, got dt = {grid.dt}")
    _check_state_shapes(state_n, h_n, ops)
    rhs = ops.lumped_mass * (state_n.theta - chi_candidate + state_n.chi + h_n * dw_n)
    return solve_shifted(ops, ops.lumped_mass, grid.dt, rhs, rtol=rtol)


def _newton(ops, nl, dt, rhs, tol):
    """Solve M alphatilde(u) + dt K u = rhs for u, Newton with backtracking."""
    mass = ops.lumped_mass
    u = np.zeros(ops.node_count)
    threshold = tol * (1.0 + float(np.linalg.norm(rhs)))

    def residual_vec(v):
        return mass * nl.alpha_tilde(v) + dt * (ops.stiffness @ v) - rhs

    res = residual_vec(u)
    res_norm = float(np.linalg.norm(res))
    halvings_used = 0
    for iteration in range(MAX_NEWTON_ITERATIONS):
        if res_norm <= threshold:
            return u, NewtonReport(res_norm, iteration, halvings_used)
        jac_diag = mass * nl.alpha_tilde_prime(u)
        delta = solve_shifted(ops, jac_diag, dt, -res, rtol=1e-10)
        scale = 1.0
        for halving in range(MAX_LINE_SEARCH_HALVINGS + 1):
            trial = u + scale * delta
            trial_res = residual_vec(trial)
            trial_norm = float(np.linalg.norm(trial_res))
            if trial_norm < res_norm:
                halvings_used = max(halvings_used, halving)
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                "Newton line search stalled on the nonlinear sub-problem",
                residual=res_norm,
            )
        u, res, res_norm = trial, trial_res, trial_norm
    if res_norm <= threshold:
        return u, NewtonReport(res_norm, MAX_NEWTON_ITERATIONS, halvings_used)
    raise NonConvergenceError(
        "Newton did not reach tolerance on the nonlinear sub-problem", residual=res_norm
    )


def solve_chi(theta, state_n, h_n, dw_n, grid, ops, nl, tol=DEFAULT_NEWTON_TOL):
    """Solve the nonlinear sub-problem for a frozen theta.

    Returns the new chi and a NewtonReport.  Works on the time-increment
    variable u, for which the Jacobian is SPD, then maps back through
    chi = chi_n + dt u + h_n dw_n.
    """
    if not grid.dt < 1.0:
        raise InvalidConfigError(f"nonlinear sub-problem requires dt < 1, got dt = {grid.dt}")
    _check_state_shapes(state_n, h_n, ops)
    shift = state_n.chi + h_n * dw_n
    rhs = ops.lumped_mass * theta - ops.stiffness @ shift
    u, report = _newton(ops, nl, grid.dt, rhs, tol)
    chi = shift + grid.dt * u
    return chi, report


def contraction_factor_bound(nl, dt):
    """Theoretical bound on squared-difference ratios of the inner iteration."""
    return 1.0 / (2.0 * (nl.tilde_coercivity / dt - 0.5))


def check_step_preconditions(grid, nl):
    """Raise unless dt < 1 and dt < 1 + coercivity(alpha)."""
    if grid.dt >= nl.tilde_coercivity:
        raise ContractionConditionError(
            f"dt = {grid.dt} violates the contraction requirement "
            f"dt < 1 + coercivity(alpha) = {nl.tilde_coercivity}"
        )
    if not grid.dt < 1.0:
        raise InvalidConfigError(
            f"dt = {grid.dt} violates the solvability requirement dt < 1"
        )


def step(
    state_n,
    dw_n,
    h_n,
    grid,
    ops,
    nl,
    tol=DEFAULT_INNER_TOL,
    max_inner=DEFAULT_MAX_INNER,
    newton_tol=DEFAULT_NEWTON_TOL,
):
    """Advance one coupled step by the alternating fixed-point iteration.

    Starts the chi iterate at chi_n, alternates heat solve / nonlinear solve
    until the discrete-L2 difference of consecutive chi iterates drops to
    ``tol``, then re-solves the heat sub-problem against the accepted chi.
    """
    check_step_preconditions(grid, nl)
    dt = grid.dt
    chi_iterate = state_n.chi
    differences = []
    factors = []
    converged = False
    iterations = 0
    newton_iterations = 0
    halvings = 0
    for _ in range(max_inner):
        theta = solve_theta(chi_iterate, state_n, h_n, dw_n, grid, ops)
        chi_next, newton_report = solve_chi(
            theta, state_n, h_n, dw_n, grid, ops, nl, tol=newton_tol
        )
        iterations += 1
        newton_iterations += newton_report.iterations
        halvings = max(halvings, newton_report.line_search_halvings)
        diff = l2_norm(chi_next - chi_iterate, ops)
        if differences and differences[-1] > 0.0:
            factors.append((diff / differences[-1]) ** 2)
        differences.append(diff)
        chi_iterate = chi_next
        if diff <= tol:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"inner fixed point did not reach tol={tol} in {max_inner} iterations",
            residual=differences[-1] if differences else math.inf,
        )
    # Final heat solve so the linear equation holds exactly against the
    # accepted chi; the nonlinear equation then holds up to ``tol``.
    theta = solve_theta(chi_iterate, state_n, h_n, dw_n, grid, ops)
    u_field = state_n.u_field + (chi_iterate - state_n.chi - h_n * dw_n)
    next_state = SystemState(
        index=state_n.index + 1, theta=theta, chi=chi_iterate, u_field=u_field
    )
    report = StepReport(
        inner_iterations=iterations,
        chi_differences=differences,
        contraction_factors=factors,
        factor_bound=contraction_factor_bound(nl, dt),
        newton_residual=newton_report.residual,
        newton_iterations=newton_iterations,
        line_search_halvings=halvings,
    )
    return next_state, report


@dataclass
class Trajectory:
    """Dense record of one path: fields at every node plus step reports.

    ``u`` stores chi - B_n, the field whose time increments feed the
    nonlinearity.
    """

    grid: TimeGrid
    theta: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    reports: list = field(default_factory=list, repr=False)

    def state(self, n):
        return SystemState(index=n, theta=self.theta[n], chi=self.chi[n], u_field=self.u[n])

    @property
    def final_state(self):
        return self.state(self.grid.steps)


def run_additive(
    theta0,
    chi0,
    integrand,
    path,
    grid,
    ops,
    nl,
    tol=DEFAULT_INNER_TOL,
    max_inner=DEFAULT_MAX_INNER,
    newton_tol=DEFAULT_NEWTON_TOL,
):
    """Run the additive-noise scheme along one Brownian path.

    Returns a Trajectory with N+1 field snapshots; u is populated as
    chi - B_n from the path's partial sums.
    """
    if path.grid != grid or integrand.grid != grid:
        raise FieldShapeError("path, integrand, and run must share one time grid")
    theta0 = np.asarray(theta0, dtype=float)
    chi0 = np.asarray(chi0, dtype=float)
    sums = partial_sums(path, integrand)
    count = grid.steps + 1
    traj = Trajectory(
        grid=grid,
        theta=np.empty((count, ops.node_count)),
        chi=np.empty((count, ops.node_count)),
        u=np.empty((count, ops.node_count)),
    )
    traj.theta[0] = theta0
    traj.chi[0] = chi0
    traj.u[0] = chi0 - sums.values[0]
    state = SystemState(index=0, theta=theta0, chi=chi0, u_field=traj.u[0])
    for n in range(grid.steps):
        state, report = step(
            state,
            float(path.increments[n]),
            integrand.values[n],
            grid,
            ops,
            nl,
            tol=tol,
            max_inner=max_inner,
            newton_tol=newton_tol,
        )
        traj.theta[n + 1] = state.theta
        traj.chi[n + 1] = state.chi
        traj.u[n + 1] = state.chi - sums.values[n + 1]
        traj.reports.append(report)
        # Pin the state's derived field to the directly accumulated B_n so
        # states and trajectory agree bit for bit.
        state = SystemState(
            index=state.index, theta=state.theta, chi=state.chi, u_field=traj.u[n + 1]
        )
    return traj
