"""One coupled time step and full additive-noise trajectories.

Each step advances the pair (theta, chi) by alternating two solves until the
chi iterates stop moving:

* the linear heat sub-problem: (M + dt K) theta = M (theta_n - chi~ + chi_n
  + h_n dw_n), a fixed SPD system solved directly;
* the nonlinear sub-problem: M alphatilde(u) + K chi = M theta with
  u = (chi - chi_n - h_n dw_n) / dt, solved by Newton on u after the
  substitution chi = chi_n + dt u + h_n dw_n.  The Jacobian
  M diag(alphatilde'(u)) + dt K is SPD because alphatilde' >= 1.

Both operators are fixed for linear alpha, so in 1D ``solve_shifted``
factors each once and reuses the factor for every inner iteration, step and
path; the noise h_n dw_n, the shift s = chi_n + h_n dw_n and the load K s
are computed once per step.

For nonlinear alpha, Newton starts each inner iteration from the u of the
current chi iterate, (chi_k - s) / dt: successive iterates differ by less
and less, so it needs about half the iterations of a start from u = 0.
Linear alpha keeps the start u = 0: there Newton converges in one exact
step from anywhere, so a warm start saves nothing and would only move
bits.  Alpha counts as linear when its declared Lipschitz and coercivity
constants are equal, which with alpha(0) = 0 forces alpha = c x.  The
public ``solve_theta`` and ``solve_chi`` check their inputs and start from
u = 0; ``step`` and ``run_additive`` check theirs once per call and run the
inner loop on the same kernels without the checks.

Fields are stored as (M, P) blocks, one row per Brownian path, and a single
path is the batch M = 1: ``run_additive`` advances all paths of a grid
together, so every solve and matrix product runs once per inner iteration
for the whole batch.  Each path keeps its own Newton thresholds, line-search
scales and iteration counts and its own inner convergence test; a path that
has converged leaves the batch, so its numbers are bit for bit those of a
run on its own.

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
    NonFiniteError,
    NumericalError,
)
from .grids import TimeGrid, apply_stiffness, l2_norm, row_norms, solve_shifted
from .noise import BrownianPath, partial_sums

DEFAULT_INNER_TOL = 1e-11
DEFAULT_NEWTON_TOL = 1e-12
MAX_NEWTON_ITERATIONS = 50
MAX_LINE_SEARCH_HALVINGS = 30
DEFAULT_MAX_INNER = 500


@dataclass(frozen=True)
class SystemState:
    """Nodal fields at one time node: (P,) for one path, (M, P) for a batch."""

    index: int
    theta: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)


@dataclass
class StepReport:
    """Inner-iteration diagnostics of one coupled step of one path.

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
    """Final residual, iterations and most halvings of a Newton solve.

    Scalars for one field; for a batch, arrays with one entry per row.
    """

    residual: float
    iterations: int
    line_search_halvings: int


def _check_state_shapes(state, h_n, ops):
    shape = np.shape(state.theta)
    if (len(shape) in (1, 2) and shape[-1] == ops.node_count
            and np.shape(state.chi) == shape and np.shape(h_n) == (ops.node_count,)):
        return
    expected = shape[:-1] + (ops.node_count,) if len(shape) == 2 else (ops.node_count,)
    for name, v, want in (("theta", state.theta, expected), ("chi", state.chi, expected),
                          ("h_n", h_n, (ops.node_count,))):
        if np.shape(v) != want:
            raise FieldShapeError(f"{name} has shape {np.shape(v)}, operators expect {want}")


def _take(array, rows):
    """The rows of a batch still iterating; ``None`` means all of them."""
    return array if rows is None else array[rows]


def _lift(exc, rows):
    """Point a NumericalError raised on the rows ``rows`` at the full batch."""
    row = exc.row or 0
    exc.row = row if rows is None else int(rows[row])


def _solve(ops, diagonal, shift, rhs, rtol):
    """``solve_shifted`` on a field or a batch; a one-row batch goes in as a
    plain field, which skips the comparison of diagonal rows and the
    batched residual gate."""
    if rhs.ndim == 1 or len(rhs) > 1:
        return solve_shifted(ops, diagonal, shift, rhs, rtol=rtol)
    diagonal = diagonal[0] if diagonal.ndim == 2 else diagonal
    return solve_shifted(ops, diagonal, shift, rhs[0], rtol=rtol)[None]


def _solve_theta(chi_candidate, theta_n, chi_n, noise, dt, ops, rtol=1e-12):
    """The heat solve of ``solve_theta`` without its checks; ``noise`` is
    h_n dw_n."""
    rhs = ops.lumped_mass * (theta_n - chi_candidate + chi_n + noise)
    return _solve(ops, ops.lumped_mass, dt, rhs, rtol)


def solve_theta(chi_candidate, state_n, h_n, dw_n, grid, ops, rtol=1e-12):
    """Solve the implicit heat sub-problem for a frozen chi candidate.

    Works on one path, or on a batch with (M, P) fields and ``dw_n`` an
    (M, 1) column of increments.
    """
    check_step_preconditions(grid.dt)
    _check_state_shapes(state_n, h_n, ops)
    return _solve_theta(chi_candidate, state_n.theta, state_n.chi, h_n * dw_n, grid.dt, ops,
                        rtol)


def _newton_failure(message, residual, met_non_finite, row):
    if met_non_finite:
        return NonFiniteError(
            f"{message}; line-search trials met non-finite values of alphatilde",
            residual=residual, row=row,
        )
    return NonConvergenceError(message, residual=residual, row=row)


def _newton(ops, nl, dt, rhs, tol, start=None):
    """Solve M alphatilde(u) + dt K u = rhs for each row of an (M, P) batch,
    Newton with backtracking from ``start``, or from u = 0 when it is None;
    ``start`` is updated in place.

    Every row keeps its own threshold, step scale, iteration count and
    halvings, and a row leaves the iteration once it has converged, so its
    numbers are those of a solve on its own.  Raises NonFiniteError when the
    residual or the Jacobian at an iterate is NaN or infinite, or when the
    line search or the iteration cap fails after trial steps met non-finite
    residuals; backtracking out of such trials is allowed, since it keeps u
    where alphatilde is finite.  The error's ``row`` names the failing row.
    """
    mass = ops.lumped_mass
    count = len(rhs)

    def residual(v, b):
        return mass * nl.alpha_tilde(v) + dt * apply_stiffness(ops, v) - b

    thresholds = [tol * (1.0 + norm) for norm in row_norms(rhs)]
    # From u = 0 every row has the same alphatilde and Jacobian, so both are
    # evaluated on one (P,) field: the first solve then sees one shared
    # diagonal.  The values, and so the bits, are those of the full block.
    at_zero = start is None
    if at_zero:
        zero = np.zeros(mass.shape)
        u = np.zeros(rhs.shape)
        # At u = 0 the stiffness term dt K u is +0.0 in every entry, and
        # adding it is adding 0.0, so this is residual(u, rhs) bit for bit.
        res = (mass * nl.alpha_tilde(zero) + 0.0) - rhs
    else:
        u = start
        res = residual(u, rhs)
    norms = row_norms(res)
    for row, norm in enumerate(norms):
        if not math.isfinite(norm):
            raise NonFiniteError("nonlinear sub-problem has a non-finite residual",
                                 residual=norm, row=row)
    iterations = [0] * count
    halvings = [0] * count
    met_non_finite = [False] * count
    active = [row for row in range(count) if norms[row] > thresholds[row]]
    for _ in range(MAX_NEWTON_ITERATIONS):
        if not active:
            break
        rows = None if len(active) == count else np.array(active)
        u_active, rhs_active = _take(u, rows), _take(rhs, rows)
        jac_diag = mass * nl.alpha_tilde_prime(zero if at_zero else u_active)
        at_zero = False
        finite = np.isfinite(jac_diag)
        if not finite.all():
            bad = 0 if jac_diag.ndim == 1 else int(np.flatnonzero(~finite.all(axis=1))[0])
            row = active[bad]
            raise NonFiniteError("Newton Jacobian alphatilde'(u) is not finite",
                                 residual=norms[row], row=row)
        try:
            delta = _solve(ops, jac_diag, dt, -_take(res, rows), 1e-10)
        except NumericalError as exc:
            _lift(exc, rows)
            raise
        # Line search, per row: halve the step until the residual drops.
        trial = u_active + delta
        trial_res = residual(trial, rhs_active)
        trial_norms = row_norms(trial_res)
        pending = [i for i, row in enumerate(active) if not trial_norms[i] < norms[row]]
        scale = 1.0
        for halving in range(1, MAX_LINE_SEARCH_HALVINGS + 2):
            if not pending:
                break
            for i in pending:
                met_non_finite[active[i]] |= not math.isfinite(trial_norms[i])
            if halving > MAX_LINE_SEARCH_HALVINGS:
                row = active[pending[0]]
                raise _newton_failure(
                    "Newton line search stalled on the nonlinear sub-problem",
                    norms[row], met_non_finite[row], row,
                )
            scale *= 0.5
            retrying = slice(None) if len(pending) == len(active) else pending
            retry = u_active[retrying] + scale * delta[retrying]
            retry_res = residual(retry, rhs_active[retrying])
            trial[retrying] = retry
            trial_res[retrying] = retry_res
            still = []
            for i, norm in zip(pending, row_norms(retry_res)):
                trial_norms[i] = norm
                if norm < norms[active[i]]:
                    halvings[active[i]] = max(halvings[active[i]], halving)
                else:
                    still.append(i)
            pending = still
        if rows is None:
            u, res = trial, trial_res
        else:
            u[rows] = trial
            res[rows] = trial_res
        for i, row in enumerate(active):
            norms[row] = trial_norms[i]
            iterations[row] += 1
        active = [row for row in active if norms[row] > thresholds[row]]
    if active:
        row = active[0]
        raise _newton_failure(
            "Newton did not reach tolerance on the nonlinear sub-problem",
            norms[row], met_non_finite[row], row,
        )
    return u, NewtonReport(np.array(norms), np.array(iterations), np.array(halvings))


def solve_chi(theta, state_n, h_n, dw_n, grid, ops, nl, tol=DEFAULT_NEWTON_TOL,
              stiffness_shift=None):
    """Solve the nonlinear sub-problem for a frozen theta.

    Returns the new chi and a NewtonReport.  Works on the time-increment
    variable u, for which the Jacobian is SPD, then maps back through
    chi = chi_n + dt u + h_n dw_n.  ``stiffness_shift`` is
    K (chi_n + h_n dw_n), which does not depend on theta; a caller that
    solves repeatedly within one step can pass it in, and it is computed
    here when omitted.  Newton starts from u = 0.  Works on one path, or on
    a batch as ``solve_theta`` does.
    """
    check_step_preconditions(grid.dt)
    _check_state_shapes(state_n, h_n, ops)
    shift = state_n.chi + h_n * dw_n
    if stiffness_shift is None:
        stiffness_shift = apply_stiffness(ops, shift)
    rhs = ops.lumped_mass * theta - stiffness_shift
    if rhs.ndim == 1:
        u, batch_report = _newton(ops, nl, grid.dt, rhs[None], tol)
        u = u[0]
        report = NewtonReport(float(batch_report.residual[0]), int(batch_report.iterations[0]),
                              int(batch_report.line_search_halvings[0]))
    else:
        u, report = _newton(ops, nl, grid.dt, rhs, tol)
    chi = shift + grid.dt * u
    return chi, report


def contraction_factor_bound(nl, dt):
    """Theoretical bound on squared-difference ratios of the inner iteration."""
    return 1.0 / (2.0 * (nl.tilde_coercivity / dt - 0.5))


def check_step_preconditions(dt, nl=None):
    """Raise unless dt < 1 + coercivity(alpha) (contraction of the inner
    iteration) and dt < 1 (solvability, the only check when ``nl`` is None)."""
    if nl is not None and dt >= nl.tilde_coercivity:
        raise ContractionConditionError(
            f"dt = {dt} violates the contraction requirement "
            f"dt < 1 + coercivity(alpha) = {nl.tilde_coercivity}"
        )
    if not dt < 1.0:
        raise InvalidConfigError(f"dt = {dt} violates the solvability requirement dt < 1")


def _advance(state_n, dw, h_n, grid, ops, nl, tol, max_inner, newton_tol):
    """One coupled step of every path of a batch state.

    ``state_n`` holds (M, P) fields and ``dw`` the (M, 1) column of the
    paths' increments; the integrand ``h_n`` is one (P,) field shared by
    every path, or an (M, P) block with one row per path, so the rows may
    also sit at different steps or read different integrands.  Returns the
    next theta and chi blocks and one StepReport per path.  A
    NumericalError's ``row`` names the failing path.  The callers have
    checked the preconditions and the shapes once per run, so the inner
    loop calls the solve kernels without repeating the checks.
    """
    count = len(state_n.chi)
    dt = grid.dt
    noise = h_n * dw
    shift = state_n.chi + noise
    stiffness_shift = apply_stiffness(ops, shift)
    # Equal declared constants and alpha(0) = 0 make alpha linear, and
    # Newton then converges in one iteration from u = 0; every other alpha
    # starts from the u of the current chi iterate.
    warm_start = nl.lipschitz != nl.coercivity
    chi = state_n.chi
    differences = [[] for _ in range(count)]
    factors = [[] for _ in range(count)]
    inner = [0] * count
    newton_iterations = [0] * count
    halvings = [0] * count
    newton_residuals = [0.0] * count
    # Paths whose chi iterates still move; rows is None while that is all.
    active = list(range(count))
    rows = None
    sub = (state_n.theta, state_n.chi, noise, shift, stiffness_shift)
    for _ in range(max_inner):
        chi_iterate = _take(chi, rows)
        theta_n, chi_n, sub_noise, sub_shift, sub_stiffness_shift = sub
        try:
            theta = _solve_theta(chi_iterate, theta_n, chi_n, sub_noise, dt, ops)
            u, newton = _newton(
                ops, nl, dt, ops.lumped_mass * theta - sub_stiffness_shift, newton_tol,
                (chi_iterate - sub_shift) / dt if warm_start else None,
            )
        except NumericalError as exc:
            _lift(exc, rows)
            raise
        chi_next = sub_shift + dt * u
        diffs = l2_norm(chi_next - chi_iterate, ops).tolist()
        for row, diff, its, most, residual in zip(
            active, diffs, newton.iterations.tolist(), newton.line_search_halvings.tolist(),
            newton.residual.tolist(),
        ):
            previous = differences[row]
            if previous and previous[-1] > 0.0:
                factors[row].append((diff / previous[-1]) ** 2)
            previous.append(diff)
            inner[row] += 1
            newton_iterations[row] += its
            halvings[row] = max(halvings[row], most)
            newton_residuals[row] = residual
        if rows is None:
            chi = chi_next
        else:
            chi[rows] = chi_next
        remaining = [row for row, diff in zip(active, diffs) if not diff <= tol]
        if not remaining:
            break
        if len(remaining) < len(active):
            active = remaining
            rows = np.array(active)
            sub = tuple(block[rows] for block in
                        (state_n.theta, state_n.chi, noise, shift, stiffness_shift))
    else:
        row = active[0]
        raise NonConvergenceError(
            f"inner fixed point did not reach tol={tol} in {max_inner} iterations",
            residual=differences[row][-1] if differences[row] else math.inf,
            row=row,
        )
    # Final heat solve so the linear equation holds exactly against the
    # accepted chi; the nonlinear equation then holds up to ``tol``.
    theta = _solve_theta(chi, state_n.theta, state_n.chi, noise, dt, ops)
    bound = contraction_factor_bound(nl, dt)
    reports = [
        StepReport(
            inner_iterations=inner[row],
            chi_differences=differences[row],
            contraction_factors=factors[row],
            factor_bound=bound,
            newton_residual=newton_residuals[row],
            newton_iterations=newton_iterations[row],
            line_search_halvings=halvings[row],
        )
        for row in range(count)
    ]
    return theta, chi, reports


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
    Returns the next state and a StepReport; for a batch state with (M, P)
    fields, ``dw_n`` holds the M increments and the reports are a list.
    """
    check_step_preconditions(grid.dt, nl)
    _check_state_shapes(state_n, h_n, ops)
    single = np.ndim(state_n.chi) == 1
    batch = state_n
    if single:
        batch = SystemState(state_n.index, theta=np.asarray(state_n.theta, dtype=float)[None],
                            chi=np.asarray(state_n.chi, dtype=float)[None])
    dw = np.reshape(np.asarray(dw_n, dtype=float), (-1, 1))
    theta, chi, reports = _advance(batch, dw, h_n, grid, ops, nl, tol, max_inner, newton_tol)
    if single:
        return SystemState(state_n.index + 1, theta=theta[0], chi=chi[0]), reports[0]
    return SystemState(state_n.index + 1, theta=theta, chi=chi), reports


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
        return SystemState(index=n, theta=self.theta[n], chi=self.chi[n])

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
    """Run the additive-noise scheme along one Brownian path or a batch.

    ``path`` is one BrownianPath, which returns one Trajectory, or a
    sequence of paths on ``grid``, which run as one batch and return one
    Trajectory per path in the given order; every path gets the bits of a
    run on its own.  Each trajectory has N+1 field snapshots, with u set to
    chi - B_n from the path's partial sums.  A NumericalError from a step is
    re-raised with that step's index and the failing path's id.
    """
    single = isinstance(path, BrownianPath)
    paths = [path] if single else list(path)
    if not paths:
        raise InvalidConfigError("run_additive needs at least one path")
    if integrand.grid != grid or any(p.grid != grid for p in paths):
        raise FieldShapeError("path, integrand, and run must share one time grid")
    theta0 = np.asarray(theta0, dtype=float)
    chi0 = np.asarray(chi0, dtype=float)
    _check_state_shapes(SystemState(0, theta=theta0, chi=chi0), integrand.values[0], ops)
    check_step_preconditions(grid.dt, nl)
    shape = (len(paths), grid.steps + 1, ops.node_count)
    theta, chi = np.empty(shape), np.empty(shape)
    theta[:, 0] = theta0
    chi[:, 0] = chi0
    increments = np.array([p.increments for p in paths])
    reports = [[] for _ in paths]
    for n in range(grid.steps):
        state = SystemState(n, theta=theta[:, n], chi=chi[:, n])
        try:
            theta[:, n + 1], chi[:, n + 1], step_reports = _advance(
                state, increments[:, n:n + 1], integrand.values[n], grid, ops, nl,
                tol, max_inner, newton_tol,
            )
        except NumericalError as exc:
            raise type(exc)(
                exc.reason, residual=exc.residual, step=n,
                path_id=paths[exc.row or 0].path_id, row=exc.row,
            ) from exc
        for path_reports, report in zip(reports, step_reports):
            path_reports.append(report)
    trajectories = [
        Trajectory(grid=grid, theta=theta[k], chi=chi[k],
                   u=chi[k] - partial_sums(p, integrand).values, reports=reports[k])
        for k, p in enumerate(paths)
    ]
    return trajectories[0] if single else trajectories
