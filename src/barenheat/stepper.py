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
are computed once per step, and so are alphatilde(0), the Jacobian
M alphatilde'(0) and whether it is finite (``_at_zero``), which every
Newton solve from u = 0 reads.  Each product of an inner iteration is
formed once: the residual gate of a Newton correction delta hands back the
K delta it formed (``grids._solve_shifted``), which is the stiffness term
of the trial residual after a step from u = 0; where alphatilde(0) is
identically 0 the start residual is -rhs, whose row norms are those of
rhs, so the first correction solves against rhs itself; the
conjugate-gradient targets are built only where a 2D conjugate-gradient
row reads them; and the chi difference of each row is one ``_row_dots``
reduction.  A step at M = 4, P = 65 and dt = 1/256 with linear alpha
became 1.23 times as fast (median of 40 interleaved rounds on a 2-CPU
host; ``BENCH_inner_products_once.json``), with the same bits.

For nonlinear alpha the first chi iterate of a step is the shift s, not
chi_n: chi_{n+1} - s = dt u is O(dt), while chi_{n+1} - chi_n also carries
the O(sqrt dt) noise increment.  The first Newton solve thus starts at
u = 0, where the Jacobian is a multiple of the lumped mass, which 2D solves
directly; on ``perfbench/configs/solve2d.ini`` (seeds 7, 99 and 1234) this
start alone cut the conjugate-gradient iterations from 2457 to 1746, and a
start at s + dt u_{n-1} cut them only to 1980.  Every later inner
iteration starts Newton from the u of the current chi iterate,
(chi_k - s) / dt: successive iterates differ by less and less, so it needs
about half the iterations of a start from u = 0.  Linear alpha keeps the
first iterate chi_n and the start u = 0: there Newton's first step is exact
from any start, so a warm start saves almost no iteration (3 of 379 on
``solve`` of ``demos/configs/additive.ini``, seed 7), while it moves every
1D CSV and costs each inner iteration a residual at the start and a
per-row Jacobian; with it the converge-1d-linear and picard-1d-affine
benchmark workloads made about 16 % fewer path-steps/s (4 of 4 alternating
10 s pairs each, on a 2-CPU host).

Alpha counts as linear when its declared Lipschitz and coercivity
constants are equal, which with alpha(0) = 0 forces alpha = c x.

Newton is inexact (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
1982): each correction's linear solve may stop once its residual is below
``NEWTON_FORCING`` = 0.1 times the row's Newton threshold
newton_tol (1 + |rhs|), or of its relaxed threshold below.  The Newton
residual after a step is that linear residual plus a term quadratic in the
step, so solving further buys no Newton iteration.  Only the 2D
conjugate-gradient solves stop early, and ``solve_shifted`` gates each at
twice its target when that is above its ``rtol`` gate; the direct solves,
all of 1D, are exact and keep their bits.

For nonlinear alpha the inner iteration is inexact as well: only its limit
is the step's solution, so an iterate needs to be accurate only relative to
the distance still left to go.  In inner iteration k a row's Newton solve
stops at the relative tolerance max(newton_tol, min(LOOSEST_NEWTON_TOL,
INNER_FORCING d_{k-1})), where d_{k-1} is the row's last chi difference and
the first solve uses LOOSEST_NEWTON_TOL = 1e-6.  The size of these
constants follows from coercivity: alphatilde' >= tilde_coercivity and
K is positive semidefinite, so testing the Newton equation with the error
e = u - u* gives tilde_coercivity |e|_M^2 <= e . r, and a Newton residual r
moves chi = s + dt u by at most dt |r| / (tilde_coercivity sqrt(min M)) in
the discrete L2 norm.  A relaxed solve thus moves the next difference by at
most INNER_FORCING (1 + |rhs|) dt / (tilde_coercivity sqrt(min M)) times
d_{k-1}.  On the 33 x 33 mesh of ``perfbench/configs/solve2d.ini``
(dt = 1/32, tilde_coercivity = 2, sqrt(min M) = 1/64, |rhs| <= 0.45) that
is at most 1.5e-3 d_{k-1}, against the ratio sqrt(factor_bound) = 0.089
that the contraction bound allows per iteration and the ratio of about
0.007 observed; Newton's quadratic convergence leaves most residuals far
below their threshold, so the measured contraction factors move by a few
percent.  The cap keeps the first iterations, whose differences are still
of the size of the whole step, at 1e-6: there an uncapped INNER_FORCING d_1
of about 1e-4 would allow the second iterate an error of a fifth of d_2.
A row whose residual at the warm start already meets newton_tol takes no
Newton iteration; any other row takes at least one, whose correction aims
at a tenth of its residual when that is below the relaxed threshold, so
an inner iteration never stalls on its own iterate and reads that as a
zero difference.  A row whose difference meets ``tol`` while its Newton
residual meets only the relaxed threshold is not accepted: it runs one
more inner iteration at newton_tol, so the accepted iterate always meets
the full tolerance.  Each row's tolerance reads only its own differences,
so a batch row keeps the bits of a run on its own.

Linear alpha keeps newton_tol on every solve: its Newton needs one
iteration, or two on some rows, and a looser tolerance would move their
bits.  It also keeps the solve without relaxed tolerances: per-row lists
whose entries are all newton_tol keep every bit, but made a 1D linear step
at M = 4 about 9-15 % slower (523-562 us against 474-481 us, best of 8
alternating runs on a 2-CPU host).

``run_additive`` is the one public way to step.  It checks the
preconditions and the shapes of its data once per run, and its inner loop
calls the solve kernels without repeating them; ``parse_config`` checks the
same preconditions for every time step a config requests.

Fields are stored as (M, P) blocks, one row per Brownian path, and a single
path is the batch M = 1, the only path through the kernels.
``run_additive`` advances all paths of a grid together, so every solve and
matrix product runs once per inner iteration for the whole batch.  Each
path keeps its own Newton thresholds, line-search scales and iteration
counts and its own inner convergence test; a path that has converged leaves
the batch, so its numbers are bit for bit those of a run on its own.

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
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractionConditionError,
    FieldShapeError,
    InvalidConfigError,
    NonConvergenceError,
    NonFiniteError,
    NumericalError,
)
from .grids import TimeGrid, _row_dots, _solve_shifted, apply_stiffness, row_norms, solve_shifted
from .noise import BrownianPath, partial_sums

DEFAULT_INNER_TOL = 1e-11
DEFAULT_NEWTON_TOL = 1e-12
MAX_NEWTON_ITERATIONS = 50
# Forcing term of the inexact Newton solve (see the module docstring): the
# fraction of a row's Newton threshold that its linear correction must meet.
NEWTON_FORCING = 0.1
# Inner forcing of nonlinear alpha (see the module docstring): a row's Newton
# solve in inner iteration k stops at the relative tolerance
# max(newton_tol, min(LOOSEST_NEWTON_TOL, INNER_FORCING * d_{k-1})), with
# d_{k-1} the row's last chi difference and d_0 = infinity.
INNER_FORCING = 1e-3
LOOSEST_NEWTON_TOL = 1e-6
MAX_LINE_SEARCH_HALVINGS = 30
DEFAULT_MAX_INNER = 500


@dataclass
class StepReport:
    """Inner-iteration diagnostics of one coupled step of one path.

    ``chi_differences`` holds the discrete-L2 chi-iterate difference of each
    inner iteration; ``inner_iterations`` is their number and
    ``contraction_factors`` the ratios of successive *squared* differences
    after each nonzero one, the quantity the theoretical factor
    ``factor_bound`` = 1 / (2 (tilde_coercivity/dt - 1/2)) bounds.
    ``newton_iterations`` totals the Newton iterations of every inner
    iteration, and ``line_search_halvings`` is the most halvings any of
    them took; ``newton_residual`` is the residual of the last Newton
    solve, the one of the accepted iterate, which always meets newton_tol.
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
    """Final residual, iterations and most halvings of a Newton solve, and
    whether the residual meets the full tolerance, not only a relaxed one;
    ``met_tol`` is None for a solve without relaxed tolerances, whose rows
    all meet it.

    Each is a list of Python values with one entry per row of the batch.
    """

    residual: list
    iterations: list
    line_search_halvings: list
    met_tol: list | None = None


def _check_initial_shapes(ops, **fields):
    """Raise unless every named field is one (P,) nodal field."""
    for name, v in fields.items():
        if np.shape(v) != (ops.node_count,):
            raise FieldShapeError(
                f"{name} has shape {np.shape(v)}, operators expect ({ops.node_count},)")


def _take(array, rows):
    """The rows of a batch still iterating; ``None`` means all of them."""
    return array if rows is None else array[rows]


def _lift(exc, rows):
    """Point a NumericalError raised on the rows ``rows`` at the full batch."""
    row = exc.row or 0
    exc.row = row if rows is None else int(rows[row])


def _solve_theta(chi_candidate, theta_n, chi_n, noise, dt, ops):
    """Solve the implicit heat sub-problem (M + dt K) theta =
    M (theta_n - chi~ + chi_n + noise) for a frozen chi candidate; ``noise``
    is h_n dw_n."""
    rhs = ops.lumped_mass * (theta_n - chi_candidate + chi_n + noise)
    return solve_shifted(ops, ops.lumped_mass, dt, rhs)


def _newton_failure(message, residual, met_non_finite, row):
    if met_non_finite:
        return NonFiniteError(
            f"{message}; line-search trials met non-finite values of alphatilde",
            residual=residual, row=row,
        )
    return NonConvergenceError(message, residual=residual, row=row)


class _AtZero(NamedTuple):
    """What Newton from u = 0 reads of alpha, evaluated on one (P,) field
    shared by every row, so that a block gets the bits of its rows alone:
    ``offset`` is M alphatilde(0) + 0.0, the start residual plus rhs, or
    None where alphatilde(0) is identically 0 and the start residual is
    exactly -rhs; ``jacobian`` is M alphatilde'(0), and ``finite`` whether
    it is finite everywhere."""

    offset: np.ndarray | None
    jacobian: np.ndarray
    finite: bool


def _at_zero(ops, nl):
    zero = np.zeros(ops.node_count)
    alpha = nl.alpha_tilde(zero)
    jacobian = ops.lumped_mass * nl.alpha_tilde_prime(zero)
    # At u = 0 the stiffness term dt K u is +0.0 in every entry, and adding
    # it is adding 0.0, so offset - rhs is the residual at u = 0 bit for bit.
    offset = ops.lumped_mass * alpha + 0.0 if alpha.any() else None
    return _AtZero(offset, jacobian, bool(np.isfinite(jacobian).all()))


def _newton(ops, nl, dt, rhs, tol, start=None, relaxed=None, at_zero=None):
    """Solve M alphatilde(u) + dt K u = rhs for each row of an (M, P) batch,
    Newton with backtracking from ``start``, or from u = 0 when it is None;
    ``start`` is updated in place.  Row i takes no iteration when its
    residual is at most tol (1 + |rhs_i|) at the start, and otherwise
    iterates until it is; ``relaxed``, None or a list of one relative
    tolerance per row, lets row i stop at relaxed_i (1 + |rhs_i|) instead,
    once it has taken an iteration.  A start from u = 0 reads ``at_zero``,
    ``_at_zero(ops, nl)``, and evaluates it when it is None.

    Every row keeps its own threshold, step scale, iteration count and
    halvings, and a row leaves the iteration once it has converged, so its
    numbers are those of a solve on its own.  Raises NonFiniteError when the
    residual or the Jacobian at an iterate is NaN or infinite, or when the
    line search or the iteration cap fails after trial steps met non-finite
    residuals; backtracking out of such trials is allowed, since it keeps u
    where alphatilde is finite.  The error's ``row`` names the failing row.
    Each correction asks ``solve_shifted`` for a residual below
    ``NEWTON_FORCING`` times the row's threshold, or times its residual
    where that is smaller.
    """
    mass = ops.lumped_mass
    count = len(rhs)

    def residual(v, b, stiffness_v):
        return mass * nl.alpha_tilde(v) + dt * stiffness_v - b

    rhs_norms = row_norms(rhs)
    thresholds = gates = [tol * (1.0 + norm) for norm in rhs_norms]
    # From u = 0 the first correction solves against a Jacobian that is one
    # (P,) field shared by every row, and its trial residual reuses the
    # K delta that the solve's residual gate formed: K (0 + delta) and
    # K delta differ at most in the sign of a zero entry of delta, which no
    # sum of the product can carry.
    from_zero = start is None
    if from_zero:
        if at_zero is None:
            at_zero = _at_zero(ops, nl)
        u = np.zeros(rhs.shape)
        if at_zero.offset is None:
            # The start residual is -rhs: its row norms are those of rhs, and
            # the first correction solves against rhs itself.
            res, norms = None, list(rhs_norms)
        else:
            res = at_zero.offset - rhs
            norms = row_norms(res)
    else:
        u = start
        res = residual(u, rhs, apply_stiffness(ops, u))
        norms = row_norms(res)
    for row, norm in enumerate(norms):
        if not math.isfinite(norm):
            raise NonFiniteError("nonlinear sub-problem has a non-finite residual",
                                 residual=norm, row=row)
    iterations = [0] * count
    halvings = [0] * count
    met_non_finite = [False] * count
    if relaxed is None:
        limits = thresholds
    else:
        thresholds = [t * (1.0 + norm) for t, norm in zip(relaxed, rhs_norms)]
        # A correction aims at a fraction of the row's threshold or, where
        # the residual is already below it (a row that then takes one
        # iteration), of the residual, so that it still moves u.
        limits = [min(threshold, norm) for threshold, norm in zip(thresholds, norms)]
    # The iterating rows, as indices into the batch (None while that is all
    # of them), and their iterate, right-hand side and residual, which is
    # None while it is -rhs.
    active = [row for row in range(count) if norms[row] > gates[row]]
    rows = None if len(active) == count else np.array(active, dtype=np.intp)
    u_active, rhs_active = _take(u, rows), _take(rhs, rows)
    if res is not None:
        res = _take(res, rows)

    def correction_targets():
        # Read only by a 2D conjugate-gradient row.
        return _take(NEWTON_FORCING * np.array(limits), rows)

    for _ in range(MAX_NEWTON_ITERATIONS):
        if not active:
            break
        if from_zero:
            jac_diag = at_zero.jacobian
            if not at_zero.finite:
                raise NonFiniteError("Newton Jacobian alphatilde'(u) is not finite",
                                     residual=norms[active[0]], row=active[0])
        else:
            jac_diag = mass * nl.alpha_tilde_prime(u_active)
            finite = np.isfinite(jac_diag)
            if not finite.all():
                bad = 0 if jac_diag.ndim == 1 else int(np.flatnonzero(~finite.all(axis=1))[0])
                row = active[bad]
                raise NonFiniteError("Newton Jacobian alphatilde'(u) is not finite",
                                     residual=norms[row], row=row)
        try:
            delta, stiffness_delta = _solve_shifted(ops, jac_diag, dt,
                                                    rhs_active if res is None else -res, 1e-10,
                                                    correction_targets)
        except NumericalError as exc:
            _lift(exc, rows)
            raise
        # Line search, per row: halve the step until the residual drops.
        trial = u_active + delta
        trial_res = residual(trial, rhs_active,
                             stiffness_delta if from_zero else apply_stiffness(ops, trial))
        from_zero = False
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
            retry_res = residual(retry, rhs_active[retrying], apply_stiffness(ops, retry))
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
            u = trial
        else:
            u[rows] = trial
        for i, row in enumerate(active):
            norms[row] = trial_norms[i]
            iterations[row] += 1
        going = [i for i, row in enumerate(active) if norms[row] > thresholds[row]]
        if len(going) < len(active):
            active = [active[i] for i in going]
            if not active:
                break
            rows = np.array(active, dtype=np.intp)
            trial, trial_res, rhs_active = trial[going], trial_res[going], rhs_active[going]
        u_active, res = trial, trial_res
    if active:
        row = active[0]
        raise _newton_failure(
            "Newton did not reach tolerance on the nonlinear sub-problem",
            norms[row], met_non_finite[row], row,
        )
    report = NewtonReport(norms, iterations, halvings)
    if relaxed is not None:
        report.met_tol = [norm <= gate for norm, gate in zip(norms, gates)]
    return u, report


def contraction_factor_bound(nl, dt):
    """Theoretical bound on squared-difference ratios of the inner iteration."""
    return 1.0 / (2.0 * (nl.tilde_coercivity / dt - 0.5))


def check_step_preconditions(dt, nl):
    """Raise unless dt < 1 + coercivity(alpha) (contraction of the inner
    iteration) and dt < 1 (solvability)."""
    if dt >= nl.tilde_coercivity:
        raise ContractionConditionError(
            f"dt = {dt} violates the contraction requirement "
            f"dt < 1 + coercivity(alpha) = {nl.tilde_coercivity}"
        )
    if not dt < 1.0:
        raise InvalidConfigError(f"dt = {dt} violates the solvability requirement dt < 1")


def _inner_newton_tol(newton_tol, difference):
    """Relative Newton tolerance of a row's next inner iteration, after one
    that moved its chi iterate by ``difference``."""
    return max(newton_tol, min(LOOSEST_NEWTON_TOL, INNER_FORCING * difference))


def _advance(theta_n, chi_n, dw, h_n, grid, ops, nl, tol, newton_tol):
    """One coupled step of every path of a batch.

    ``theta_n`` and ``chi_n`` are (M, P) blocks and ``dw`` the (M, 1) column
    of the paths' increments; the integrand ``h_n`` is one (P,) field
    shared by every path, or an (M, P) block with one row per path, so the
    rows may also sit at different steps or read different integrands.
    Returns the next theta and chi blocks and one StepReport per path.  A
    NumericalError's ``row`` names the failing path.  The callers have
    checked the preconditions and the shapes once per run, so the inner
    loop calls the solve kernels without repeating the checks.  A path
    that takes more than ``DEFAULT_MAX_INNER`` inner iterations raises
    NonConvergenceError.
    """
    count = len(chi_n)
    dt = grid.dt
    noise = h_n * dw
    shift = chi_n + noise
    stiffness_shift = apply_stiffness(ops, shift)
    at_zero = _at_zero(ops, nl)
    # Equal declared constants and alpha(0) = 0 make alpha linear, and
    # Newton then converges in one iteration from u = 0; every other alpha
    # starts from the u of the current chi iterate, 0 for the first.
    warm_start = nl.lipschitz != nl.coercivity
    # Relative Newton tolerance of each path's next solve, relaxed while the
    # chi iterates still move (nonlinear alpha only).
    newton_tols = [_inner_newton_tol(newton_tol, math.inf)] * count if warm_start else None
    # Nonlinear alpha starts from the shift s, whose u is 0: chi_{n+1} - s is
    # O(dt), while chi_{n+1} - chi_n also carries the noise increment.
    chi = shift if warm_start else chi_n
    differences = [[] for _ in range(count)]
    newton_iterations = [0] * count
    halvings = [0] * count
    newton_residuals = [0.0] * count
    # Paths whose chi iterates still move; rows is None while that is all.
    active = list(range(count))
    rows = None
    sub = (theta_n, chi_n, noise, shift, stiffness_shift)
    for iteration in range(DEFAULT_MAX_INNER):
        chi_iterate = _take(chi, rows)
        sub_theta_n, sub_chi_n, sub_noise, sub_shift, sub_stiffness_shift = sub
        try:
            theta = _solve_theta(chi_iterate, sub_theta_n, sub_chi_n, sub_noise, dt, ops)
            u, newton = _newton(
                ops, nl, dt, ops.lumped_mass * theta - sub_stiffness_shift, newton_tol,
                (chi_iterate - sub_shift) / dt if warm_start and iteration else None,
                [newton_tols[row] for row in active] if warm_start else None, at_zero,
            )
        except NumericalError as exc:
            _lift(exc, rows)
            raise
        chi_next = sub_shift + dt * u
        moved = chi_next - chi_iterate
        diffs = np.sqrt(_row_dots(moved * moved, ops.lumped_mass)).tolist()
        remaining = []
        met = newton.met_tol if warm_start else [True] * len(active)
        for row, diff, its, most, residual, met_tol in zip(
            active, diffs, newton.iterations, newton.line_search_halvings, newton.residual, met,
        ):
            differences[row].append(diff)
            newton_iterations[row] += its
            halvings[row] = max(halvings[row], most)
            newton_residuals[row] = residual
            if warm_start:
                newton_tols[row] = _inner_newton_tol(newton_tol, 0.0 if diff <= tol else diff)
            # Only an iterate whose Newton residual meets newton_tol is
            # accepted; one that meets tol after a relaxed solve runs once
            # more at newton_tol.
            if not (diff <= tol and met_tol):
                remaining.append(row)
        if rows is None:
            chi = chi_next
        else:
            chi[rows] = chi_next
        if not remaining:
            break
        if len(remaining) < len(active):
            active = remaining
            rows = np.array(active)
            sub = tuple(block[rows] for block in
                        (theta_n, chi_n, noise, shift, stiffness_shift))
    else:
        row = active[0]
        raise NonConvergenceError(
            f"inner fixed point did not reach tol={tol} in {DEFAULT_MAX_INNER} iterations",
            residual=differences[row][-1] if differences[row] else math.inf,
            row=row,
        )
    # Final heat solve so the linear equation holds exactly against the
    # accepted chi; the nonlinear equation then holds up to ``tol``.
    theta = _solve_theta(chi, theta_n, chi_n, noise, dt, ops)
    bound = contraction_factor_bound(nl, dt)
    reports = [
        StepReport(
            inner_iterations=len(diffs),
            chi_differences=diffs,
            contraction_factors=[(b / a) ** 2 for a, b in zip(diffs, diffs[1:]) if a > 0.0],
            factor_bound=bound,
            newton_residual=residual,
            newton_iterations=its,
            line_search_halvings=most,
        )
        for diffs, residual, its, most in zip(differences, newton_residuals, newton_iterations,
                                              halvings)
    ]
    return theta, chi, reports


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


def run_additive(
    theta0,
    chi0,
    integrand,
    path,
    grid,
    ops,
    nl,
    tol=DEFAULT_INNER_TOL,
    newton_tol=DEFAULT_NEWTON_TOL,
):
    """Run the additive-noise scheme along one Brownian path or a batch.

    ``path`` is one BrownianPath, which returns one Trajectory, or a
    sequence of paths on ``grid``, which run as one batch and return one
    Trajectory per path in the given order; every path gets the bits of a
    run on its own.  ``theta0`` and ``chi0`` are (P,) fields, the initial
    data of every path.  Each trajectory has N+1 field snapshots, with u set to
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
    _check_initial_shapes(ops, theta0=theta0, chi0=chi0, h_0=integrand.values[0])
    check_step_preconditions(grid.dt, nl)
    shape = (len(paths), grid.steps + 1, ops.node_count)
    theta, chi = np.empty(shape), np.empty(shape)
    theta[:, 0] = theta0
    chi[:, 0] = chi0
    increments = np.array([p.increments for p in paths])
    reports = [[] for _ in paths]
    for n in range(grid.steps):
        try:
            theta[:, n + 1], chi[:, n + 1], step_reports = _advance(
                theta[:, n], chi[:, n], increments[:, n:n + 1], integrand.values[n], grid, ops,
                nl, tol, newton_tol,
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
                   u=chi[k] - partial_sums(p, integrand), reports=reports[k])
        for k, p in enumerate(paths)
    ]
    return trajectories[0] if single else trajectories
