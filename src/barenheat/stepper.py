"""One coupled time step and full additive-noise trajectories.

Each step advances the pair (theta, chi) by alternating two solves until the
chi iterates stop moving:

* the linear heat sub-problem: (M + dt K) theta = M (theta_n - chi~ + chi_n
  + h_n dw_n), a fixed SPD system solved directly;
* the nonlinear sub-problem: M alphatilde(u) + K chi = M theta with
  u = (chi - chi_n - h_n dw_n) / dt, solved by Newton on u after the
  substitution chi = chi_n + dt u + h_n dw_n.  The Jacobian
  M diag(alphatilde'(u)) + dt K is SPD because alphatilde' >= 1.

The alternation contracts in the discrete L2 norm whenever
dt < 1 + coercivity(alpha): the ratio of successive squared differences is
at most 1 / (2 (tilde_coercivity/dt - 1/2)), and each StepReport records
the ratios against that bound.  A last heat solve realigns theta with the
accepted chi, so the linear equation holds exactly and the nonlinear one up
to the stopping tolerance.  Alpha counts as linear when its declared
Lipschitz and coercivity constants are equal, which with alpha(0) = 0
forces alpha = c x.

Fields are (M, P) blocks, one row per Brownian path; one path is the block
M = 1, the only path through the kernels.  Every row keeps its own Newton
thresholds, line search, iteration counts and inner convergence test, and
leaves the iteration once it has converged, so a row of a batch gets the
bits of a run on its own.

Plans.  The heat operator M + dt K and the Jacobian M alphatilde'(0) + dt K
of Newton from u = 0 are fixed per dt, so a plan (``_Plan``) binds both once
(``grids._bind_unchecked``: 1D ``dpttrf`` factors, 2D fast
diagonalization) together with alphatilde(0); ``grids._solve_spans`` runs
the bound solves, and ``grids._gated`` runs them and gates the block once,
the one way a shifted system is solved.  A plan is a tuple of spans
(``_Span``), one per run of rows that step with one dt.  Only the solves
loop over the spans; everything else runs once per block with dt a float
for one span and an (M, 1) column otherwise, which gives each row the bits
of its float dt.  ``take`` narrows a plan to the rows still iterating and
binds nothing.  A Newton correction takes one route: its Jacobian
diagonal is checked for finite values once, then one ``grids._gated`` call
solves with the spans' bound solves from u = 0, and otherwise with the
Jacobian of each row bound with the row's float dt as a span of its own.

Rows.  ``_step_rows`` is the one driver of ``_advance``.  A ``_Row`` holds
paths that step together from one step index along one (N, P) integrand
table, and one record, its reducer: the record hands out the fields of the
row's current node and takes each step's new fields and StepReports.
``_step_rows`` stacks every row's current fields (a row alone passes its
record's blocks), makes one ``_advance`` call and hands each row its part
of the result, or on a failure leaves every row as it was.  The dense
record (``_Dense``) keeps every snapshot and report, from which it makes
the trajectories of ``run_additive`` and of ``picard_solve``; a Monte Carlo
study passes ``run_additive`` a reducer whose records keep only the fields
and sums their statistics read on, so their memory does not grow with N.
``run_additive`` steps one row per entry (a grid and its paths) in
lock-step, and an entry leaves at its horizon; ``picard_solve`` steps its
staggered iterates as rows of one path at their own steps.

Work per step.  The noise h_n dw_n, the shift s = chi_n + h_n dw_n and K s
are formed once per step, and each product of an inner iteration once: the
residual gate of a Newton correction delta hands back K delta, the
stiffness term of the trial residual after a step from u = 0, and linear
alpha, which skips that gate, forms K delta once for its true residual;
where alphatilde(0) is identically 0 the start residual is exactly -rhs;
and each row's chi difference is one ``_row_dots`` reduction.

Nonlinear alpha.  The first chi iterate of a step is the shift s, whose u
is 0, where the 2D Jacobian is a mass multiple solved directly:
chi_{n+1} - s is O(dt), while chi_{n+1} - chi_n carries the O(sqrt dt)
noise.  Later inner iterations start Newton from the u of the current
iterate, (chi_k - s) / dt, which about halves the Newton iterations.  Linear
alpha keeps the first iterate chi_n and the start u = 0: its first Newton
step is exact from any start, and a warm start would move its bits.  That
step is one run of the bound ``at_zero`` solves (``_solve_linear``) whose
true residual meets each row's threshold, Newton's bits without its set-up,
gate or second residual; otherwise the block goes to ``_newton``.

Inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
1982).  A correction's linear solve may stop below ``NEWTON_FORCING`` times
the row's Newton threshold; only 2D conjugate-gradient solves stop early,
and the direct solves, all of 1D, keep their bits.  For nonlinear alpha
the inner iteration is inexact too: inner iteration k solves Newton to
max(newton_tol, min(LOOSEST_NEWTON_TOL, INNER_FORCING d_{k-1})), d_{k-1}
being the row's last chi difference.  By coercivity a Newton residual r
moves chi by at most dt |r| / (tilde_coercivity sqrt(min M)), so a relaxed
solve moves the next difference by at most INNER_FORCING (1 + |rhs|) dt /
(tilde_coercivity sqrt(min M)) times d_{k-1}: 1.5e-3 on
``perfbench/configs/solve2d.ini``, against the 0.089 the contraction bound
allows.  A row takes at least one Newton iteration unless its warm start
meets newton_tol, and an iterate that meets ``tol`` after a relaxed solve
runs once more at newton_tol, so the accepted iterate always meets it.
Linear alpha keeps newton_tol on every solve.

``run_additive`` is the one public way to step.  It checks the tolerances
and the preconditions and shapes of every grid of a call before any step
runs, so the inner loop calls the kernels without repeating them;
``parse_config`` checks the same tolerances and preconditions for every time
step a config requests.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
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
from .grids import (
    TimeGrid, _bind_unchecked, _gated, _row_dots, _solve_spans, apply_stiffness, row_norms,
)
from .noise import AdditiveIntegrand, BrownianPath, partial_sums

DEFAULT_INNER_TOL = 1e-11
DEFAULT_NEWTON_TOL = 1e-12
MAX_NEWTON_ITERATIONS = 50
# Residual gates rtol (1 + |b|) of a Newton correction's linear solve and of
# the heat solve.
CORRECTION_RTOL = 1e-10
HEAT_RTOL = 1e-12
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
    inner iteration.  Two values are derived from it on read:
    ``inner_iterations``, their number, and ``contraction_factors``, the
    ratios of successive *squared* differences after each nonzero one, the
    quantity the theoretical factor ``factor_bound`` =
    1 / (2 (tilde_coercivity/dt - 1/2)) bounds.  The factors are built on
    first read and then kept, as the solver counters and the worst-factor
    study both read them.  ``newton_iterations`` totals the Newton
    iterations of every inner iteration, and ``line_search_halvings`` is the
    most halvings any of them took; ``newton_residual`` is the residual of
    the accepted iterate's solve, Newton's or linear alpha's one bound
    solve, which always meets newton_tol.
    """

    chi_differences: list
    factor_bound: float
    newton_residual: float
    newton_iterations: int
    line_search_halvings: int

    @property
    def inner_iterations(self):
        return len(self.chi_differences)

    @cached_property
    def contraction_factors(self):
        diffs = self.chi_differences
        return [(b / a) ** 2 for a, b in zip(diffs, diffs[1:]) if a > 0.0]


def _solver_counters(reports, counters=None):
    """The deterministic solver counters of ``manifest.json``: totals and
    extremes over StepReports, folded into ``counters``, the dict of an
    earlier call, when it is given."""
    inner, newton, halvings, factor, residual = (
        (0, 0, 0, 0.0, 0.0) if counters is None else counters.values())
    # Each comparison keeps what max() keeps, the first of equal values.
    for r in reports:
        inner += len(r.chi_differences)
        newton += r.newton_iterations
        if r.line_search_halvings > halvings:
            halvings = r.line_search_halvings
        worst = max(r.contraction_factors, default=0.0) / r.factor_bound
        if worst > factor:
            factor = worst
        if r.newton_residual > residual:
            residual = r.newton_residual
    return {
        "inner_iterations": inner,
        "newton_iterations": newton,
        "max_line_search_halvings": halvings,
        "worst_factor_over_bound": factor,
        "worst_newton_residual": residual,
    }


@dataclass
class NewtonReport:
    """Final residual, iterations and most halvings of a Newton solve, and
    whether the residual meets the full tolerance, not only a relaxed one.

    Each is a list of Python values with one entry per row of the batch.
    """

    residual: list
    iterations: list
    line_search_halvings: list
    met_tol: list


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


def _solve_theta(plan, chi_candidate, theta_n, chi_n, noise):
    """Solve the implicit heat sub-problem (M + dt K) theta =
    M (theta_n - chi~ + chi_n + noise) for a frozen chi candidate, with the
    plan's bound heat solves; ``noise`` is h_n dw_n."""
    mass = plan.ops.lumped_mass
    return _gated(plan.ops, mass, plan.dt, HEAT_RTOL, plan.spans,
                  mass * (theta_n - chi_candidate + chi_n + noise), solve=_HEAT)[0]


def _newton_failure(message, residual, met_non_finite, row):
    if met_non_finite:
        return NonFiniteError(
            f"{message}; line-search trials met non-finite values of alphatilde",
            residual=residual, row=row,
        )
    return NonConvergenceError(message, residual=residual, row=row)


def _at_zero(ops, nl, dt):
    """What Newton from u = 0 reads of alpha, evaluated on one (P,) field
    shared by every row, so that a block gets the bits of its rows alone:
    ``(offset, jacobian, solve)``.  ``offset`` is M alphatilde(0) + 0.0, the
    start residual plus rhs, or None where alphatilde(0) is identically 0
    and the start residual is exactly -rhs; ``jacobian`` is the diagonal
    M alphatilde'(0) and ``solve`` the correction solve against
    M alphatilde'(0) + dt K, bound once without its gate, both None where
    alphatilde'(0) is not finite everywhere."""
    zero = np.zeros(ops.node_count)
    alpha = nl.alpha_tilde(zero)
    jacobian = ops.lumped_mass * nl.alpha_tilde_prime(zero)
    # At u = 0 the stiffness term dt K u is +0.0 in every entry, and adding
    # it is adding 0.0, so offset - rhs is the residual at u = 0 bit for bit.
    offset = ops.lumped_mass * alpha + 0.0 if alpha.any() else None
    if not np.isfinite(jacobian).all():
        return offset, None, None
    return offset, jacobian, _bind_unchecked(ops, jacobian, dt)


class _Span(NamedTuple):
    """The rows start:stop of a block that step with one dt, and what every
    such step binds once: ``heat``, the solve of M + dt K, and ``at_zero``,
    Newton's correction solve from u = 0 (``_at_zero``), both bound by
    ``grids._bind_unchecked`` without their residual gate.  The span of
    ``_step_plan`` has ``stop`` None and serves a block of any size."""

    start: int
    stop: int | None
    dt: float
    heat: object
    at_zero: object


# The items of a span that ``grids._gated`` solves with.
_HEAT, _AT_ZERO = _Span._fields.index("heat"), _Span._fields.index("at_zero")


class _Plan(NamedTuple):
    """What every step of a block reads and no step changes.

    ``spans`` holds a ``_Span`` for each run of consecutive rows that step
    with one dt, in row order.  ``dt`` is the float dt of a plan of one
    span and the (M, 1) column of the rows' steps otherwise.  The other
    fields are shared by every row: the operators, alpha, both tolerances,
    and ``offset`` and ``jacobian`` of Newton from u = 0 (``_at_zero``).
    Only the solves loop over the spans, each with its own dt; everything
    else takes ``dt`` elementwise, so every row keeps the bits of a run on
    its own grid."""

    spans: tuple
    dt: object
    ops: object
    nl: object
    tol: float
    newton_tol: float
    offset: np.ndarray | None
    jacobian: np.ndarray | None

    def take(self, rows):
        """The plan of the rows ``rows``, increasing indices into the block:
        the span bounds cut at ``rows`` and the dt column indexed by them,
        with a float dt once one span is left.  It binds nothing."""
        if len(self.spans) == 1:
            return self
        cuts = np.searchsorted(rows, [span.start for span in self.spans]
                               + [self.spans[-1].stop]).tolist()
        spans = tuple(_Span(start, stop, *span[2:])
                      for start, stop, span in zip(cuts, cuts[1:], self.spans) if stop > start)
        return _Plan(spans, spans[0].dt if len(spans) == 1 else self.dt[rows], *self[2:])


def _step_plan(grid, ops, nl, tol, newton_tol):
    """The one-span plan of a run on ``grid``; raises unless its step meets
    ``check_step_preconditions``."""
    dt = grid.dt
    check_step_preconditions(dt, nl)
    heat = _bind_unchecked(ops, ops.lumped_mass, dt)
    offset, jacobian, at_zero = _at_zero(ops, nl, dt)
    return _Plan((_Span(0, None, dt, heat, at_zero),), dt, ops, nl, tol, newton_tol, offset,
                 jacobian)


def _newton(plan, rhs, start=None, relaxed=None):
    """Solve M alphatilde(u) + dt K u = rhs for each row of an (M, P) batch,
    Newton with backtracking from ``start``, or from u = 0 when it is None;
    ``start`` is updated in place.  Row i takes no iteration when its
    residual is at most tol (1 + |rhs_i|) at the start, tol being
    ``plan.newton_tol``, and otherwise iterates until it is; ``relaxed``, a
    relative tolerance per row (None: tol on every row), lets row i stop at
    relaxed_i (1 + |rhs_i|) instead, once it has taken an iteration.

    Each iteration checks the Jacobian diagonal once and solves for the
    correction with one ``grids._gated`` call: from u = 0 the diagonal is
    ``plan.jacobian`` and the solves the spans' bound ``at_zero`` ones (the
    start residual reads ``plan.offset``), and from any other u each row's
    diagonal is bound with its float dt as a span of its own.  The line
    search then halves the step of every row whose residual has not
    dropped, round after round, and records for each row the last round it
    took part in.

    Every row keeps its own threshold, step scale, iteration count and
    halvings, and a row leaves the iteration once it has converged, so its
    numbers are those of a solve on its own.  Raises NonFiniteError when the
    residual or the Jacobian at an iterate is NaN or infinite, or when the
    line search or the iteration cap fails after trial steps met non-finite
    residuals; backtracking out of such trials is allowed, since it keeps u
    where alphatilde is finite.  The error's ``row`` names the failing row,
    for a Jacobian the first iterating row whose diagonal is not finite.
    Each correction asks its solve for a residual below
    ``NEWTON_FORCING`` times the row's threshold, or times its residual
    where that is smaller.
    """
    ops, nl, tol = plan.ops, plan.nl, plan.newton_tol
    mass = ops.lumped_mass
    count = len(rhs)

    def residual(v, b, stiffness_v, dt):
        return mass * nl.alpha_tilde(v) + dt * stiffness_v - b

    rhs_norms = row_norms(rhs)
    gates = [tol * (1.0 + norm) for norm in rhs_norms]
    thresholds = [t * (1.0 + norm) for t, norm in zip(relaxed or [tol] * count, rhs_norms)]
    # From u = 0 the first correction solves against a Jacobian that is one
    # (P,) field shared by every row, and its trial residual reuses the
    # K delta that the solve's residual gate formed: K (0 + delta) and
    # K delta differ at most in the sign of a zero entry of delta, which no
    # sum of the product can carry.
    from_zero = start is None
    if from_zero:
        u = np.zeros(rhs.shape)
        if plan.offset is None:
            # The start residual is -rhs: its row norms are those of rhs, and
            # the first correction solves against rhs itself.
            res, norms = None, list(rhs_norms)
        else:
            res = plan.offset - rhs
            norms = row_norms(res)
    else:
        u = start
        res = residual(u, rhs, apply_stiffness(ops, u), plan.dt)
        norms = row_norms(res)
    for row, norm in enumerate(norms):
        if not math.isfinite(norm):
            raise NonFiniteError("nonlinear sub-problem has a non-finite residual",
                                 residual=norm, row=row)
    iterations = [0] * count
    halvings = [0] * count
    met_non_finite = [False] * count
    # A correction aims at a fraction of the row's threshold or, where the
    # residual is already below it (a relaxed row that then takes one
    # iteration), of the residual, so that it still moves u.
    limits = [min(threshold, norm) for threshold, norm in zip(thresholds, norms)]
    # The iterating rows, as indices into the batch (None while that is all
    # of them), their plan, and their iterate, right-hand side and
    # residual, which is None while it is -rhs.
    active = [row for row in range(count) if norms[row] > gates[row]]
    rows = None if len(active) == count else np.array(active, dtype=np.intp)
    sub = plan if rows is None or not active else plan.take(rows)
    u_active, rhs_active = _take(u, rows), _take(rhs, rows)
    if res is not None:
        res = _take(res, rows)

    def correction_targets():
        # Read only by a 2D conjugate-gradient row.
        return _take(NEWTON_FORCING * np.array(limits), rows)

    for _ in range(MAX_NEWTON_ITERATIONS):
        if not active:
            break
        # From u = 0 the Jacobian diagonal is the plan's one (P,) field, None
        # where it is not finite.  It is checked before any solve is bound.
        if from_zero:
            jacobian, finite = sub.jacobian, [sub.jacobian is not None]
        else:
            jacobian = mass * nl.alpha_tilde_prime(u_active)
            finite = np.isfinite(jacobian).all(axis=1).tolist()
        if not all(finite):
            row = active[finite.index(False)]
            raise NonFiniteError("Newton Jacobian alphatilde'(u) is not finite",
                                 residual=norms[row], row=row)
        if from_zero:
            spans, solve = sub.spans, _AT_ZERO
        else:
            dts = [sub.dt] * len(jacobian) if isinstance(sub.dt, float) else sub.dt[:, 0].tolist()
            spans, solve = [(i, i + 1, _bind_unchecked(ops, diagonal, dt))
                            for i, (diagonal, dt) in enumerate(zip(jacobian, dts))], 2
        try:
            delta, stiffness_delta = _gated(ops, jacobian, sub.dt, CORRECTION_RTOL, spans,
                                            rhs_active if res is None else -res,
                                            correction_targets, solve=solve)
        except NumericalError as exc:
            _lift(exc, rows)
            raise
        # Line search, per row: halve the step of every row whose residual
        # has not dropped, until each has.
        trial = u_active + delta
        trial_res = residual(trial, rhs_active,
                             stiffness_delta if from_zero else apply_stiffness(ops, trial),
                             sub.dt)
        from_zero = False
        trial_norms = row_norms(trial_res)
        scale = 1.0
        for halving in range(1, MAX_LINE_SEARCH_HALVINGS + 2):
            pending = [i for i, row in enumerate(active) if not trial_norms[i] < norms[row]]
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
            retry = u_active[pending] + scale * delta[pending]
            retry_res = residual(retry, rhs_active[pending], apply_stiffness(ops, retry),
                                 sub.dt if isinstance(sub.dt, float) else sub.dt[pending])
            trial[pending] = retry
            trial_res[pending] = retry_res
            for i, norm in zip(pending, row_norms(retry_res)):
                trial_norms[i] = norm
                halvings[active[i]] = max(halvings[active[i]], halving)
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
            sub = plan.take(rows)
            trial, trial_res, rhs_active = trial[going], trial_res[going], rhs_active[going]
        u_active, res = trial, trial_res
    if active:
        row = active[0]
        raise _newton_failure(
            "Newton did not reach tolerance on the nonlinear sub-problem",
            norms[row], met_non_finite[row], row,
        )
    return u, NewtonReport(norms, iterations, halvings,
                           [norm <= gate for norm, gate in zip(norms, gates)])


def _solve_linear(plan, rhs):
    """``_newton(plan, rhs)`` where that takes one iteration and no halving,
    in one run of the spans' bound ``at_zero`` solves; else None.  No gate
    runs: the true residual, Newton's trial residual with its arithmetic,
    must meet each row's threshold, below |rhs_i|.  While that is at most
    half the correction gate's, this check subsumes the gate: both test one
    expression up to rounding where alpha is linear as declared, and a
    misdeclared derivative fails the check."""
    tol = plan.newton_tol
    rhs_norms = row_norms(rhs)
    thresholds = [tol * (1.0 + norm) for norm in rhs_norms]
    if (plan.offset is not None or plan.jacobian is None or 2.0 * tol > CORRECTION_RTOL
            or not all(norm > threshold for norm, threshold in zip(rhs_norms, thresholds))):
        return None
    # 0 + delta, Newton's first iterate; K u is K delta, as in ``_newton``.
    u = _solve_spans(plan.spans, rhs, lambda: NEWTON_FORCING * np.array(thresholds),
                     _AT_ZERO)[0] + 0.0
    norms = row_norms(plan.ops.lumped_mass * plan.nl.alpha_tilde(u)
                      + plan.dt * apply_stiffness(plan.ops, u) - rhs)
    if not all(norm <= threshold for norm, threshold in zip(norms, thresholds)):
        return None
    return u, NewtonReport(norms, [1] * len(u), [0] * len(u), [True] * len(u))


def contraction_factor_bound(nl, dt):
    """Theoretical bound on squared-difference ratios of the inner iteration:
    a float for a float dt, and elementwise for an array of steps."""
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


def check_tolerances(tol, newton_tol):
    """Raise unless the inner and Newton tolerances are finite and positive."""
    for name, value in (("inner", tol), ("newton", newton_tol)):
        if not 0.0 < value < math.inf:
            raise InvalidConfigError(f"{name} tolerance must be finite and positive, got {value}")


def _inner_newton_tol(newton_tol, difference):
    """Relative Newton tolerance of a row's next inner iteration, after one
    that moved its chi iterate by ``difference``."""
    return max(newton_tol, min(LOOSEST_NEWTON_TOL, INNER_FORCING * difference))


def _advance(plan, theta_n, chi_n, dw, h_n):
    """One coupled step of every path of a batch, under the run's plan
    (``_step_plan``).

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
    ops, tol, newton_tol = plan.ops, plan.tol, plan.newton_tol
    noise = h_n * dw
    shift = chi_n + noise
    stiffness_shift = apply_stiffness(ops, shift)
    # Newton converges in one iteration from u = 0 for linear alpha; every
    # other alpha starts from the u of the current chi iterate, 0 for the
    # first.  Equal declared constants and alpha(0) = 0 make alpha linear.
    warm_start = plan.nl.lipschitz != plan.nl.coercivity
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
    # Paths whose chi iterates still move, and their plan; rows is None
    # while that is all.
    active = list(range(count))
    rows = None
    sub_plan, dt = plan, plan.dt
    sub = (theta_n, chi_n, noise, shift, stiffness_shift)
    for iteration in range(DEFAULT_MAX_INNER):
        chi_iterate = _take(chi, rows)
        sub_theta_n, sub_chi_n, sub_noise, sub_shift, sub_stiffness_shift = sub
        try:
            theta = _solve_theta(sub_plan, chi_iterate, sub_theta_n, sub_chi_n, sub_noise)
            rhs = ops.lumped_mass * theta - sub_stiffness_shift
            u, newton = (None if warm_start else _solve_linear(sub_plan, rhs)) or _newton(
                sub_plan, rhs, (chi_iterate - sub_shift) / dt if warm_start and iteration else None,
                [newton_tols[row] for row in active] if warm_start else None)
        except NumericalError as exc:
            _lift(exc, rows)
            raise
        chi_next = sub_shift + dt * u
        moved = chi_next - chi_iterate
        diffs = np.sqrt(_row_dots(moved * moved, ops.lumped_mass)).tolist()
        remaining = []
        for row, diff, its, most, residual, met_tol in zip(
                active, diffs, newton.iterations, newton.line_search_halvings, newton.residual,
                newton.met_tol):
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
            sub_plan = plan.take(rows)
            dt = sub_plan.dt
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
    theta = _solve_theta(plan, chi, theta_n, chi_n, noise)
    bound = contraction_factor_bound(plan.nl, plan.dt)
    bounds = [bound] * count if isinstance(bound, float) else bound[:, 0].tolist()
    reports = [
        StepReport(chi_differences=diffs, factor_bound=bound, newton_residual=residual,
                   newton_iterations=its, line_search_halvings=most)
        for diffs, residual, its, most, bound in zip(
            differences, newton_residuals, newton_iterations, halvings, bounds)
    ]
    return theta, chi, reports


@dataclass
class Trajectory:
    """Dense record of one path: fields at every node plus step reports,
    and the path and integrand it ran on.

    ``grid`` is the path's grid, on which the run stepped.  ``u`` = chi - B_n,
    the field whose time increments feed the nonlinearity, is derived on
    first read from the path's partial sums (``noise.partial_sums``) and
    then kept.
    """

    theta: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)
    path: BrownianPath = field(repr=False)
    integrand: AdditiveIntegrand = field(repr=False)
    reports: list = field(default_factory=list, repr=False)

    @property
    def grid(self):
        return self.path.grid

    @cached_property
    def u(self):
        return self.chi - partial_sums(self.path, self.integrand)


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
    reducer=None,
):
    """Run the additive-noise scheme along one Brownian path or a batch, on
    one time grid or on several side by side.

    On one grid, ``path`` is one BrownianPath, which returns one Trajectory,
    or a sequence of paths on ``grid``, which run as one batch and return
    one Trajectory per path in the given order.  ``theta0`` and ``chi0`` are
    (P,) fields, the initial data of every path.  Each trajectory has N+1
    field snapshots; its u = chi - B_n is derived on first read.

    ``grid`` may also be a sequence of entries, such as the dt levels of a
    Monte Carlo study; ``integrand`` and ``path`` are then sequences too,
    one integrand and one sequence of paths per entry.  Every entry's
    preconditions and shapes are checked at the call, which then returns an
    iterator of ``(index, results)``, one list of per-path results per
    entry.  All entries step from t = 0 as one batch, whose rows are
    ordered by entry, and an entry leaves the batch at its horizon: the
    iterator yields it then, so entries with fewer steps come first, and
    entries that finish together come in index order.  The iterator keeps
    no reference to an entry it has yielded, so a caller that reduces each
    entry and drops it holds at most the entries still stepping.

    On grid sequences ``reducer`` makes each entry's record (see ``_Row``):
    ``reducer(index, theta, chi)`` is called once per entry, in index
    order, with the read-only (m, P) fields of its paths at node 0, and the
    iterator yields ``record.results()``.  By default the record is dense
    and the results are the entry's trajectories.

    Every path gets the bits of a run on its own.  A NumericalError from a
    step is re-raised with that step's index, the failing path's id, its
    row in its entry's paths and its entry's dt; across entries it is the
    first failure in lock-step order.
    """
    check_tolerances(tol, newton_tol)
    single = isinstance(grid, TimeGrid)
    if single:
        if reducer is not None:
            raise InvalidConfigError("run_additive takes a reducer on grid sequences only")
        one_path = isinstance(path, BrownianPath)
        grid, integrand, path = [grid], [integrand], [[path] if one_path else path]
    else:
        path = [path] if isinstance(path, BrownianPath) else list(path)
        if isinstance(integrand, AdditiveIntegrand):
            raise InvalidConfigError("run_additive on grids needs integrand to be a sequence")
        if any(isinstance(paths, BrownianPath) for paths in path):
            raise InvalidConfigError("run_additive on grids needs path to be a sequence of "
                                     "path sequences")
    grids, integrands = list(grid), list(integrand)
    path_lists = [list(paths) for paths in path]
    if not len(grids) == len(integrands) == len(path_lists):
        raise InvalidConfigError(
            f"run_additive needs one integrand and one path sequence per grid, got "
            f"{len(grids)} grids, {len(integrands)} integrands and {len(path_lists)} "
            f"path sequences")
    if not grids or not all(path_lists):
        raise InvalidConfigError("run_additive needs at least one path")
    for g, integ, paths in zip(grids, integrands, path_lists):
        if integ.grid != g or any(p.grid != g for p in paths):
            raise FieldShapeError("path, integrand, and run must share one time grid")
    theta0 = np.asarray(theta0, dtype=float)
    chi0 = np.asarray(chi0, dtype=float)
    _check_initial_shapes(ops, theta0=theta0, chi0=chi0)
    for index, (g, integ) in enumerate(zip(grids, integrands)):
        if np.shape(integ.values) != (g.steps, ops.node_count):
            raise FieldShapeError(
                f"integrand{'' if single else f' {index}'} has shape {np.shape(integ.values)}, "
                f"a run of {g.steps} steps expects ({g.steps}, {ops.node_count})")
    plans = {}
    for g in grids:
        if g not in plans:
            plans[g] = _step_plan(g, ops, nl, tol, newton_tol)
    if reducer is None:
        def reducer(index, theta, chi):
            return _Dense.start(theta, chi, grids[index], path_lists[index], integrands[index])

    runs = _run_entries(theta0, chi0, integrands, path_lists, grids, plans, reducer)
    if not single:
        return runs
    (_, trajectories), = runs
    return trajectories[0] if one_path else trajectories


# Rows and records compare by identity: a generated __eq__ would compare
# their arrays.
@dataclass(eq=False)
class _Row:
    """Paths that step together through ``_step_rows``, from one step index
    and along one integrand table: their (m, N) increments, the (N, P)
    integrand table, ``step``, the node they have reached (N at the
    horizon), and ``record``, what they keep of their steps.

    A record is the row's one reducer: ``snapshot(step)`` returns the
    (theta, chi) blocks at node ``step``, which the next step starts from;
    ``add(row, theta, chi, reports)`` takes the (m, P) blocks of the node
    the row has just reached and the paths' StepReports; and ``results()``
    returns one result per path.  ``_Dense`` keeps every snapshot; the
    Monte Carlo studies keep running sums instead."""

    increments: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    record: object = field(repr=False)
    step: int


@dataclass(eq=False)
class _Dense:
    """The record that keeps every snapshot: (m, N + 1, P) theta and chi
    records and one list of StepReports per path, and the grid, paths and
    integrand from which ``results`` makes one Trajectory per path."""

    theta: np.ndarray = field(repr=False)
    chi: np.ndarray = field(repr=False)
    reports: list = field(repr=False)
    grid: TimeGrid
    paths: list = field(repr=False)
    integrand: AdditiveIntegrand = field(repr=False)

    @classmethod
    def start(cls, theta, chi, grid, paths, integrand):
        """The record of ``paths`` on ``grid`` at node 0, where they have
        the (m, P) fields theta and chi."""
        shape = (len(paths), grid.steps + 1, theta.shape[-1])
        thetas, chis = np.empty(shape), np.empty(shape)
        thetas[:, 0], chis[:, 0] = theta, chi
        return cls(thetas, chis, [[] for _ in paths], grid, paths, integrand)

    def snapshot(self, step):
        return self.theta[:, step], self.chi[:, step]

    def add(self, row, theta, chi, reports):
        self.theta[:, row.step], self.chi[:, row.step] = theta, chi
        for path_reports, report in zip(self.reports, reports):
            path_reports.append(report)

    def results(self):
        return [Trajectory(theta=self.theta[k], chi=self.chi[k], path=p,
                           integrand=self.integrand, reports=self.reports[k])
                for k, p in enumerate(self.paths)]


def _step_rows(plan, rows):
    """Move every row one step from its own step in one ``_advance`` call,
    the paths of each row taking consecutive rows of the batch.

    Hands each row's new fields and reports to its record and returns the
    new chi block.  A NumericalError leaves every row as it was, and its
    ``row`` indexes the paths of the batch, so for rows of one path each
    the rows passed in."""
    if len(rows) == 1:  # a row alone steps on its record's blocks; ``_advance`` writes to no input
        row, n = rows[0], rows[0].step
        theta, chi = row.record.snapshot(n)
        dw, h = row.increments[:, n:n + 1], row.values[n]
    else:
        snapshots = [row.record.snapshot(row.step) for row in rows]
        theta = np.concatenate([fields[0] for fields in snapshots])
        chi = np.concatenate([fields[1] for fields in snapshots])
        dw, h = np.empty((len(theta), 1)), np.empty(theta.shape)
        start = 0
        for row in rows:
            stop = start + len(row.increments)
            dw[start:stop, 0], h[start:stop] = row.increments[:, row.step], row.values[row.step]
            start = stop
    theta, chi, reports = _advance(plan, theta, chi, dw, h)
    start = 0
    for row in rows:
        stop = start + len(row.increments)
        row.step += 1
        row.record.add(row, theta[start:stop], chi[start:stop], reports[start:stop])
        start = stop
    return chi


def _run_entries(theta0, chi0, integrands, path_lists, grids, plans, reducer):
    """The iterator of ``run_additive`` over checked entries, ``plans``
    holding the step plan of each distinct grid and ``reducer`` making the
    record of each entry: one ``_Row`` per entry, in lock-step, and an
    entry leaves at its horizon."""
    # The entries still stepping, as (index, row).  The block's plan has
    # one span per run of entries on one grid.
    live, spans, count = [], [], 0
    for index, paths in enumerate(path_lists):
        stop = count + len(paths)
        shape = (len(paths), len(theta0))
        record = reducer(index, np.broadcast_to(theta0, shape), np.broadcast_to(chi0, shape))
        live.append((index, _Row(np.array([p.increments for p in paths]),
                                 integrands[index].values, record, step=0)))
        if index and grids[index] == grids[index - 1]:
            spans[-1] = spans[-1]._replace(stop=stop)
        else:
            spans.append(plans[grids[index]].spans[0]._replace(start=count, stop=stop))
        count = stop
    dt = spans[0].dt if len(spans) == 1 else np.repeat(
        [span.dt for span in spans], [span.stop - span.start for span in spans])[:, None]
    plan = plans[grids[0]]._replace(spans=tuple(spans), dt=dt)
    while True:
        # The entries step in lock-step up to the nearest horizon.
        for _ in range(min(row.increments.shape[1] - row.step for _, row in live)):
            try:
                _step_rows(plan, [row for _, row in live])
            except NumericalError as exc:
                row = exc.row or 0
                for index, entry in live:
                    if row < len(entry.increments):
                        break
                    row -= len(entry.increments)
                raise type(exc)(
                    exc.reason, residual=exc.residual, step=entry.step,
                    path_id=path_lists[index][row].path_id, row=row, dt=grids[index].dt,
                ) from exc
        # The finished entries leave the block; each is yielded as an
        # argument only, so that no local keeps it once its caller drops it.
        going = [row.step < row.increments.shape[1] for _, row in live]
        keep = np.flatnonzero(np.repeat(going, [len(row.increments) for _, row in live]))
        finished = [entry for entry, go in zip(live, going) if not go]
        live = [entry for entry, go in zip(live, going) if go]
        while finished:
            yield _finished(*finished.pop(0))
        if not live:
            return
        plan = plan.take(keep)


def _finished(index, row):
    """``(index, results)`` of an entry of ``_run_entries`` that has reached
    its horizon."""
    return index, row.record.results()
