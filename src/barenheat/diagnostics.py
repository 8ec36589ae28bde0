"""Monte Carlo estimation and empirical checks of the scheme's estimates.

Everything here reduces runs to scalars or small arrays and averages them
over Brownian paths with deterministic seeding: path k is always drawn from
the (seed, k) stream and the average runs in path-id order over a buffered
table of per-path results, so the results are bit-reproducible for a fixed
(seed, M).  The estimators advance up to ``BATCH_PATHS`` paths at a time as
one batch of ``run_additive``, and the dt levels of a study, or the two
runs of ``stability_check``, step side by side in that batch, one
``run_additive`` call per batch; every path gets the bits of a run on its
own, so the results do not depend on the batch size or on the other levels
either.  All paths run in the calling thread.

The studies stream: ``run_additive`` hands each level's steps to a study
record (``_Study``) instead of a trajectory.  A record keeps the fields of a
short chunk of steps and one running sum per term of its statistic, added
in step order, so that every statistic has the bits of the same sum over a
whole trajectory, and it folds every StepReport into the study's solver
counters.  The memory of a study therefore grows with the paths of a batch
and the nodes of the mesh, not with the steps: ``BATCH_PATHS`` bounds it,
and the per-path table holds one small result per path and level.

Continuum norms are replaced by their discrete surrogates on the lumped
mesh: squared space-time norms become sums of dt-weighted squared nodal
norms, and differences between the piecewise-linear and piecewise-constant
time interpolants of a sequence are integrated exactly, which contributes
the dt/3 factor below.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .grids import _row_dots, h1_seminorm, l2_norm, time_grid_of_step
from .noise import aggregate_path, discretize_integrand, sample_path
from .stepper import DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL, _solver_counters, run_additive
from .theory import StabilityConstants, compute_stability_constant

# Most paths advanced together as one batch; bounds the memory of a batch's
# (M, P) working blocks, and does not change any result.  A study keeps no
# trajectory, so a batch holds a few blocks per dt level still stepping,
# however many steps the levels take.
BATCH_PATHS = 64

# Most steps, and most values of one field over its paths, that a study
# record keeps between two reductions (see ``_Study``).
CHUNK_STEPS = 16
CHUNK_VALUES = 2**13

# Energy growth per dt halving allowed beyond 4 standard errors (criterion 5).
ENERGY_GROWTH_SLACK = 0.25


def _require_paths(count):
    if count < 2:
        raise InvalidConfigError(f"Monte Carlo needs at least 2 paths, got {count}")


def _path_statistics(table):
    """Mean and standard error over the first axis, one row per path in path-id order."""
    table = np.asarray(table, dtype=float)
    mean = table.mean(axis=0)
    stderr = table.std(axis=0, ddof=1) / math.sqrt(len(table))
    if mean.ndim == 0:
        return float(mean), float(stderr)
    return mean, stderr


def path_batches(count):
    """Path ids 0..count-1 in consecutive ranges of at most BATCH_PATHS,
    each of which runs as one batch."""
    for start in range(0, count, BATCH_PATHS):
        yield range(start, min(start + BATCH_PATHS, count))


def mc_expectation(sample, count, seed):
    """Sample mean and standard error of ``sample(seed, path_id)`` over paths.

    ``sample`` may return a float or an ndarray; the reduction is performed
    in path-id order from a buffered table.  Samples run one after another
    in the calling thread, because a sample is mostly Python and holds the
    interpreter lock, so a thread pool only made runs slower.  The
    estimators below batch their paths instead and reduce through the same
    ordered reduction.
    """
    _require_paths(count)
    return _path_statistics(
        [np.asarray(sample(seed, pid), dtype=float) for pid in range(count)]
    )


@dataclass(frozen=True)
class AdditiveSetup:
    """Everything but the grid and the path: mesh, nonlinearity, data, noise."""

    ops: object
    nonlinearity: object
    theta0: np.ndarray = field(repr=False)
    chi0: np.ndarray = field(repr=False)
    integrand: str = "0"
    tol: float = DEFAULT_INNER_TOL
    newton_tol: float = DEFAULT_NEWTON_TOL


def simulate(setup, grid, path, integrand, reducer=None):
    """Run the additive scheme for ``setup`` on ``grid`` along ``path``
    with the discretized ``integrand``.

    ``path`` is one BrownianPath or a sequence of them, and ``grid`` one
    grid or a sequence with its ``reducer``, as in ``run_additive``.
    """
    return run_additive(
        setup.theta0,
        setup.chi0,
        integrand,
        path,
        grid,
        setup.ops,
        setup.nonlinearity,
        tol=setup.tol,
        newton_tol=setup.newton_tol,
        reducer=reducer,
    )


def _level_grids(horizon, dts, minimum):
    """Validate a decreasing dt ladder of at least ``minimum`` levels, where
    each level divides the finer ones, and build its grids; ``dts`` None has
    no levels."""
    dts = [] if dts is None else [float(dt) for dt in dts]
    if len(dts) < minimum:
        raise InvalidConfigError(f"need at least {minimum} dt levels, got {len(dts)}")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise InvalidConfigError(f"dt levels must be strictly decreasing, got {dts}")
    grids = [time_grid_of_step(horizon, dt) for dt in dts]
    for coarse, fine in zip(grids, grids[1:]):
        if fine.steps % coarse.steps != 0:
            raise InvalidConfigError(
                f"level with {coarse.steps} steps does not divide the finer {fine.steps}"
            )
    return grids


def _level_table(setup, grids, paths, seed, record, counters):
    """Array of per-path study results indexed by [path id, level]; the
    solver counters of every path and level are folded into ``counters``.

    Each level of each batch keeps one study record ``record(ops, counters,
    grid, theta, chi)`` (see ``_Study``), whose ``results()`` are the
    per-path results of its level.  Each path is drawn once on the finest
    grid and aggregated onto every level, which couples the levels.  A
    batch of up to BATCH_PATHS paths runs as one ``run_additive`` call over
    all levels, which step side by side; each level leaves the batch as
    soon as it reaches the horizon, while the finer levels step on.
    """
    finest = grids[-1]
    integrands = [discretize_integrand(setup.integrand, g, setup.ops) for g in grids]
    rows = []
    for batch in path_batches(paths):
        fine_paths = [sample_path(finest, seed, pid) for pid in batch]
        level_paths = [[aggregate_path(p, finest.steps // grid.steps) for p in fine_paths]
                       for grid in grids]
        levels = [None] * len(grids)
        for index, results in simulate(
                setup, grids, level_paths, integrands,
                lambda index, theta, chi: record(setup.ops, counters, grids[index], theta, chi)):
            levels[index] = results
        rows.extend(zip(*levels))
    return np.array(rows, dtype=float)


def _squared_norms(norm, fields, ops):
    """``norm(v, ops) ** 2`` for every field v of a (j, m, P) block, as a
    (j, m) table.  The rows of one (j m, P) block get the bits of a norm of
    their own, and ``float_power`` squares with the C ``pow`` of a scalar
    ``** 2``, where an array's ``** 2`` multiplies, which rounds otherwise
    about once in a thousand."""
    return np.float_power(norm(fields.reshape(-1, fields.shape[-1]), ops), 2.0).reshape(
        fields.shape[:-1])


def _added(total, terms):
    """total + terms[0] + terms[1] + ... per path, added in that order as a
    running sum over the steps does: ``cumsum`` accumulates in order."""
    return np.cumsum(np.concatenate((total[None], terms)), axis=0)[-1]


class _Study:
    """The record of one level of a Monte Carlo study, a ``run_additive``
    reducer that keeps no trajectory.

    It keeps the snapshots of the current chunk: the last node reduced, and
    the nodes after it, up to ``CHUNK_STEPS`` of them, or fewer where the
    chunk would hold more than ``CHUNK_VALUES`` values of one field.  Once
    the chunk is full, or the level at its horizon, ``reduce(thetas, chis,
    increments, values, start)`` reduces it in one call per quantity:
    ``thetas`` and ``chis`` are the (j + 1, m, P) snapshots of nodes start
    to start + j, and ``increments`` and ``values`` the (m, j) increments
    and (j, P) integrand rows of the steps between them.  The running sums
    a study keeps add their terms in step order, so every result has the
    bits of the same sum over a whole trajectory.  Every StepReport is
    folded into ``counters``, which the records of a study share.
    """

    def __init__(self, ops, counters, grid, theta, chi):
        self.ops, self.counters, self.grid = ops, counters, grid
        count = max(1, min(CHUNK_STEPS, grid.steps, CHUNK_VALUES // theta.size))
        self.thetas = np.empty((count + 1,) + theta.shape)
        self.chis = np.empty(self.thetas.shape)
        self.thetas[0], self.chis[0] = theta, chi
        self.filled = 0

    def snapshot(self, step):
        return self.thetas[self.filled], self.chis[self.filled]

    def add(self, row, theta, chi, reports):
        if self.filled == len(self.thetas) - 1:
            # The last node of the chunk reduced at the last step starts
            # the next one.  Rotating only now leaves the reduced chunk
            # readable until this record's next step.
            self.thetas[0], self.chis[0] = self.thetas[-1], self.chis[-1]
            self.filled = 0
        self.filled = j = self.filled + 1
        self.thetas[j], self.chis[j] = theta, chi
        self.counters.update(_solver_counters(reports, self.counters))
        if j == len(self.thetas) - 1 or row.step == len(row.values):
            start = row.step - j
            self.reduce(self.thetas[:j + 1], self.chis[:j + 1],
                        row.increments[:, start:row.step], row.values[start:row.step], start)

    def reduce(self, thetas, chis, increments, values, start):
        pass


class _Gaps(_Study):
    """Per path, (dt/3) sum_k ||theta_{k+1} - theta_k||^2 and the same sum
    of the squared full H1 norms of the chi differences."""

    def __init__(self, ops, counters, grid, theta, chi):
        super().__init__(ops, counters, grid, theta, chi)
        self.theta_sq = self.chi_sq = np.zeros(len(theta))

    def reduce(self, thetas, chis, increments, values, start):
        dtheta, dchi = np.diff(thetas, axis=0), np.diff(chis, axis=0)
        self.theta_sq = _added(self.theta_sq, _squared_norms(l2_norm, dtheta, self.ops))
        self.chi_sq = _added(self.chi_sq, _squared_norms(l2_norm, dchi, self.ops)
                             + _squared_norms(h1_seminorm, dchi, self.ops))

    def results(self):
        scale = self.grid.dt / 3.0
        return list(zip(scale * self.theta_sq, scale * self.chi_sq))


class _Finals(_Study):
    """Per path, the (2, P) stack of theta and chi at the horizon."""

    def results(self):
        return [np.stack(fields) for fields in zip(*self.snapshot(self.grid.steps))]


class _WorstFactor(_Study):
    """Per path, the largest contraction factor of any step."""

    def __init__(self, ops, counters, grid, theta, chi):
        super().__init__(ops, counters, grid, theta, chi)
        self.worst = [0.0] * len(theta)

    def add(self, row, theta, chi, reports):
        super().add(row, theta, chi, reports)
        self.worst = [max(worst, max(report.contraction_factors, default=0.0))
                      for worst, report in zip(self.worst, reports)]

    def results(self):
        return self.worst


class _Energy(_Study):
    """Per path, the energy aggregate of ``energy_statistic``: four running
    sums over the steps, and the terms of the fields at the horizon.

    B_n, the partial sums of dw_k h_k, runs on as ``noise.partial_sums``'
    ``cumsum`` accumulates it, from the zero field at node 0, and gives
    u = chi - B_n."""

    def __init__(self, ops, counters, grid, theta, chi):
        super().__init__(ops, counters, grid, theta, chi)
        self.sums = None
        self.dtheta_sq = self.grad_theta_sq = self.du_sq = self.grad_dchi_sq = np.zeros(
            len(theta))

    def reduce(self, thetas, chis, increments, values, start):
        ops = self.ops
        noise = increments.T[:, :, None] * values[:, None]
        if self.sums is None:
            sums = np.concatenate((np.zeros((1,) + noise.shape[1:]), np.cumsum(noise, axis=0)))
        else:
            sums = np.cumsum(np.concatenate((self.sums[None], noise)), axis=0)
        self.sums = sums[-1]
        du = np.diff(chis - sums, axis=0) / self.grid.dt
        self.dtheta_sq = _added(self.dtheta_sq,
                                _squared_norms(l2_norm, np.diff(thetas, axis=0), ops))
        self.grad_theta_sq = _added(self.grad_theta_sq,
                                    _squared_norms(h1_seminorm, thetas[1:], ops))
        self.du_sq = _added(self.du_sq, _squared_norms(l2_norm, du, ops))
        self.grad_dchi_sq = _added(self.grad_dchi_sq,
                                   _squared_norms(h1_seminorm, np.diff(chis, axis=0), ops))

    def totals(self, theta, chi):
        """The aggregate of each path, whose fields at the horizon are the
        rows of the (m, P) blocks ``theta`` and ``chi``."""
        ops, dt = self.ops, self.grid.dt
        return [l2_norm(final_theta, ops) ** 2 + dtheta_sq + dt * grad_theta_sq + dt * du_sq
                + h1_seminorm(final_chi, ops) ** 2 + 0.5 * grad_dchi_sq
                for final_theta, final_chi, dtheta_sq, grad_theta_sq, du_sq, grad_dchi_sq
                in zip(theta, chi, self.dtheta_sq, self.grad_theta_sq, self.du_sq,
                       self.grad_dchi_sq)]

    def results(self):
        return self.totals(*self.snapshot(self.grid.steps))


class _Leave(_Study):
    """The record of the first of two coupled runs: it leaves each chunk for
    the record of the second (``_Difference``), which reduces it in the
    same lock-step call of the step driver."""

    def reduce(self, thetas, chis, increments, values, start):
        self.block = thetas, chis

    def results(self):
        return []


class _Difference(_Study):
    """The record of the second of two coupled runs: per path and node,
    ||d_theta||^2 + ||grad d_theta||^2 + ||d_chi||^2 / 4 + ||grad d_chi||^2 / 4
    of the differences d from the first run (``_Leave``), node 0 included."""

    def __init__(self, ops, counters, grid, theta, chi, first):
        super().__init__(ops, counters, grid, theta, chi)
        self.first = first
        self.table = np.empty((len(theta), grid.steps + 1))

    def reduce(self, thetas, chis, increments, values, start):
        ops = self.ops
        # Node 0 is reduced with the first chunk; every later chunk starts
        # at the last node of the one before.
        skip = 1 if start else 0
        first_thetas, first_chis = self.first.block
        dtheta = first_thetas[skip:] - thetas[skip:]
        dchi = first_chis[skip:] - chis[skip:]
        terms = (_squared_norms(l2_norm, dtheta, ops) + _squared_norms(h1_seminorm, dtheta, ops)
                 + 0.25 * _squared_norms(l2_norm, dchi, ops)
                 + 0.25 * _squared_norms(h1_seminorm, dchi, ops))
        self.table[:, start + skip:start + len(thetas)] = terms.T

    def results(self):
        return list(self.table)


@dataclass
class RateReport:
    """Per-level errors with a fitted log2 slope (None when degenerate)."""

    dts: list
    errors: list
    standard_errors: list
    slope: float | None


def _fit_slope(dts, errors):
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    if mask.sum() < 2:
        return None
    return float(np.polyfit(np.log2(dts[mask]), np.log2(errors[mask]), 1)[0])


def _rate_report(dts, mean_squares, se_squares):
    errors = np.sqrt(np.maximum(mean_squares, 0.0))
    # Delta method: se of sqrt(X) is se(X) / (2 sqrt(X)).
    ses = np.where(errors > 0, se_squares / np.maximum(2.0 * errors, 1e-300), 0.0)
    return RateReport(
        dts=list(dts),
        errors=errors.tolist(),
        standard_errors=ses.tolist(),
        slope=_fit_slope(dts, errors),
    )


@dataclass
class ConvergenceStudy:
    """Rates of theta and chi, and the solver counters of every path and
    level (``manifest.json``'s ``solver``)."""

    theta: RateReport
    chi: RateReport
    solver: dict = field(default_factory=dict)


def grid_difference_rates(setup, horizon, dts, paths, seed):
    """Measure how fast the two time interpolants of a run approach each other.

    For each dt level the piecewise-linear and piecewise-constant interpolants
    of the same trajectory differ, in squared space-time norm, by
    (dt/3) sum_k ||x_{k+1} - x_k||^2; theta is measured in the discrete L2
    norm, chi in the full H1 norm.  Paths are coupled across levels by
    aggregating increments of the finest grid.
    """
    grids = _level_grids(horizon, dts, 3)
    _require_paths(paths)
    counters = _solver_counters(())
    table = _level_table(setup, grids, paths, seed, _Gaps, counters)
    mean, se = _path_statistics(table)
    level_dts = [g.dt for g in grids]
    return ConvergenceStudy(
        theta=_rate_report(level_dts, mean[:, 0], se[:, 0]),
        chi=_rate_report(level_dts, mean[:, 1], se[:, 1]),
        solver=counters,
    )


def self_convergence(setup, horizon, dts, paths, seed):
    """Strong final-time error between consecutive dt levels on coupled paths.

    Reports E[||x^{dt}(T) - x^{dt_next}(T)||^2]^{1/2} for theta and chi,
    indexed by the coarser dt of each pair.
    """
    grids = _level_grids(horizon, dts, 2)
    _require_paths(paths)
    ops = setup.ops
    counters = _solver_counters(())
    finals = _level_table(setup, grids, paths, seed, _Finals, counters)
    gaps = finals[:, :-1] - finals[:, 1:]
    norms = l2_norm(gaps.reshape(-1, ops.node_count), ops)
    table = np.array([norm ** 2 for norm in norms]).reshape(gaps.shape[:-1])
    mean, se = _path_statistics(table)
    pair_dts = [g.dt for g in grids[:-1]]
    return ConvergenceStudy(
        theta=_rate_report(pair_dts, mean[:, 0], se[:, 0]),
        chi=_rate_report(pair_dts, mean[:, 1], se[:, 1]),
        solver=counters,
    )


@dataclass
class StabilityReport:
    """Monte Carlo check of the continuous-dependence inequality."""

    times: np.ndarray
    lhs: np.ndarray
    lhs_se: np.ndarray
    rhs: np.ndarray
    max_ratio: float
    passed: bool
    constants: StabilityConstants
    solver: dict = field(default_factory=dict)


def stability_check(setup, integrand_hat, grid, paths, seed):
    """Compare two runs that differ only in the deterministic integrand.

    Both runs share every Brownian increment, and at each time node the
    monitored combination

        E||d_theta||^2 + E||grad d_theta||^2 + E||d_chi||^2 / 4
        + E||grad d_chi||^2 / 4

    must stay below the stability constant times the accumulated squared H1
    norm of the integrand difference.  Passes when every node satisfies the
    bound within four standard errors.
    """
    ops = setup.ops
    nl = setup.nonlinearity
    constants = compute_stability_constant(nl.lipschitz, nl.coercivity, grid.horizon)
    base = discretize_integrand(setup.integrand, grid, ops)
    other = discretize_integrand(integrand_hat, grid, ops)

    diff_values = base.values - other.values
    step_sq = np.array([l2 ** 2 + h1 ** 2 for l2, h1 in
                        zip(l2_norm(diff_values, ops), h1_seminorm(diff_values, ops))])
    rhs = np.zeros(grid.steps + 1)
    np.cumsum(grid.dt * step_sq, out=rhs[1:])
    rhs *= constants.stability_constant

    _require_paths(paths)
    counters = _solver_counters(())
    table = []
    for batch in path_batches(paths):
        level_paths = [sample_path(grid, seed, pid) for pid in batch]
        records = []

        def record(index, theta, chi):
            records.append(_Leave(ops, counters, grid, theta, chi) if index == 0 else
                           _Difference(ops, counters, grid, theta, chi, records[0]))
            return records[-1]

        # Both runs as one batch on the grid, which they share.
        table += dict(simulate(setup, [grid, grid], [level_paths, level_paths], [base, other],
                               record))[1]
    lhs_mean, lhs_se = _path_statistics(table)
    active = rhs > 0
    ratios = np.divide(lhs_mean, rhs, out=np.zeros_like(rhs), where=active)
    max_ratio = float(ratios.max()) if active.any() else 0.0
    ok = bool(np.all(lhs_mean[active] <= rhs[active] + 4.0 * lhs_se[active]))
    # Where the integrands have not yet diverged the coupled runs are
    # identical, so the left side must vanish to solver precision.
    ok = ok and bool(np.all(lhs_mean[~active] <= 1e-18))
    return StabilityReport(
        times=grid.nodes.copy(),
        lhs=lhs_mean,
        lhs_se=lhs_se,
        rhs=rhs,
        max_ratio=max_ratio,
        passed=ok,
        constants=constants,
        solver=counters,
    )


@dataclass
class EnergyReport:
    """Boundedness check of the discrete energy aggregate across dt levels."""

    dts: list
    statistics: list
    standard_errors: list
    passed: bool
    solver: dict = field(default_factory=dict)


def energy_statistic(traj, ops):
    """The full discrete energy aggregate of one trajectory.

    ||theta_N||^2 + sum ||theta_{k+1} - theta_k||^2
    + dt sum ||grad theta_{k+1}||^2 + dt sum ||u_{k+1}||^2
    + ||grad chi_N||^2 + (1/2) sum ||grad (chi_{k+1} - chi_k)||^2,
    with u the per-step time increment of chi - B.
    """
    theta, chi = traj.theta[:, None], traj.chi[:, None]
    energy = _Energy(ops, _solver_counters(()), traj.grid, theta[0], chi[0])
    energy.reduce(theta, chi, traj.path.increments[None], traj.integrand.values, 0)
    return energy.totals(theta[-1], chi[-1])[0]


def energy_estimate_check(setup, horizon, dts, paths, seed):
    """Monte Carlo estimate of the energy aggregate at each dt level.

    Passes when halving dt never grows the statistic by more than
    ``ENERGY_GROWTH_SLACK`` (25%) plus four combined standard errors.
    """
    grids = _level_grids(horizon, dts, 2)
    _require_paths(paths)
    counters = _solver_counters(())
    table = _level_table(setup, grids, paths, seed, _Energy, counters)
    mean, se = _path_statistics(table)
    passed = True
    for idx in range(len(grids) - 1):
        combined = math.hypot(se[idx], se[idx + 1])
        if mean[idx + 1] - mean[idx] > ENERGY_GROWTH_SLACK * mean[idx] + 4.0 * combined:
            passed = False
    return EnergyReport(
        dts=[g.dt for g in grids],
        statistics=mean.tolist(),
        standard_errors=se.tolist(),
        passed=bool(passed),
        solver=counters,
    )


def weak_identity_defects(traj, ops, nl):
    """Relative defects of the test-function-one identities at every step.

    The first identity balances the mean of theta + chi against the noise
    mass injected along the trajectory's own path and integrand; the second
    balances the mean of alphatilde(u_{n+1}) against the mean of
    theta_{n+1}.  Both are returned normalized by 1 + max(|lhs|, |rhs|).
    """
    mass = ops.lumped_mass
    # Each node's mass total of theta + chi, formed once: the total after
    # step n is the one before step n + 1.
    totals = _row_dots(traj.theta + traj.chi, mass)
    injected = traj.path.increments * _row_dots(traj.integrand.values, mass)
    before, after = totals[:-1] + injected, totals[1:]
    conservation = np.abs(after - before) / (1.0 + np.maximum(np.abs(after), np.abs(before)))
    lhs = _row_dots(nl.alpha_tilde(np.diff(traj.u, axis=0) / traj.grid.dt), mass)
    rhs = _row_dots(traj.theta[1:], mass)
    balance = np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
    return conservation, balance
