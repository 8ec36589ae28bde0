"""Monte Carlo estimation and empirical checks of the scheme's estimates.

Everything here reduces trajectories to scalars or small arrays and averages
them over Brownian paths with deterministic seeding: path k is always drawn
from the (seed, k) stream and the reduction runs in path-id order from a
buffered table, so the results are bit-reproducible for a fixed (seed, M).
The estimators advance up to ``BATCH_PATHS`` paths at a time as one batch
of ``run_additive``; every path gets the bits of a run on its own, so the
results do not depend on the batch size either.  All paths run in the
calling thread.

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
from .grids import h1_seminorm, l2_norm, time_grid_of_step
from .noise import aggregate_path, discretize_integrand, sample_path
from .stepper import DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL, run_additive
from .theory import StabilityConstants, compute_stability_constant

# Most paths advanced together as one batch; bounds the memory a batch's
# trajectories take, and does not change any result.
BATCH_PATHS = 64

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


def simulate(setup, grid, path, integrand):
    """Run the additive scheme for ``setup`` on ``grid`` along ``path``
    with the discretized ``integrand``.

    ``path`` is one BrownianPath or a sequence of them, as in
    ``run_additive``.
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


def _level_table(setup, grids, paths, seed, statistic):
    """Array of ``statistic(grid, trajectory)`` indexed by [path id, level].

    Each path is drawn once on the finest grid and aggregated onto every
    level, which couples the levels.  A batch of up to BATCH_PATHS paths
    runs as one ``run_additive`` per level, and only the statistics of a
    level are kept, not its trajectories.
    """
    finest = grids[-1]
    integrands = [discretize_integrand(setup.integrand, g, setup.ops) for g in grids]
    rows = []
    for batch in path_batches(paths):
        fine_paths = [sample_path(finest, seed, pid) for pid in batch]
        levels = []
        for grid, integrand in zip(grids, integrands):
            level_paths = [aggregate_path(p, finest.steps // grid.steps) for p in fine_paths]
            levels.append([statistic(grid, traj) for traj in
                           simulate(setup, grid, level_paths, integrand=integrand)])
        rows.extend(zip(*levels))
    return np.array(rows, dtype=float)


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
    theta: RateReport
    chi: RateReport


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
    ops = setup.ops

    def gaps(grid, traj):
        dtheta = np.diff(traj.theta, axis=0)
        dchi = np.diff(traj.chi, axis=0)
        theta_sq = sum(l2 ** 2 for l2 in l2_norm(dtheta, ops))
        chi_sq = sum(l2 ** 2 + h1 ** 2
                     for l2, h1 in zip(l2_norm(dchi, ops), h1_seminorm(dchi, ops)))
        return grid.dt / 3.0 * theta_sq, grid.dt / 3.0 * chi_sq

    mean, se = _path_statistics(_level_table(setup, grids, paths, seed, gaps))
    level_dts = [g.dt for g in grids]
    return ConvergenceStudy(
        theta=_rate_report(level_dts, mean[:, 0], se[:, 0]),
        chi=_rate_report(level_dts, mean[:, 1], se[:, 1]),
    )


def self_convergence(setup, horizon, dts, paths, seed):
    """Strong final-time error between consecutive dt levels on coupled paths.

    Reports E[||x^{dt}(T) - x^{dt_next}(T)||^2]^{1/2} for theta and chi,
    indexed by the coarser dt of each pair.
    """
    grids = _level_grids(horizon, dts, 2)
    _require_paths(paths)
    ops = setup.ops
    finals = _level_table(setup, grids, paths, seed,
                          lambda grid, traj: np.stack((traj.theta[-1], traj.chi[-1])))
    gaps = finals[:, :-1] - finals[:, 1:]
    norms = l2_norm(gaps.reshape(-1, ops.node_count), ops)
    table = np.array([norm ** 2 for norm in norms]).reshape(gaps.shape[:-1])
    mean, se = _path_statistics(table)
    pair_dts = [g.dt for g in grids[:-1]]
    return ConvergenceStudy(
        theta=_rate_report(pair_dts, mean[:, 0], se[:, 0]),
        chi=_rate_report(pair_dts, mean[:, 1], se[:, 1]),
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
    table = np.empty((paths, grid.steps + 1))
    for batch in path_batches(paths):
        level_paths = [sample_path(grid, seed, pid) for pid in batch]
        runs = zip(batch, simulate(setup, grid, level_paths, integrand=base),
                   simulate(setup, grid, level_paths, integrand=other))
        for pid, traj, traj_hat in runs:
            dtheta = traj.theta - traj_hat.theta
            dchi = traj.chi - traj_hat.chi
            table[pid] = [
                a ** 2 + b ** 2 + 0.25 * c ** 2 + 0.25 * d ** 2
                for a, b, c, d in zip(l2_norm(dtheta, ops), h1_seminorm(dtheta, ops),
                                      l2_norm(dchi, ops), h1_seminorm(dchi, ops))
            ]
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
    )


@dataclass
class EnergyReport:
    """Boundedness check of the discrete energy aggregate across dt levels."""

    dts: list
    statistics: list
    standard_errors: list
    passed: bool


def energy_statistic(traj, ops):
    """The full discrete energy aggregate of one trajectory.

    ||theta_N||^2 + sum ||theta_{k+1} - theta_k||^2
    + dt sum ||grad theta_{k+1}||^2 + dt sum ||u_{k+1}||^2
    + ||grad chi_N||^2 + (1/2) sum ||grad (chi_{k+1} - chi_k)||^2,
    with u the per-step time increment of chi - B.
    """
    dt = traj.grid.dt
    dtheta = np.diff(traj.theta, axis=0)
    dchi = np.diff(traj.chi, axis=0)
    du = np.diff(traj.u, axis=0) / dt
    total = l2_norm(traj.theta[-1], ops) ** 2
    total += sum(norm ** 2 for norm in l2_norm(dtheta, ops))
    total += dt * sum(norm ** 2 for norm in h1_seminorm(traj.theta[1:], ops))
    total += dt * sum(norm ** 2 for norm in l2_norm(du, ops))
    total += h1_seminorm(traj.chi[-1], ops) ** 2
    total += 0.5 * sum(norm ** 2 for norm in h1_seminorm(dchi, ops))
    return total


def energy_estimate_check(setup, horizon, dts, paths, seed):
    """Monte Carlo estimate of the energy aggregate at each dt level.

    Passes when halving dt never grows the statistic by more than
    ``ENERGY_GROWTH_SLACK`` (25%) plus four combined standard errors.
    """
    grids = _level_grids(horizon, dts, 2)
    _require_paths(paths)
    table = _level_table(setup, grids, paths, seed,
                         lambda grid, traj: energy_statistic(traj, setup.ops))
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
    )


def weak_identity_defects(traj, path, integrand, ops, nl):
    """Relative defects of the test-function-one identities at every step.

    The first identity balances the mean of theta + chi against the injected
    noise mass; the second balances the mean of alphatilde(u_{n+1}) against
    the mean of theta_{n+1}.  Both are returned normalized by
    1 + max(|lhs|, |rhs|).
    """
    mass = ops.lumped_mass
    dt = traj.grid.dt
    conservation = np.empty(traj.grid.steps)
    balance = np.empty(traj.grid.steps)
    for n in range(traj.grid.steps):
        before = float(np.dot(mass, traj.theta[n] + traj.chi[n]))
        after = float(np.dot(mass, traj.theta[n + 1] + traj.chi[n + 1]))
        injected = float(path.increments[n]) * float(np.dot(mass, integrand.values[n]))
        conservation[n] = abs(after - (before + injected)) / (
            1.0 + max(abs(after), abs(before + injected))
        )
        u_next = (traj.u[n + 1] - traj.u[n]) / dt
        lhs = float(np.dot(mass, nl.alpha_tilde(u_next)))
        rhs = float(np.dot(mass, traj.theta[n + 1]))
        balance[n] = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
    return conservation, balance
