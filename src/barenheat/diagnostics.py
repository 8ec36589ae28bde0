"""Monte Carlo estimation and empirical checks of the scheme's estimates.

Everything here reduces trajectories to scalars or small arrays and averages
them over Brownian paths with deterministic seeding: path k is always drawn
from the (seed, k) stream and the reduction runs in path-id order from a
buffered table, so the results are bit-reproducible for a fixed (seed, M)
regardless of thread count.

Continuum norms are replaced by their discrete surrogates on the lumped
mesh: squared space-time norms become sums of dt-weighted squared nodal
norms, and differences between the piecewise-linear and piecewise-constant
time interpolants of a sequence are integrated exactly, which contributes
the dt/3 factor below.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .grids import build_time_grid, h1_seminorm, l2_norm
from .noise import aggregate_path, discretize_integrand, sample_path
from .stepper import run_additive


@dataclass(frozen=True)
class StabilityConstants:
    """Explicit constants of the continuous-dependence estimate.

    ``gronwall_exponent`` is the rate ((lipschitz^2 + 1)/(2 coercivity + 1)
    + 2) that drives the Gronwall factor, and ``stability_constant`` is the
    constant assembled from the three inequality chains of the estimate:
    with E = 1 + g T e^{g T} (g the exponent) and
    F = (lipschitz^2 + 1)/(coercivity + 1/2) + T/2,

        C = (1/(coercivity + 1/2) + 1) (T/2 E F + 1) + E F + 1/2.

    It bounds the ratio tested by ``stability_check`` from above; any slack
    in it only loosens that one-sided test.
    """

    lipschitz: float
    coercivity: float
    horizon: float
    gronwall_exponent: float
    stability_constant: float


def compute_stability_constant(lipschitz, coercivity, horizon):
    """Assemble the continuous-dependence constants from alpha's constants and T."""
    if not (lipschitz > 0 and coercivity > 0 and horizon > 0):
        raise InvalidConfigError(
            "stability constants need positive lipschitz, coercivity, and horizon; "
            f"got {lipschitz}, {coercivity}, {horizon}"
        )
    squares = lipschitz**2 + 1.0
    exponent = squares / (2.0 * coercivity + 1.0) + 2.0
    growth = 1.0 + exponent * horizon * math.exp(exponent * horizon)
    forcing = squares / (coercivity + 0.5) + horizon / 2.0
    constant = (
        (1.0 / (coercivity + 0.5) + 1.0) * (horizon / 2.0 * growth * forcing + 1.0)
        + growth * forcing
        + 0.5
    )
    return StabilityConstants(
        lipschitz=float(lipschitz),
        coercivity=float(coercivity),
        horizon=float(horizon),
        gronwall_exponent=exponent,
        stability_constant=constant,
    )


def mc_expectation(sample, count, seed, threads=1):
    """Sample mean and standard error of ``sample(seed, path_id)`` over paths.

    ``sample`` may return a float or an ndarray; the reduction is performed
    in path-id order from a buffered table, so the result does not depend on
    ``threads``.  ``threads`` > 1 runs the samples on a thread pool, but a
    sample is mostly Python and holds the interpreter lock, so the serial
    default is the fastest choice on CPython; the estimators in this module
    and the CLI's ``--threads`` default to 1 for that reason.
    """
    if count < 2:
        raise InvalidConfigError(f"Monte Carlo needs at least 2 paths, got {count}")
    values = [None] * count
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(sample, seed, pid): pid for pid in range(count)}
            for future, pid in futures.items():
                values[pid] = np.asarray(future.result(), dtype=float)
    else:
        for pid in range(count):
            values[pid] = np.asarray(sample(seed, pid), dtype=float)
    stacked = np.stack(values)
    mean = stacked.mean(axis=0)
    stderr = stacked.std(axis=0, ddof=1) / math.sqrt(count)
    if mean.ndim == 0:
        return float(mean), float(stderr)
    return mean, stderr


@dataclass(frozen=True)
class AdditiveSetup:
    """Everything but the grid and the path: mesh, nonlinearity, data, noise."""

    ops: object
    nonlinearity: object
    theta0: np.ndarray = field(repr=False)
    chi0: np.ndarray = field(repr=False)
    integrand: str = "0"
    tol: float = 1e-11
    newton_tol: float = 1e-12


def simulate(setup, grid, path, integrand=None):
    """Run the additive scheme for ``setup`` on ``grid`` along ``path``."""
    if integrand is None:
        integrand = discretize_integrand(setup.integrand, grid, setup.ops)
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


def _level_grids(horizon, dts):
    """Validate a decreasing dt ladder where each level divides the finer ones."""
    dts = [float(dt) for dt in dts]
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise InvalidConfigError(f"dt levels must be strictly decreasing, got {dts}")
    grids = []
    for dt in dts:
        steps = round(horizon / dt)
        if steps < 1 or abs(steps * dt - horizon) > 1e-9 * horizon:
            raise InvalidConfigError(f"dt = {dt} does not divide the horizon T = {horizon}")
        grids.append(build_time_grid(horizon, steps))
    for coarse, fine in zip(grids, grids[1:]):
        if fine.steps % coarse.steps != 0:
            raise InvalidConfigError(
                f"level with {coarse.steps} steps does not divide the finer {fine.steps}"
            )
    return grids


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


def grid_difference_rates(setup, horizon, dts, paths, seed, threads=1):
    """Measure how fast the two time interpolants of a run approach each other.

    For each dt level the piecewise-linear and piecewise-constant interpolants
    of the same trajectory differ, in squared space-time norm, by
    (dt/3) sum_k ||x_{k+1} - x_k||^2; theta is measured in the discrete L2
    norm, chi in the full H1 norm.  Paths are coupled across levels by
    aggregating increments of the finest grid.
    """
    grids = _level_grids(horizon, dts)
    if len(grids) < 3:
        raise InvalidConfigError(f"need at least 3 dt levels, got {len(grids)}")
    ops = setup.ops
    finest = grids[-1]
    integrands = [discretize_integrand(setup.integrand, g, ops) for g in grids]

    def sample(seed_, pid):
        fine_path = sample_path(finest, seed_, pid)
        out = np.empty((len(grids), 2))
        for idx, grid in enumerate(grids):
            path = aggregate_path(fine_path, finest.steps // grid.steps)
            traj = simulate(setup, grid, path, integrand=integrands[idx])
            dtheta = np.diff(traj.theta, axis=0)
            dchi = np.diff(traj.chi, axis=0)
            theta_sq = sum(l2_norm(row, ops) ** 2 for row in dtheta)
            chi_sq = sum(l2_norm(row, ops) ** 2 + h1_seminorm(row, ops) ** 2 for row in dchi)
            out[idx, 0] = grid.dt / 3.0 * theta_sq
            out[idx, 1] = grid.dt / 3.0 * chi_sq
        return out

    mean, se = mc_expectation(sample, paths, seed, threads=threads)
    level_dts = [g.dt for g in grids]
    return ConvergenceStudy(
        theta=_rate_report(level_dts, mean[:, 0], se[:, 0]),
        chi=_rate_report(level_dts, mean[:, 1], se[:, 1]),
    )


def self_convergence(setup, horizon, dts, paths, seed, threads=1):
    """Strong final-time error between consecutive dt levels on coupled paths.

    Reports E[||x^{dt}(T) - x^{dt_next}(T)||^2]^{1/2} for theta and chi,
    indexed by the coarser dt of each pair.
    """
    grids = _level_grids(horizon, dts)
    if len(grids) < 2:
        raise InvalidConfigError(f"need at least 2 dt levels, got {len(grids)}")
    ops = setup.ops
    finest = grids[-1]
    integrands = [discretize_integrand(setup.integrand, g, ops) for g in grids]

    def sample(seed_, pid):
        fine_path = sample_path(finest, seed_, pid)
        finals = []
        for idx, grid in enumerate(grids):
            path = aggregate_path(fine_path, finest.steps // grid.steps)
            traj = simulate(setup, grid, path, integrand=integrands[idx])
            finals.append((traj.theta[-1], traj.chi[-1]))
        out = np.empty((len(grids) - 1, 2))
        for idx in range(len(grids) - 1):
            out[idx, 0] = l2_norm(finals[idx][0] - finals[idx + 1][0], ops) ** 2
            out[idx, 1] = l2_norm(finals[idx][1] - finals[idx + 1][1], ops) ** 2
        return out

    mean, se = mc_expectation(sample, paths, seed, threads=threads)
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


def stability_check(setup, integrand_hat, grid, paths, seed, threads=1):
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
    step_sq = np.array(
        [l2_norm(row, ops) ** 2 + h1_seminorm(row, ops) ** 2 for row in diff_values]
    )
    rhs = np.zeros(grid.steps + 1)
    np.cumsum(grid.dt * step_sq, out=rhs[1:])
    rhs *= constants.stability_constant

    def sample(seed_, pid):
        path = sample_path(grid, seed_, pid)
        traj = simulate(setup, grid, path, integrand=base)
        traj_hat = simulate(setup, grid, path, integrand=other)
        dtheta = traj.theta - traj_hat.theta
        dchi = traj.chi - traj_hat.chi
        lhs = np.empty(grid.steps + 1)
        for n in range(grid.steps + 1):
            lhs[n] = (
                l2_norm(dtheta[n], ops) ** 2
                + h1_seminorm(dtheta[n], ops) ** 2
                + 0.25 * l2_norm(dchi[n], ops) ** 2
                + 0.25 * h1_seminorm(dchi[n], ops) ** 2
            )
        return lhs

    lhs_mean, lhs_se = mc_expectation(sample, paths, seed, threads=threads)
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
    total += sum(l2_norm(row, ops) ** 2 for row in dtheta)
    total += dt * sum(h1_seminorm(row, ops) ** 2 for row in traj.theta[1:])
    total += dt * sum(l2_norm(row, ops) ** 2 for row in du)
    total += h1_seminorm(traj.chi[-1], ops) ** 2
    total += 0.5 * sum(h1_seminorm(row, ops) ** 2 for row in dchi)
    return total


def energy_estimate_check(setup, horizon, dts, paths, seed, threads=1, growth_slack=0.25):
    """Monte Carlo estimate of the energy aggregate at each dt level.

    Passes when halving dt never grows the statistic by more than
    ``growth_slack`` (25%) plus four combined standard errors.
    """
    grids = _level_grids(horizon, dts)
    if len(grids) < 2:
        raise InvalidConfigError(f"need at least 2 dt levels, got {len(grids)}")
    ops = setup.ops
    finest = grids[-1]
    integrands = [discretize_integrand(setup.integrand, g, ops) for g in grids]

    def sample(seed_, pid):
        fine_path = sample_path(finest, seed_, pid)
        out = np.empty(len(grids))
        for idx, grid in enumerate(grids):
            path = aggregate_path(fine_path, finest.steps // grid.steps)
            traj = simulate(setup, grid, path, integrand=integrands[idx])
            out[idx] = energy_statistic(traj, ops)
        return out

    mean, se = mc_expectation(sample, paths, seed, threads=threads)
    passed = True
    for idx in range(len(grids) - 1):
        combined = math.hypot(se[idx], se[idx + 1])
        if mean[idx + 1] - mean[idx] > growth_slack * mean[idx] + 4.0 * combined:
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
