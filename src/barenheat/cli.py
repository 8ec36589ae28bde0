"""Batch front end: config-driven solver and diagnostic runs.

Subcommands::

    solve        one additive trajectory (path 0), writes trajectory.csv
    mc           energy boundedness across dt levels, writes energy.csv
    converge     grid-difference or self-convergence rates, writes rates.csv
    stability    continuous-dependence inequality, writes stability.csv
    contraction  inner fixed-point factors vs their bound, writes contraction.csv
    picard       multiplicative fixed point (path 0), writes picard.csv
    constants    print the stability constants

Every command writes ``summary.json`` ({check_name, pass, statistic,
threshold, warnings}, plus command specifics) and ``manifest.json`` (config
hash, effective seed and its source, versions, wall time; for ``solve`` and
``picard`` also the deterministic ``solver`` counters of the trajectory they
write).  ``warnings`` lists what was also printed to stderr as a warning:
a failed conformance check of the nonlinearity, or a failed sampled audit
of a pointwise noise map's declared Lipschitz constant.  A run that fails
after its config was accepted still writes both files: ``summary.json``
with ``pass: false`` and ``manifest.json`` with ``error`` ({type, message,
step, path_id, row}; the last three are null when the error does not say
where it happened).  A config that fails validation, the subcommand's
checks or those of the estimator it calls writes nothing: the output
directory is made by the first write.  CSV
bodies are byte-reproducible for a fixed config and seed: floats use
shortest round-trip formatting, the Monte Carlo reduction is ordered, and
wall-clock readings stay out of the CSVs unless ``--timings`` opts in.
Exit codes: 0 success, 2 a check failed, 1 error.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .config import parse_config
from .diagnostics import (
    ENERGY_GROWTH_SLACK,
    _level_table,
    _WorstFactor,
    energy_estimate_check,
    grid_difference_rates,
    self_convergence,
    simulate,
    stability_check,
    weak_identity_defects,
    AdditiveSetup,
)
from .errors import InvalidConfigError
from .grids import build_time_grid, h1_seminorm, l2_norm, time_grid_of_step
from .multiplicative import picard_solve
from .noise import discretize_integrand, sample_path
from .stepper import _solver_counters, contraction_factor_bound
from .theory import compute_stability_constant

WEAK_IDENTITY_TOL = 1e-10
FACTOR_SLACK = 1e-6

SEED_ENV_VAR = "SOLVER_SEED"


def _fmt(value):
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else str(value)


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_json(path, payload):
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def _seed_override(args):
    """The seed that replaces the config's, and its source; the config
    validates it like its own."""
    env_value = os.environ.get(SEED_ENV_VAR)
    if env_value is not None:
        return env_value, "env"
    if args.seed is not None:
        return args.seed, "flag"
    return None, "config"


def _setup(config):
    return AdditiveSetup(
        ops=config.ops,
        nonlinearity=config.nonlinearity,
        theta0=config.theta0,
        chi0=config.chi0,
        integrand=config.integrand,
        tol=config.inner_tol,
        newton_tol=config.newton_tol,
    )


def _require(condition, message):
    if not condition:
        raise InvalidConfigError(message)


def _trajectory_rows(traj, ops):
    norms = zip(l2_norm(traj.theta, ops), h1_seminorm(traj.theta, ops), l2_norm(traj.chi, ops),
                h1_seminorm(traj.chi, ops), l2_norm(traj.u, ops))
    steps = [(0, [])] + [(r.inner_iterations, r.contraction_factors) for r in traj.reports]
    return [[n, traj.grid.nodes[n], *row, inner, max(factors, default=0.0)]
            for n, (row, (inner, factors)) in enumerate(zip(norms, steps))]


_TRAJECTORY_HEADER = [
    "step", "t", "l2_theta", "h1semi_theta", "l2_chi", "h1semi_chi",
    "l2_u", "inner_iters", "max_contraction_factor",
]


def cmd_solve(args, config, outdir, seed):
    _require(config.steps is not None, "solve needs [time] steps")
    grid = build_time_grid(config.horizon, config.steps)
    setup = _setup(config)
    path = sample_path(grid, seed, 0)
    integrand = discretize_integrand(setup.integrand, grid, config.ops)
    traj = simulate(setup, grid, path, integrand=integrand)
    _write_csv(os.path.join(outdir, "trajectory.csv"), _TRAJECTORY_HEADER,
               _trajectory_rows(traj, config.ops))
    conservation, balance = weak_identity_defects(traj, config.ops, config.nonlinearity)
    worst = float(max(conservation.max(), balance.max())) if conservation.size else 0.0
    passed = worst <= WEAK_IDENTITY_TOL
    return passed, {
        "check_name": "weak_identities",
        "statistic": worst,
        "threshold": WEAK_IDENTITY_TOL,
    }, _solver_counters(traj.reports)


def cmd_mc(args, config, outdir, seed):
    report = energy_estimate_check(_setup(config), config.horizon, config.dt_levels,
                                   config.paths, seed)
    rows = list(zip(report.dts, report.statistics, report.standard_errors))
    _write_csv(os.path.join(outdir, "energy.csv"),
               ["dt", "statistic", "standard_error"], rows)
    return report.passed, {
        "check_name": "energy_boundedness",
        "statistic": max(report.statistics),
        "threshold": f"growth < {ENERGY_GROWTH_SLACK:.0%} + 4 se per halving",
        "levels": rows,
    }, report.solver


def cmd_converge(args, config, outdir, seed):
    runner = grid_difference_rates if config.study_kind == "grid_difference" else self_convergence
    study = runner(_setup(config), config.horizon, config.dt_levels,
                   config.paths, seed)
    rows = zip(study.theta.dts, study.theta.errors, study.theta.standard_errors,
               study.chi.errors, study.chi.standard_errors)
    _write_csv(os.path.join(outdir, "rates.csv"),
               ["dt", "error_theta", "se_theta", "error_chi", "se_chi"], rows)
    slope = study.chi.slope
    passed = slope is not None and slope >= config.slope_threshold
    return passed, {
        "check_name": f"{config.study_kind}_rate",
        "statistic": slope,
        "threshold": config.slope_threshold,
        "theta_slope": study.theta.slope,
        "chi_slope": study.chi.slope,
    }, study.solver


def cmd_stability(args, config, outdir, seed):
    _require(config.integrand_hat is not None,
             "stability needs [noise] expression_hat, the second integrand")
    _require(config.steps is not None, "stability needs [time] steps")
    grid = build_time_grid(config.horizon, config.steps)
    report = stability_check(_setup(config), config.integrand_hat, grid,
                             config.paths, seed)
    rows = [[t, lhs, se, rhs, lhs / rhs if rhs > 0 else 0.0]
            for t, lhs, se, rhs in zip(report.times, report.lhs, report.lhs_se, report.rhs)]
    _write_csv(os.path.join(outdir, "stability.csv"),
               ["t", "lhs", "lhs_se", "rhs", "ratio"], rows)
    return report.passed, {
        "check_name": "continuous_dependence",
        "statistic": report.max_ratio,
        "threshold": "ratio <= 1 + 4 se",
        "stability_constant": report.constants.stability_constant,
    }, report.solver


def cmd_contraction(args, config, outdir, seed):
    levels = config.dt_levels or ([config.horizon / config.steps] if config.steps else None)
    _require(levels, "contraction needs [time] dt_levels or steps")
    setup = _setup(config)
    rows, solver = [], _solver_counters(())
    for dt in levels:
        grid = time_grid_of_step(config.horizon, dt)
        bound = contraction_factor_bound(config.nonlinearity, grid.dt)
        # A table of this level alone draws its paths on this grid.
        worst = _level_table(setup, [grid], config.paths, seed, _WorstFactor, solver).max()
        rows.append([grid.dt, bound, float(worst), config.paths, grid.steps])
    passed = all(row[2] <= row[1] * (1.0 + FACTOR_SLACK) for row in rows)
    _write_csv(os.path.join(outdir, "contraction.csv"),
               ["dt", "factor_bound", "max_factor", "paths", "steps"], rows)
    return passed, {
        "check_name": "inner_contraction",
        "statistic": max(row[2] for row in rows),
        "threshold": f"factor <= bound * (1 + {FACTOR_SLACK})",
        "levels": [[row[0], row[1], row[2]] for row in rows],
    }, solver


def cmd_picard(args, config, outdir, seed):
    _require(config.steps is not None, "picard needs [time] steps")
    grid = build_time_grid(config.horizon, config.steps)
    path = sample_path(grid, seed, 0)
    traj, report = picard_solve(config.theta0, config.chi0, config.noise_map, path,
                                grid, config.ops, config.nonlinearity, config.picard,
                                tol=config.inner_tol, newton_tol=config.newton_tol)
    walls = report.wall_times if args.timings else [0.0] * report.iterations
    rows = zip(range(1, report.iterations + 1), report.w_differences, [0.0] + report.ratios,
               walls)
    _write_csv(os.path.join(outdir, "picard.csv"),
               ["iteration", "W_difference", "ratio", "wall_time"], rows)
    _write_csv(os.path.join(outdir, "trajectory.csv"), _TRAJECTORY_HEADER,
               _trajectory_rows(traj, config.ops))
    return True, {
        "check_name": "picard_convergence",
        "statistic": report.w_differences[-1],
        "threshold": config.picard.tolerance,
        "iterations": report.iterations,
        "modulus": report.modulus,
        "iteration_wall_times": report.wall_times,
    }, _solver_counters(traj.reports)


def cmd_constants(args, config, outdir, seed):
    nl = config.nonlinearity
    constants = compute_stability_constant(nl.lipschitz, nl.coercivity, config.horizon)
    print(f"lipschitz(alpha)      = {constants.lipschitz!r}")
    print(f"coercivity(alpha)     = {constants.coercivity!r}")
    print(f"horizon               = {constants.horizon!r}")
    print(f"gronwall_exponent     = {constants.gronwall_exponent!r}")
    print(f"stability_constant    = {constants.stability_constant!r}")
    return True, {
        "check_name": "stability_constants",
        "statistic": constants.stability_constant,
        "threshold": None,
        "gronwall_exponent": constants.gronwall_exponent,
    }, None


_COMMANDS = {
    "solve": cmd_solve,
    "mc": cmd_mc,
    "converge": cmd_converge,
    "stability": cmd_stability,
    "contraction": cmd_contraction,
    "picard": cmd_picard,
    "constants": cmd_constants,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="barenheat",
        description="Coupled random heat / stochastic Barenblatt solver and checks",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--paths", type=int, default=None, help="Monte Carlo path count")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base seed (env {SEED_ENV_VAR} takes precedence)")
    parser.add_argument("--dt-list", default=None,
                        help="comma-separated dt levels, overrides the config")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: Monte Carlo paths run as one batch "
                             "in this process (recorded in manifest.json)")
    parser.add_argument("--override-picard-condition", action="store_true",
                        help="run picard even if the weight condition fails")
    parser.add_argument("--timings", action="store_true",
                        help="put measured wall times into picard.csv "
                             "(breaks byte-reproducibility of that file)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        seed, seed_source = _seed_override(args)
        config = parse_config(
            args.config,
            paths=args.paths,
            seed=seed,
            dt_levels=args.dt_list or None,
            override_picard_condition=args.override_picard_condition,
        )
        seed, warnings = config.seed, config.warnings
        kind = {"picard": "multiplicative", "constants": config.noise_kind}.get(
            args.command, "additive")
        _require(config.noise_kind == kind, f"{args.command} needs [noise] kind = {kind}")
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        outdir = args.out or config.output_directory

        def write_manifest(**extra):
            _write_json(os.path.join(outdir, "manifest.json"), {
                "command": args.command,
                "config_path": str(args.config),
                "config_sha256": _sha256(args.config),
                "seed": seed,
                "seed_source": seed_source,
                "paths": config.paths,
                "threads": args.threads,
                "versions": {
                    "barenheat": __version__,
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "python": sys.version.split()[0],
                },
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "wall_time_seconds": time.perf_counter() - started,
                **extra,
            })

        try:
            passed, summary, solver = _COMMANDS[args.command](args, config, outdir, seed)
        except InvalidConfigError:
            raise
        except Exception as exc:
            # A failure after the config was accepted still leaves a record.
            _write_json(os.path.join(outdir, "summary.json"), {
                "check_name": None, "pass": False, "statistic": None, "threshold": None,
                "warnings": warnings,
            })
            write_manifest(error={
                "type": type(exc).__name__,
                "message": str(exc),
                "step": getattr(exc, "step", None),
                "path_id": getattr(exc, "path_id", None),
                "row": getattr(exc, "row", None),
            })
            raise
        _write_json(os.path.join(outdir, "summary.json"),
                    {**summary, "pass": passed, "warnings": warnings})
        write_manifest(**({} if solver is None else {"solver": solver}))
        return 0 if passed else 2
    except Exception as exc:  # invalid configs, solver failures, I/O, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
