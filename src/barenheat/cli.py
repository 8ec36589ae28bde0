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
threshold}, plus command specifics) and ``manifest.json`` (config hash,
effective seed and its source, versions, wall time).  CSV bodies are
byte-reproducible for a fixed config and seed: floats use shortest
round-trip formatting, the Monte Carlo reduction is ordered, and wall-clock
readings stay out of the CSVs unless ``--timings`` opts in.  Exit codes:
0 success, 2 a check failed, 1 error.
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
    energy_estimate_check,
    grid_difference_rates,
    path_batches,
    self_convergence,
    simulate,
    stability_check,
    weak_identity_defects,
    AdditiveSetup,
)
from .errors import InvalidConfigError
from .grids import build_time_grid, h1_seminorm, l2_norm
from .multiplicative import PicardConfig, picard_solve
from .noise import discretize_integrand, sample_path
from .stepper import contraction_factor_bound
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
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def _effective_seed(args, config):
    env_value = os.environ.get(SEED_ENV_VAR)
    if env_value is not None:
        return int(env_value), "env"
    if args.seed is not None:
        return args.seed, "flag"
    return config.seed, "config"


def _setup(config):
    return AdditiveSetup(
        ops=config.ops,
        nonlinearity=config.nonlinearity,
        theta0=config.theta0,
        chi0=config.chi0,
        integrand=config.integrand if config.integrand is not None else "0",
        tol=config.inner_tol,
        newton_tol=config.newton_tol,
    )


def _require(condition, message):
    if not condition:
        raise InvalidConfigError(message)


def _trajectory_rows(traj, ops):
    rows = [[0, 0.0, l2_norm(traj.theta[0], ops), h1_seminorm(traj.theta[0], ops),
             l2_norm(traj.chi[0], ops), h1_seminorm(traj.chi[0], ops),
             l2_norm(traj.u[0], ops), 0, 0.0]]
    for n, report in enumerate(traj.reports, start=1):
        factors = report.contraction_factors
        rows.append([
            n,
            traj.grid.nodes[n],
            l2_norm(traj.theta[n], ops),
            h1_seminorm(traj.theta[n], ops),
            l2_norm(traj.chi[n], ops),
            h1_seminorm(traj.chi[n], ops),
            l2_norm(traj.u[n], ops),
            report.inner_iterations,
            max(factors) if factors else 0.0,
        ])
    return rows


_TRAJECTORY_HEADER = [
    "step", "t", "l2_theta", "h1semi_theta", "l2_chi", "h1semi_chi",
    "l2_u", "inner_iters", "max_contraction_factor",
]


def cmd_solve(args, config, outdir, seed):
    _require(config.noise_kind == "additive", "solve needs an additive noise block")
    _require(config.steps is not None, "solve needs [time] steps")
    grid = build_time_grid(config.horizon, config.steps)
    setup = _setup(config)
    path = sample_path(grid, seed, 0)
    integrand = discretize_integrand(setup.integrand, grid, config.ops)
    traj = simulate(setup, grid, path, integrand=integrand)
    _write_csv(os.path.join(outdir, "trajectory.csv"), _TRAJECTORY_HEADER,
               _trajectory_rows(traj, config.ops))
    conservation, balance = weak_identity_defects(traj, path, integrand, config.ops,
                                                  config.nonlinearity)
    worst = float(max(conservation.max(), balance.max())) if conservation.size else 0.0
    passed = worst <= WEAK_IDENTITY_TOL
    return passed, {
        "check_name": "weak_identities",
        "pass": passed,
        "statistic": worst,
        "threshold": WEAK_IDENTITY_TOL,
    }


def cmd_mc(args, config, outdir, seed):
    _require(config.noise_kind == "additive", "mc needs an additive noise block")
    _require(config.dt_levels and len(config.dt_levels) >= 2,
             "mc needs [time] dt_levels with at least 2 levels")
    _require(config.paths >= 2, "mc needs at least 2 paths")
    report = energy_estimate_check(_setup(config), config.horizon, config.dt_levels,
                                   config.paths, seed)
    rows = list(zip(report.dts, report.statistics, report.standard_errors))
    _write_csv(os.path.join(outdir, "energy.csv"),
               ["dt", "statistic", "standard_error"], rows)
    return report.passed, {
        "check_name": "energy_boundedness",
        "pass": report.passed,
        "statistic": max(report.statistics),
        "threshold": "growth < 25% + 4 se per halving",
        "levels": rows,
    }


def cmd_converge(args, config, outdir, seed):
    _require(config.noise_kind == "additive", "converge needs an additive noise block")
    minimum = 3 if config.study_kind == "grid_difference" else 2
    _require(config.dt_levels and len(config.dt_levels) >= minimum,
             f"converge needs [time] dt_levels with at least {minimum} levels")
    _require(config.paths >= 2, "converge needs at least 2 paths")
    runner = grid_difference_rates if config.study_kind == "grid_difference" else self_convergence
    study = runner(_setup(config), config.horizon, config.dt_levels,
                   config.paths, seed)
    rows = [
        [dt, et, set_, ec, sec]
        for dt, et, set_, ec, sec in zip(
            study.theta.dts, study.theta.errors, study.theta.standard_errors,
            study.chi.errors, study.chi.standard_errors,
        )
    ]
    _write_csv(os.path.join(outdir, "rates.csv"),
               ["dt", "error_theta", "se_theta", "error_chi", "se_chi"], rows)
    slope = study.chi.slope
    passed = slope is not None and slope >= config.slope_threshold
    return passed, {
        "check_name": f"{config.study_kind}_rate",
        "pass": passed,
        "statistic": slope,
        "threshold": config.slope_threshold,
        "theta_slope": study.theta.slope,
        "chi_slope": study.chi.slope,
    }


def cmd_stability(args, config, outdir, seed):
    _require(config.noise_kind == "additive", "stability needs an additive noise block")
    _require(config.integrand_hat is not None,
             "stability needs [noise] expression_hat, the second integrand")
    _require(config.steps is not None, "stability needs [time] steps")
    _require(config.paths >= 2, "stability needs at least 2 paths")
    grid = build_time_grid(config.horizon, config.steps)
    report = stability_check(_setup(config), config.integrand_hat, grid,
                             config.paths, seed)
    rows = []
    for n in range(grid.steps + 1):
        ratio = report.lhs[n] / report.rhs[n] if report.rhs[n] > 0 else 0.0
        rows.append([report.times[n], report.lhs[n], report.lhs_se[n], report.rhs[n], ratio])
    _write_csv(os.path.join(outdir, "stability.csv"),
               ["t", "lhs", "lhs_se", "rhs", "ratio"], rows)
    return report.passed, {
        "check_name": "continuous_dependence",
        "pass": report.passed,
        "statistic": report.max_ratio,
        "threshold": "ratio <= 1 + 4 se",
        "stability_constant": report.constants.stability_constant,
    }


def cmd_contraction(args, config, outdir, seed):
    _require(config.noise_kind == "additive", "contraction needs an additive noise block")
    levels = config.dt_levels or ([config.horizon / config.steps] if config.steps else None)
    _require(levels, "contraction needs [time] dt_levels or steps")
    setup = _setup(config)
    nl = config.nonlinearity
    rows = []
    passed = True
    for dt in levels:
        grid = build_time_grid(config.horizon, round(config.horizon / dt))
        integrand = discretize_integrand(setup.integrand, grid, config.ops)
        bound = contraction_factor_bound(nl, grid.dt)
        worst = 0.0
        for batch in path_batches(config.paths):
            paths = [sample_path(grid, seed, pid) for pid in batch]
            for traj in simulate(setup, grid, paths, integrand=integrand):
                for report in traj.reports:
                    if report.contraction_factors:
                        worst = max(worst, max(report.contraction_factors))
        level_ok = worst <= bound * (1.0 + FACTOR_SLACK)
        passed = passed and level_ok
        rows.append([grid.dt, bound, worst, config.paths, grid.steps])
    _write_csv(os.path.join(outdir, "contraction.csv"),
               ["dt", "factor_bound", "max_factor", "paths", "steps"], rows)
    return passed, {
        "check_name": "inner_contraction",
        "pass": passed,
        "statistic": max(row[2] for row in rows),
        "threshold": f"factor <= bound * (1 + {FACTOR_SLACK})",
        "levels": [[row[0], row[1], row[2]] for row in rows],
    }


def cmd_picard(args, config, outdir, seed):
    _require(config.noise_kind == "multiplicative", "picard needs a multiplicative noise block")
    _require(config.steps is not None, "picard needs [time] steps")
    grid = build_time_grid(config.horizon, config.steps)
    picard = config.picard
    if args.override_picard_condition and not picard.override_condition:
        picard = PicardConfig(weight=picard.weight, tolerance=picard.tolerance,
                              max_iterations=picard.max_iterations, override_condition=True)
    path = sample_path(grid, seed, 0)
    traj, report = picard_solve(config.theta0, config.chi0, config.noise_map, path,
                                grid, config.ops, config.nonlinearity, picard,
                                tol=config.inner_tol, newton_tol=config.newton_tol)
    rows = []
    for idx, wdiff in enumerate(report.w_differences, start=1):
        ratio = report.ratios[idx - 2] if idx >= 2 else 0.0
        wall = report.wall_times[idx - 1] if args.timings else 0.0
        rows.append([idx, wdiff, ratio, wall])
    _write_csv(os.path.join(outdir, "picard.csv"),
               ["iteration", "W_difference", "ratio", "wall_time"], rows)
    _write_csv(os.path.join(outdir, "trajectory.csv"), _TRAJECTORY_HEADER,
               _trajectory_rows(traj, config.ops))
    return report.converged, {
        "check_name": "picard_convergence",
        "pass": report.converged,
        "statistic": report.w_differences[-1],
        "threshold": picard.tolerance,
        "iterations": report.iterations,
        "modulus": report.modulus,
        "iteration_wall_times": report.wall_times,
    }


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
        "pass": True,
        "statistic": constants.stability_constant,
        "threshold": None,
        "gronwall_exponent": constants.gronwall_exponent,
    }


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
        dt_levels = None
        if args.dt_list:
            dt_levels = [float(piece) for piece in args.dt_list.split(",") if piece.strip()]
        config = parse_config(
            args.config,
            paths=args.paths,
            dt_levels=dt_levels,
            override_picard_condition=args.override_picard_condition,
        )
        seed, seed_source = _effective_seed(args, config)
        if not 0 <= seed < 2**64:
            raise InvalidConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if config.nonlinearity_report is not None and not config.nonlinearity_report.passed:
            print(
                "warning: declared nonlinearity constants failed the sampled "
                "conformance check; contraction and stability bounds may not hold",
                file=sys.stderr,
            )
        outdir = args.out or config.output_directory
        os.makedirs(outdir, exist_ok=True)
        passed, summary = _COMMANDS[args.command](args, config, outdir, seed)
        _write_json(os.path.join(outdir, "summary.json"), summary)
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
        })
        return 0 if passed else 2
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver failures, I/O, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
