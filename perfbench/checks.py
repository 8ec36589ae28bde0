"""Checks of what each benchmark command wrote, against the oracle.

Each check re-reads the config with configparser, maps its expressions to
the closed-form functions below (a config whose text is not in the table
fails the check rather than being guessed), recomputes the study with
``oracle`` and compares it with the CSV files the command wrote.  Every
check returns a list of problems; an empty list means correct.
"""

import configparser
import csv
import json
import math
import os

import numpy as np

import oracle

# Relative agreement required of per-step norms.  The program stops its
# inner iteration at 1e-11 and Newton at 1e-12 (absolute, on O(1) fields);
# the oracle solves each step directly to round-off.
NORM_RTOL = 1e-9
# Grid-difference errors square and sum per-step differences of size ~dt,
# which scales the solver tolerance up by about 1/dt.
RATE_RTOL = 1e-7
# The Picard iterate stops once its weighted difference is below 1e-8;
# its distance to the fixed point is a fraction of that.
PICARD_RTOL = 1e-6
MIRROR_TOL = 1e-10
FACTOR_SLACK = 1e-6

EXPRESSIONS = {
    "cos(pi*x)": lambda t, c: np.cos(np.pi * c[:, 0]),
    "cos(pi*x)*(1+t)": lambda t, c: np.cos(np.pi * c[:, 0]) * (1.0 + t),
    "cos(pi*x)*(2+cos(pi*y))": lambda t, c: (
        np.cos(np.pi * c[:, 0]) * (2.0 + np.cos(np.pi * c[:, 1]))),
    "cos(pi*x)*cos(pi*y)": lambda t, c: np.cos(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1]),
    "cos(pi*x)*(1+cos(2*pi*y))*(1+t)": lambda t, c: (
        np.cos(np.pi * c[:, 0]) * (1.0 + np.cos(2.0 * np.pi * c[:, 1])) * (1.0 + t)),
}


class Config:
    """The config values the oracle needs, read independently of barenheat."""

    def __init__(self, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
        self.cells = [int(v) for v in parser.get("mesh", "cells").split(",")]
        self.lengths = [float(v) for v in parser.get("mesh", "lengths").split(",")]
        self.horizon = parser.getfloat("time", "horizon")
        self.steps = parser.getint("time", "steps", fallback=None)
        levels = parser.get("time", "dt_levels", fallback="")
        self.dt_levels = [float(v) for v in levels.split(",") if v.strip()]
        self.theta0 = self._expression(parser.get("initial", "theta0"))
        self.chi0 = self._expression(parser.get("initial", "chi0"))
        kind = parser.get("nonlinearity", "kind")
        if kind == "linear":
            self.alpha = oracle.Linear(parser.getfloat("nonlinearity", "c"))
        elif kind == "saturating":
            self.alpha = oracle.Saturating(parser.getfloat("nonlinearity", "a"))
        else:
            raise ValueError(f"the oracle has no form for nonlinearity {kind!r}")
        if parser.get("noise", "kind") == "additive":
            self.integrand = self._expression(parser.get("noise", "expression"))
        else:
            if parser.get("noise", "map") != "affine" or parser.has_option("noise", "offset"):
                raise ValueError("the oracle covers affine maps without offset only")
            self.scale = parser.getfloat("noise", "scale")
        self.mesh = oracle.Mesh(self.cells, self.lengths)

    @staticmethod
    def _expression(text):
        if text not in EXPRESSIONS:
            raise ValueError(f"the oracle has no closed form for expression {text!r}")
        return EXPRESSIONS[text]

    def initial(self):
        coords = self.mesh.coords
        return self.theta0(0.0, coords), self.chi0(0.0, coords)

    def level_steps(self):
        return [round(self.horizon / dt) for dt in self.dt_levels]


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(row[i]) for row in body]) for i, name in enumerate(header)}


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare(label, got, want, rtol, problems):
    """Append a problem unless |got - want| <= rtol * max(|want|) elementwise."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{label}: {got.shape[0]} values written, {want.shape[0]} expected")
        return
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    worst = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not worst <= rtol * scale:
        problems.append(f"{label}: off by {worst:.3e}, allowed {rtol * scale:.3e}")


def _check_trajectory_csv(path, config, theta, chi, sums, rtol, problems):
    table = read_csv(path)
    dt = config.horizon / config.steps
    compare("trajectory t", table["t"], dt * np.arange(config.steps + 1), 1e-14, problems)
    mesh = config.mesh
    norms = {
        "l2_theta": mesh.l2(theta),
        "h1semi_theta": mesh.h1semi(theta),
        "l2_chi": mesh.l2(chi),
        "h1semi_chi": mesh.h1semi(chi),
        "l2_u": mesh.l2(chi - sums),
    }
    for column, want in norms.items():
        compare(f"trajectory {column}", table[column], want, rtol, problems)
    bound = 1.0 / (2.0 * ((1.0 + config.alpha.coercivity) / dt - 0.5))
    worst = float(np.max(table["max_contraction_factor"]))
    if worst > bound * (1.0 + FACTOR_SLACK):
        problems.append(f"contraction factor {worst:.3e} exceeds its bound {bound:.3e}")


def check_converge(outdir, config, seed, paths, exit_code):
    """rates.csv against the oracle's grid-difference study on the same paths."""
    problems = []
    steps = config.level_steps()
    finest = steps[-1]
    theta0, chi0 = config.initial()
    mesh = config.mesh
    integrands = [oracle.step_averages(config.integrand, n, config.horizon / n, mesh.coords)
                  for n in steps]
    samples = np.empty((paths, len(steps), 2))
    for pid in range(paths):
        fine = oracle.increments(seed, pid, finest, config.horizon / finest)
        for level, n in enumerate(steps):
            dt = config.horizon / n
            h = integrands[level]
            theta, chi, _ = oracle.run(mesh, config.alpha, dt, oracle.coarsen(fine, finest // n),
                                       theta0, chi0, lambda k, chi_k: h[k])
            dtheta, dchi = np.diff(theta, axis=0), np.diff(chi, axis=0)
            samples[pid, level, 0] = dt / 3.0 * np.sum(mesh.l2(dtheta) ** 2)
            samples[pid, level, 1] = dt / 3.0 * np.sum(mesh.l2(dchi) ** 2 + mesh.h1semi(dchi) ** 2)
    mean = samples.mean(axis=0)
    errors = np.sqrt(mean)
    ses = samples.std(axis=0, ddof=1) / math.sqrt(paths) / (2.0 * errors)
    table = read_csv(os.path.join(outdir, "rates.csv"))
    compare("rates dt", table["dt"], config.dt_levels, 0.0, problems)
    for col, name in enumerate(("theta", "chi")):
        compare(f"rates error_{name}", table[f"error_{name}"], errors[:, col], RATE_RTOL, problems)
        compare(f"rates se_{name}", table[f"se_{name}"], ses[:, col], RATE_RTOL, problems)
    slope = float(np.polyfit(np.log2(config.dt_levels), np.log2(errors[:, 1]), 1)[0])
    summary = read_json(os.path.join(outdir, "summary.json"))
    compare("fitted chi slope", [summary["statistic"]], [slope], RATE_RTOL, problems)
    # The slope verdict is statistical: exit code 2 with a slope below the
    # threshold is the command's own answer, not a failure.
    verdict = summary["statistic"] >= summary["threshold"]
    if exit_code != (0 if verdict else 2) or summary["pass"] != verdict:
        problems.append(f"exit code {exit_code} disagrees with slope {summary['statistic']}")
    return problems


def check_solve(outdir, config, seed, trajectory):
    """trajectory.csv against the oracle's Newton solve, plus mirror symmetry.

    The data and alpha are odd under x -> 1 - x, so theta and chi must be
    too; ``trajectory`` is the program's own result, kept by the probe.
    """
    problems = []
    dt = config.horizon / config.steps
    h = oracle.step_averages(config.integrand, config.steps, dt, config.mesh.coords)
    dw = oracle.increments(seed, 0, config.steps, dt)
    theta0, chi0 = config.initial()
    theta, chi, sums = oracle.run(config.mesh, config.alpha, dt, dw, theta0, chi0,
                                  lambda k, chi_k: h[k])
    _check_trajectory_csv(os.path.join(outdir, "trajectory.csv"), config, theta, chi, sums,
                          NORM_RTOL, problems)
    mesh = config.mesh
    for label, fields in (("program", (trajectory.theta, trajectory.chi)),
                          ("oracle", (theta, chi))):
        for field in fields:
            worst = max(float(np.max(np.abs(mesh.mirror_x(row) + row))) for row in field)
            if worst > MIRROR_TOL * float(np.max(np.abs(field))):
                problems.append(f"{label} fields are not odd under x -> 1 - x ({worst:.3e})")
    return problems


def check_picard(outdir, config, seed):
    """trajectory.csv against direct stepping of the fixed point h_n = s chi_n."""
    problems = []
    dt = config.horizon / config.steps
    dw = oracle.increments(seed, 0, config.steps, dt)
    theta0, chi0 = config.initial()
    zero = np.zeros_like(chi0)
    theta, chi, sums = oracle.run(config.mesh, config.alpha, dt, dw, theta0, chi0,
                                  lambda k, chi_k: config.scale * chi_k if k > 0 else zero)
    _check_trajectory_csv(os.path.join(outdir, "trajectory.csv"), config, theta, chi, sums,
                          PICARD_RTOL, problems)
    table = read_csv(os.path.join(outdir, "picard.csv"))
    modulus = read_json(os.path.join(outdir, "summary.json"))["modulus"]
    later = table["ratio"][table["iteration"] >= 2]
    if later.size and float(later.max()) > modulus:
        problems.append(f"Picard ratio {later.max():.3e} exceeds the modulus {modulus:.3e}")
    return problems
