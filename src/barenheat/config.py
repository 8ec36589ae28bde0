"""Run configuration files: flat sectioned key=value text.

A config is an INI-style file with the sections below; unknown sections and
keys are rejected so typos fail loudly.  Validation gathers every violation
and raises one ConfigValidationError naming the broken conditions.

::

    [mesh]
    dimension = 1
    cells = 64            ; per axis in 2D: "64, 32"
    lengths = 1.0

    [time]
    horizon = 1.0
    steps = 64            ; single-grid commands
    dt_levels = 0.0625, 0.03125, 0.015625   ; multi-level studies

    [initial]
    theta0 = cos(pi*x)
    chi0 = cos(pi*x)

    [nonlinearity]
    kind = linear         ; linear | saturating | ramp
    c = 1.0               ; linear; defaults to 1 when no parameter is given
    ; saturating: a = 2.0
    ; ramp: inner_slope = 1.0  outer_slope = 0.5  knee = 1.0
    ; lipschitz = 1.0  coercivity = 1.0   (replace the kind's own constants)

    [noise]
    kind = additive       ; additive | multiplicative
    expression = cos(pi*x)*(1+t)
    expression_hat = cos(pi*x)   ; second integrand, stability runs only
    ; multiplicative:
    ; map = affine | damped
    ; scale = 0.05  offset = 0   (affine)  /  gain = 0.05  (damped)
    ; lipschitz = 0.05           (defaults to |scale| or |gain|; affine: >= |scale|)
    ; weight = 8.0  picard_tolerance = 1e-8  picard_max_iterations = 25

    [monte_carlo]
    paths = 64
    seed = 12345

    [tolerances]
    inner = 1e-11
    newton = 1e-12

    [study]
    kind = grid_difference   ; grid_difference | self
    slope_threshold = 0.4

    [output]
    directory = out
"""

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nonlinearity as nonlin
from .errors import ConfigValidationError, ExpressionError, InvalidConfigError
from .expressions import parse_expression
from .grids import build_operators, time_grid_of_step
from .multiplicative import PicardConfig, _picard_threshold, affine_map, damped_map, lipschitz_audit
from .stepper import DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL, check_step_preconditions


def _float(text):
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"{text!r} is not a finite number")
    return number


def _floats(text):
    """Comma-separated finite floats; an override may pass the list itself."""
    if isinstance(text, str):
        text = [piece for piece in text.split(",") if piece.strip()]
    return [_float(piece) for piece in text]


def _ints(text):
    return [int(piece) for piece in text.split(",") if piece.strip()]


_ALPHA_PARAMETERS = ("c", "a", "inner_slope", "outer_slope", "knee")
NOISE_MAP_AUDIT_SAMPLES = 64

# Every key of every section: (parser, default).  A default of None means
# the key is absent.
_KEYS = {
    "mesh": {"dimension": (int, 1), "cells": (_ints, [64]), "lengths": (_floats, [1.0])},
    "time": {"horizon": (_float, 1.0), "steps": (int, None), "dt_levels": (_floats, None)},
    "initial": {"theta0": (str, "0"), "chi0": (str, "0")},
    "nonlinearity": {
        "kind": (str, "linear"),
        **dict.fromkeys(_ALPHA_PARAMETERS + ("lipschitz", "coercivity"), (_float, None)),
    },
    "noise": {
        "kind": (str, "additive"),
        "expression": (str, "0"),
        "expression_hat": (str, None),
        "map": (str, "affine"),
        "scale": (_float, 0.0),
        "offset": (str, None),
        "gain": (_float, 0.0),
        "lipschitz": (_float, None),
        "weight": (_float, 1.0),
        "picard_tolerance": (_float, PicardConfig.tolerance),
        "picard_max_iterations": (int, PicardConfig.max_iterations),
    },
    "monte_carlo": {"paths": (int, 64), "seed": (int, 0)},
    "tolerances": {"inner": (_float, DEFAULT_INNER_TOL), "newton": (_float, DEFAULT_NEWTON_TOL)},
    "study": {"kind": (str, "grid_difference"), "slope_threshold": (_float, 0.4)},
    "output": {"directory": (str, "out")},
}


@dataclass
class RunConfig:
    """Validated, materialized run configuration."""

    ops: object = field(repr=False)
    horizon: float
    steps: int | None
    dt_levels: list | None
    theta0: np.ndarray = field(repr=False)
    chi0: np.ndarray = field(repr=False)
    nonlinearity: object
    warnings: list
    noise_kind: str
    integrand: str | None
    integrand_hat: str | None
    noise_map: object
    picard: PicardConfig | None
    paths: int
    seed: int
    inner_tol: float
    newton_tol: float
    study_kind: str
    slope_threshold: float
    output_directory: str


def _read(parser, overrides):
    """Every key of ``_KEYS`` parsed, an override in place of the file's
    value; the violations; and the sections whose checks to skip, because
    a malformed value in them is a violation and reads as its default."""
    violations = []
    for section in parser.sections():
        if section not in _KEYS:
            violations.append(f"unknown section [{section}]")
            continue
        violations += [f"unknown key {key!r} in section [{section}]"
                       for key in parser[section] if key not in _KEYS[section]]
    value, malformed = {}, set()
    for section, keys in _KEYS.items():
        for key, (parse, default) in keys.items():
            try:
                raw = overrides.get((section, key))
                if raw is None:
                    raw = parser.get(section, key, fallback=None)
                value[section, key] = default if raw is None else parse(raw)
            except (ValueError, configparser.Error) as exc:
                violations.append(f"key {key!r} in section [{section}]: {exc}")
                value[section, key] = default
                malformed.add(section)
    return value, violations, malformed


def parse_config(path, *, paths=None, seed=None, dt_levels=None,
                 override_picard_condition=False):
    """Parse and validate a run configuration file.

    Keyword arguments override the corresponding file values (the CLI wires
    its flags through here): each, as text or as a value, replaces the
    file's value before the key is parsed and validated.
    """
    # A header line cannot hold a newline, so no section can be the
    # parser's default section, whose keys would reach every section:
    # "[DEFAULT]" is then one more unknown section.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="\n")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise InvalidConfigError(f"config parse error in {path!r}: {exc}") from exc
    value, violations, malformed = _read(parser, {
        ("monte_carlo", "paths"): paths, ("monte_carlo", "seed"): seed,
        ("time", "dt_levels"): dt_levels})

    # --- mesh ---
    ops = None
    if "mesh" not in malformed:
        try:
            ops = build_operators(value["mesh", "dimension"], value["mesh", "cells"],
                                  value["mesh", "lengths"])
        except ValueError as exc:
            violations.append(f"mesh: {exc}")

    # --- time ---
    horizon, steps = value["time", "horizon"], value["time", "steps"]
    dt_levels = value["time", "dt_levels"]
    if horizon <= 0:
        violations.append(f"time horizon must be positive, got {horizon}")
    if steps is not None and steps < 1:
        violations.append(f"steps must be >= 1, got {steps}")

    # --- nonlinearity ---
    nl = None
    if "nonlinearity" not in malformed:
        nl_kind = value["nonlinearity", "kind"]
        nl_params = {key: value["nonlinearity", key] for key in _ALPHA_PARAMETERS
                     if value["nonlinearity", key] is not None}
        if nl_kind == "linear" and not nl_params:
            nl_params = {"c": 1.0}
        lipschitz = value["nonlinearity", "lipschitz"]
        coercivity = value["nonlinearity", "coercivity"]
        try:
            nl = nonlin.from_name(nl_kind, **nl_params)
            if lipschitz is not None or coercivity is not None:
                nl = nonlin.make_nonlinearity(
                    nl.name, nl.alpha, nl.lipschitz if lipschitz is None else lipschitz,
                    nl.coercivity if coercivity is None else coercivity, nl.alpha_prime)
        except InvalidConfigError as exc:
            violations.append(f"nonlinearity: {exc}")

    # --- requested time steps vs stepper preconditions ---
    if "time" not in malformed and horizon > 0:
        requested_dts = [horizon / steps] if steps is not None and steps >= 1 else []
        for dt in dt_levels or []:
            requested_dts.append(dt)
            try:
                time_grid_of_step(horizon, dt)
            except InvalidConfigError as exc:
                violations.append(str(exc))
        for dt in requested_dts if nl is not None else ():
            try:
                check_step_preconditions(dt, nl)
            except InvalidConfigError as exc:
                violations.append(str(exc))

    def on_mesh(label, text, constant_in_time=True):
        """The finite values of expression ``text`` at t = 0 on the mesh, or
        None: without a mesh, or with one violation when it is unusable."""
        try:
            expr = parse_expression(text)
            if constant_in_time and expr.depends_on_time:
                violations.append(f"{label} must not depend on t: {text!r}")
            elif ops is not None:
                with np.errstate(all="ignore"):
                    values = expr(0.0, ops.coordinates)
                if np.all(np.isfinite(values)):
                    return values
                violations.append(f"{label} is not finite on the mesh: {text!r}")
        except ExpressionError as exc:
            violations.append(f"{label}: {exc}")
        return None

    # --- initial data ---
    initial = {label: on_mesh(f"initial data {label}", value["initial", label])
               for label in ("theta0", "chi0")}

    # --- noise ---
    noise_kind = value["noise", "kind"]
    integrand = integrand_hat = noise_map = picard = None
    if noise_kind == "additive":
        integrand, integrand_hat = value["noise", "expression"], value["noise", "expression_hat"]
        for label, text in (("expression", integrand), ("expression_hat", integrand_hat)):
            if text is not None:
                on_mesh(f"noise {label}", text, constant_in_time=False)
    elif noise_kind != "multiplicative":
        violations.append(f"noise kind must be additive or multiplicative, got {noise_kind!r}")
    elif "noise" not in malformed:
        map_kind, declared = value["noise", "map"], value["noise", "lipschitz"]
        try:
            if map_kind == "affine":
                offset = value["noise", "offset"]
                noise_map = affine_map(value["noise", "scale"],
                                       None if offset is None else on_mesh("noise offset", offset))
                if declared is not None:
                    noise_map = replace(noise_map, lipschitz=declared)
            elif map_kind == "damped":
                noise_map = damped_map(value["noise", "gain"], lipschitz=declared)
            else:
                raise InvalidConfigError(f"unknown multiplicative map {map_kind!r}")
            picard = PicardConfig(
                weight=value["noise", "weight"],
                tolerance=value["noise", "picard_tolerance"],
                max_iterations=value["noise", "picard_max_iterations"],
                override_condition=override_picard_condition,
            )
        except InvalidConfigError as exc:
            violations.append(f"noise: {exc}")
        if picard is not None and nl is not None and "time" not in malformed:
            try:
                _picard_threshold(nl, noise_map, horizon, picard.weight, override_picard_condition)
            except InvalidConfigError as exc:
                violations.append(str(exc))

    # --- monte carlo / tolerances / study ---
    paths, seed = value["monte_carlo", "paths"], value["monte_carlo", "seed"]
    if paths < 1:
        violations.append(f"paths must be >= 1, got {paths}")
    if not 0 <= seed < 2**64:
        violations.append(f"seed must be an unsigned 64-bit integer, got {seed}")
    inner_tol, newton_tol = value["tolerances", "inner"], value["tolerances", "newton"]
    if inner_tol <= 0 or newton_tol <= 0:
        violations.append("tolerances must be positive")
    study_kind = value["study", "kind"]
    if study_kind not in ("grid_difference", "self"):
        violations.append(f"study kind must be grid_difference or self, got {study_kind!r}")

    if violations:
        raise ConfigValidationError(violations)

    # Advisory sampled audits of the declared constants.  An affine map's
    # constant is exact; a pointwise map's is only declared.
    warnings = []
    if not nonlin.check_properties(nl, sample_range=10.0, samples=2000, seed=0).passed:
        warnings.append("declared nonlinearity constants failed the sampled conformance "
                        "check; contraction and stability bounds may not hold")
    if (noise_map is not None and noise_map.kind == "pointwise"
            and lipschitz_audit(noise_map, ops, NOISE_MAP_AUDIT_SAMPLES, seed=0)
            > noise_map.lipschitz):
        warnings.append("declared noise-map lipschitz constant failed the sampled audit; "
                        "the picard weight condition may not hold")

    return RunConfig(
        ops=ops, horizon=horizon, steps=steps, dt_levels=dt_levels or None,
        theta0=initial.get("theta0"), chi0=initial.get("chi0"),
        nonlinearity=nl, warnings=warnings, noise_kind=noise_kind,
        integrand=integrand, integrand_hat=integrand_hat, noise_map=noise_map, picard=picard,
        paths=paths, seed=seed, inner_tol=inner_tol, newton_tol=newton_tol,
        study_kind=study_kind, slope_threshold=value["study", "slope_threshold"],
        output_directory=value["output", "directory"],
    )
