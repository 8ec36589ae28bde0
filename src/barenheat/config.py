"""Run configuration files: flat sectioned key=value text.

A config is an INI-style file with the sections below; unknown keys are
rejected so typos fail loudly.  Validation gathers every violation and
raises one ConfigValidationError naming the broken conditions.

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
    c = 1.0               ; parameters of the chosen kind

    [noise]
    kind = additive       ; additive | multiplicative
    expression = cos(pi*x)*(1+t)
    expression_hat = cos(pi*x)   ; second integrand, stability runs only
    ; multiplicative:
    ; map = affine | damped
    ; scale = 0.05  offset = 0   (affine)  /  gain = 0.05  (damped)
    ; lipschitz = 0.05           (defaults to |scale| or |gain|)
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
from dataclasses import dataclass, field

import numpy as np

from . import nonlinearity as nonlin
from .errors import ConfigValidationError, ExpressionError, InvalidConfigError
from .expressions import parse_expression
from .grids import build_operators
from .multiplicative import MultiplicativeMap, PicardConfig, affine_map, damped_map
from .theory import compute_stability_constant

_KNOWN_KEYS = {
    "mesh": {"dimension", "cells", "lengths"},
    "time": {"horizon", "steps", "dt_levels"},
    "initial": {"theta0", "chi0"},
    "nonlinearity": {"kind", "c", "a", "inner_slope", "outer_slope", "knee",
                     "lipschitz", "coercivity"},
    "noise": {"kind", "expression", "expression_hat", "map", "scale", "offset",
              "gain", "lipschitz", "weight", "picard_tolerance",
              "picard_max_iterations"},
    "monte_carlo": {"paths", "seed"},
    "tolerances": {"inner", "newton"},
    "study": {"kind", "slope_threshold"},
    "output": {"directory"},
}

DEFAULT_PATHS = 64
DEFAULT_SEED = 0
DEFAULT_INNER_TOL = 1e-11
DEFAULT_NEWTON_TOL = 1e-12


@dataclass
class RunConfig:
    """Validated, materialized run configuration."""

    source: str
    dimension: int
    cells: tuple
    lengths: tuple
    ops: object = field(repr=False)
    horizon: float
    steps: int | None
    dt_levels: list | None
    theta0_expression: str
    chi0_expression: str
    theta0: np.ndarray = field(repr=False)
    chi0: np.ndarray = field(repr=False)
    nonlinearity: object
    nonlinearity_report: object
    noise_kind: str
    integrand: str | None
    integrand_hat: str | None
    noise_map: object
    offset_expression: str | None
    picard: PicardConfig | None
    paths: int
    seed: int
    inner_tol: float
    newton_tol: float
    study_kind: str
    slope_threshold: float
    output_directory: str


def _floats(text):
    return [float(piece.strip()) for piece in text.split(",") if piece.strip()]


def _ints(text):
    return [int(piece.strip()) for piece in text.split(",") if piece.strip()]


def parse_config(path, *, paths=None, seed=None, dt_levels=None,
                 override_picard_condition=False):
    """Parse and validate a run configuration file.

    Keyword arguments override the corresponding file values (the CLI wires
    its flags through here) before validation runs.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise InvalidConfigError(f"config parse error in {path!r}: {exc}") from exc

    violations = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            violations.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                violations.append(f"unknown key {key!r} in section [{section}]")

    def get(section, key, fallback=None):
        return parser.get(section, key, fallback=fallback)

    def typed(getter, section, key, fallback):
        """Fetch a typed value; a malformed literal becomes a violation."""
        try:
            return getter(section, key, fallback=fallback)
        except ValueError as exc:
            violations.append(f"key {key!r} in section [{section}]: {exc}")
            return fallback

    # --- mesh ---
    dimension = typed(parser.getint, "mesh", "dimension", 1)
    ops = None
    try:
        cells = tuple(_ints(get("mesh", "cells", "64")))
        lengths = tuple(_floats(get("mesh", "lengths", "1.0")))
        ops = build_operators(dimension, cells, lengths)
    except (InvalidConfigError, ValueError) as exc:
        cells, lengths = (), ()
        violations.append(f"mesh: {exc}")

    # --- time ---
    horizon = typed(parser.getfloat, "time", "horizon", 1.0)
    steps = typed(parser.getint, "time", "steps", None)
    if dt_levels is None and parser.has_option("time", "dt_levels"):
        try:
            dt_levels = _floats(get("time", "dt_levels"))
        except ValueError as exc:
            violations.append(f"time dt_levels: {exc}")
    if horizon <= 0:
        violations.append(f"time horizon must be positive, got {horizon}")
    if steps is not None and steps < 1:
        violations.append(f"steps must be >= 1, got {steps}")

    # --- nonlinearity ---
    nl_kind = get("nonlinearity", "kind", "linear")
    nl = None
    try:
        nl_params = {}
        if parser.has_section("nonlinearity"):
            for key in parser["nonlinearity"]:
                if key in ("kind", "lipschitz", "coercivity"):
                    continue
                nl_params[key] = parser.getfloat("nonlinearity", key)
        if nl_kind == "linear" and not nl_params:
            nl_params = {"c": 1.0}
        nl = nonlin.from_name(nl_kind, **nl_params)
        if parser.has_option("nonlinearity", "lipschitz") or parser.has_option(
            "nonlinearity", "coercivity"
        ):
            nl = nonlin.make_nonlinearity(
                name=nl.name,
                alpha=nl.alpha,
                alpha_prime=nl.alpha_prime,
                lipschitz=parser.getfloat("nonlinearity", "lipschitz", fallback=nl.lipschitz),
                coercivity=parser.getfloat("nonlinearity", "coercivity", fallback=nl.coercivity),
            )
    except (InvalidConfigError, ValueError) as exc:
        violations.append(f"nonlinearity: {exc}")

    # Advisory conformance check on the declared constants.
    nl_report = None
    if nl is not None:
        nl_report = nonlin.check_properties(nl, sample_range=10.0, samples=2000, seed=0)

    # --- requested time steps vs stepper preconditions ---
    requested_dts = []
    if steps is not None:
        requested_dts.append(horizon / steps)
    for dt in dt_levels or []:
        requested_dts.append(dt)
        if dt <= 0 or abs(round(horizon / dt) * dt - horizon) > 1e-9 * horizon:
            violations.append(f"dt level {dt} does not divide the horizon T = {horizon}")
    if nl is not None:
        for dt in requested_dts:
            if dt >= nl.tilde_coercivity:
                violations.append(
                    f"dt = {dt} violates the contraction requirement "
                    f"dt < 1 + coercivity(alpha) = {nl.tilde_coercivity}"
                )
            elif not dt < 1.0:
                violations.append(f"dt = {dt} violates the solvability requirement dt < 1")

    # --- initial data ---
    theta0_expression = get("initial", "theta0", "0")
    chi0_expression = get("initial", "chi0", "0")
    theta0 = chi0 = None
    for label, text in (("theta0", theta0_expression), ("chi0", chi0_expression)):
        try:
            expr = parse_expression(text)
            if expr.depends_on_time:
                violations.append(f"initial data {label} must not depend on t: {text!r}")
            elif ops is not None:
                data = expr(0.0, ops.coordinates)
                if label == "theta0":
                    theta0 = data
                else:
                    chi0 = data
        except ExpressionError as exc:
            violations.append(f"initial data {label}: {exc}")

    # --- noise ---
    noise_kind = get("noise", "kind", "additive")
    integrand = integrand_hat = None
    noise_map = None
    offset_expression = None
    picard = None
    if noise_kind == "additive":
        integrand = get("noise", "expression", "0")
        integrand_hat = get("noise", "expression_hat", None)
        for label, text in (("expression", integrand), ("expression_hat", integrand_hat)):
            if text is None:
                continue
            try:
                parse_expression(text)
            except ExpressionError as exc:
                violations.append(f"noise {label}: {exc}")
    elif noise_kind == "multiplicative":
        map_kind = get("noise", "map", "affine")
        try:
            declared = (
                parser.getfloat("noise", "lipschitz")
                if parser.has_option("noise", "lipschitz")
                else None
            )
            if map_kind == "affine":
                scale = parser.getfloat("noise", "scale", fallback=0.0)
                offset_expression = get("noise", "offset", None)
                offset = None
                if offset_expression is not None and ops is not None:
                    offset_expr = parse_expression(offset_expression)
                    if offset_expr.depends_on_time:
                        raise InvalidConfigError("affine offset must not depend on t")
                    offset = offset_expr(0.0, ops.coordinates)
                if declared is None:
                    noise_map = affine_map(scale, offset)
                else:
                    noise_map = MultiplicativeMap(
                        kind="affine", lipschitz=declared, scale=scale, offset=offset
                    )
            elif map_kind == "damped":
                gain = parser.getfloat("noise", "gain", fallback=0.0)
                noise_map = damped_map(gain, lipschitz=declared)
            else:
                raise InvalidConfigError(f"unknown multiplicative map {map_kind!r}")
            picard = PicardConfig(
                weight=parser.getfloat("noise", "weight", fallback=1.0),
                tolerance=parser.getfloat("noise", "picard_tolerance", fallback=1e-8),
                max_iterations=parser.getint("noise", "picard_max_iterations", fallback=25),
                override_condition=override_picard_condition,
            )
        except (InvalidConfigError, ExpressionError, ValueError) as exc:
            violations.append(f"noise: {exc}")
        if picard is not None and noise_map is not None and nl is not None:
            constants = compute_stability_constant(nl.lipschitz, nl.coercivity, horizon)
            threshold = 4.0 * constants.stability_constant * noise_map.lipschitz**2
            if not override_picard_condition and not picard.weight > threshold:
                violations.append(
                    f"picard weight a = {picard.weight} must exceed "
                    f"4 * stability_constant * lipschitz(H)^2 = {threshold:.6g}"
                )
    else:
        violations.append(f"noise kind must be additive or multiplicative, got {noise_kind!r}")

    # --- monte carlo / tolerances / study / output ---
    if paths is None:
        paths = typed(parser.getint, "monte_carlo", "paths", DEFAULT_PATHS)
    if seed is None:
        seed = typed(parser.getint, "monte_carlo", "seed", DEFAULT_SEED)
    if paths < 1:
        violations.append(f"paths must be >= 1, got {paths}")
    if not 0 <= seed < 2**64:
        violations.append(f"seed must be an unsigned 64-bit integer, got {seed}")
    inner_tol = typed(parser.getfloat, "tolerances", "inner", DEFAULT_INNER_TOL)
    newton_tol = typed(parser.getfloat, "tolerances", "newton", DEFAULT_NEWTON_TOL)
    if inner_tol <= 0 or newton_tol <= 0:
        violations.append("tolerances must be positive")
    study_kind = get("study", "kind", "grid_difference")
    if study_kind not in ("grid_difference", "self"):
        violations.append(f"study kind must be grid_difference or self, got {study_kind!r}")
    slope_threshold = typed(parser.getfloat, "study", "slope_threshold", 0.4)
    output_directory = get("output", "directory", "out")

    if violations:
        raise ConfigValidationError(violations)

    return RunConfig(
        source=str(path),
        dimension=dimension,
        cells=cells,
        lengths=lengths,
        ops=ops,
        horizon=horizon,
        steps=steps,
        dt_levels=list(dt_levels) if dt_levels else None,
        theta0_expression=theta0_expression,
        chi0_expression=chi0_expression,
        theta0=theta0,
        chi0=chi0,
        nonlinearity=nl,
        nonlinearity_report=nl_report,
        noise_kind=noise_kind,
        integrand=integrand,
        integrand_hat=integrand_hat,
        noise_map=noise_map,
        offset_expression=offset_expression,
        picard=picard,
        paths=paths,
        seed=seed,
        inner_tol=inner_tol,
        newton_tol=newton_tol,
        study_kind=study_kind,
        slope_threshold=slope_threshold,
        output_directory=output_directory,
    )
