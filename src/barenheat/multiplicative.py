"""Multiplicative noise via an outer fixed-point iteration on the integrand.

The multiplicative system is solved by repeatedly freezing the noise map
along the previous iterate and rerunning the additive solver on the same
Brownian path: iterate k supplies per-step integrand values
h_n = H(chi^(k)(t_n)) for n >= 1 (the value at step zero stays the zero
field, matching the additive convention that the integrand vanishes before
time zero, so a constant map reduces bit-for-bit to the additive solver).
Freezing at the left endpoint keeps every integrand value measurable at the
time it multiplies the increment.

Convergence is measured in an exponentially weighted space-time norm

    W(v)^2 = sum_{n=1..N} dt exp(-a t_n) (||v_n||^2 + ||grad v_n||^2),

which contracts with modulus 4 C a^{-1} C_H^2 (C the stability constant)
once the weight satisfies a > 4 C C_H^2; the iteration enforces that
condition unless explicitly overridden.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeError, InvalidConfigError, NonConvergenceError
from .grids import h1_seminorm, l2_norm
from .noise import AdditiveIntegrand
from .stepper import run_additive
from .theory import compute_stability_constant


@dataclass(frozen=True)
class MultiplicativeMap:
    """Nodewise noise map chi -> H(chi) with a declared Lipschitz constant.

    ``affine`` maps are sigma * chi + offset and have exact constant
    |sigma|; ``pointwise`` maps apply a scalar function nodewise and must
    declare a constant that covers both the L2 and the H1 audits.
    """

    kind: str
    lipschitz: float
    scale: float = 0.0
    offset: np.ndarray | None = field(default=None, repr=False)
    psi: callable = None

    def __post_init__(self):
        if self.kind not in ("affine", "pointwise"):
            raise InvalidConfigError(f"unknown map kind {self.kind!r}")
        if self.lipschitz < 0:
            raise InvalidConfigError(f"Lipschitz constant must be >= 0, got {self.lipschitz}")
        if self.kind == "pointwise" and self.psi is None:
            raise InvalidConfigError("pointwise maps need a scalar function")


def affine_map(scale, offset=None):
    """H(chi) = scale * chi + offset with exact Lipschitz constant |scale|."""
    return MultiplicativeMap(kind="affine", lipschitz=abs(float(scale)), scale=float(scale),
                             offset=None if offset is None else np.asarray(offset, dtype=float))


def damped_map(gain, lipschitz=None):
    """H(chi) = gain * chi / (1 + |chi|) nodewise; derivative bounded by gain."""
    gain = float(gain)

    def psi(v):
        return gain * v / (1.0 + np.abs(v))

    return MultiplicativeMap(
        kind="pointwise",
        lipschitz=abs(gain) if lipschitz is None else float(lipschitz),
        psi=psi,
    )


def evaluate_H(noise_map, chi):
    """Apply the noise map to one nodal field."""
    chi = np.asarray(chi, dtype=float)
    if noise_map.kind == "affine":
        out = noise_map.scale * chi
        if noise_map.offset is not None:
            if noise_map.offset.shape != chi.shape:
                raise FieldShapeError(
                    f"offset shape {noise_map.offset.shape} != field shape {chi.shape}"
                )
            out = out + noise_map.offset
        return out
    return noise_map.psi(chi)


def lipschitz_audit(noise_map, ops, samples, seed, amplitude=1.0):
    """Sampled check that H moves fields by at most C_H in L2 and H1 seminorm.

    Returns the worst observed quotient over both norms; exact (up to
    rounding) for affine maps, advisory for pointwise ones.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        u = amplitude * rng.standard_normal(ops.node_count)
        v = amplitude * rng.standard_normal(ops.node_count)
        image = evaluate_H(noise_map, u) - evaluate_H(noise_map, v)
        for norm in (l2_norm, h1_seminorm):
            denom = norm(u - v, ops)
            if denom > 0:
                worst = max(worst, norm(image, ops) / denom)
    return worst


@dataclass(frozen=True)
class PicardConfig:
    """Weight, tolerance, and cap of the outer fixed-point iteration."""

    weight: float
    tolerance: float = 1e-8
    max_iterations: int = 25
    override_condition: bool = False

    def __post_init__(self):
        if not self.weight > 0:
            raise InvalidConfigError(f"weight must be positive, got {self.weight}")
        if not self.tolerance > 0:
            raise InvalidConfigError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise InvalidConfigError("need at least one iteration")


def weighted_norm(values, grid, ops, weight):
    """W(v) over a (N+1, P) array of nodal fields; node 0 carries no weight."""
    total = 0.0
    for n in range(1, grid.steps + 1):
        factor = grid.dt * np.exp(-weight * grid.nodes[n])
        total += factor * (l2_norm(values[n], ops) ** 2 + h1_seminorm(values[n], ops) ** 2)
    return float(np.sqrt(total))


@dataclass
class PicardReport:
    """Per-iteration weighted differences of the outer fixed point."""

    iterations: int
    w_differences: list
    ratios: list
    wall_times: list
    modulus: float
    converged: bool


def picard_solve(theta0, chi0, noise_map, path, grid, ops, nl, config,
                 tol=1e-11, newton_tol=1e-12):
    """Iterate integrand-freezing until the weighted chi difference is small.

    Each iteration evaluates the map on the previous chi iterate (constant
    in time at first, chi0 everywhere), reruns the additive solver on the
    same path, and measures W(chi_new - chi_old).  Requires the weight
    condition a > 4 * stability_constant * C_H^2 unless overridden.
    """
    constants = compute_stability_constant(nl.lipschitz, nl.coercivity, grid.horizon)
    threshold = 4.0 * constants.stability_constant * noise_map.lipschitz**2
    modulus = threshold / config.weight
    if not config.override_condition and not config.weight > threshold:
        raise InvalidConfigError(
            f"picard weight a = {config.weight} must exceed "
            f"4 * stability_constant * lipschitz(H)^2 = {threshold:.6g}"
        )
    theta0 = np.asarray(theta0, dtype=float)
    chi0 = np.asarray(chi0, dtype=float)
    iterate = np.tile(chi0, (grid.steps + 1, 1))
    w_diffs = []
    ratios = []
    wall_times = []
    trajectory = None
    for iteration in range(1, config.max_iterations + 1):
        started = time.perf_counter()
        values = np.zeros((grid.steps, ops.node_count))
        for n in range(1, grid.steps):
            values[n] = evaluate_H(noise_map, iterate[n])
        integrand = AdditiveIntegrand(grid=grid, values=values, expression=None)
        trajectory = run_additive(
            theta0, chi0, integrand, path, grid, ops, nl, tol=tol, newton_tol=newton_tol
        )
        diff = weighted_norm(trajectory.chi - iterate, grid, ops, config.weight)
        wall_times.append(time.perf_counter() - started)
        if w_diffs:
            ratios.append(diff / w_diffs[-1] if w_diffs[-1] > 0 else 0.0)
        w_diffs.append(diff)
        iterate = trajectory.chi
        if diff <= config.tolerance:
            report = PicardReport(
                iterations=iteration,
                w_differences=w_diffs,
                ratios=ratios,
                wall_times=wall_times,
                modulus=modulus,
                converged=True,
            )
            return trajectory, report
    raise NonConvergenceError(
        f"picard iteration did not converge in {config.max_iterations} iterations",
        residual=w_diffs[-1],
    )
