"""Multiplicative noise via an outer fixed-point iteration on the integrand.

The multiplicative system is solved by repeatedly freezing the noise map
along the previous iterate and rerunning the additive solver on the same
Brownian path: iterate k supplies per-step integrand values
h_n = H(chi^(k)(t_n)) for n >= 1 (the value at step zero stays the zero
field, matching the additive convention that the integrand vanishes before
time zero, so a constant map reduces bit-for-bit to the additive solver).
Freezing at the left endpoint keeps every integrand value measurable at the
time it multiplies the increment.  It also means that step n of iterate
k + 1 reads iterate k only at t_n, and that iterates k and k + 1 agree at
nodes 0..k: both read the same integrand before step k.  So ``picard_solve``
runs iterate 1 on its own, and every later iterate k + 1 starts at step k
from copies of its predecessor's first k steps, level with or behind it.
The running iterates are rows of one path of the stepper's step driver
(``stepper._step_rows``), which moves them together, each from its own
step; before each step an iterate fills its integrand row from its
predecessor's chi.  An iterate starts only once the part of its
predecessor's weighted difference summed so far exceeds the tolerance, so
no iterate runs that the sequential iteration would not run.

Convergence is measured in an exponentially weighted space-time norm

    W(v)^2 = sum_{n=1..N} dt exp(-a t_n) (||v_n||^2 + ||grad v_n||^2),

which contracts with modulus 4 C a^{-1} C_H^2 (C the stability constant)
once the weight satisfies a > 4 C C_H^2; the iteration enforces that
condition unless explicitly overridden.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldShapeError, InvalidConfigError, NonConvergenceError, NumericalError
from .grids import h1_seminorm, l2_norm
from .noise import AdditiveIntegrand
from .stepper import (
    DEFAULT_INNER_TOL, DEFAULT_NEWTON_TOL, _check_initial_shapes, _Dense, _Row, _step_plan,
    _step_rows, run_additive,
)
from .theory import compute_stability_constant


@dataclass(frozen=True)
class MultiplicativeMap:
    """Nodewise noise map chi -> H(chi) with a declared Lipschitz constant.

    Its ``kind`` is derived: ``pointwise`` when it has a scalar function
    ``psi``, which it applies nodewise, and ``affine`` otherwise.  Affine
    maps are sigma * chi + offset and have exact constant |sigma|, which a
    declared constant may exceed but not undercut; pointwise maps must
    declare a constant that covers both the L2 and the H1 audits.
    """

    lipschitz: float
    scale: float = 0.0
    offset: np.ndarray | None = field(default=None, repr=False)
    psi: callable = None

    @property
    def kind(self):
        return "affine" if self.psi is None else "pointwise"

    def __post_init__(self):
        if not 0.0 <= self.lipschitz < math.inf:
            raise InvalidConfigError(
                f"Lipschitz constant must be finite and >= 0, got {self.lipschitz}")
        # |scale| is an affine map's exact constant; only a larger one is sound.
        if self.kind == "affine" and not self.lipschitz >= abs(self.scale):
            raise InvalidConfigError(
                f"declared lipschitz {self.lipschitz} is below the affine map's exact "
                f"constant |scale| = {abs(self.scale)}")


def affine_map(scale, offset=None):
    """H(chi) = scale * chi + offset with exact Lipschitz constant |scale|."""
    return MultiplicativeMap(lipschitz=abs(float(scale)), scale=float(scale),
                             offset=None if offset is None else np.asarray(offset, dtype=float))


def damped_map(gain, lipschitz=None):
    """H(chi) = gain * chi / (1 + |chi|) nodewise; derivative bounded by
    |gain|, which must be finite."""
    gain = float(gain)
    if not math.isfinite(gain):
        raise InvalidConfigError(f"damped gain must be finite, got {gain}")

    def psi(v):
        return gain * v / (1.0 + np.abs(v))

    return MultiplicativeMap(lipschitz=abs(gain) if lipschitz is None else float(lipschitz),
                             psi=psi)


def evaluate_H(noise_map, chi):
    """Apply the noise map to one nodal field (P,) or to a block (..., P)."""
    chi = np.asarray(chi, dtype=float)
    if noise_map.kind == "affine":
        out = noise_map.scale * chi
        if noise_map.offset is not None:
            if noise_map.offset.shape != chi.shape[-1:]:
                raise FieldShapeError(
                    f"offset shape {noise_map.offset.shape} != field shape {chi.shape[-1:]}"
                )
            out = out + noise_map.offset
        return out
    return noise_map.psi(chi)


def lipschitz_audit(noise_map, ops, samples, seed):
    """Sampled check that H moves fields by at most C_H in L2 and H1 seminorm.

    Returns the worst observed quotient over both norms, inf for a NaN one;
    exact (up to rounding) for affine maps, advisory for pointwise ones.
    The draws spread their amplitudes evenly in log scale from 1e-3 to 1e1:
    the quotients of a pointwise map depend on the size of the fields, and
    those of ``damped_map`` come near its gain only for small fields.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for amplitude in np.logspace(-3.0, 1.0, samples):
        u = amplitude * rng.standard_normal(ops.node_count)
        v = amplitude * rng.standard_normal(ops.node_count)
        image = evaluate_H(noise_map, u) - evaluate_H(noise_map, v)
        for norm in (l2_norm, h1_seminorm):
            denom = norm(u - v, ops)
            if denom > 0:
                quotient = norm(image, ops) / denom
                # max() would keep ``worst`` over a NaN quotient.
                worst = math.inf if math.isnan(quotient) else max(worst, quotient)
    return worst


@dataclass(frozen=True)
class PicardConfig:
    """Weight, tolerance, and cap of the outer fixed-point iteration."""

    weight: float
    tolerance: float = 1e-8
    max_iterations: int = 25
    override_condition: bool = False

    def __post_init__(self):
        if not 0.0 < self.weight < math.inf:
            raise InvalidConfigError(f"weight must be finite and positive, got {self.weight}")
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidConfigError(
                f"tolerance must be finite and positive, got {self.tolerance}")
        if not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise InvalidConfigError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations}")


def _norm_terms(fields, times, grid, ops, weight):
    """The terms dt exp(-a t) (||v||^2 + ||grad v||^2) of W(v)^2 for a block
    of fields at the time nodes ``times``."""
    return [grid.dt * np.exp(-weight * t) * (l2 ** 2 + h1 ** 2)
            for t, l2, h1 in zip(times, l2_norm(fields, ops), h1_seminorm(fields, ops))]


def weighted_norm(values, grid, ops, weight):
    """W(v) over a (N+1, P) array of nodal fields; node 0 carries no weight.
    Raises FieldShapeError for a record of any other shape.

    The terms are added left to right, so a running sum over nodes 1..n is
    bit for bit a prefix of this sum.
    """
    if np.shape(values) != (grid.steps + 1, ops.node_count):
        raise FieldShapeError(
            f"record has shape {np.shape(values)}, a run of {grid.steps} steps expects "
            f"({grid.steps + 1}, {ops.node_count})")
    total = 0.0
    for term in _norm_terms(values[1:], grid.nodes[1:], grid, ops, weight):
        total += term
    return float(np.sqrt(total))


def _picard_threshold(nl, noise_map, horizon, weight, override):
    """The weight threshold 4 * stability_constant * C_H^2 of the contraction.

    Raises InvalidConfigError unless ``weight`` exceeds it or ``override``.
    """
    constants = compute_stability_constant(nl.lipschitz, nl.coercivity, horizon)
    threshold = 4.0 * constants.stability_constant * noise_map.lipschitz**2
    if not override and not weight > threshold:
        raise InvalidConfigError(
            f"picard weight a = {weight} must exceed "
            f"4 * stability_constant * lipschitz(H)^2 = {threshold:.6g}"
        )
    return threshold


@dataclass
class PicardReport:
    """Per-iteration weighted differences of the outer fixed point, which
    has converged: ``picard_solve`` raises NonConvergenceError otherwise.

    ``wall_times[k]`` runs from the start of iterate k + 1 to the end of its
    weighted difference.  From iterate 2 on the iterates overlap, so the
    wall times no longer add up to the time of the run.  ``iterations`` and
    ``ratios`` are derived from ``w_differences``.
    """

    w_differences: list
    wall_times: list
    modulus: float

    @property
    def iterations(self):
        return len(self.w_differences)

    @property
    def ratios(self):
        """Each difference over the one before; 0.0 after a zero one."""
        w = self.w_differences
        return [b / a if a > 0 else 0.0 for a, b in zip(w, w[1:])]


# eq=False keeps the identity comparison of ``_Row``.
@dataclass(eq=False)
class _Iterate(_Row):
    """A Picard iterate while it runs: a row of one path with a dense
    record, whose integrand values it reads from its predecessor's chi
    ``previous``, with its number and the running sum of its weighted-norm
    terms."""

    number: int
    previous: np.ndarray = field(default=None, repr=False)
    started: float = field(default_factory=time.perf_counter)
    partial: float = 0.0


def _successor(it):
    """Iterate k + 1 at step k, from iterate k: the two agree at nodes
    0..k, so it starts from copies of k's fields there and of its integrand
    rows and step reports before step k.  Its weighted-norm terms at those
    nodes are 0.0, so its running sum starts at 0.0."""
    k, record = it.number, it.record
    theta, chi, values = (np.empty_like(a) for a in (record.theta, record.chi, it.values))
    theta[:, :k + 1], chi[:, :k + 1] = record.theta[:, :k + 1], record.chi[:, :k + 1]
    values[:k] = it.values[:k]
    dense = _Dense(theta, chi, [record.reports[0][:k]], record.grid, record.paths,
                   AdditiveIntegrand(grid=record.grid, values=values))
    return _Iterate(it.increments, values, dense, step=k, number=k + 1, previous=record.chi[0])


def picard_solve(theta0, chi0, noise_map, path, grid, ops, nl, config,
                 tol=DEFAULT_INNER_TOL, newton_tol=DEFAULT_NEWTON_TOL):
    """Iterate integrand-freezing until the weighted chi difference is small.

    Iterate k + 1 runs the additive solver on the same path with the
    integrand h_n = H(chi^(k)_n) frozen along iterate k (chi0 everywhere for
    k = 0), and W(chi^(k+1) - chi^(k)) measures its difference.  Requires the
    weight condition a > 4 * stability_constant * C_H^2 unless overridden.

    Iterate 1 is one ``run_additive`` call.  Step n of iterate k + 1 reads
    iterate k only at node n, so later iterates run staggered: every running
    iterate takes one step per call of the step driver on their common
    batch, each at its own step.  Iterates k and k + 1 agree at nodes 0..k,
    so iterate k + 1 inherits iterate k's first k steps and runs only steps
    k..N-1.  It starts once the square root of the running sum of iterate
    k's weighted-norm terms exceeds the tolerance: the terms are
    non-negative, so iterate k can no longer converge, and every iterate
    that runs is one the sequential iteration runs too.  The rows of a batch are independent,
    so the trajectory, reports and errors are bit for bit those of the
    sequential iteration: a NumericalError names the step and path of the
    lowest failing iterate, and no iterate past it runs on.  A failed step
    moves no iterate, so the step reruns without the failing iterate and
    its successors.
    """
    threshold = _picard_threshold(nl, noise_map, grid.horizon, config.weight,
                                  config.override_condition)
    modulus = threshold / config.weight
    theta0 = np.asarray(theta0, dtype=float)
    chi0 = np.asarray(chi0, dtype=float)
    _check_initial_shapes(ops, theta0=theta0, chi0=chi0)
    w_diffs = []
    wall_times = []

    def converged(diff, started):
        """Record the weighted difference of a finished iterate; True when
        it meets the tolerance."""
        wall_times.append(time.perf_counter() - started)
        w_diffs.append(diff)
        return diff <= config.tolerance

    def result(trajectory):
        return trajectory, PicardReport(w_diffs, wall_times, modulus)

    started = time.perf_counter()
    values = np.zeros((grid.steps, ops.node_count))
    values[1:] = evaluate_H(noise_map, chi0)
    integrand = AdditiveIntegrand(grid=grid, values=values)
    first = run_additive(
        theta0, chi0, integrand, path, grid, ops, nl, tol=tol, newton_tol=newton_tol
    )
    if converged(weighted_norm(first.chi - chi0, grid, ops, config.weight), started):
        return result(first)
    # The staggered iterates' steps; run_additive built iterate 1's.
    plan = _step_plan(grid, ops, nl, tol, newton_tol)
    running = []
    failure = None
    newest = 2  # iterates start in order, so only the newest has no successor
    if config.max_iterations > 1:
        dense = _Dense(first.theta[None], first.chi[None], [first.reports], grid, [path],
                       integrand)
        running.append(_successor(_Iterate(path.increments[None], values, dense,
                                           step=grid.steps, number=1)))
    while running:
        # Iterate k + 1 never passes iterate k, so the finished iterates are
        # the oldest; one that starts at step N has no step left to run.
        while running and running[0].step == grid.steps:
            it = running.pop(0)
            # The running sum is bit for bit the sum in weighted_norm.
            if converged(math.sqrt(it.partial), it.started):
                return result(it.record.results()[0])
        if not running:
            break
        images = evaluate_H(noise_map, np.array([it.previous[it.step] for it in running]))
        for it, image in zip(running, images):
            it.values[it.step] = image
        while running:
            try:
                chi = _step_rows(plan, running)
                break
            except NumericalError as exc:
                # Drop the failing iterate and its successors, which read
                # its chi; the earlier ones all have successors, so none
                # starts again.  The rows are independent, so rerunning the
                # step gives the others' bits.
                row = exc.row or 0
                failure = (type(exc)(exc.reason, residual=exc.residual, step=running[row].step,
                                     path_id=path.path_id, row=0, dt=grid.dt), exc)
                running = running[:row]
        if not running:
            break
        terms = _norm_terms(chi - np.array([it.previous[it.step] for it in running]),
                            grid.nodes[[it.step for it in running]], grid, ops,
                            config.weight)
        for it, term in zip(list(running), terms):
            it.partial += term
            if (it.number == newest < config.max_iterations
                    and math.sqrt(it.partial) > config.tolerance):
                newest += 1
                running.append(_successor(it))
    if failure is not None:
        error, cause = failure
        raise error from cause
    raise NonConvergenceError(
        f"picard iteration did not converge in {config.max_iterations} iterations",
        residual=w_diffs[-1],
    )
