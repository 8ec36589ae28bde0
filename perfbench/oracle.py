"""Independent oracle for the coupled per-step system of the scheme.

This module shares no code with ``barenheat``.  It assembles its own lumped
mass and 3-point (1D) or 5-point (2D) zero-flux stiffness from edge lists,
draws Brownian increments from the same counter-based stream the program
documents, and advances each time step by solving for (theta, u) in one
sparse block system instead of alternating two sub-problems:

    (M + dt K) theta + dt M u                = M theta_n
    -M theta + M alphatilde(u) + dt K u      = -K s,      s = chi_n + h_n dw_n

with chi_{n+1} = s + dt u.  For linear alpha the block matrix is constant,
so it is factored once per time grid; otherwise Newton runs on the whole
2P system.  Run ``python3 perfbench/oracle.py`` for its self-test against
the closed forms of the ODE reduction and of constant additive noise.
"""

import math

import numpy as np
import scipy.sparse as sp
from numpy.random import Generator, Philox
from scipy.sparse.linalg import splu

# Two-point Gauss abscissae sit at the interval midpoint +- dt / (2 sqrt 3).
_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)
_NEWTON_STEP_TOL = 1e-13
_NEWTON_MAX_ITERATIONS = 50


class Mesh:
    """Uniform nodes of an interval or rectangle, x varying slowest in 2D."""

    def __init__(self, cells, lengths):
        cells = [int(c) for c in cells]
        lengths = [float(v) for v in lengths]
        widths = [length / count for length, count in zip(lengths, cells)]
        axis_mass = []
        for count, width in zip(cells, widths):
            m = np.full(count + 1, width)
            m[0] = m[-1] = width / 2.0
            axis_mass.append(m)
        axes = [np.linspace(0.0, length, count + 1) for length, count in zip(lengths, cells)]
        if len(cells) == 1:
            self.mass = axis_mass[0]
            self.coords = axes[0].reshape(-1, 1)
            edges = [(i, i + 1, 1.0 / widths[0]) for i in range(cells[0])]
        else:
            nx, ny = cells[0] + 1, cells[1] + 1
            self.mass = np.outer(axis_mass[0], axis_mass[1]).ravel()
            xs, ys = np.meshgrid(axes[0], axes[1], indexing="ij")
            self.coords = np.column_stack([xs.ravel(), ys.ravel()])
            edges = []
            for i in range(nx):
                for j in range(ny):
                    node = i * ny + j
                    if i + 1 < nx:
                        edges.append((node, node + ny, axis_mass[1][j] / widths[0]))
                    if j + 1 < ny:
                        edges.append((node, node + 1, axis_mass[0][i] / widths[1]))
        self.axis_nodes = tuple(c + 1 for c in cells)
        self.size = self.mass.size
        a, b, w = (np.array(col) for col in zip(*edges))
        a = a.astype(int)
        b = b.astype(int)
        self.stiffness = sp.coo_matrix(
            (np.concatenate([w, w, -w, -w]),
             (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
            shape=(self.size, self.size),
        ).tocsr()

    def l2(self, rows):
        """Mass-lumped L2 norm of each row of a (n, P) array."""
        rows = np.atleast_2d(rows)
        return np.sqrt((rows * rows) @ self.mass)

    def h1semi(self, rows):
        """H1 seminorm sqrt(v . K v) of each row of a (n, P) array."""
        rows = np.atleast_2d(rows)
        quad = np.einsum("ij,ij->i", rows, (self.stiffness @ rows.T).T)
        return np.sqrt(np.maximum(quad, 0.0))

    def mirror_x(self, field):
        """The field reflected under x -> L - x."""
        return field.reshape(self.axis_nodes)[::-1].ravel()


def increments(seed, path_id, steps, dt):
    """Brownian increments of path ``path_id``: Philox keyed by (seed, path_id).

    The key is built as uint64 explicitly: a plain list holding a seed of
    2**63 or more would be converted through float64 and lose its low bits.
    """
    rng = Generator(Philox(key=np.array([seed, path_id], dtype=np.uint64)))
    return rng.standard_normal(steps) * math.sqrt(dt)


def coarsen(fine, factor):
    """Increments of the same Brownian motion sampled every ``factor`` steps."""
    walk = np.concatenate([[0.0], np.cumsum(fine)])
    return np.diff(walk[::factor])


def step_averages(function, steps, dt, coords):
    """Per-step time averages of f(t, coords) over [t_{n-1}, t_n]; h_0 = 0."""
    values = np.zeros((steps, coords.shape[0]))
    for n in range(1, steps):
        middle = (n - 0.5) * dt
        values[n] = 0.5 * (function(middle - _GAUSS_OFFSET * dt, coords)
                           + function(middle + _GAUSS_OFFSET * dt, coords))
    return values


class Linear:
    """alpha(x) = c x, so alphatilde(x) = (1 + c) x."""

    def __init__(self, slope):
        self.slope = float(slope)
        self.coercivity = self.slope

    def tilde(self, x):
        return (1.0 + self.slope) * x

    def tilde_prime(self, x):
        return np.full_like(x, 1.0 + self.slope)


class Saturating:
    """alpha(x) = x + a x / (1 + |x|), so alphatilde(x) = 2 x + a x / (1 + |x|)."""

    def __init__(self, gain):
        self.gain = float(gain)
        self.coercivity = 1.0

    def tilde(self, x):
        return 2.0 * x + self.gain * x / (1.0 + np.abs(x))

    def tilde_prime(self, x):
        return 2.0 + self.gain / (1.0 + np.abs(x)) ** 2


class CoupledStep:
    """One time step of the coupled system, solved monolithically."""

    def __init__(self, mesh, dt, alpha):
        self.mesh = mesh
        self.dt = dt
        self.alpha = alpha
        mass = sp.diags(mesh.mass)
        self.heat = (mass + dt * mesh.stiffness).tocsr()
        self.dt_stiffness = (dt * mesh.stiffness).tocsr()
        self.top = sp.hstack([self.heat, dt * mass])
        self.lu = None
        if isinstance(alpha, Linear):
            self.lu = splu(self._jacobian(np.zeros(mesh.size)))

    def _jacobian(self, u):
        lower = sp.diags(self.mesh.mass * self.alpha.tilde_prime(u)) + self.dt_stiffness
        return sp.vstack([self.top, sp.hstack([-sp.diags(self.mesh.mass), lower])]).tocsc()

    def _residual(self, x, theta_n, s):
        p = self.mesh.size
        theta, u = x[:p], x[p:]
        mass = self.mesh.mass
        heat = self.heat @ theta + self.dt * mass * u - mass * theta_n
        nonlinear = (mass * self.alpha.tilde(u) + self.dt_stiffness @ u - mass * theta
                     + self.mesh.stiffness @ s)
        return np.concatenate([heat, nonlinear])

    def __call__(self, theta_n, chi_n, noise):
        """Advance (theta_n, chi_n) given the noise field h_n dw_n."""
        p = self.mesh.size
        s = chi_n + noise
        if self.lu is not None:
            rhs = np.concatenate([self.mesh.mass * theta_n, -(self.mesh.stiffness @ s)])
            x = self.lu.solve(rhs)
        else:
            x = np.concatenate([theta_n, np.zeros(p)])
            for _ in range(_NEWTON_MAX_ITERATIONS):
                residual = self._residual(x, theta_n, s)
                delta = splu(self._jacobian(x[p:])).solve(-residual)
                x = x + delta
                if np.max(np.abs(delta)) <= _NEWTON_STEP_TOL * (1.0 + np.max(np.abs(x))):
                    break
            else:
                raise RuntimeError("oracle Newton did not converge")
        return x[:p], s + self.dt * x[p:]


def run(mesh, alpha, dt, dw, theta0, chi0, integrand):
    """Step a whole path; ``integrand(n, chi_n)`` gives h_n.

    Returns (theta, chi, B) as (N+1, P) arrays with B_n = sum_{k<n} dw_k h_k.
    """
    step = CoupledStep(mesh, dt, alpha)
    count = len(dw) + 1
    theta = np.empty((count, mesh.size))
    chi = np.empty((count, mesh.size))
    sums = np.zeros((count, mesh.size))
    theta[0], chi[0] = theta0, chi0
    for n, increment in enumerate(dw):
        noise = integrand(n, chi[n]) * increment
        theta[n + 1], chi[n + 1] = step(theta[n], chi[n], noise)
        sums[n + 1] = sums[n] + noise
    return theta, chi, sums


def self_test():
    """Check the oracle against two closed forms; returns a list of failures.

    ODE reduction: constant data without noise follows
    theta_{n+1} = theta_n / (1 + dt/2) to 1e-9 and meets exp(-T/2) within
    2 dt.  Constant additive noise: chi_N - B_N follows the same
    deterministic recursion on 32 paths to 1e-9.
    """
    failures = []
    mesh = Mesh([64], [1.0])
    ones, zeros = np.ones(mesh.size), np.zeros(mesh.size)
    alpha = Linear(1.0)
    for exponent in range(4, 9):
        steps = 2**exponent
        dt = 1.0 / steps
        dw = increments(1, 0, steps, dt)
        theta, _, _ = run(mesh, alpha, dt, dw, ones, zeros, lambda n, chi: zeros)
        reference = (1.0 + dt / 2.0) ** -np.arange(steps + 1)
        defect = float(np.max(np.abs(theta - reference[:, None])))
        if defect > 1e-9:
            failures.append(f"ODE reduction at N={steps}: recursion defect {defect:.3e}")
        if abs(theta[-1, 0] - math.exp(-0.5)) > 2.0 * dt:
            failures.append(f"ODE reduction at N={steps}: misses exp(-1/2) by more than 2 dt")
    steps, dt = 64, 1.0 / 64
    theta_ref = (1.0 + dt / 2.0) ** -np.arange(1, steps + 1)
    v_ref = np.concatenate([[0.0], np.cumsum(dt * theta_ref / 2.0)])
    for pid in range(32):
        dw = increments(11, pid, steps, dt)
        _, chi, sums = run(mesh, alpha, dt, dw, ones, zeros,
                           lambda n, chi: ones if n > 0 else zeros)
        deviation = float(np.max(np.abs(chi - sums - v_ref[:, None])))
        if deviation > 1e-9:
            failures.append(f"constant noise, path {pid}: deviation {deviation:.3e}")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("oracle self-test:", "FAIL" if problems else "PASS")
    raise SystemExit(1 if problems else 0)
