"""The scheme against the independent oracle of ``perfbench/oracle.py``.

The oracle shares no code with barenheat: it assembles its own mesh, draws
its own increments and solves each step as one monolithic block system
instead of alternating the heat and Newton solves, so agreement checks the
alternation, the Newton start and the stopping rules from outside.  It is
imported read-only from the benchmark directory.
"""

import functools
import os
import sys

import numpy as np
import pytest

import barenheat as bh

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import oracle  # noqa: E402

# Agreement of whole fields, relative to their largest entry: the scheme
# stops its inner iteration at 1e-11 and Newton at 1e-12, the oracle solves
# each step to round-off.
FIELD_RTOL = 1e-9
MIRROR_TOL = 1e-10
SEED = 7
STEPS = 8
HORIZON = 0.5


def _cos_x(t, c):
    return np.cos(np.pi * c[:, 0])


def _cos_x_growing(t, c):
    return np.cos(np.pi * c[:, 0]) * (1.0 + t)


# Initial data and integrand, as program expressions and as the oracle's
# closed forms; all odd under x -> 1 - x, and varying in y in 2D.
DATA_1D = dict(
    cells=[8], lengths=[1.0], theta0="cos(pi*x)", chi0="cos(pi*x)", noise="cos(pi*x)*(1+t)",
    closed=(_cos_x, _cos_x, _cos_x_growing),
)
DATA_2D = dict(
    cells=[8, 8], lengths=[1.0, 1.0], theta0="cos(pi*x)*(2+cos(pi*y))",
    chi0="cos(pi*x)*cos(pi*y)", noise="cos(pi*x)*(1+cos(2*pi*y))*(1+t)",
    closed=(
        lambda t, c: np.cos(np.pi * c[:, 0]) * (2.0 + np.cos(np.pi * c[:, 1])),
        lambda t, c: np.cos(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1]),
        lambda t, c: (np.cos(np.pi * c[:, 0]) * (1.0 + np.cos(2.0 * np.pi * c[:, 1]))
                      * (1.0 + t)),
    ),
)
CASES = {
    "1d-linear": dict(DATA_1D, nl=bh.linear(1.0), alpha=oracle.Linear(1.0)),
    "1d-saturating": dict(DATA_1D, nl=bh.saturating(2.0), alpha=oracle.Saturating(2.0)),
    "2d-saturating": dict(DATA_2D, nl=bh.saturating(2.0), alpha=oracle.Saturating(2.0)),
}


def assert_close(got, want, rtol):
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= rtol * scale


@functools.lru_cache(maxsize=None)
def solve(name):
    """The scheme's and the oracle's trajectories of one case, path 0."""
    case = CASES[name]
    dimension = len(case["cells"])
    cells = case["cells"][0] if dimension == 1 else case["cells"]
    lengths = case["lengths"][0] if dimension == 1 else case["lengths"]
    ops = bh.build_operators(dimension, cells, lengths)
    grid = bh.build_time_grid(HORIZON, STEPS)
    path = bh.sample_path(grid, SEED, 0)
    traj = bh.run_additive(
        bh.evaluate_on_mesh(case["theta0"], ops), bh.evaluate_on_mesh(case["chi0"], ops),
        bh.discretize_integrand(case["noise"], grid, ops), path, grid, ops, case["nl"],
    )
    mesh = oracle.Mesh(case["cells"], case["lengths"])
    theta0, chi0, noise = case["closed"]
    h = oracle.step_averages(noise, STEPS, grid.dt, mesh.coords)
    dw = oracle.increments(SEED, 0, STEPS, grid.dt)
    assert np.array_equal(dw, path.increments)
    theta, chi, _ = oracle.run(mesh, case["alpha"], grid.dt, dw, theta0(0.0, mesh.coords),
                               chi0(0.0, mesh.coords), lambda n, chi_n: h[n])
    return mesh, traj, theta, chi


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_match_the_oracle(name):
    _, traj, theta, chi = solve(name)
    assert_close(traj.theta, theta, FIELD_RTOL)
    assert_close(traj.chi, chi, FIELD_RTOL)


def test_2d_fields_are_odd_in_x():
    mesh, traj, _, _ = solve("2d-saturating")
    for field in (traj.theta, traj.chi):
        worst = max(float(np.max(np.abs(mesh.mirror_x(row) + row))) for row in field)
        assert worst <= MIRROR_TOL * float(np.max(np.abs(field)))
