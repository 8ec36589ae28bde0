"""Properties of the scheme on drawn problems: a built-in nonlinearity, a 1D
mesh or a 2D mesh of at most 9 x 9 cells, and a time step that meets
``check_step_preconditions``.  Every run keeps the weak identities of
criterion 2, keeps every contraction factor under its bound (criterion 1)
and, on data odd under x -> 1 - x, stays odd; the reflection is the one of
the independent oracle in ``perfbench/oracle.py``, imported read-only.  A
run of linear or saturating alpha also matches the oracle's trajectory,
which the oracle computes from its own mesh, increments and closed forms of
the data; the oracle has no ramp alpha.
"""

import os
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import barenheat as bh
from barenheat.stepper import check_step_preconditions

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import oracle  # noqa: E402
from test_oracle import FIELD_RTOL  # noqa: E402

IDENTITY_TOL = 1e-10
FACTOR_SLACK = 1e-6
MIRROR_TOL = 1e-10

slopes = st.floats(0.2, 4.0)
# Pairs of a nonlinearity and the oracle's alpha of it, None for a ramp.
nonlinearities = st.one_of(
    slopes.map(lambda c: (bh.linear(c), oracle.Linear(c))),
    st.floats(0.0, 4.0).map(lambda a: (bh.saturating(a), oracle.Saturating(a))),
    st.builds(bh.ramp, slopes, slopes, st.floats(0.05, 2.0)).map(lambda nl: (nl, None)),
)
# (cells, lengths) as build_operators takes them; x always spans [0, 1].
meshes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 9), st.just(1.0)),
    st.tuples(st.just(2), st.tuples(st.integers(1, 9), st.integers(1, 9)),
              st.tuples(st.just(1.0), st.floats(0.5, 2.0))),
)
amplitudes = st.floats(-3.0, 3.0)


@settings(max_examples=20, deadline=None)
@given(alphas=nonlinearities, mesh=meshes, dt_fraction=st.floats(0.05, 0.9),
       steps=st.integers(1, 4), theta_scale=amplitudes, chi_scale=amplitudes,
       noise_scale=amplitudes, seed=st.integers(0, 2**32 - 1))
def test_identities_bound_and_mirror_symmetry(alphas, mesh, dt_fraction, steps, theta_scale,
                                              chi_scale, noise_scale, seed):
    nl, oracle_alpha = alphas
    dimension, cells, lengths = mesh
    ops = bh.build_operators(dimension, cells, lengths)
    dt = dt_fraction * min(1.0, nl.tilde_coercivity)
    check_step_preconditions(dt, nl)
    grid = bh.build_time_grid(steps * dt, steps)
    # Odd in x about x = 1/2, and varying in y in 2D.
    y_factor = "*(2+cos(pi*y))" if dimension == 2 else ""
    theta0 = bh.evaluate_on_mesh(f"{theta_scale!r}*cos(pi*x){y_factor}", ops)
    chi0 = bh.evaluate_on_mesh(f"{chi_scale!r}*cos(pi*x)", ops)
    integrand = bh.discretize_integrand(f"{noise_scale!r}*cos(pi*x){y_factor}*(1+t)", grid, ops)
    path = bh.sample_path(grid, seed, 0)
    traj = bh.run_additive(theta0, chi0, integrand, path, grid, ops, nl)

    conservation, balance = bh.weak_identity_defects(traj, ops, nl)
    assert max(conservation.max(), balance.max()) <= IDENTITY_TOL
    for report in traj.reports:
        assert all(factor <= report.factor_bound + FACTOR_SLACK
                   for factor in report.contraction_factors)
    oracle_mesh = oracle.Mesh([cells] if dimension == 1 else list(cells),
                              [lengths] if dimension == 1 else list(lengths))
    for field in (traj.theta, traj.chi):
        scale = max(float(np.abs(field).max()), 1.0)
        worst = max(float(np.abs(oracle_mesh.mirror_x(row) + row).max()) for row in field)
        assert worst <= MIRROR_TOL * scale
    if oracle_alpha is None:
        return

    def profile(c):
        y = 2.0 + np.cos(np.pi * c[:, 1]) if dimension == 2 else 1.0
        return np.cos(np.pi * c[:, 0]) * y

    h = oracle.step_averages(lambda t, c: noise_scale * profile(c) * (1.0 + t), steps, grid.dt,
                             oracle_mesh.coords)
    theta, chi, _ = oracle.run(oracle_mesh, oracle_alpha, grid.dt,
                               oracle.increments(seed, 0, steps, grid.dt),
                               theta_scale * profile(oracle_mesh.coords),
                               chi_scale * np.cos(np.pi * oracle_mesh.coords[:, 0]),
                               lambda n, chi_n: h[n])
    for got, want in ((traj.theta, theta), (traj.chi, chi)):
        scale = max(float(np.abs(want).max()), 1.0)
        assert float(np.abs(got - want).max()) <= FIELD_RTOL * scale
