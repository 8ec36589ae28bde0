"""Run one additive-noise trajectory and watch the coupled fields evolve.

The system pairs a heat equation for theta with a monotone evolution for
chi, driven by one Brownian path through the integrand h(t, x).  This
script runs a single path on a 65-node mesh and prints the discrete norms
along the way, plus the two balance identities that every step must honor:
the mean of theta + chi moves exactly by the injected noise mass, and the
mean of alphatilde(u) tracks the mean of theta.
"""

import numpy as np

import barenheat as bh

ops = bh.build_operators(dimension=1, cells=64, lengths=1.0)
nl = bh.linear(1.0)
grid = bh.build_time_grid(horizon=1.0, steps=32)

theta0 = bh.evaluate_on_mesh("cos(pi*x)", ops)
chi0 = bh.evaluate_on_mesh("cos(pi*x)", ops)
integrand = bh.discretize_integrand("cos(pi*x)*(1+t)", grid, ops)
path = bh.sample_path(grid, seed=2024, path_id=0)

traj = bh.run_additive(theta0, chi0, integrand, path, grid, ops, nl)

print("step     t    |theta|_L2  |grad theta|  |chi|_L2  |grad chi|   inner")
for n in range(0, grid.steps + 1, 4):
    inner = traj.reports[n - 1].inner_iterations if n else 0
    print(
        f"{n:4d}  {grid.nodes[n]:5.3f}   {bh.l2_norm(traj.theta[n], ops):9.6f}"
        f"   {bh.h1_seminorm(traj.theta[n], ops):9.6f}"
        f"  {bh.l2_norm(traj.chi[n], ops):9.6f}  {bh.h1_seminorm(traj.chi[n], ops):9.6f}"
        f"   {inner:3d}"
    )

conservation, balance = bh.weak_identity_defects(traj, ops, nl)
print(f"\nworst conservation defect: {conservation.max():.3e}")
print(f"worst nonlinear balance defect: {balance.max():.3e}")
print("(both should sit far below 1e-10)")

rerun = bh.run_additive(theta0, chi0, integrand, path, grid, ops, nl)
print("bit-identical rerun:", np.array_equal(traj.chi, rerun.chi))
