"""Forward simulation of heat flow with a dynamic boundary condition.

Builds the 1D domain, assembles the coupled bulk-surface system, drives it
with a boundary source, and checks the structural properties of the flow:
positivity, sup-norm contraction, energy decay at the coercivity rate, and
agreement with the dense variation-of-constants oracle.
"""

import numpy as np

from dynbc import (
    BoundarySignal,
    assemble,
    build_interval_mesh,
    duhamel_final,
    norm_X2,
    smallest_eigenpair,
    solve_forward,
    trajectory_norms,
)

mesh = build_interval_mesh(0.0, 1.0, 32)
sys_ = assemble(mesh, gamma=1.0, delta=0.0, beta=1.0)
print(f"mesh: {mesh.n_nodes} nodes, h = {mesh.h:.4f}")
# the coercivity constant: the smallest eigenvalue of the pencil (K, M)
print(f"coercivity constant c = {smallest_eigenpair(sys_)[0]:.6f}")

T, nt = 1.0, 128
rng = np.random.default_rng(1)

# free evolution of a nonnegative bump: stays nonnegative, sup norm shrinks
U0 = np.exp(-40 * (mesh.bulk_nodes[:, 0] - 0.3) ** 2)
free = solve_forward(sys_, U0, None, T, nt, theta=1.0)
norms = trajectory_norms(sys_, free)
print("\nfree evolution (implicit Euler):")
print(f"  min state over the run   = {free.states.min():.2e}  (>= -1e-14)")
sup = np.abs(free.states).max(axis=1)
print(f"  sup norm: {sup[0]:.4f} -> {sup[-1]:.4f}, monotone: {np.all(np.diff(sup) <= 1e-14)}")
rate = -np.log(norms[-1] / norms[0]) / T
print(f"  measured energy decay rate = {rate:.4f}")

# the same run against the dense propagator
ref = duhamel_final(sys_, U0, None, T, 1)
err = norm_X2(sys_, free.states[-1] - ref) / norm_X2(sys_, ref)
print(f"  final state vs dense oracle: rel error = {err:.2e}")

# now force the boundary: heat pumped in through the surface equation
g = BoundarySignal(np.ones((nt + 1, sys_.n_boundary)))
forced = solve_forward(sys_, np.zeros(sys_.ndof), g, T, nt, theta=0.5)
print("\nconstant boundary forcing from rest (Crank-Nicolson):")
print(f"  final M-norm = {norm_X2(sys_, forced.states[-1]):.4f}")
print(f"  boundary values at T: {forced.states[-1][sys_.boundary_nodes]}")
print(f"  interior midpoint at T: {forced.states[-1][sys_.ndof // 2]:.4f}")
